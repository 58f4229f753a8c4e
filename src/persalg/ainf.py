"""Tabulated filtered A-infinity categories with strict units.

A category is a finite object set with declared hom spaces (lists of named
generators with degree and action level), a sparse table of mu_d values on
generator tuples, and an explicit coverage set.  Units are structural: mu_2
with a unit input is the identity, higher mu with a unit input vanish, and
unit-containing tuples are never stored.  Looking up an uncovered tuple
raises ``CoverageError`` -- nothing is silently assumed to vanish, except
evaluation into a hom space that is *declared* zero.

Elements of hom spaces are dicts {generator name: NovikovElement}.

The module also provides the bar bimodule truncations F^N B(K,K) with the
contraction map mu, the unit-reach gap, the star product and contracting
homotopy on Cone(mu), filtered twisted complexes (Maurer-Cartan check,
lambda-cones, twistings), the lambda-map homotopy verification, and the
Abouzaid-diagram verification.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Iterator, Optional, Sequence

from . import jsonread
from .filtered_complex import Gen
from .novikov import NOV_ONE, NovikovElement
from .novikov_complex import (
    CoverageError,
    FloerComplex,
    FloerMap,
    reach_gap_floer,
)
from .sparse import accumulate, add, add_into, expand, is_zero, level, nonzero

Elem = dict  # {gen name: NovikovElement}


@dataclass(frozen=True)
class HomGen:
    name: str
    source: str
    target: str
    degree: int
    level: Fraction

    def __post_init__(self):
        object.__setattr__(self, "level", Fraction(self.level))


@dataclass
class AinfReport:
    checked: list = field(default_factory=list)
    uncheckable: list = field(default_factory=list)
    failures: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


class _Gap:
    """A ``CoverageError`` held as a value, ``arg`` being its ``args[0]``;
    never a dict, so it cannot be taken for an Elem."""

    __slots__ = ("arg",)

    def __init__(self, arg):
        self.arg = arg


def _held(f, *args):
    """f(*args), or the _Gap of the CoverageError it raises."""
    try:
        return f(*args)
    except CoverageError as exc:
        return _Gap(exc.args[0])


class TabulatedAInfCategory:
    """The table ``mu``, ``gen_info`` and the index of generators by source
    are written only in ``__init__``; ``mu_gens`` hands out table entries
    without copying them.  That makes ``_terms`` valid: it keeps, filled on
    first use, the contraction terms of each tensor t of ``cone_differential``
    (key t, a tuple of names) and each pair (tx, ty) of ``star_product`` (key
    (tx, ty), a tuple of two tuples), one entry per distinct input; an input
    whose evaluation raises ``CoverageError`` keeps nothing."""

    def __init__(self, objects: Sequence[str], gens: Sequence[HomGen],
                 units: dict[str, str], mu: dict[tuple, Elem],
                 coverage: Iterable[tuple] = (), grading_modulus: int = 2,
                 half_dim: int = 1, shift_tags: Optional[dict[str, Fraction]] = None,
                 declared_zero_homs: Iterable[tuple[str, str]] = ()):
        self.objects = list(objects)
        self.modulus = int(grading_modulus)
        self.half_dim = int(half_dim)
        self.shift_tags = {o: Fraction(shift_tags.get(o, 0)) if shift_tags else Fraction(0)
                           for o in self.objects}
        self.gen_info: dict[str, HomGen] = {}
        self.homs: dict[tuple[str, str], list[str]] = {}
        self._by_source: dict[str, list[str]] = {}  # generator names by source
        for g in gens:
            if g.name in self.gen_info:
                raise ValueError(f"duplicate generator name {g.name}")
            self.gen_info[g.name] = g
            self.homs.setdefault((g.source, g.target), []).append(g.name)
            self._by_source.setdefault(g.source, []).append(g.name)
        for pair in declared_zero_homs:
            self.homs.setdefault(tuple(pair), [])
        self.units = dict(units)
        for X, e in self.units.items():
            ge = self._known(e)
            if ge.source != X or ge.target != X or ge.level != 0:
                raise ValueError(f"unit {e} of {X} must live in hom({X},{X}) at level 0")
        self.unit_names = set(self.units.values())
        self.mu: dict[tuple, Elem] = {}
        self.coverage: set[tuple] = set()
        for key in coverage:
            self.coverage.add(tuple(key))
        for key, val in mu.items():
            key = tuple(key)
            if any(g in self.unit_names for g in key):
                raise ValueError("unit tuples are structural; do not tabulate them")
            if not key:
                raise ValueError("a mu record needs at least one input")
            src = self._known(key[0]).source
            tgt = self._known(key[-1]).target
            for h in val:
                info = self._known(h)
                if (info.source, info.target) != (src, tgt):
                    raise ValueError(
                        f"mu{key} output {h} is not in hom({src},{tgt})")
            self.mu[key] = nonzero(val)
            self.coverage.add(key)
        for key in self.coverage:
            if any(g in self.unit_names for g in key):
                raise ValueError("unit tuples are structural; do not declare them covered")
            infos = [self._known(g) for g in key]
            if not infos or any(a.target != b.source for a, b in zip(infos, infos[1:])):
                raise ValueError(f"tuple {key} is not composable")
        self._terms: dict[tuple, tuple] = {}

    # -- basic structure ----------------------------------------------------

    def hom(self, X: str, Y: str) -> Optional[list[str]]:
        """Generator names of hom(X, Y); None when the pair is undeclared."""
        return self.homs.get((X, Y))

    def gen_elem(self, name: str) -> Elem:
        return {name: NOV_ONE}

    def unit(self, X: str) -> Elem:
        return self.gen_elem(self.units[X])

    def _known(self, name: str) -> HomGen:
        """The generator ``name``; a ValueError naming it when it is unknown."""
        info = self.gen_info.get(name)
        if info is None:
            raise ValueError(f"unknown generator {name}")
        return info

    def _known_objects(self, *names: str) -> None:
        """A ValueError naming the first of ``names`` that is not an object."""
        for X in names:
            if X not in self.objects:
                raise ValueError(f"unknown object {X}")

    # -- mu evaluation ------------------------------------------------------

    def mu_gens(self, key: tuple[str, ...]) -> Elem:
        """mu_d on a tuple of generators; CoverageError when untabulated.

        The result may be the table's own entry: it is shared and must not
        be mutated.  A table hit needs no further test, since ``__init__``
        rejects unit tuples, covers every tabulated key, and admits into a
        declared-zero hom only the empty value."""
        val = self.mu.get(key)
        if val is not None:
            return val
        if not self.unit_names.isdisjoint(key):
            if len(key) != 2:
                return {}
            # mu_2(x, e) = x, mu_2(e, x) = x and mu_2(e, e) = e
            a, b = key
            return {a: NOV_ONE} if b in self.unit_names else {b: NOV_ONE}
        src = self.gen_info[key[0]].source
        tgt = self.gen_info[key[-1]].target
        if self.homs.get((src, tgt)) == []:  # declared zero
            return {}
        if key in self.coverage:
            return {}
        raise CoverageError((len(key), key))

    def mu_elems(self, factors: Sequence[Elem]) -> Elem:
        """Multilinear extension of mu_d to elements."""
        if all(len(f) == 1 for f in factors):
            # one generator tuple: one lookup, scaled by the coefficients
            # that are not 1
            names, coeff = [], None
            for f in factors:
                (g, c), = f.items()
                names.append(g)
                if c is not NOV_ONE:
                    coeff = c if coeff is None else coeff * c
            if coeff is None:
                return dict(self.mu_gens(tuple(names)))
            if not coeff:
                return {}
            return {h: p for h, v in self.mu_gens(tuple(names)).items() if (p := coeff * v)}
        out: Elem = {}
        for names, coeff in expand(factors):
            add_into(out, self.mu_gens(names), coeff)
        return nonzero(out)

    # -- verification -------------------------------------------------------

    def verify(self, max_arity: int = 4) -> AinfReport:
        """Check filtration/degree of the stored table and all A-infinity
        relation instances of arity 1..max_arity (max_arity >= 1) whose
        constituent terms are covered.

        The relation of a key is the sum over blocks key[i:j] of
        mu(key[:i] + mu(key[i:j]) + key[j:]), with the blocks that vanish
        by the strict-unit rule skipped.  Terms are summed within a block by
        rule K and blocks are accumulated by rule D (see ``sparse``).  The
        lookups run in the order i, then j, then the inner block, then the
        outer tuple of each of its terms in turn; the first uncovered one
        ends the key, which is reported uncheckable with that
        ``CoverageError``'s argument.  Each call looks every distinct tuple
        up once, in a table it drops on return.  The block walk is written
        out here rather than taken from ``contractions``, whose lookups
        raise instead of returning gaps: a shared (i, j) generator made
        ``verify(4)`` a fifth slower."""
        if max_arity < 1:
            raise ValueError(f"max_arity must be >= 1, got {max_arity}")
        rep = AinfReport()
        for key, val in self.mu.items():
            total_level = sum(self.gen_info[g].level for g in key)
            total_deg = sum(self.gen_info[g].degree for g in key)
            for h, c in val.items():
                out_level = self.gen_info[h].level - c.valuation
                if out_level > total_level:
                    rep.failures.append(("filtration", key, h))
                if self.modulus and (self.gen_info[h].degree - (total_deg + 2 - len(key))) % self.modulus:
                    rep.failures.append(("degree", key, h))
        units = self.unit_names
        outcomes: dict[tuple, object] = {}  # tuple -> its mu_gens value or _Gap

        def mu(t):
            v = outcomes.get(t)
            if v is None:
                v = outcomes[t] = _held(self.mu_gens, t)
            return v

        def relation(key):
            """The relation sum of ``key``, or the _Gap of its first gap."""
            n, acc = len(key), {}
            for i in range(n):
                head, held = key[:i], False
                for j in range(i + 1, n + 1):
                    # the strict-unit rule, as in ``contractions``
                    held = held or key[j - 1] in units
                    if held and j - i != 2:
                        if j - i > 2:
                            break
                        continue
                    inner = mu(key[i:j])
                    if inner.__class__ is _Gap:
                        return inner
                    if not inner:
                        continue
                    tail, outer = key[j:], {}
                    for h, c in inner.items():
                        val = mu(head + (h,) + tail)
                        if val.__class__ is _Gap:
                            return val
                        for h2, c2 in val.items():
                            p = c * c2
                            old = outer.get(h2)
                            outer[h2] = p if old is None else old + p
                    if outer:
                        accumulate(acc, outer)
            return acc

        for tuples in self.composable(sorted(self.gen_info), self._by_source, max_arity):
            for key in tuples:
                acc = relation(key)
                if acc.__class__ is _Gap:
                    rep.uncheckable.append((key, acc.arg))
                elif acc:
                    rep.failures.append(("relation", key, acc))
                else:
                    rep.checked.append(key)
        return rep

    def composable(self, starts: Sequence[str], leaving: dict[str, Sequence[str]],
                   n: int) -> list[list[tuple[str, ...]]]:
        """Composable generator tuples of lengths 1..n, one list per length
        ([] when n < 1).  The 1-tuples are ``starts``; each next list extends
        every tuple of the last, in order, by ``leaving[X]`` in list order, X
        the target of its last generator (no extension when X is not a key)."""
        if n < 1:
            return []
        by_length = [[(g,) for g in starts]]
        for _ in range(n - 1):
            by_length.append([t + (g,) for t in by_length[-1]
                              for g in leaving.get(self.gen_info[t[-1]].target, ())])
        return by_length

    # -- serialization ------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "objects": self.objects,
            "modulus": self.modulus,
            "half_dim": self.half_dim,
            "shift_tags": {o: str(v) for o, v in self.shift_tags.items()},
            "generators": [
                {"name": g.name, "source": g.source, "target": g.target,
                 "degree": g.degree, "level": str(g.level)}
                for g in self.gen_info.values()
            ],
            "zero_homs": sorted(f"{a}|{b}" for (a, b), v in self.homs.items() if not v),
            "units": self.units,
            "mu": [
                {"order": len(key), "inputs": list(key),
                 "output_terms": [{"gen": h, "novikov": str(c), **c.precision_json()}
                                  for h, c in sorted(val.items())]}
                for key, val in sorted(self.mu.items())
            ],
            "coverage_only": [list(k) for k in sorted(self.coverage - set(self.mu))],
        }

    @staticmethod
    def from_json(data: dict) -> "TabulatedAInfCategory":
        gens = [HomGen(*(jsonread.string(r, k, p) for k in ("name", "source", "target")),
                       jsonread.integer(r, "degree", p), jsonread.rational(r, "level", p))
                for p, r in jsonread.records(data, "generators")]
        mu = {tuple(jsonread.strings(rec, "inputs", p)): {
                  jsonread.string(t, "gen", q): NovikovElement.parse(
                      jsonread.string(t, "novikov", q), jsonread.rational(t, "precision", q, None))
                  for q, t in jsonread.records(rec, "output_terms", p)}
              for p, rec in jsonread.records(data, "mu", default=[])}
        units, tags = jsonread.obj(data, "units"), jsonread.obj(data, "shift_tags", default={})
        coverage = jsonread.array(data, "coverage_only", default=[])
        return TabulatedAInfCategory(
            jsonread.strings(data, "objects"), gens,
            {X: jsonread.string(units, X, "units") for X in units}, mu,
            [tuple(jsonread.strings(coverage, k, "coverage_only")) for k in range(len(coverage))],
            jsonread.integer(data, "modulus", default=2),
            jsonread.integer(data, "half_dim", default=1),
            {o: jsonread.rational(tags, o, "shift_tags") for o in tags},
            [tuple(s.split("|")) for s in jsonread.strings(data, "zero_homs", default=[])],
        )


# -- block contractions -----------------------------------------------------------

def contractions(A: TabulatedAInfCategory, t: tuple[str, ...], whole: bool = True,
                 rows: Optional[int] = None, after: int = 0
                 ) -> Iterator[tuple[tuple[str, ...], NovikovElement]]:
    """(t[:i] + (h,) + t[j:], c) for each consecutive block t[i:j] and each
    term c h of A.mu_gens(t[i:j]), in the order i, then j, then mu's terms.
    Only blocks with i < ``rows`` (every i when None) and j > ``after`` are
    taken.  ``whole=False`` skips the block t itself, without evaluating mu
    on it.  Blocks are evaluated lazily, so a caller that stops at the first
    CoverageError sees the same one as a plain i/j loop.

    ``mu_gens``' strict-unit rule makes a block that holds a unit vanish,
    raising nothing, unless it has length 2.  Such a block is skipped
    unevaluated, and the first one of length 3 or more ends its row, since
    every longer block of the row holds the unit too.

    This is the one block walk of the bar differential (``whole=False``),
    the cone differential, the star product (the blocks of tx + ty that
    take a suffix of tx and a prefix of ty: ``rows = after = len(tx)``) and
    the Hochschild differential (the blocks wrapping through the module
    slot: ``rows=1`` on a rotation), of the inner sums of the Abouzaid
    check, and of the lambda check's per-call tables, which read it once
    per distinct module-differential input instead of once per (phi,
    evaluation tuple) pair; the prefix and suffix loops of both checks stay
    plain loops.  The cone differential and the star product keep their
    terms in ``A._terms``.  ``verify`` keeps its own walk over its per-call
    outcome table: routing it through a shared (i, j) generator made
    ``verify(4)`` a fifth slower."""
    units, n = A.unit_names, len(t)
    for i in range(n if rows is None else rows):
        head = t[:i]
        held, lo = False, i + 1
        if i < after:  # the blocks t[i:j], j <= after, are not taken; their units count
            held, lo = not units.isdisjoint(t[i:after]), after + 1
        for j in range(lo, n + 1 if whole or i else n):
            held = held or t[j - 1] in units
            if held and j - i != 2:
                if j - i > 2:
                    break
                continue
            tail = t[j:]
            for h, c in A.mu_gens(t[i:j]).items():
                yield head + (h,) + tail, c


# -- bar bimodule ---------------------------------------------------------------

def bar_tensors(A: TabulatedAInfCategory, B: Sequence[str], K: str, n_max: int
                ) -> list[tuple[str, ...]]:
    """All tensors gamma_1 (x) a_1 ... a_d (x) gamma_2 with interior objects
    from B and 0 <= d <= n_max, as tuples of generator names."""
    into_B = {X: [g for Y in B for g in A.hom(X, Y) or ()] for X in (K, *B)}
    return [t + (g2,) for tuples in A.composable(into_B[K], into_B, n_max + 1)
            for t in tuples for g2 in A.hom(A.gen_info[t[-1]].target, K) or ()]


def tensor_level(A: TabulatedAInfCategory, t: tuple[str, ...]) -> Fraction:
    return sum((A.gen_info[g].level for g in t), Fraction(0))


def tensor_degree(A: TabulatedAInfCategory, t: tuple[str, ...]) -> int:
    d = sum(A.gen_info[g].degree for g in t) + len(t)
    return d % A.modulus if A.modulus else d


def bar_differential(A: TabulatedAInfCategory, t: tuple[str, ...]
                     ) -> dict[tuple[str, ...], NovikovElement]:
    """mu^bar_{0|1|0}: all consecutive proper block contractions (the full
    contraction is the map mu, not d_bar)."""
    out: dict[tuple, NovikovElement] = {}
    for key, c in contractions(A, t, whole=False):
        old = out.get(key)
        out[key] = c if old is None else old + c
    return nonzero(out)


def tensor_complex(A: TabulatedAInfCategory, tensors: Sequence[tuple[str, ...]],
                   degree, d) -> FloerComplex:
    """The Floer complex with one generator per tensor t, of degree
    ``degree(A, t)`` and level ``tensor_level(A, t)``, and differential
    ``d(A, t)`` ({tensor: coefficient}, keys among ``tensors``)."""
    index = {t: i for i, t in enumerate(tensors)}
    gens = [Gen("(" + ")(".join(t) + ")", degree(A, t), tensor_level(A, t))
            for t in tensors]
    diff: dict[int, dict[int, NovikovElement]] = {}
    for i, t in enumerate(tensors):
        row: dict[int, NovikovElement] = {}
        for key, c in d(A, t).items():
            j = index.get(key)
            if j is None:
                raise AssertionError(f"the differential leaves the truncation at {key}")
            row[j] = c
        diff[i] = row  # FloerComplex drops empty rows
    return FloerComplex(gens, diff, A.modulus, validate=False)


def bar_complex(A: TabulatedAInfCategory, B: Sequence[str], K: str, n_max: int
                ) -> tuple[FloerComplex, FloerMap, list[tuple[str, ...]]]:
    """The truncation F^{n_max} bar(K,K) as a Floer complex, the contraction
    map mu to hom(K,K), and the tensor list indexing the generators."""
    tensors = bar_tensors(A, B, K, n_max)
    barC = tensor_complex(A, tensors, tensor_degree, bar_differential)
    # target: hom(K, K) as a Floer complex with differential mu_1
    kk = A.hom(K, K)
    if kk is None:
        raise CoverageError((1, (K, K)))
    tgt_gens = [Gen(g, A.gen_info[g].degree, A.gen_info[g].level) for g in kk]
    tgt_idx = {g: i for i, g in enumerate(kk)}
    # FloerComplex and FloerMap drop zero entries and empty rows themselves
    tgt_diff = {tgt_idx[g]: {tgt_idx[h]: c for h, c in A.mu_gens((g,)).items()}
                for g in kk}
    target = FloerComplex(tgt_gens, tgt_diff, A.modulus, validate=False)
    mat = {i: {tgt_idx[h]: c for h, c in A.mu_gens(t).items()}
           for i, t in enumerate(tensors)}
    mu_map = FloerMap(barC, target, mat, shift=0, validate=False)
    return barC, mu_map, tensors


def unit_reach(A: TabulatedAInfCategory, B: Sequence[str], K: str, n_max: int):
    """R([e_K], [mu^bar(K)]) at the length-n_max truncation."""
    barC, mu_map, tensors = bar_complex(A, B, K, n_max)
    kk = A.hom(K, K)
    e_idx = kk.index(A.units[K])
    w = {e_idx: NOV_ONE}
    return reach_gap_floer(w, 0, mu_map)


def verify_unit_witness(A: TabulatedAInfCategory, B: Sequence[str], K: str,
                        chain: dict[tuple[str, ...], NovikovElement]):
    """Check that ``chain`` is a d_bar cycle with mu(chain) = e_K and return
    its level (an upper bound for unit_reach)."""
    lv = level(chain, lambda t: tensor_level(A, t))
    dtot: dict[tuple, NovikovElement] = {}
    mu_tot: Elem = {}
    for t, c in chain.items():
        if c:
            add_into(dtot, bar_differential(A, t), c)
            add_into(mu_tot, A.mu_gens(t), c)
    if not is_zero(dtot):
        raise ValueError("witness chain is not a d_bar cycle")
    diff = add(mu_tot, A.unit(K))
    if diff:
        raise ValueError(f"mu(witness) != e_K (difference {diff})")
    return lv


# -- star product on Cone(mu) ----------------------------------------------------

def cone_differential(A: TabulatedAInfCategory, x: dict[tuple, NovikovElement]
                      ) -> dict[tuple, NovikovElement]:
    """Differential of Cone(mu): all consecutive block contractions, the full
    one landing in the length-1 part."""
    kept = A._terms
    out: dict[tuple, NovikovElement] = {}
    for t, c in x.items():
        if not c:
            continue
        terms = kept.get(t)
        if terms is None:
            terms = kept[t] = tuple(contractions(A, t))
        for key, v in terms:
            p = c * v
            old = out.get(key)
            out[key] = p if old is None else old + p
    return nonzero(out)


def star_product(A: TabulatedAInfCategory, x: dict[tuple, NovikovElement],
                 y: dict[tuple, NovikovElement]) -> dict[tuple, NovikovElement]:
    """x * y = sum over nonempty suffixes of x and prefixes of y contracted
    by mu, keeping the flanking factors."""
    kept = A._terms
    out: dict[tuple, NovikovElement] = {}
    for tx, cx in x.items():
        for ty, cy in y.items():
            c = cx * cy
            if not c:
                continue
            terms = kept.get((tx, ty))
            if terms is None:
                m = len(tx)
                terms = kept[tx, ty] = tuple(contractions(A, tx + ty, rows=m, after=m))
            for key, v in terms:
                p = c * v
                old = out.get(key)
                out[key] = p if old is None else old + p
    return nonzero(out)


def contracting_homotopy(A: TabulatedAInfCategory,
                         h_chain: dict[tuple, NovikovElement],
                         a_K: Elem):
    """H(x) = x * (h + a_K): contracts Cone(mu) when mu(h) = e_K + d a_K."""
    total = dict(h_chain)
    add_into(total, {(g,): c for g, c in a_K.items()})

    def H(x: dict[tuple, NovikovElement]) -> dict[tuple, NovikovElement]:
        return star_product(A, x, total)

    return H


# -- twisted complexes ------------------------------------------------------------

@dataclass
class TwistedComplex:
    category: TabulatedAInfCategory
    summands: list[tuple[str, Fraction, int]]  # (object, shift, translation)
    q: dict[tuple[int, int], Elem]  # strictly upper triangular, i < j

    def __post_init__(self):
        self.summands = [(o, Fraction(r), int(t)) for o, r, t in self.summands]
        self.q = {k: v for k, v in self.q.items() if not is_zero(v)}
        A = self.category
        for (i, j), val in self.q.items():
            if not i < j:
                raise ValueError("q must be strictly upper triangular")
            oi, ri, ti = self.summands[i]
            oj, rj, tj = self.summands[j]
            for g, c in val.items():
                info = A.gen_info[g]
                if (info.source, info.target) != (oi, oj):
                    raise ValueError(f"q entry {g} not in hom({oi},{oj})")
                if info.level - c.valuation > ri - rj:
                    raise ValueError("q entry above filtration level 0")
                if A.modulus and (info.degree + tj - ti - 1) % A.modulus:
                    raise ValueError("q entry not of degree 1")

    def __len__(self):
        return len(self.summands)


def maurer_cartan_defect(TC: TwistedComplex) -> dict[tuple[int, int], Elem]:
    """sum_d mu_d(q,...,q) entrywise; empty dict means MC holds."""
    A = TC.category
    n = len(TC.summands)
    out: dict[tuple[int, int], Elem] = {}
    for i in range(n):
        for j in range(i + 1, n):
            acc: Elem = {}
            for qs in _q_chains(TC.q, i, j):
                accumulate(acc, A.mu_elems(qs))
            if not is_zero(acc):
                out[(i, j)] = acc
    return out


def _q_chains(q: dict[tuple[int, int], Elem], i: int, j: int) -> Iterator[list[Elem]]:
    """The entries [q[c_0, c_1], ..., q[c_{k-1}, c_k]] along each chain
    i = c_0 < ... < c_k = j whose entries are all present (nonzero), in
    lexicographic order of the chains; [] once, for the empty chain, when
    i == j.  Only present entries are followed."""
    if i == j:
        yield []
        return
    for nxt in range(i + 1, j + 1):
        ent = q.get((i, nxt))
        if ent is not None:
            for rest in _q_chains(q, nxt, j):
                yield [ent] + rest


def twisted_cone(f: dict[tuple[int, int], Elem], source: TwistedComplex,
                 target: TwistedComplex, lam=0) -> TwistedComplex:
    """lambda-filtered mapping cone of a degree-0 closed morphism f of
    twisted complexes (f[(i,j)]: source summand i -> target summand j)."""
    lam = Fraction(lam)
    A = source.category
    nA = len(source.summands)
    summands = [(o, r + lam, t + 1) for (o, r, t) in source.summands]
    summands += list(target.summands)
    q: dict[tuple[int, int], Elem] = {}
    for (i, j), v in source.q.items():
        q[(i, j)] = dict(v)
    for (i, j), v in target.q.items():
        q[(nA + i, nA + j)] = dict(v)
    for (i, j), v in f.items():
        if not is_zero(v):
            q[(i, nA + j)] = dict(v)
    return TwistedComplex(A, summands, q)


def twist(A: TabulatedAInfCategory, Y: str, X: TwistedComplex) -> TwistedComplex:
    """The twisting T_Y X = Cone(xi: Y (x) hom(Y, X) -> X).

    Requires mu_1 = 0 on the hom spaces hom(Y, O_i) (true in all tabulated
    models); the Y-block differential then comes from contractions of X's q.
    """
    y_summands: list[tuple[int, str]] = []  # (X summand index, generator)
    for i, (o, r, t) in enumerate(X.summands):
        hom = A.hom(Y, o)
        if hom is None:
            raise CoverageError((1, (Y, o)))
        for g in hom:
            if not is_zero(A.mu_gens((g,))):
                raise ValueError("twist requires mu_1 = 0 on hom(Y, X summands)")
            y_summands.append((i, g))
    summands = []
    for i, g in y_summands:
        o, r, t = X.summands[i]
        info = A.gen_info[g]
        summands.append((Y, r + info.level, t + info.degree + 1))
    summands += list(X.summands)
    nY = len(y_summands)
    q: dict[tuple[int, int], Elem] = {}
    # Y-block: coefficients of the module differential mu(g, q-chains)
    for a, (i, g) in enumerate(y_summands):
        sums: dict[int, Elem] = {}  # X summand j -> sum over the q-chains i..j
        for b in range(a + 1, nY):
            j, g2 = y_summands[b]
            if j not in sums:
                acc = sums[j] = {}
                for qs in _q_chains(X.q, i, j):
                    if qs:  # the empty chain at i == j is not a q-chain
                        add_into(acc, A.mu_elems([A.gen_elem(g)] + qs))
            if coeff := sums[j].get(g2):
                q[(a, b)] = {A.units[Y]: coeff}
    # xi: diagonal inclusion of the generator
    for a, (i, g) in enumerate(y_summands):
        q[(a, nY + i)] = A.gen_elem(g)
    # X-block
    for (i, j), v in X.q.items():
        q[(nY + i, nY + j)] = dict(v)
    return TwistedComplex(A, summands, q)


def twisted_hom_complex(A: TabulatedAInfCategory, Q: str, TC: TwistedComplex
                        ) -> FloerComplex:
    """The chain complex hom(Q, TC) = Yoneda module of TC evaluated at Q,
    with the q-deformed differential mu(y, q-chains)."""
    gens = []
    index = {}
    for i, (o, r, t) in enumerate(TC.summands):
        hom = A.hom(Q, o)
        if hom is None:
            raise CoverageError((1, (Q, o)))
        for g in hom:
            index[(i, g)] = len(gens)
            info = A.gen_info[g]
            gens.append(Gen(f"{g}@{i}", info.degree + t, info.level + r))
    n = len(TC.summands)
    diff: dict[int, dict[int, NovikovElement]] = {}
    for (i, g), src in index.items():
        row: dict[int, NovikovElement] = {}
        # mu_1(g) within block i, then contractions along q-chains
        for h, c in A.mu_gens((g,)).items():
            tgt = index[(i, h)]
            old = row.get(tgt)
            row[tgt] = c if old is None else old + c
        for j in range(i + 1, n):
            for qs in _q_chains(TC.q, i, j):
                for h, c in A.mu_elems([A.gen_elem(g)] + qs).items():
                    tgt = index[(j, h)]
                    old = row.get(tgt)
                    row[tgt] = c if old is None else old + c
        row = nonzero(row)
        if row:
            diff[src] = row
    return FloerComplex(gens, diff, A.modulus, validate=False)


def extract_unit_tensors(A: TabulatedAInfCategory, K: str, TC: TwistedComplex,
                         f: dict[int, Elem], g: dict[int, Elem]
                         ) -> tuple[Elem, dict[tuple, NovikovElement]]:
    """mu_2^{FTw}(f, g) = sum mu_{2+k}(f_i, q..., g_j) and the bar tensors
    f_i (x) q ... (x) g_j realizing it (the h-extraction of the split-
    generation proof)."""
    n = len(TC.summands)
    total: Elem = {}
    tensors: dict[tuple, NovikovElement] = {}
    for i in range(n):
        fi = f.get(i)
        if fi is None or is_zero(fi):
            continue
        for j in range(i, n):
            gj = g.get(j)
            if gj is None or is_zero(gj):
                continue
            for qs in _q_chains(TC.q, i, j):
                factors = [fi] + qs + [gj]
                accumulate(total, A.mu_elems(factors))
                add_into(tensors, dict(expand(factors)))
    return total, nonzero(tensors)


# -- lambda map homotopy -----------------------------------------------------------

def verify_lambda_homotopy(A: TabulatedAInfCategory, L: str, X: str,
                           l_max: int = 2, corrupt=None) -> AinfReport:
    """Check theta(lambda(c)) = c and (lambda theta + id)(phi) =
    (mu_1 H + H mu_1)(phi) for the Yoneda module M = hom(-, X), on all
    covered evaluation tuples with l <= l_max.  A ValueError names L or X
    when it is not an object of A.

    phi runs over the elementary pre-morphisms (m0 at one evaluation tuple
    t0, zero elsewhere), and H = phi(., e_L).  The module differential
    mu_1^mod F on args is mu^M(args[:i], F(args[i:])), then
    F(args[:i] + mu(args[i:])), then F on the contractions inside
    args[:-1], each summed by rule D (see ``sparse``).  F is read only at
    the keys of the last two sums, and their mu values do not depend on F,
    so each distinct args is walked once per call: its table lists, for
    each key F is read at, the mu coefficients in walk order, or holds the
    _Gap of the walk's first ``CoverageError``.  A pair (phi, evaluation
    tuple) then makes the one mu^M lookup of the first sum (F is nonzero
    on at most one suffix of args), raises the table's gap, and accumulates
    only the coefficients listed under F's one support key; every skipped
    term added zero.  That keeps the lookups of each d_mod in the order of
    the walk it replaces, so a pair whose first sum and table both hit a
    gap still reports the first sum's.  The tables are dropped on return.

    ``corrupt`` optionally post-composes mu^M with a perturbation (negative
    control in tests)."""
    A._known_objects(L, X)
    rep = AinfReport()

    def mu_M(xs: Sequence[Elem], m: Elem) -> Elem:
        """mu^M for the Yoneda module M = hom(-, X): module element last."""
        out = A.mu_elems(list(xs) + [m])
        if corrupt is not None:
            out = add(out, corrupt(xs, m))
        return out

    e_L = A.units[L]
    tables: dict[tuple, object] = {}  # args -> {key: [c, ...]} or _Gap

    def reads(args: tuple[str, ...]) -> dict[tuple, list]:
        """The table of ``args``; raises the walk's first CoverageError."""
        table: dict[tuple, list] = {}
        for i in range(len(args)):
            for h, c in A.mu_gens(args[i:]).items():
                table.setdefault(args[:i] + (h,), []).append(c)
        for key, c in contractions(A, args[:-1]):
            table.setdefault(key + args[-1:], []).append(c)
        return table

    def d_mod(support: Optional[tuple], m: Elem, args: tuple[str, ...]) -> Elem:
        """(mu_1^mod F) on ``args`` for F = m at ``support`` and zero
        elsewhere (everywhere when None)."""
        out: Elem = {}
        if support and args[-len(support):] == support:
            xs = args[:len(args) - len(support)]
            accumulate(out, mu_M([A.gen_elem(g) for g in xs], m))
        table = tables.get(args)
        if table is None:
            table = tables[args] = _held(reads, args)
        if table.__class__ is _Gap:
            raise CoverageError(table.arg)
        for c in table.get(support, ()):
            accumulate(out, m, c)
        return out

    # theta . lambda = id on module elements
    for m_name in A.hom(L, X) or []:
        m = A.gen_elem(m_name)
        try:
            got = mu_M([A.gen_elem(e_L)], m)
        except CoverageError as exc:
            rep.uncheckable.append((("theta.lambda", m_name), exc.args[0]))
            continue
        if add(got, m):
            rep.failures.append(("theta.lambda", m_name, got))
        else:
            rep.checked.append(("theta.lambda", m_name))

    # homotopy identity evaluated on elementary pre-morphisms phi:
    # phi_{l0|1}(t0) = m0 and zero elsewhere; H = phi(., e_L)
    evals = _eval_tuples(A, L, l_max)
    basis = [(l0, xs + (y,), m0) for l0, xs, y in evals for m0 in A.hom(L, X) or []]
    for l0, t0, m0 in basis:
        m = A.gen_elem(m0)
        theta = m if t0 == (e_L,) else {}
        support_H = t0[:-1] if t0[-1] == e_L else None
        for l, xs_names, y_name in evals:
            xy = xs_names + (y_name,)
            try:
                # lambda(theta(phi)) + phi on (xs, y)
                lhs = A.mu_elems([A.gen_elem(g) for g in xy] + [theta]) if theta else {}
                lhs = add(lhs, m if xy == t0 else {})
                # mu_1 H + H mu_1, where (H mu_1 phi)(xs, y) = (mu_1 phi)(xs, y, e_L)
                rhs = add(d_mod(support_H, m, xy), d_mod(t0, m, xy + (e_L,)))
                if add(lhs, rhs):
                    rep.failures.append(("homotopy", (l0, t0, m0), (xs_names, y_name)))
                else:
                    rep.checked.append(("homotopy", (l0, t0, m0), (xs_names, y_name)))
            except CoverageError as exc:
                rep.uncheckable.append(((l0, t0, m0, xs_names, y_name), exc.args[0]))
    return rep


def _eval_tuples(A: TabulatedAInfCategory, L: str, l_max: int
                 ) -> list[tuple[int, tuple[str, ...], str]]:
    """(l, (x_1..x_l), y) for l <= l_max: the x's composable and y in
    hom(X_l, L) (in hom(X, L) for any object X when l = 0)."""
    if l_max < 0:
        return []
    out = [(0, (), y) for X in A.objects for y in A.hom(X, L) or []]
    for tuples in A.composable(sorted(A.gen_info), A._by_source, l_max):
        out += [(len(xs), xs, y) for xs in tuples
                for y in A.hom(A.gen_info[xs[-1]].target, L) or []]
    return out


# -- Abouzaid diagram -----------------------------------------------------------

def verify_abouzaid_diagram(A: TabulatedAInfCategory, B: Sequence[str], K: str,
                            n_max: int, l_max: int = 1) -> AinfReport:
    """Chain-level commutativity of the split-generation square up to the
    homotopy H: for each bar tensor and evaluation tuple,
    T1 + T2 + T3 + T4 = 0 where the four terms are the explicit mu-sums of
    the diagram (lambda . mu^bar, mu_2(lambda-bar, xi), H_{d_bar}, mu_1 H).
    A ValueError names the first of B and K that is not an object of A."""
    A._known_objects(*B, K)
    rep = AinfReport()
    mu = A.mu_gens
    evals = _eval_tuples(A, K, l_max)
    for t in bar_tensors(A, B, K, n_max):
        gamma1, interior, gamma2 = t[0], t[1:-1], t[-1]
        # mu(t) and d_bar(t) depend on t alone.  mu(t) is every tuple's first
        # lookup, so its gap is the first gap of each; a gap of d_bar(t) is
        # raised again at T3, so each report keeps its first gap
        mu_t = _held(mu, t)
        if mu_t.__class__ is _Gap:
            rep.uncheckable += [((t, xs, y), mu_t.arg) for _, xs, y in evals]
            continue
        d_t = _held(bar_differential, A, t)
        for l, xs, y in evals:
            try:
                total: Elem = {}
                xy = xs + (y,)
                # T1 = mu_{l+2}(xs, y, mu_{d+2}(t))
                for h, c in mu_t.items():
                    accumulate(total, mu(xy + (h,)), c)
                # T2 = sum_{j,i} mu(x_1..x_j, mu(x_{j+1}..y, gamma1, a_1..a_i),
                #                  a_{i+1}..a_d, gamma2)
                for j in range(l + 1):
                    for i in range(len(interior) + 1):
                        for h, c in mu(xy[j:] + (gamma1,) + interior[:i]).items():
                            accumulate(total, mu(xs[:j] + (h,) + interior[i:] + (gamma2,)), c)
                # T3 = H_{d_bar(t)}
                if d_t.__class__ is _Gap:
                    raise CoverageError(d_t.arg)
                for key, c in d_t.items():
                    accumulate(total, mu(xy + key), c)
                # T4 = mu_1^mod(H_t) expanded
                # (a) mu_{i+1}(x_1..x_i, mu_{l-i+d+3}(x_{i+1}..y, t))
                for i in range(l + 1):
                    for h, c in mu(xy[i:] + t).items():
                        accumulate(total, mu(xs[:i] + (h,)), c)
                # (b) mu(x_1..x_i, mu(x_{i+1}..y), t)  [Yoneda differential part]
                for i in range(l + 1):
                    for h, c in mu(xy[i:]).items():
                        accumulate(total, mu(xs[:i] + (h,) + t), c)
                # (c) inner contractions of the x-part
                for key, c in contractions(A, xs):
                    accumulate(total, mu(key + (y,) + t), c)
                if total:
                    rep.failures.append((t, xs, y, total))
                else:
                    rep.checked.append((t, xs, y))
            except CoverageError as exc:
                rep.uncheckable.append(((t, xs, y), exc.args[0]))
    return rep


# -- shifted category -------------------------------------------------------------

def shift_category(A: TabulatedAInfCategory, r) -> tuple[TabulatedAInfCategory, dict]:
    """The normalized r-shift: cross-object hom levels are raised by r.

    Returns the shifted category and the eta_r comparison data."""
    r = Fraction(r)
    if r < 0:
        raise ValueError("shift must be nonnegative")
    gens = []
    raised = []
    for g in A.gen_info.values():
        if g.source != g.target:
            gens.append(HomGen(g.name, g.source, g.target, g.degree, g.level + r))
            raised.append(g.name)
        else:
            gens.append(HomGen(g.name, g.source, g.target, g.degree, g.level))
    shifted = TabulatedAInfCategory(
        A.objects, gens, A.units,
        {k: dict(v) for k, v in A.mu.items()},
        set(A.coverage), A.modulus, A.half_dim, A.shift_tags,
        [(a, b) for (a, b), v in A.homs.items() if not v],
    )
    eta = {"shift": r, "raised": sorted(raised), "identity_on_objects": True}
    return shifted, eta
