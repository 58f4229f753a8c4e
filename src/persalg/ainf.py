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
from typing import Iterable, Optional, Sequence

from .filtered_complex import Gen
from .novikov import NOV_ONE, NovikovElement
from .novikov_complex import (
    CoverageError,
    FloerComplex,
    FloerMap,
    reach_gap_floer,
)
from .sparse import accumulate, add, add_into, expand, level, nonzero

Elem = dict  # {gen name: NovikovElement}


def elem_is_zero(a: Elem) -> bool:
    return not any(bool(v) for v in a.values())


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


class TabulatedAInfCategory:
    """The table ``mu``, ``gen_info`` and the index of generators by source
    are written only in ``__init__``; ``mu_gens`` hands out table entries
    without copying them."""

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
            ge = self.gen_info[e]
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
            src = self.gen_info[key[0]].source
            tgt = self.gen_info[key[-1]].target
            for h in val:
                info = self.gen_info[h]
                if (info.source, info.target) != (src, tgt):
                    raise ValueError(
                        f"mu{key} output {h} is not in hom({src},{tgt})")
            self.mu[key] = nonzero(val)
            self.coverage.add(key)
        for key in self.coverage:
            if any(g in self.unit_names for g in key):
                raise ValueError("unit tuples are structural; do not declare them covered")
            self._chain_objects(key)

    # -- basic structure ----------------------------------------------------

    def hom(self, X: str, Y: str) -> Optional[list[str]]:
        """Generator names of hom(X, Y); None when the pair is undeclared."""
        return self.homs.get((X, Y))

    def gen_elem(self, name: str) -> Elem:
        return {name: NOV_ONE}

    def unit(self, X: str) -> Elem:
        return self.gen_elem(self.units[X])

    def level_of(self, a: Elem) -> Optional[Fraction]:
        return level(a, lambda name: self.gen_info[name].level)

    def _chain_objects(self, key: tuple) -> list[str]:
        objs = []
        for a, b in zip(key, key[1:]):
            if self.gen_info[a].target != self.gen_info[b].source:
                raise ValueError(f"tuple {key} is not composable")
        objs.append(self.gen_info[key[0]].source)
        for g in key:
            objs.append(self.gen_info[g].target)
        return objs

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
        relation instances whose constituent terms are covered."""
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
        for tuples in self.composable(sorted(self.gen_info), self._by_source, max_arity):
            for key in tuples:
                n = len(key)
                try:
                    acc: Elem = {}
                    for i in range(n):
                        for j in range(i, n):
                            outer: Elem = {}
                            for h, c in self.mu_gens(key[i:j + 1]).items():
                                for h2, c2 in self.mu_gens(key[:i] + (h,) + key[j + 1:]).items():
                                    p = c * c2
                                    old = outer.get(h2)
                                    outer[h2] = p if old is None else old + p
                            accumulate(acc, outer)
                    if not acc:
                        rep.checked.append(key)
                    else:
                        rep.failures.append(("relation", key, acc))
                except CoverageError as exc:
                    rep.uncheckable.append((key, exc.args[0]))
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
        gens = [HomGen(r["name"], r["source"], r["target"], int(r["degree"]),
                       Fraction(r["level"])) for r in data["generators"]]
        mu = {}
        for rec in data.get("mu", []):
            mu[tuple(rec["inputs"])] = {
                t["gen"]: NovikovElement.parse(t["novikov"], t.get("precision"))
                for t in rec["output_terms"]
            }
        coverage = [tuple(k) for k in data.get("coverage_only", [])]
        zero_homs = [tuple(s.split("|")) for s in data.get("zero_homs", [])]
        return TabulatedAInfCategory(
            data["objects"], gens, data["units"], mu, coverage,
            int(data.get("modulus", 2)), int(data.get("half_dim", 1)),
            {o: Fraction(v) for o, v in data.get("shift_tags", {}).items()},
            zero_homs,
        )


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
    """mu^bar_{0|1|0}: all consecutive proper block contractions."""
    n = len(t)
    out: dict[tuple, NovikovElement] = {}
    for i in range(n):
        for j in range(i, n):
            if i == 0 and j == n - 1:
                continue  # the full contraction is the map mu, not d_bar
            for h, c in A.mu_gens(t[i:j + 1]).items():
                key = t[:i] + (h,) + t[j + 1:]
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


def unit_reach(A: TabulatedAInfCategory, B: Sequence[str], K: str, n_max: int,
               working_precision=None):
    """R([e_K], [mu^bar(K)]) at the length-n_max truncation."""
    barC, mu_map, tensors = bar_complex(A, B, K, n_max)
    kk = A.hom(K, K)
    e_idx = kk.index(A.units[K])
    w = {e_idx: NOV_ONE}
    return reach_gap_floer(w, 0, mu_map, working_precision)


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
    if any(bool(v) for v in dtot.values()):
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
    mu = A.mu_gens
    out: dict[tuple, NovikovElement] = {}
    for t, c in x.items():
        if not c:
            continue
        n = len(t)
        for i in range(n):
            head = t[:i]
            for j in range(i, n):
                for h, v in mu(t[i:j + 1]).items():
                    key = head + (h,) + t[j + 1:]
                    p = c * v
                    old = out.get(key)
                    out[key] = p if old is None else old + p
    return nonzero(out)


def star_product(A: TabulatedAInfCategory, x: dict[tuple, NovikovElement],
                 y: dict[tuple, NovikovElement]) -> dict[tuple, NovikovElement]:
    """x * y = sum over nonempty suffixes of x and prefixes of y contracted
    by mu, keeping the flanking factors."""
    mu = A.mu_gens
    out: dict[tuple, NovikovElement] = {}
    for tx, cx in x.items():
        for ty, cy in y.items():
            c = cx * cy
            if not c:
                continue
            n = len(ty)
            for k in range(len(tx)):  # keep tx[:k]
                head, rest = tx[:k], tx[k:]
                for j in range(1, n + 1):  # consume ty[:j]
                    for h, v in mu(rest + ty[:j]).items():
                        key = head + (h,) + ty[j:]
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
        self.q = {k: v for k, v in self.q.items() if not elem_is_zero(v)}
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
            for chain in _index_chains(i, j, n):
                factors = _q_entries(TC.q, chain)
                if factors is not None:
                    accumulate(acc, A.mu_elems(factors))
            if not elem_is_zero(acc):
                out[(i, j)] = acc
    return out


def maurer_cartan_check(TC: TwistedComplex) -> bool:
    return not maurer_cartan_defect(TC)


def _index_chains(i: int, j: int, n: int):
    """All strictly increasing chains i = c_0 < ... < c_k = j."""
    def rec(cur):
        last = cur[-1]
        if last == j:
            yield list(cur)
            return
        for nxt in range(last + 1, j + 1):
            cur.append(nxt)
            yield from rec(cur)
            cur.pop()
    yield from rec([i])


def _q_entries(q: dict[tuple[int, int], Elem], chain: list[int]) -> Optional[list[Elem]]:
    """The entries q[c_0, c_1], q[c_1, c_2], ... along ``chain``; None when
    one of them is absent (zero)."""
    out = []
    for key in zip(chain, chain[1:]):
        ent = q.get(key)
        if ent is None:
            return None
        out.append(ent)
    return out


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
        if not elem_is_zero(v):
            q[(i, nA + j)] = dict(v)
    return TwistedComplex(A, summands, q)


def object_twisted(A: TabulatedAInfCategory, X: str, shift=0, translation: int = 0
                   ) -> TwistedComplex:
    return TwistedComplex(A, [(X, Fraction(shift), int(translation))], {})


def unit_inclusion(A: TabulatedAInfCategory, X: str, TC: TwistedComplex,
                   slot: int) -> dict[tuple[int, int], Elem]:
    """The morphism X -> TC hitting summand ``slot`` by the strict unit."""
    return {(0, slot): A.unit(X)}


def twist(A: TabulatedAInfCategory, Y: str, X: TwistedComplex) -> TwistedComplex:
    """The twisting T_Y X = Cone(xi: Y (x) hom(Y, X) -> X).

    Requires mu_1 = 0 on the hom spaces hom(Y, O_i) (true in all tabulated
    models); the Y-block differential then comes from contractions of X's q.
    """
    nX = len(X.summands)
    y_summands: list[tuple[int, str]] = []  # (X summand index, generator)
    for i, (o, r, t) in enumerate(X.summands):
        hom = A.hom(Y, o)
        if hom is None:
            raise CoverageError((1, (Y, o)))
        for g in hom:
            if not elem_is_zero(A.mu_gens((g,))):
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
                for chain in _index_chains(i, j, nX):
                    if len(chain) > 1 and (qs := _q_entries(X.q, chain)) is not None:
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
            for chain in _index_chains(i, j, n):
                qs = _q_entries(TC.q, chain)
                if qs is None:
                    continue
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
        if fi is None or elem_is_zero(fi):
            continue
        for j in range(i, n):
            gj = g.get(j)
            if gj is None or elem_is_zero(gj):
                continue
            for chain in (_index_chains(i, j, n) if i < j else [[i]]):
                qs = _q_entries(TC.q, chain)
                if qs is None:
                    continue
                factors = [fi] + qs + [gj]
                accumulate(total, A.mu_elems(factors))
                add_into(tensors, dict(expand(factors)))
    return total, nonzero(tensors)


# -- lambda map homotopy -----------------------------------------------------------

def verify_lambda_homotopy(A: TabulatedAInfCategory, L: str, X: str,
                           l_max: int = 2, corrupt=None) -> AinfReport:
    """Check theta(lambda(c)) = c and (lambda theta + id)(phi) =
    (mu_1 H + H mu_1)(phi) for the Yoneda module M = hom(-, X), on all
    covered evaluation tuples with l <= l_max.

    ``corrupt`` optionally post-composes mu^M with a perturbation (negative
    control in tests)."""
    rep = AinfReport()

    def mu_M(xs: Sequence[Elem], m: Elem) -> Elem:
        """mu^M for the Yoneda module M = hom(-, X): module element last."""
        out = A.mu_elems(list(xs) + [m])
        if corrupt is not None:
            out = add(out, corrupt(xs, m))
        return out

    e_L = A.unit(L)

    # theta . lambda = id on module elements
    for m_name in A.hom(L, X) or []:
        m = A.gen_elem(m_name)
        try:
            got = mu_M([e_L], m)
        except CoverageError as exc:
            rep.uncheckable.append((("theta.lambda", m_name), exc.args[0]))
            continue
        if add(got, m):
            rep.failures.append(("theta.lambda", m_name, got))
        else:
            rep.checked.append(("theta.lambda", m_name))

    # homotopy identity evaluated on elementary pre-morphisms phi
    # phi = delta on (l0-tuple t0) |-> m0
    evals = _eval_tuples(A, L, l_max)
    basis = [(l0, xs + (y,), m0) for l0, xs, y in evals for m0 in A.hom(L, X) or []]
    for l0, t0, m0 in basis:
        phi = _ElementaryPremorphism(A, L, X, l0, t0, m0, mu_M)
        for l, xs_names, y_name in evals:
            try:
                lhs = phi.lam_theta(xs_names, y_name)
                lhs = add(lhs, phi.apply(xs_names, y_name))  # + id
                rhs = add(phi.mu1_H(xs_names, y_name),
                               phi.H_mu1(xs_names, y_name))
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


class _ElementaryPremorphism:
    """phi with a single nonzero component: phi_{l0|1}(t0) = m0."""

    def __init__(self, A, L, X, l0, t0, m0, mu_M):
        self.A = A
        self.L = L
        self.X = X
        self.l0 = l0
        self.t0 = tuple(t0)
        self.m0 = m0
        self.mu_M = mu_M

    def _component(self, names: tuple[str, ...]) -> Elem:
        if len(names) == self.l0 + 1 and names == self.t0:
            return self.A.gen_elem(self.m0)
        return {}

    def apply(self, xs: tuple[str, ...], y: str) -> Elem:
        return self._component(tuple(xs) + (y,))

    def theta(self) -> Elem:
        eL = self.A.units[self.L]
        return self._component((eL,))

    def lam_theta(self, xs: tuple[str, ...], y: str) -> Elem:
        c = self.theta()
        if elem_is_zero(c):
            return {}
        factors = [self.A.gen_elem(g) for g in xs] + [self.A.gen_elem(y), c]
        return self.A.mu_elems(factors)

    def H_apply(self, names: tuple[str, ...]) -> Elem:
        eL = self.A.units[self.L]
        return self._component(tuple(names) + (eL,))

    def mu1_H(self, xs: tuple[str, ...], y: str) -> Elem:
        A = self.A
        out: Elem = {}
        l = len(xs)
        # mu^M(x_1..x_i, H(x_{i+1}..y))
        for i in range(l + 1):
            inner = self.H_apply(xs[i:] + (y,))
            if not inner:
                continue
            accumulate(out, self.mu_M([A.gen_elem(g) for g in xs[:i]], inner))
        # H(x_1..x_i, mu^{Y(L)}(x_{i+1}..y)) : mu of the Yoneda module on L
        for i in range(l + 1):
            for h, c in A.mu_gens(xs[i:] + (y,)).items():
                accumulate(out, self.H_apply(xs[:i] + (h,)), c)
        # inner contractions
        for j in range(l):
            for k in range(1, l - j + 1):
                for h, c in A.mu_gens(xs[j:j + k]).items():
                    accumulate(out, self.H_apply(xs[:j] + (h,) + xs[j + k:] + (y,)), c)
        return out

    def H_mu1(self, xs: tuple[str, ...], y: str) -> Elem:
        # H(mu_1^mod phi) = (mu_1^mod phi)_{l+1|1}(xs, y, e_L); expand the
        # three sums of mu_1^mod applied to phi at inputs (xs, y, e_L)
        A = self.A
        full = xs + (y, A.units[self.L])
        n = len(full)
        out: Elem = {}
        # mu^M(x_1..x_i, phi(rest))
        for i in range(n):
            inner = self._component(full[i:])
            if not inner:
                continue
            accumulate(out, self.mu_M([A.gen_elem(g) for g in full[:i]], inner))
        # phi(x_1..x_i, mu^{Y(L)}(rest))
        for i in range(n):
            for h, c in A.mu_gens(full[i:]).items():
                accumulate(out, self._component(full[:i] + (h,)), c)
        # inner contractions strictly inside the x-part of (xs, y, e_L)
        for j in range(n - 1):
            for k in range(1, n - j):
                for h, c in A.mu_gens(full[j:j + k]).items():
                    accumulate(out, self._component(full[:j] + (h,) + full[j + k:]), c)
        return out


# -- Abouzaid diagram -----------------------------------------------------------

def verify_abouzaid_diagram(A: TabulatedAInfCategory, B: Sequence[str], K: str,
                            n_max: int, l_max: int = 1) -> AinfReport:
    """Chain-level commutativity of the split-generation square up to the
    homotopy H: for each bar tensor and evaluation tuple,
    T1 + T2 + T3 + T4 = 0 where the four terms are the explicit mu-sums of
    the diagram (lambda . mu^bar, mu_2(lambda-bar, xi), H_{d_bar}, mu_1 H)."""
    rep = AinfReport()
    mu = A.mu_gens
    evals = _eval_tuples(A, K, l_max)
    for t in bar_tensors(A, B, K, n_max):
        gamma1, interior, gamma2 = t[0], t[1:-1], t[-1]
        # mu(t) and d_bar(t) depend on t alone; an uncovered one is raised
        # afresh at its own term, so each report keeps its first gap
        mu_t, mu_t_gap = _covered(mu, t)
        d_t, d_t_gap = _covered(bar_differential, A, t)
        for l, xs, y in evals:
            try:
                total: Elem = {}
                xy = xs + (y,)
                # T1 = mu_{l+2}(xs, y, mu_{d+2}(t))
                if mu_t_gap is not None:
                    raise CoverageError(*mu_t_gap)
                for h, c in mu_t.items():
                    accumulate(total, mu(xy + (h,)), c)
                # T2 = sum_{j,i} mu(x_1..x_j, mu(x_{j+1}..y, gamma1, a_1..a_i),
                #                  a_{i+1}..a_d, gamma2)
                for j in range(l + 1):
                    for i in range(len(interior) + 1):
                        for h, c in mu(xy[j:] + (gamma1,) + interior[:i]).items():
                            accumulate(total, mu(xs[:j] + (h,) + interior[i:] + (gamma2,)), c)
                # T3 = H_{d_bar(t)}
                if d_t_gap is not None:
                    raise CoverageError(*d_t_gap)
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
                for j in range(l):
                    for k in range(1, l - j + 1):
                        for h, c in mu(xs[j:j + k]).items():
                            accumulate(total, mu(xs[:j] + (h,) + xy[j + k:] + t), c)
                if total:
                    rep.failures.append((t, xs, y, total))
                else:
                    rep.checked.append((t, xs, y))
            except CoverageError as exc:
                rep.uncheckable.append(((t, xs, y), exc.args[0]))
    return rep


def _covered(f, *args) -> tuple[Optional[dict], Optional[tuple]]:
    """(f(*args), None), or (None, the CoverageError's args) when uncovered."""
    try:
        return f(*args), None
    except CoverageError as exc:
        return None, exc.args


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
