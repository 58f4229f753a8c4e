"""Finite filtered chain complexes over Z2.

A complex stores named generators with integer degrees and exact rational
filtration levels, plus a strictly filtration-respecting differential given
as a sparse Z2 matrix.  Internally columns are bitmasks over the generator
list.  The key algorithms:

* ``_pairing`` -- the filtered Gaussian reduction: a new basis of pairs
  (a, b) with db = a and single cycles c, read by every call below;
* ``homology_barcode`` -- persistence barcode from the pivot pairing alone;
  ``barcode_by_rank_oracle`` computes it again from ranks alone;
* ``cone`` / ``internal_hom`` / ``truncate`` -- standard constructions;
* ``cone_length`` -- the exact count 2#B^{2eps} - dim H^inf together with a
  realizing sequence of weight-0 cone attachments, also read off the pairing;
* ``min_cone_decomposition`` -- brute-force minimal decomposition search
  used as the oracle for retract cone-length bounds;
* ``stability_reduce`` -- elimination of short pairs of a split differential
  d + D' where D' drops filtration by >= delta, in the pairing's basis;
* ``reach_gap`` -- the energy gap R(w, f) by level-wise linear algebra.

All GF(2) elimination (reduction, rank, kernel, solve) goes through
``persalg.gf2``.  Each of ``homology_barcode``, ``cone_length``, ``truncate``
and ``stability_reduce`` runs the one filtered reduction ``_pairing`` once
and compares gaps as integers.  Coordinates in the new basis come from
reducing against it in position coordinates; vectors are mapped back to the
generators only where they are read (truncate's section), and nothing is
kept on the complex.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Optional, Sequence

from . import gf2, jsonread
from .lattice import common_scale, over
from .persistence import (
    INF,
    Bar,
    Barcode,
    bar_count,
    interleaving_distance,
    retract_interleaving,
)


@dataclass(frozen=True)
class Gen:
    name: str
    degree: int
    level: Fraction

    def __post_init__(self):
        if not isinstance(self.level, Fraction):
            object.__setattr__(self, "level", Fraction(self.level))


def _bits(indices) -> int:
    if isinstance(indices, int):
        return indices
    v = 0
    for i in indices:
        v |= 1 << i
    return v


class FilteredComplex:
    """d is homological (degree -1) unless cohomological=True."""

    def __init__(self, generators: Sequence[Gen], differential: dict[int, Iterable[int]],
                 grading_modulus: int = 0, cohomological: bool = False, validate: bool = True):
        self.gens = tuple(generators)
        self.modulus = int(grading_modulus)
        self.cohomological = bool(cohomological)
        n = len(self.gens)
        self.dmat = [0] * n
        for i, rows in differential.items():
            self.dmat[i] = _bits(rows)
        if validate:
            self.validate()

    @property
    def d_degree(self) -> int:
        return 1 if self.cohomological else -1

    def dim(self) -> int:
        return len(self.gens)

    def degree_of(self, i: int) -> int:
        d = self.gens[i].degree
        return d % self.modulus if self.modulus else d

    def validate(self):
        n = len(self.gens)
        D = common_scale(g.level for g in self.gens)
        levels = [over(g.level, D) for g in self.gens]
        for i in range(n):
            for j in gf2.bits(self.dmat[i]):
                if levels[j] > levels[i]:
                    raise ValueError(
                        f"differential raises filtration: {self.gens[i].name} -> {self.gens[j].name}")
                if self.modulus:
                    if (self.gens[j].degree - self.gens[i].degree - self.d_degree) % self.modulus:
                        raise ValueError("differential has wrong degree")
                elif self.gens[j].degree != self.gens[i].degree + self.d_degree:
                    raise ValueError("differential has wrong degree")
        for i in range(n):
            if self.d_of(self.dmat[i]):
                raise ValueError(f"d^2 != 0 on generator {self.gens[i].name}")

    def d_of(self, vec: int) -> int:
        return gf2.apply(self.dmat, vec)

    # -- serialization -----------------------------------------------------

    def to_json(self) -> dict:
        return {
            "modulus": self.modulus,
            "cohomological": self.cohomological,
            "generators": [
                {"name": g.name, "degree": g.degree, "level": str(g.level)}
                for g in self.gens
            ],
            "differential": [
                {"from": self.gens[i].name, "to": self.gens[j].name}
                for i in range(len(self.gens))
                for j in gf2.bits(self.dmat[i])
            ],
        }

    @staticmethod
    def from_json(data: dict) -> "FilteredComplex":
        gens, edges = generators_and_edges(data)
        diff: dict[int, list[int]] = {}
        for _, _, i, j in edges:
            diff.setdefault(i, []).append(j)
        return FilteredComplex(gens, diff, jsonread.integer(data, "modulus", default=0),
                               jsonread.boolean(data, "cohomological", default=False))


def generators_and_edges(data: dict) -> tuple[list[Gen], list[tuple[str, dict, int, int]]]:
    """The generators of a complex's JSON document and, for each record of its
    differential, (path, record, index of "from", index of "to")."""
    gens = [Gen(jsonread.string(rec, "name", p), jsonread.integer(rec, "degree", p),
                jsonread.rational(rec, "level", p))
            for p, rec in jsonread.records(data, "generators")]
    index = {g.name: i for i, g in enumerate(gens)}
    edges = []
    for p, rec in jsonread.records(data, "differential", default=[]):
        ends = [index.get(jsonread.string(rec, end, p)) for end in ("from", "to")]
        if None in ends:
            raise ValueError(f"{p} names an unknown generator")
        edges.append((p, rec, *ends))
    return gens, edges


# -- constructors -------------------------------------------------------------

def e1(level=0, degree: int = 0, name: str = "c", modulus: int = 0) -> FilteredComplex:
    return FilteredComplex((Gen(name, degree, Fraction(level)),), {}, modulus)


def e2(level_a, level_b, degree_a: int = 0, name: str = "x", modulus: int = 0,
       cohomological: bool = False) -> FilteredComplex:
    """E2(a,b) with db = a, v(a) <= v(b), |b| = |a|+1 (homological)."""
    if Fraction(level_a) > Fraction(level_b):
        raise ValueError("E2 requires v(a) <= v(b)")
    db = 1 if not cohomological else -1
    gens = (Gen(f"{name}_a", degree_a, Fraction(level_a)),
            Gen(f"{name}_b", degree_a + db, Fraction(level_b)))
    return FilteredComplex(gens, {1: [0]}, modulus, cohomological)


def direct_sum(*complexes: FilteredComplex) -> FilteredComplex:
    base = complexes[0]
    gens: list[Gen] = []
    diff: dict[int, int] = {}
    offset = 0
    for k, C in enumerate(complexes):
        if C.modulus != base.modulus or C.cohomological != base.cohomological:
            raise ValueError("incompatible summands")
        for g in C.gens:
            gens.append(Gen(f"{g.name}#{k}" if len(complexes) > 1 else g.name,
                            g.degree, g.level))
        for i in range(C.dim()):
            diff[offset + i] = C.dmat[i] << offset
        offset += C.dim()
    return FilteredComplex(gens, diff, base.modulus, base.cohomological)


def shift_translate(C: FilteredComplex, alpha=0, t: int = 0) -> FilteredComplex:
    """Sigma^alpha T^t C: levels += alpha, degrees += t."""
    alpha = Fraction(alpha)
    gens = [Gen(g.name, g.degree + t, g.level + alpha) for g in C.gens]
    return FilteredComplex(gens, {i: C.dmat[i] for i in range(C.dim())},
                           C.modulus, C.cohomological)


# -- filtered maps ------------------------------------------------------------

class FilteredMap:
    """Degree-0 chain map between filtered complexes, entries over Z2.

    ``matrix`` maps source generator index to a bitmask over target
    generators.  The declared shift bounds level increases entrywise.
    """

    def __init__(self, source: FilteredComplex, target: FilteredComplex,
                 matrix: dict[int, Iterable[int]], shift=0, validate: bool = True):
        self.source = source
        self.target = target
        self.shift = Fraction(shift)
        self.mat = [0] * source.dim()
        for i, rows in matrix.items():
            self.mat[i] = _bits(rows)
        if validate:
            self.validate()

    def validate(self):
        S, T, m = self.source, self.target, self.source.modulus
        D = common_scale([g.level for g in S.gens + T.gens] + [self.shift])
        # the target's integer levels, and its degrees modulo the source's modulus
        shift, levels = over(self.shift, D), [over(g.level, D) for g in T.gens]
        degrees = [g.degree % m if m else g.degree for g in T.gens]
        for i, gi in enumerate(S.gens):
            top, deg = over(gi.level, D) + shift, gi.degree % m if m else gi.degree
            for j in gf2.bits(self.mat[i]):
                if levels[j] > top:
                    raise ValueError(
                        f"map entry {gi.name}->{T.gens[j].name} exceeds declared shift")
                if degrees[j] != deg:
                    raise ValueError("map entry has nonzero degree")
        # chain map: f d = d f
        for i in range(S.dim()):
            if gf2.apply(self.mat, S.dmat[i]) != gf2.apply(T.dmat, self.mat[i]):
                raise ValueError(f"not a chain map at generator {S.gens[i].name}")

    def apply(self, vec: int) -> int:
        return gf2.apply(self.mat, vec)


# -- the filtered reduction ----------------------------------------------------

def _basis_name(p: int, n_paired: int) -> str:
    """Pair k of the new basis is p{k}_a, p{k}_b at 2k, 2k + 1; then single k is s{k}."""
    return f"p{p // 2}_{'ab'[p % 2]}" if p < n_paired else f"s{p - n_paired}"


def _pairing(C: FilteredComplex):
    """The one filtered reduction, ties broken by generator index: (D, levels,
    order, to_pos, sides, n_paired).  levels[g] is generator g's level times
    the common scale D; position p is generator order[p] in level order, and
    to_pos[g] is generator g's unit vector over the positions.  sides is the
    new basis in ``_basis_name``'s order as (leading generator, vector over the
    positions, degree): a and b (d b = a) of each pair, then each single cycle."""
    n = C.dim()
    D = common_scale(g.level for g in C.gens)
    levels = [over(g.level, D) for g in C.gens]
    # the stable sort breaks ties by index
    order = sorted(range(n), key=levels.__getitem__)
    to_pos = [0] * n
    for p, g in enumerate(order):
        to_pos[g] = 1 << p
    # reduce the columns in level order; the tag of column p is its change
    # of basis V[p], whose leading bit is p itself
    ech = gf2.Echelon()
    zero_cols = []  # (p, V[p]) for the columns that reduce to zero
    for p in range(n):
        r, v = ech.add(gf2.apply(to_pos, C.dmat[order[p]]), 1 << p)
        if not r:
            zero_cols.append((p, v))
    sides = []
    for low, (r, v) in sorted(ech.pivots.items()):
        deg = C.degree_of(order[low])
        sides += ((order[low], r, deg), (order[v.bit_length() - 1], v, deg - C.d_degree))
    n_paired = len(sides)
    sides += [(order[p], v, C.degree_of(order[p])) for p, v in zero_cols if p not in ech.pivots]
    return D, levels, order, to_pos, sides, n_paired


def _truncation(pairing, delta: Fraction) -> list[int]:
    """The positions of the new basis kept by the delta-truncation: both
    sides of each pair of gap > delta, and every single.  An integer gap is
    > delta * D iff it is > floor(delta * D)."""
    D, levels, _, _, sides, n_paired = pairing
    cut = math.floor(delta * D)
    return [p for p in range(len(sides)) if p >= n_paired or
            levels[sides[p | 1][0]] - levels[sides[p & ~1][0]] > cut]


def homology_barcode(C: FilteredComplex) -> Barcode:
    return _barcode(C, _pairing(C))


def _barcode(C: FilteredComplex, pairing) -> Barcode:
    """Trusted construction from the pairing, sorted once on integer levels,
    in the public order (an infinite death last)."""
    _, levels, _, _, sides, n_paired = pairing
    keyed = []
    for (a, _, deg), (b, _, _) in zip(sides[:n_paired:2], sides[1:n_paired:2]):
        if levels[a] < levels[b]:
            keyed.append(((levels[a], False, levels[b], deg),
                          Bar._make(C.gens[a].level, C.gens[b].level, deg)))
    keyed += [((levels[c], True, 0, deg), Bar._make(C.gens[c].level, INF, deg))
              for c, _, deg in sides[n_paired:]]
    keyed.sort(key=lambda kb: kb[0])
    return Barcode._make(tuple(b for _, b in keyed), C.modulus)


def barcode_by_rank_oracle(C: FilteredComplex) -> Barcode:
    """Independent barcode computation from ranks of inclusion-induced maps.

    For critical levels s <= t the persistence Betti number
    beta(s,t) = rank(H(C^{<=s}) -> H(C^{<=t})) is computed by plain linear
    algebra; bar multiplicities follow by inclusion-exclusion on the level
    grid.  Deliberately independent of the Gaussian pairing route.
    """
    grid = sorted(set(g.level for g in C.gens))
    degrees = sorted(set(C.degree_of(i) for i in range(C.dim())))
    m = len(grid)
    bars = []
    for deg in degrees:
        cache: dict[tuple, int] = {}

        def beta(s, t):
            key = (s, t)
            if key not in cache:
                cache[key] = _pers_rank(C, deg, s, t)
            return cache[key]

        for i in range(m):
            for j in range(i + 1, m + 1):
                # bar [grid[i], grid[j]) with j == m meaning infinity
                tm = grid[j - 1]
                mult = beta(grid[i], tm)
                if i > 0:
                    mult -= beta(grid[i - 1], tm)
                if j < m:
                    mult -= beta(grid[i], grid[j])
                    if i > 0:
                        mult += beta(grid[i - 1], grid[j])
                death = INF if j == m else grid[j]
                for _ in range(mult):
                    bars.append(Bar(grid[i], death, deg))
    return Barcode(tuple(bars), C.modulus)


def _pers_rank(C: FilteredComplex, deg: int, s, t) -> int:
    """rank of H_deg(C^{<=s}) -> H_deg(C^{<=t})."""
    idx_s = [i for i in range(C.dim()) if C.gens[i].level <= s and C.degree_of(i) == deg]
    cyc_s = _cycles(C, idx_s)
    bnd_t = [C.dmat[i] for i in range(C.dim())
             if C.gens[i].level <= t and C.dmat[i] and _deg_match(C, i, deg)]
    return gf2.rank(cyc_s + bnd_t) - gf2.rank(bnd_t)


def _deg_match(C: FilteredComplex, i: int, deg: int) -> bool:
    d = C.gens[i].degree + C.d_degree
    if C.modulus:
        return d % C.modulus == deg % C.modulus
    return d == deg


def _cycles(C: FilteredComplex, idx: list[int]) -> list[int]:
    """Basis of the cycles in the span of the generators idx."""
    lift = [1 << i for i in idx]
    return [gf2.apply(lift, x) for x in gf2.kernel([C.dmat[i] for i in idx])]


# -- truncation ---------------------------------------------------------------

def truncate(C: FilteredComplex, delta) -> tuple[FilteredComplex, FilteredMap, FilteredMap]:
    """Remove elementary pairs of gap <= delta; returns (V_delta, section,
    projection) with section: V_delta -> C and projection: C -> V_delta,
    both filtered chain maps of shift 0 (composite = id on V_delta)."""
    delta = Fraction(delta)
    if delta < 0:
        raise ValueError("delta must be nonnegative")
    pairing = _pairing(C)
    _, _, order, _, sides, n_paired = pairing
    kept = _truncation(pairing, delta)
    gens = [Gen(_basis_name(p, n_paired), sides[p][2], C.gens[sides[p][0]].level) for p in kept]
    # the b side of a kept pair comes right after its a side
    diff = {i: [i - 1] for i, p in enumerate(kept) if p < n_paired and p % 2}
    V = FilteredComplex(gens, diff, C.modulus, C.cohomological)
    from_pos = [1 << g for g in order]
    section = FilteredMap(V, C, {i: gf2.apply(from_pos, sides[p][1]) for i, p in enumerate(kept)})
    # the new basis has one vector leading at each position; reducing e_p
    # against it, with each kept vector tagged by its coordinate in V,
    # projects e_p to V
    tags = [0] * C.dim()
    for i, p in enumerate(kept):
        tags[p] = 1 << i
    ech = gf2.Echelon()
    for (_, vec, _), tag in zip(sides, tags):
        ech.add(vec, tag)
    projection = FilteredMap(C, V, {g: ech.reduce(1 << p)[1] for p, g in enumerate(order)})
    return V, section, projection


# -- cones and homs -----------------------------------------------------------

def cone(f: FilteredMap, lam=0) -> FilteredComplex:
    """lambda-filtered mapping cone: target + Sigma^lam T(source), with
    d(x_src) = T(d_src x) + f(x)."""
    lam = Fraction(lam)
    if lam < f.shift:
        raise ValueError(f"cone parameter {lam} below map shift {f.shift}")
    A, B = f.source, f.target
    t_up = 1 if not B.cohomological else -1
    gens = [Gen(g.name, g.degree, g.level) for g in B.gens]
    gens += [Gen(f"T{g.name}", g.degree + t_up, g.level + lam) for g in A.gens]
    nb = B.dim()
    diff: dict[int, int] = {}
    for i in range(nb):
        diff[i] = B.dmat[i]
    for i in range(A.dim()):
        diff[nb + i] = (A.dmat[i] << nb) | f.mat[i]
    return FilteredComplex(gens, diff, B.modulus, B.cohomological)


def internal_hom(C: FilteredComplex, D: FilteredComplex) -> FilteredComplex:
    """hom(C, D): generators are elementary maps c_i -> d_j with level
    v(d_j) - v(c_i); differential is the graded commutator with d."""
    if C.modulus != D.modulus or C.cohomological != D.cohomological:
        raise ValueError("incompatible complexes")
    gens = []
    pairs = []
    for i, gc in enumerate(C.gens):
        for j, gd in enumerate(D.gens):
            pairs.append((i, j))
            gens.append(Gen(f"[{gc.name}->{gd.name}]", gd.degree - gc.degree,
                            gd.level - gc.level))
    index = {p: k for k, p in enumerate(pairs)}
    diff: dict[int, list[int]] = {}
    for k, (i, j) in enumerate(pairs):
        rows = []
        for j2 in gf2.bits(D.dmat[j]):
            rows.append(index[(i, j2)])
        for i2 in range(C.dim()):
            if (C.dmat[i2] >> i) & 1:
                rows.append(index[(i2, j)])
        diff[k] = rows
    # the hom differential has the inputs' degree: -1 homological, +1
    # cohomological, so the hom complex keeps their flag
    return FilteredComplex(gens, diff, C.modulus, C.cohomological, validate=False)


# -- cone length --------------------------------------------------------------

@dataclass
class ConeStep:
    object_name: str
    shift: Fraction
    translation: int
    weight: Fraction


@dataclass
class ConeDecomposition:
    steps: list[ConeStep]
    mode: str  # "to_target" or "to_zero"

    def __len__(self):
        return len(self.steps)


def cone_length(C: FilteredComplex, eps, mode: str = "to_target") -> tuple[int, ConeDecomposition]:
    """Exact weight-0 cone length over k: 2#B^{2eps}(H(C)) - dim H(C)^inf.

    Also emits a realizing decomposition: the generators of the delta-
    truncation V_{2eps}, attached in level order (a before b in each pair).

    The weight-budget variant N'(C; k, eps) counts decompositions of
    lambda-weighted cones with total weight (including the weighted
    end-isomorphism) at most eps.  Attachment shifts range over all reals,
    so a lambda-cone over a shift-alpha source equals the plain cone over
    the shift-(alpha+lambda) source; positive per-step weights therefore buy
    nothing and the whole budget is best spent on the end isomorphism,
    giving the exact identity N'(C; k, eps) = N(C; k, eps/2).  The sandwich
    N(C; 2 eps) <= N'(C; eps) <= N(C; eps/4) is then the monotonicity of N.
    """
    eps = Fraction(eps)
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    if mode not in ("to_target", "to_zero"):
        raise ValueError("mode must be to_target or to_zero")
    pairing = _pairing(C)
    _, levels, _, _, sides, n_paired = pairing
    # level order, the b side of a pair after its a side at equal level
    kept = sorted(_truncation(pairing, 2 * eps), key=lambda p: (levels[sides[p][0]],
                                                              p % 2 if p < n_paired else 0))
    zero = Fraction(0)
    steps = [ConeStep(_basis_name(p, n_paired), C.gens[sides[p][0]].level, sides[p][2], zero)
             for p in kept]
    if mode == "to_zero":
        steps = steps[::-1]
    # a step per side of each pair of gap > 2 eps and per single: 2#B^{2eps} - dim H^inf
    return len(steps), ConeDecomposition(steps, mode)


def family_constant(hom_GG: FilteredComplex) -> Fraction:
    """k(G) = 1 / N(hom(G,G); k, 0) from the Yoneda-module bound."""
    n, _ = cone_length(hom_GG, 0)
    if n <= 0:
        raise ValueError("hom(G,G) has zero cone length; constant undefined")
    return Fraction(1, n)


def retract_cone_length_lower(A: FilteredComplex, G: FilteredComplex, eps) -> int:
    """Certified lower bound k(G) * #B^{2eps}(H(hom(G,A))), rounded up."""
    eps = Fraction(eps)
    kG = family_constant(internal_hom(G, G))
    count = bar_count(homology_barcode(internal_hom(G, A)), 2 * eps)
    return math.ceil(kG * count)


# -- brute-force decomposition search ----------------------------------------

def _zero_complex(modulus: int, cohomological: bool) -> FilteredComplex:
    return FilteredComplex((), {}, modulus, cohomological)


def _chain_map_classes(F: FilteredComplex, X: FilteredComplex) -> list[dict[int, int]]:
    """Representatives of homotopy classes of shift-<=0 chain maps F -> X:
    cycles of hom(F,X) at level <= 0 modulo boundaries of level <= 0."""
    H = internal_hom(F, X)
    idx = [k for k in range(H.dim()) if H.gens[k].level <= 0 and
           (H.gens[k].degree % H.modulus == 0 if H.modulus else H.gens[k].degree == 0)]
    cycles = _cycles(H, idx)
    # boundaries at level <= 0 in degree 0
    combined = gf2.Echelon(H.dmat[k] for k in range(H.dim())
                           if H.gens[k].level <= 0 and H.dmat[k] and _deg_match(H, k, 0))
    quotient_basis: list[int] = []
    for v in cycles:
        red, _ = combined.add(v)
        if red:
            quotient_basis.append(red)
    maps = []
    for choice in range(1 << len(quotient_basis)):
        v = gf2.apply(quotient_basis, choice)
        # hom generator k encodes the elementary map gen_{k // dim D} -> gen_{k % dim D}
        mat: dict[int, int] = {}
        for k in gf2.bits(v):
            i, j = divmod(k, X.dim())
            mat[i] = mat.get(i, 0) | (1 << j)
        maps.append(mat)
    return maps


# attaching maps tried by one min_cone_decomposition before it gives up
NODE_CAP = 200000


def min_cone_decomposition(target: Barcode, family: Sequence[FilteredComplex],
                           eps, max_steps: int, metric: str = "retract",
                           tensor_rank: int = 1) -> Optional[int]:
    """Minimal number of weight-0 cone attachments over shifts/translates of
    ``family`` members needed to reach within eps of ``target`` (d_rint for
    metric="retract", d_int for metric="interleaving"), or None if not found
    within ``max_steps`` or ``NODE_CAP`` attaching maps.  Exhaustive over
    homotopy classes of attaching maps with shifts drawn from the level
    differences of the instance.

    ``tensor_rank`` > 1 enables the tensor linearization: each step may
    attach a cone over a direct sum of up to that many shifted/translated
    copies of a single family member (i.e. F tensor V for a small filtered
    graded vector space V)."""
    eps = Fraction(eps)
    modulus = family[0].modulus
    cohom = family[0].cohomological
    dist: Callable = retract_interleaving if metric == "retract" else interleaving_distance

    t_ends = [b.birth for b in target.bars] + [b.death for b in target.bars if not b.infinite]
    if not t_ends:
        t_ends = [Fraction(0)]
    shifts = set()
    for F in family:
        f_levels = [g.level for g in F.gens] or [Fraction(0)]
        for te in t_ends:
            for fl in f_levels:
                shifts.add(te - fl)
    t_degs = set(b.degree for b in target.bars) or {0}
    translations = set()
    for F in family:
        f_degs = set(g.degree for g in F.gens) or {0}
        for td in t_degs:
            for fd in f_degs:
                translations.add(td - fd)
                translations.add(td - fd - 1)
                translations.add(td - fd + 1)
    if modulus:
        translations = {t % modulus for t in translations}

    pieces = []
    for F in family:
        for t in sorted(translations):
            for alpha in sorted(shifts):
                pieces.append((id(F), alpha, t, shift_translate(F, alpha, t)))
    attachables = [p[3] for p in pieces]
    if tensor_rank > 1:
        by_family: dict[int, list[FilteredComplex]] = {}
        for fid, alpha, t, Ft in pieces:
            by_family.setdefault(fid, []).append(Ft)
        for fid, opts in by_family.items():
            for r in range(2, tensor_rank + 1):
                for combo in itertools.combinations_with_replacement(opts, r):
                    attachables.append(direct_sum(*combo))

    start = _zero_complex(modulus, cohom)
    frontier: list[FilteredComplex] = [start]
    start_bc = homology_barcode(start)
    seen = {start_bc}
    nodes = 0
    if dist(target, start_bc) <= eps:
        return 0
    for depth in range(1, max_steps + 1):
        nxt: list[FilteredComplex] = []
        for X in frontier:
            for Ft in attachables:
                for mat in _chain_map_classes(Ft, X):
                    nodes += 1
                    if nodes > NODE_CAP:
                        return None
                    fmap = FilteredMap(Ft, X, mat, shift=0, validate=False)
                    Y = cone(fmap, 0)
                    bc = homology_barcode(Y)
                    if bc in seen:
                        continue
                    seen.add(bc)
                    if dist(target, bc) <= eps:
                        return depth
                    nxt.append(Y)
        frontier = nxt
        if not frontier:
            return None
    return None


# -- stability reduction -------------------------------------------------------

def stability_reduce(C: FilteredComplex, dprime: dict[int, Iterable[int]], delta,
                     eps=None) -> tuple[FilteredComplex, tuple[int, int]]:
    """Given D = d + D' with d = C's differential, d^2 = 0 = D^2 and D'
    dropping filtration by >= delta, eliminate the short d-pairs via
    a0' = a0 + D'(b0).  Pairs of gap <= eps are eliminated when eps < delta
    is supplied; by default everything with gap < delta goes.  Returns the
    filtration-preserving retract (with its full differential D) and the
    (before, after) dimensions."""
    delta = Fraction(delta)
    if eps is not None:
        eps = Fraction(eps)
        if not (0 <= eps < delta):
            raise ValueError("eps must satisfy 0 <= eps < delta")
    n = C.dim()
    Dp = [0] * n
    for i, rows in dprime.items():
        Dp[i] = _bits(rows)
    for i in range(n):
        li = C.gens[i].level
        for j in gf2.bits(Dp[i]):
            if C.gens[j].level > li - delta:
                raise ValueError("D' does not drop filtration by delta")
    D = [C.dmat[i] ^ Dp[i] for i in range(n)]
    for i in range(n):
        if gf2.apply(D, D[i]):
            raise ValueError("(d + D')^2 != 0")

    # change to the d-elementary basis: each new basis vector leads at its
    # own position, so reducing a vector against them, each tagged by its
    # index, gives its coordinates
    scale, levels, order, to_pos, sides, n_paired = _pairing(C)
    D_pos = [gf2.apply(to_pos, D[g]) for g in order]
    ech = gf2.Echelon()
    for p, (_, vec, _) in enumerate(sides):
        ech.add(vec, 1 << p)
    D_new = [ech.reduce(gf2.apply(D_pos, vec))[1] for _, vec, _ in sides]
    alive = list(range(len(sides)))

    # The d-pairs are (a, b) = (2k, 2k+1) in the new basis.  Levels never
    # change and the pairs are disjoint, so eliminating the shortest remaining
    # short pair, round after round, is one pass in (gap, index) order.  A
    # gap in units of 1/scale is <= eps * scale iff it is <= floor(eps * scale),
    # and < delta * scale iff it is <= ceil(delta * scale) - 1.
    cut = math.floor(eps * scale) if eps is not None else math.ceil(delta * scale) - 1
    gaps = sorted((levels[sides[a + 1][0]] - levels[sides[a][0]], a)
                  for a in range(0, n_paired, 2))
    for gap, a in gaps:
        if gap > cut:
            break
        # cancel the D-pair (a' = D(b), b): send each alive x with <D x, a> = 1
        # to x + b, so that D x stays within the complement; then a and b go
        alive.remove(a)
        alive.remove(a + 1)
        for x in alive:
            if D_new[x] >> a & 1:
                D_new[x] ^= D_new[a + 1]
            assert not D_new[x] & (3 << a)  # neither a nor b

    remap = {old: new for new, old in enumerate(alive)}
    gens = [Gen(_basis_name(p, n_paired), sides[p][2], C.gens[sides[p][0]].level) for p in alive]
    diff: dict[int, int] = {}
    for old in alive:
        mask = 0
        for j in gf2.bits(D_new[old]):
            if j not in remap:
                raise AssertionError("differential leaks outside the retract")
            mask |= 1 << remap[j]
        diff[remap[old]] = mask
    retract = FilteredComplex(gens, diff, C.modulus, C.cohomological)
    return retract, (n, retract.dim())


def full_differential(C: FilteredComplex, dprime: dict[int, Iterable[int]]) -> FilteredComplex:
    """The complex (C, d + D') as a FilteredComplex."""
    n = C.dim()
    diff = {}
    for i in range(n):
        extra = dprime.get(i, 0)
        diff[i] = C.dmat[i] ^ _bits(extra)
    return FilteredComplex(C.gens, diff, C.modulus, C.cohomological)


# -- reach gap ----------------------------------------------------------------

def reach_gap(w_vec: int, level_r, f: FilteredMap):
    """R(w, f) = inf{s >= r : class of w at level s lies in image H(f)_s}.

    ``w_vec`` is a cycle of f.target given as a bitmask, ``level_r`` its
    level.  Solves f(v) + d u = w with v a cycle of the source sublevel
    complex and u in the target sublevel, at each critical level."""
    r = Fraction(level_r)
    T, S = f.target, f.source
    if T.d_of(w_vec):
        raise ValueError("w is not a cycle")
    levels = sorted(set([g.level for g in S.gens] + [g.level for g in T.gens] + [r]))
    levels = [s for s in levels if s >= r]
    for s in levels:
        src_idx = [i for i in range(S.dim()) if S.gens[i].level <= s]
        tgt_idx = [i for i in range(T.dim()) if T.gens[i].level <= s]
        cyc = _cycles(S, src_idx)
        span = [f.apply(v) for v in cyc] + [T.dmat[i] for i in tgt_idx if T.dmat[i]]
        if gf2.solve(span, w_vec) is not None:
            return s
    return INF
