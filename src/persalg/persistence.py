"""Finite-type persistence modules as barcodes, with distance computations.

Bars are half-open intervals [birth, death) with exact rational endpoints
(death may be +inf), tagged by a degree that is read modulo the barcode's
grading modulus.  Four distances are provided:

* ``interleaving_distance`` -- the symmetric interleaving distance, computed
  as the bottleneck distance of the degree-split diagrams;
* ``dint_variant`` -- the asymmetric (a,b)-interleaving variant D, with
  0.5*D <= d <= D;
* ``retract_interleaving`` -- the one-sided retract variant;
* ``shift_invariant`` -- the shift-stabilized version of any of the three.

The distances run on integers: both barcodes' finite endpoints are scaled
by S = 2 * ``lattice.common_scale``, and only the result becomes a Fraction.
Each metric wraps a kernel on the integer slices (an int, or None for inf),
which ``shift_invariant`` runs on B1's slices shifted by each candidate.
Each feasibility test is one bipartite matching (``_matching``, iterative).
For fixed a, (a,b)-feasibility is monotone in b (the window [-b, a] and the
threshold a+b only relax as b grows), so ``dint_variant`` binary-searches b.
Values are certified against brute-force oracles (``oracle_*`` below) that
enumerate GF(2) morphisms on Fractions, off the integer path and matcher.
``homology_barcode`` and ``Barcode.shift`` use the trusted ``_make``s.
"""

from __future__ import annotations

import inspect
import itertools
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from . import gf2, jsonread
from .lattice import common_scale, over

INF = float("inf")


def _rat(x):
    return x if x == INF else Fraction(x)


@dataclass(frozen=True, order=True)
class Bar:
    birth: Fraction
    death: object  # Fraction or INF
    degree: int = 0

    def __post_init__(self):
        object.__setattr__(self, "birth", Fraction(self.birth))
        object.__setattr__(self, "death", _rat(self.death))
        if not self.birth < self.death:
            raise ValueError(f"empty bar [{self.birth}, {self.death})")

    @staticmethod
    def _make(birth: Fraction, death, degree: int) -> "Bar":
        """Trusted constructor: a Fraction birth below death (Fraction or INF)."""
        self = object.__new__(Bar)
        self.__dict__.update(birth=birth, death=death, degree=degree)
        return self

    @property
    def length(self):
        return INF if self.infinite else self.death - self.birth

    @property
    def infinite(self) -> bool:
        # __post_init__ keeps death a Fraction unless it equals INF
        return not isinstance(self.death, Fraction)


@dataclass(frozen=True)
class Barcode:
    bars: tuple[Bar, ...]
    grading_modulus: int = 0

    def __post_init__(self):
        m = self.grading_modulus
        bars = tuple(
            sorted(
                Bar(b.birth, b.death, b.degree % m if m else b.degree)
                for b in self.bars
            )
        )
        object.__setattr__(self, "bars", bars)

    @staticmethod
    def _make(bars: tuple[Bar, ...], modulus: int) -> "Barcode":
        """Trusted constructor: bars sorted, degrees reduced modulo ``modulus``."""
        self = object.__new__(Barcode)
        self.__dict__.update(bars=bars, grading_modulus=modulus)
        return self

    def __len__(self):
        return len(self.bars)

    def shift(self, s) -> "Barcode":
        s = Fraction(s)  # a shift keeps every bar valid and the sort order
        return Barcode._make(tuple(Bar._make(b.birth + s, INF if b.infinite else b.death + s,
                                             b.degree) for b in self.bars), self.grading_modulus)

    def union(self, other: "Barcode") -> "Barcode":
        if self.grading_modulus != other.grading_modulus:
            raise ValueError("grading modulus mismatch")
        return Barcode(self.bars + other.bars, self.grading_modulus)

    def to_json(self) -> dict:
        return {
            "modulus": self.grading_modulus,
            "bars": [
                {
                    "birth": str(b.birth),
                    "death": "inf" if b.infinite else str(b.death),
                    "degree": b.degree,
                }
                for b in self.bars
            ],
        }

    @staticmethod
    def from_json(data: dict) -> "Barcode":
        return Barcode(tuple(Bar(jsonread.rational(rec, "birth", p),
                                 jsonread.rational_or_inf(rec, "death", p),
                                 jsonread.integer(rec, "degree", p, 0))
                             for p, rec in jsonread.records(data, "bars", default=[])),
                       jsonread.integer(data, "modulus", default=0))


EMPTY = Barcode(())


def bar_count(barcode: Barcode, delta) -> int:
    """Number of bars of length > delta, infinite bars included."""
    delta = Fraction(delta)
    if delta < 0:
        raise ValueError("delta must be nonnegative")
    return sum(1 for b in barcode.bars if b.infinite or b.length > delta)


def _degree_slices(B1: Barcode, B2: Barcode):
    if B1.grading_modulus != B2.grading_modulus:
        raise ValueError("grading modulus mismatch")
    degs = set(b.degree for b in B1.bars) | set(b.degree for b in B2.bars)
    for d in sorted(degs):
        yield ([b for b in B1.bars if b.degree == d],
               [b for b in B2.bars if b.degree == d])


# -- distances on integers ---------------------------------------------------
# An integer bar is (S*birth, S*death), death None when the bar is infinite.
# Every scaled endpoint is even, so half lengths and midpoints are integers.
# A slice shifted by s (shift_invariant) may have odd endpoints, but a shift
# leaves every length, hence every half length, unchanged, and its midpoints
# are taken only between the even base differences, so the kernels stay exact.

def _int_slices(B1: Barcode, B2: Barcode):
    """The scale S, twice the common scale of all finite endpoints, and the
    degree slices as lists of integer bars, sorted by birth."""
    bars = B1.bars + B2.bars
    S = 2 * common_scale([x.birth for x in bars] +
                         [x.death for x in bars if not x.infinite])

    def ints(bars):
        return [(over(x.birth, S), None if x.infinite else over(x.death, S))
                for x in bars]
    return S, [(ints(s1), ints(s2)) for s1, s2 in _degree_slices(B1, B2)]


def _matching(adj: list[list[int]], n_right: int) -> list[int]:
    """Maximum bipartite matching: left vertex u may take the right vertices
    adj[u].  Each left vertex takes a free one if it can, else searches an
    augmenting path (Kuhn) on an explicit stack.  Returns match, with
    match[v] the left vertex matched to v, or -1."""
    match = [-1] * n_right
    for root in range(len(adj)):
        v = next((v for v in adj[root] if match[v] == -1), None)
        if v is not None:
            match[v] = root
            continue
        seen, lefts, edges, rights = set(), [root], [iter(adj[root])], []
        while edges:
            v = next((v for v in edges[-1] if v not in seen), None)
            if v is None:  # no augmenting path through lefts[-1]
                del lefts[-1], edges[-1], rights[-1:]
                continue
            seen.add(v)
            rights.append(v)
            if match[v] == -1:  # augment along the path
                for u, w in zip(lefts, rights):
                    match[w] = u
                break
            lefts.append(match[v])
            edges.append(iter(adj[match[v]]))
    return match


def _saturated(adj: list[list[int]], n_right: int) -> bool:
    """Does a maximum matching cover every left vertex?"""
    return _matching(adj, n_right).count(-1) == n_right - len(adj)


def _adjacency(bars1, bars2, a: int, b: int, retract: bool = False):
    """For each bar of bars1 longer than a+b, the bars of bars2 it may be
    matched to: deviations bar2 - bar1 in [-b, a] at the birth, and at the
    death when both are finite; infinite goes with infinite only.  With
    ``retract`` (a = b = r), each bar must also be alive r after the other's
    birth, so that eta_{2r} factors through the pair."""
    births = [w for w, _ in bars2]
    adj = []
    for u, v in bars1:
        window = range(bisect_left(births, u - b), bisect_right(births, u + a))
        if v is None:
            adj.append([j for j in window if bars2[j][1] is None])
        elif v - u > a + b:
            adj.append([j for j in window
                        if (z := bars2[j][1]) is not None and -b <= z - v <= a
                        and (not retract or u + a < z and bars2[j][0] + b < v)])
    return adj


def _feasible(slices, a: int, b: int) -> bool:
    """Matching test for an (a,b)-interleaving on every degree slice.  Bars
    of length <= a+b may stay unmatched; by Mendelsohn-Dulmage it suffices
    that each side's long bars admit a one-sided matching into the other."""
    return all(_saturated(_adjacency(s1, s2, a, b), len(s2)) and
               _saturated(_adjacency(s2, s1, b, a), len(s1)) for s1, s2 in slices)


def _turn_on(s1, s2) -> list[int]:
    """Where a matching test on the slice can turn from false to true: 0,
    half a bar length (the bar may stay unmatched) and, for each pair that
    may be matched, its larger endpoint deviation (the edge appears)."""
    return sorted({0} | {(v - u) // 2 for u, v in s1 + s2 if v is not None} |
                  {abs(w - u) if v is None else max(abs(w - u), abs(z - v))
                   for u, v in s1 for w, z in s2 if (v is None) == (z is None)})


def _least(cands: list[int], feasible: Callable):
    """The least of the sorted cands passing a test that is monotone along
    them, or None: the largest is tested first, then binary search."""
    if cands and feasible(cands[-1]):
        return cands[bisect_left(cands, True, 0, len(cands) - 1, key=feasible)]
    return None


def _rational(value, S: int):  # a kernel's value over S
    return INF if value is None else Fraction(value, S)


def interleaving_distance(B1: Barcode, B2: Barcode):
    """Bottleneck distance of the degree-split diagrams; inf on mismatch of
    semi-infinite bar counts (then no eps is feasible).  Feasibility is
    monotone in eps, so each slice binary-searches its turn-on values."""
    S, slices = _int_slices(B1, B2)
    return _rational(_d_int(slices), S)


def _d_int(slices):
    worst = 0
    for sl in slices:
        best = _least(_turn_on(*sl), lambda e: _feasible([sl], e, e))
        if best is None:
            return None
        worst = max(worst, best)
    return worst


def dint_variant(B1: Barcode, B2: Barcode):
    """Infimal a+b over asymmetric (a,b)-interleavings, (a, b) common to all
    degrees, over the oracle's candidates: a and b at an endpoint difference
    or 0, or a+b at a bar length.  Each a binary-searches its least feasible
    b (monotone in b, see above); the scan stops once a >= best."""
    S, slices = _int_slices(B1, B2)
    return _rational(_D_int(slices), S)


def _D_int(slices):
    if any(sum(v is None for _, v in s1) != sum(v is None for _, v in s2)
           for s1, s2 in slices):
        return None
    bars1 = [x for s1, _ in slices for x in s1]
    bars2 = [y for _, s2 in slices for y in s2]
    base = {0} | {abs(w - u) for u, _ in bars1 for w, _ in bars2} | {
        abs(z - v) for _, v in bars1 for _, z in bars2 if v is not None and z is not None}
    lengths = {v - u for u, v in bars1 + bars2 if v is not None}
    best = None
    for a in sorted(base | {L - c for c in base for L in lengths if L >= c}):
        if best is not None and a >= best:
            break
        tight = {L - a for L in lengths if L >= a}  # b with a+b a bar length
        bs = base | tight if a in base else base & tight
        b = _least(sorted(b for b in bs if best is None or a + b < best),
                   lambda b: _feasible(slices, a, b))
        if b is not None:
            best = a + b
    return best


def retract_interleaving(R: Barcode, X: Barcode):
    """Infimal r allowing phi: S^r R -> X, psi: S^r X -> R with
    psi . S^r phi = eta_{2r}; computed by the one-sided matching criterion
    (every R-bar of length > 2r injects into an r-compatible X-bar).
    Feasibility is not monotone in r (the overlap conditions tighten), so
    each slice scans its turn-on values in order."""
    S, slices = _int_slices(R, X)
    return _rational(_d_rint(slices), S)


def _d_rint(slices):
    worst = 0
    for sR, sX in slices:
        best = next((r for r in _turn_on(sR, sX) if
                     _saturated(_adjacency(sR, sX, r, r, retract=True), len(sX))), None)
        if best is None:
            return None
        worst = max(worst, best)
    return worst


_KERNELS = {interleaving_distance: _d_int, dint_variant: _D_int, retract_interleaving: _d_rint}


def shift_invariant(metric: Callable, B1: Barcode, B2: Barcode):
    """inf over global shifts s of metric(S^s B1, B2); the shifts tried are
    the endpoint differences and the midpoints of any two of them.  The
    metric is one of the three library metrics, seen through
    ``inspect.unwrap`` so that a traced wrapper still counts; its kernel runs
    on B1's shifted integer slices.  Any other metric is a ValueError.

    d_int alone is pruned: s is skipped once an evaluated s0 has d(s0) -
    |s - s0| >= best, as d(s) >= d(s0) - d_int(S^s B1, S^s0 B1) (triangle
    inequality) and d_int(S^t B, B) <= |t|.  The candidates go outward from
    the shift aligning the median endpoints; an infinite d_int does not
    depend on s.  D_int and d_rint have no proven Lipschitz constant here
    and are not pruned."""
    kernel = _KERNELS.get(inspect.unwrap(metric))
    if kernel is None:
        raise ValueError(f"shift_invariant takes interleaving_distance, dint_variant "
                         f"or retract_interleaving, not {metric!r}")
    S, slices = _int_slices(B1, B2)
    ends1 = [q for s1, _ in slices for x in s1 for q in x if q is not None]
    ends2 = [q for _, s2 in slices for x in s2 for q in x if q is not None]
    base = sorted({0} | {q - p for p in ends1 for q in ends2})
    cands = sorted(set(base) | {(u + v) // 2 for u, v in itertools.combinations(base, 2)})

    def at(s):
        return kernel([([(u + s, v if v is None else v + s) for u, v in s1], s2)
                       for s1, s2 in slices])
    if kernel is not _d_int:
        return min(_rational(at(s), S) for s in cands)
    mid = sorted(ends2)[len(ends2) // 2] - sorted(ends1)[len(ends1) // 2] if ends1 and ends2 else 0
    # hi = max d(s0) + s0 and lo = min s0 - d(s0) over the evaluated s0, which
    # all lie below s when s > mid and above it when not: d(s) >= hi - s, s - lo
    best, hi, lo = INF, -INF, INF
    for s in sorted(cands, key=lambda s: abs(s - mid)):
        if (hi - s if s > mid else s - lo) < best:
            d = at(s)
            if d is None:
                return INF
            best, hi, lo = min(best, d), max(hi, d + s), min(lo, s - d)
    return Fraction(best, S)


def spectral_range(B: Barcode):
    """max birth - min birth over semi-infinite bars."""
    births = [b.birth for b in B.bars if b.infinite]
    if not births:
        raise ValueError("barcode has no semi-infinite bars")
    return max(births) - min(births)


def retract_complement(R: Barcode, X: Barcode, eps) -> Barcode:
    """A barcode K with d_int(R + K, X) < 2*eps, given d_rint(R, X) < eps:
    the X-bars left free by a retract matching at d_rint(R, X)."""
    eps = Fraction(eps)
    S, slices = _int_slices(R, X)
    r = _d_rint(slices)
    if not _rational(r, S) < eps:
        raise ValueError(f"retract_interleaving(R,X) = {_rational(r, S)} is not < eps = {eps}")
    leftover: list[Bar] = []
    for (sR, sX), (_, barsX) in zip(slices, _degree_slices(R, X)):
        adj = _adjacency(sR, sX, r, r, retract=True)
        match = _matching(adj, len(sX))
        if match.count(-1) != len(sX) - len(adj):
            raise AssertionError("matching disappeared below certified r")
        leftover.extend(y for y, u in zip(barsX, match) if u == -1)
    return Barcode(tuple(leftover), X.grading_modulus)


# -- chain-level brute-force oracle ------------------------------------------
#
# Interval modules over GF(2): a morphism [b1,d1) -> [b2,d2) of degree-equal
# bars is nonzero iff b2 <= b1 < d2 <= d1.  Morphisms of barcodes are GF(2)
# matrices supported on such pairs; compositions are matrix products with a
# reachability filter.  The oracle enumerates phi and solves linearly for psi.


def _candidate_epsilons(ends1, ends2):
    cands = {Fraction(0)}
    for _, _, L in ends1 + ends2:
        if L is not None:
            cands.add(L / 2)
    for b1, d1, _ in ends1:
        for b2, d2, _ in ends2:
            cands.add(abs(b1 - b2))
            if d1 is not None and d2 is not None:
                cands.add(abs(d1 - d2))
    return sorted(cands)


def _candidate_ab(ends1, ends2):
    """Candidate (a,b) pairs: the optimum has both a and b at a tight
    constraint, i.e. at a signed endpoint difference, zero, or at
    length-(a+b) boundaries."""
    diffs = {Fraction(0)}
    for b1, d1, _ in ends1:
        for b2, d2, _ in ends2:
            diffs.add(b2 - b1)
            diffs.add(b1 - b2)
            if d1 is not None and d2 is not None:
                diffs.add(d2 - d1)
                diffs.add(d1 - d2)
    lengths = {L for _, _, L in ends1 + ends2 if L is not None}
    base = sorted(d for d in diffs if d >= 0)
    cands = set()
    for a in base:
        for b in base:
            cands.add((a, b))
        for L in lengths:
            if L - a >= 0:
                cands.add((a, L - a))
                cands.add((L - a, a))
    return sorted(cands, key=lambda ab: (ab[0] + ab[1], ab))


def _retract_candidates(endsR, endsX):
    cands = {Fraction(0)}
    for bR, dR, L in endsR:
        if L is not None:
            cands.add(L / 2)
        for bX, dX, _ in endsX:
            cands.add(abs(bR - bX))
            if dR is not None and dX is not None:
                cands.add(abs(dR - dX))
            # breakpoints of the overlap conditions birth+r < death
            if dX is not None and dX - bR >= 0:
                cands.add(dX - bR)
            if dR is not None and dR - bX >= 0:
                cands.add(dR - bX)
    return sorted(c for c in cands if c >= 0)


def _ends(bars) -> list[tuple]:
    """(birth, death, length) of each bar, death and length None when it is
    infinite: the endpoints, infinite flags and lengths of a slice, read
    once."""
    return [(x.birth, None, None) if x.infinite else (x.birth, x.death, x.death - x.birth)
            for x in bars]


def _shifted(ends, s) -> list[tuple]:
    """The ``_ends`` of the bars shifted by s."""
    return [(b + s, None if d is None else d + s, L) for b, d, L in ends]


def _hom_nonzero(src: tuple, dst: tuple) -> bool:
    # a degree-0 morphism [b1,d1) -> [b2,d2) (of ``_ends``, src already
    # shifted) can be nonzero iff b2 <= b1 < d2 <= d1
    (b1, d1, _), (b2, d2, _) = src, dst
    if b2 > b1:
        return False
    if d2 is None:
        return d1 is None
    return b1 < d2 and (d1 is None or d2 <= d1)


def _allowed_pairs(ends_src, ends_dst, shift):
    """Indices (i,j) where a degree-0 morphism S^shift src_i -> dst_j can be
    nonzero, for the ``_ends`` of two bars of one degree."""
    return [(i, j) for i, x in enumerate(_shifted(ends_src, shift))
            for j, y in enumerate(ends_dst) if _hom_nonzero(x, y)]


def _eta_matrix(ends, shift):
    """Diagonal of eta_shift: S^shift I -> I, nonzero iff length > shift."""
    return [1 if L is None or L > shift else 0 for _, _, L in ends]


def _oracle_slices(B1: Barcode, B2: Barcode) -> list[tuple]:
    """The ``_ends`` of each degree slice of B1 and B2, read once for every
    candidate an oracle tries."""
    return [(_ends(s1), _ends(s2)) for s1, s2 in _degree_slices(B1, B2)]


def _oracle_feasible(slices, a, b, symmetric: bool) -> bool:
    """Brute-force: exists phi: S^a B1 -> B2 and psi: S^b B2 -> B1 with
    psi . S^b phi = eta_{a+b} on B1 and, when symmetric, phi . S^a psi =
    eta_{a+b} on B2, for the ``_oracle_slices`` of B1 and B2.  Enumerates
    phi over GF(2) assignments on allowed pairs, solving linearly for psi."""
    return all(_oracle_slice_feasible(ends1, ends2, a, b, symmetric)
               for ends1, ends2 in slices)


def _oracle_slice_feasible(ends1, ends2, a, b, symmetric: bool) -> bool:
    pairs_phi = _allowed_pairs(ends1, ends2, a)
    pairs_psi = _allowed_pairs(ends2, ends1, b)
    ab = a + b
    eta1 = _eta_matrix(ends1, ab)
    eta2 = _eta_matrix(ends2, ab)
    n1, n2 = len(ends1), len(ends2)
    if not pairs_phi and any(eta1):
        return False
    # Unknowns: the psi entries on pairs_psi.  Equation i*n1 + k is entry
    # (i, k) of psi . S^b phi = eta_{a+b} on B1 and, when symmetric, equation
    # n1*n1 + j*n2 + k is entry (j, k) of phi . S^a psi = eta_{a+b} on B2.
    # terms lists (p, t, eq): psi entry t enters equation eq when phi entry p
    # is 1; rhs is the set of equations whose right side is 1.  Neither
    # depends on phi, so both are built once, before the enumeration.
    terms = []
    rhs = 0
    shifted1 = _shifted(ends1, ab)
    for p, (i, j) in enumerate(pairs_phi):
        for t, (jj, k) in enumerate(pairs_psi):
            if jj == j and _hom_nonzero(shifted1[i], ends1[k]):
                terms.append((p, t, i * n1 + k))
    for i in range(n1):
        if eta1[i]:
            rhs |= 1 << (i * n1 + i)
    if symmetric:
        shifted2 = _shifted(ends2, ab)
        for p, (i, k) in enumerate(pairs_phi):
            for t, (j, ii) in enumerate(pairs_psi):
                if ii == i and _hom_nonzero(shifted2[j], ends2[k]):
                    terms.append((p, t, n1 * n1 + j * n2 + k))
        for j in range(n2):
            if eta2[j]:
                rhs |= 1 << (n1 * n1 + j * n2 + j)
    # enumerate phi assignments; for each, psi must solve the linear system
    for bits in range(1 << len(pairs_phi)):
        cols = [0] * len(pairs_psi)
        for p, t, eq in terms:
            if (bits >> p) & 1:
                cols[t] ^= 1 << eq
        if gf2.solve(cols, rhs) is not None:
            return True
    return False


def oracle_interleaving_distance(B1: Barcode, B2: Barcode):
    slices = _oracle_slices(B1, B2)
    for ends1, ends2 in slices:
        if [d for _, d, _ in ends1].count(None) != [d for _, d, _ in ends2].count(None):
            return INF
    for c in _candidate_epsilons(_ends(B1.bars), _ends(B2.bars)):
        if _oracle_feasible(slices, c, c, symmetric=True):
            return c
    return INF


def oracle_dint_variant(B1: Barcode, B2: Barcode):
    best = INF
    slices = _oracle_slices(B1, B2)
    for a, b in _candidate_ab(_ends(B1.bars), _ends(B2.bars)):
        if a + b >= best:
            continue
        if _oracle_feasible(slices, a, b, symmetric=True):
            best = a + b
    return best


def oracle_retract_interleaving(R: Barcode, X: Barcode):
    slices = _oracle_slices(R, X)
    cands = set().union(*(_retract_candidates(endsR, endsX) for endsR, endsX in slices))
    for r in sorted(cands | {Fraction(0)}):
        if _oracle_feasible(slices, r, r, symmetric=False):
            return r
    return INF
