"""Finite-type persistence modules as barcodes, with distance computations.

Bars are half-open intervals [birth, death) with exact rational endpoints
(death may be +inf), tagged by a degree that is read modulo the barcode's
grading modulus.  Four distances are provided:

* ``interleaving_distance`` -- the symmetric interleaving distance, computed
  as the bottleneck distance of the degree-split diagrams;
* ``dint_variant`` -- the asymmetric (a,b)-interleaving variant D, with
  0.5*D <= d <= D;
* ``retract_interleaving`` -- the one-sided retract variant;
* ``shift_invariant`` -- the shift-stabilized version of any of the above.

Matching-based values are certified against a brute-force interleaving
oracle (`oracle` submodule functions below) that enumerates morphisms of the
underlying interval modules over GF(2).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from . import gf2

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

    @property
    def length(self):
        return self.death - self.birth if self.death != INF else INF

    @property
    def infinite(self) -> bool:
        return self.death == INF


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

    def __len__(self):
        return len(self.bars)

    def shift(self, s) -> "Barcode":
        s = Fraction(s)
        return Barcode(
            tuple(
                Bar(b.birth + s, b.death + s if b.death != INF else INF, b.degree)
                for b in self.bars
            ),
            self.grading_modulus,
        )

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
                    "death": "inf" if b.death == INF else str(b.death),
                    "degree": b.degree,
                }
                for b in self.bars
            ],
        }

    @staticmethod
    def from_json(data: dict) -> "Barcode":
        bars = tuple(
            Bar(
                Fraction(rec["birth"]),
                INF if rec["death"] == "inf" else Fraction(rec["death"]),
                int(rec.get("degree", 0)),
            )
            for rec in json_list(data, "bars", [])
        )
        return Barcode(bars, int(data.get("modulus", 0)))


EMPTY = Barcode(())


def json_list(data: dict, key: str, default=None) -> list:
    """The list-valued JSON field ``data[key]``, or ``default`` when it is
    absent and a default is given; ValueError when the field is not a list."""
    value = data[key] if default is None else data.get(key, default)
    if not isinstance(value, list):
        raise ValueError(f"{key} must be a list of records")
    return value


def bar_count(barcode: Barcode, delta, finite_only: bool = False) -> int:
    """Number of bars of length > delta (infinite bars count unless excluded)."""
    delta = Fraction(delta)
    if delta < 0:
        raise ValueError("delta must be nonnegative")
    n = 0
    for b in barcode.bars:
        if b.infinite:
            n += 0 if finite_only else 1
        elif b.length > delta:
            n += 1
    return n


# -- matching feasibility ----------------------------------------------------

def _abs_diff(x, y):
    if x == INF and y == INF:
        return Fraction(0)
    if x == INF or y == INF:
        return INF
    return abs(x - y)


def _bipartite_match(adj: list[list[int]], n_right: int) -> int:
    """Maximum bipartite matching size (augmenting paths; tiny instances)."""
    match_r = [-1] * n_right

    def try_kuhn(u, seen):
        for v in adj[u]:
            if not seen[v]:
                seen[v] = True
                if match_r[v] == -1 or try_kuhn(match_r[v], seen):
                    match_r[v] = u
                    return True
        return False

    size = 0
    for u in range(len(adj)):
        if try_kuhn(u, [False] * n_right):
            size += 1
    return size


def _match_ok(x: Bar, y: Bar, a, b) -> bool:
    """Endpoint constraints for matching x in B1 with y in B2 under an
    (a,b)-interleaving: deviations y-x lie in [-b, a] at both endpoints."""
    if not -b <= y.birth - x.birth <= a:
        return False
    if x.infinite and y.infinite:
        return True
    if x.infinite or y.infinite:
        return False
    return -b <= y.death - x.death <= a


def _interleaving_feasible(bars1: list[Bar], bars2: list[Bar], a, b) -> bool:
    """Matching test for an asymmetric (a,b)-interleaving of one degree slice.

    Matched bars must satisfy birth/death deviations within [-b, a] (maps go
    forward by <= a, backward by <= b); unmatched bars need length <= a+b.
    By Mendelsohn-Dulmage it suffices that each side's long bars admit a
    one-sided matching into the other side.
    """
    thresh = a + b
    need1 = [i for i, x in enumerate(bars1) if x.length > thresh]
    need2 = [j for j, y in enumerate(bars2) if y.length > thresh]
    adj = []
    for i in need1:
        adj.append([j for j, y in enumerate(bars2) if _match_ok(bars1[i], y, a, b)])
    if _bipartite_match(adj, len(bars2)) < len(need1):
        return False
    adj2 = []
    for j in need2:
        adj2.append([i for i, x in enumerate(bars1) if _match_ok(x, bars2[j], a, b)])
    return _bipartite_match(adj2, len(bars1)) == len(need2)


def _candidate_epsilons(bars1, bars2):
    cands = {Fraction(0)}
    finite_ends = []
    for x in bars1 + bars2:
        finite_ends.append(x.birth)
        if not x.infinite:
            finite_ends.append(x.death)
        if not x.infinite:
            cands.add(x.length / 2)
    for x in bars1:
        for y in bars2:
            d = _abs_diff(x.birth, y.birth)
            if d != INF:
                cands.add(d)
            d = _abs_diff(x.death, y.death)
            if d != INF:
                cands.add(d)
    return sorted(cands)


def _degree_slices(B1: Barcode, B2: Barcode):
    if B1.grading_modulus != B2.grading_modulus:
        raise ValueError("grading modulus mismatch")
    degs = set(b.degree for b in B1.bars) | set(b.degree for b in B2.bars)
    for d in sorted(degs):
        yield (
            [b for b in B1.bars if b.degree == d],
            [b for b in B2.bars if b.degree == d],
        )


def interleaving_distance(B1: Barcode, B2: Barcode):
    """Bottleneck distance of the degree-split diagrams; inf on mismatch of
    semi-infinite bar counts."""
    worst = Fraction(0)
    for bars1, bars2 in _degree_slices(B1, B2):
        if sum(1 for b in bars1 if b.infinite) != sum(1 for b in bars2 if b.infinite):
            return INF
        cands = _candidate_epsilons(bars1, bars2)
        lo, hi = 0, len(cands) - 1
        best = None
        while lo <= hi:
            mid = (lo + hi) // 2
            if _interleaving_feasible(bars1, bars2, cands[mid], cands[mid]):
                best = cands[mid]
                hi = mid - 1
            else:
                lo = mid + 1
        if best is None:
            return INF
        worst = max(worst, best)
    return worst


def dint_variant(B1: Barcode, B2: Barcode):
    """Infimal a+b over asymmetric (a,b)-interleavings.

    The pair (a, b) is common to all degrees, so candidates are collected
    globally and feasibility is required on every degree slice.
    """
    slices = list(_degree_slices(B1, B2))
    for bars1, bars2 in slices:
        if sum(1 for b in bars1 if b.infinite) != sum(1 for b in bars2 if b.infinite):
            return INF
    best = None
    for a, b in _candidate_ab(list(B1.bars), list(B2.bars)):
        if best is not None and a + b >= best:
            continue
        if all(_interleaving_feasible(s1, s2, a, b) for s1, s2 in slices):
            best = a + b
    return INF if best is None else best


def _candidate_ab(bars1, bars2):
    """Candidate (a,b) pairs: the optimum has both a and b at a tight
    constraint, i.e. at a signed endpoint difference, zero, or at
    length-(a+b) boundaries."""
    diffs = {Fraction(0)}
    lengths = set()
    for x in bars1:
        for y in bars2:
            for u, v in ((x.birth, y.birth), (x.death, y.death)):
                if u != INF and v != INF:
                    diffs.add(v - u)
                    diffs.add(u - v)
    for x in bars1 + bars2:
        if not x.infinite:
            lengths.add(x.length)
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


def retract_interleaving(R: Barcode, X: Barcode):
    """Infimal r allowing phi: S^r R -> X, psi: S^r X -> R with
    psi . S^r phi = eta_{2r}; computed by the one-sided matching criterion
    (every R-bar of length > 2r injects into an r-compatible X-bar)."""
    worst = Fraction(0)
    for barsR, barsX in _degree_slices(R, X):
        cands = _retract_candidates(barsR, barsX)
        best = None
        for r in cands:
            if _retract_feasible(barsR, barsX, r):
                best = r
                break
        if best is None:
            return INF
        worst = max(worst, best)
    return worst


def _retract_candidates(barsR, barsX):
    cands = {Fraction(0)}
    for x in barsR:
        if not x.infinite:
            cands.add(x.length / 2)
        for y in barsX:
            d = _abs_diff(x.birth, y.birth)
            if d != INF:
                cands.add(d)
            d = _abs_diff(x.death, y.death)
            if d != INF:
                cands.add(d)
            # breakpoints of the overlap conditions birth+r < death
            if y.death != INF and y.death - x.birth >= 0:
                cands.add(y.death - x.birth)
            if x.death != INF and x.death - y.birth >= 0:
                cands.add(x.death - y.birth)
    return sorted(c for c in cands if c >= 0)


def _retract_compatible(I: Bar, J: Bar, r) -> bool:
    """Can eta_{2r} on I factor through J with shifts r on both sides?"""
    if _abs_diff(I.birth, J.birth) > r:
        return False
    if _abs_diff(I.death, J.death) > r:
        return False
    # nonvanishing of both maps: S^r I overlaps J at the required end
    if not (J.death == INF or I.birth + r < J.death):
        return False
    if not (I.death == INF or J.birth + r < I.death):
        return False
    return True


def _retract_feasible(barsR, barsX, r) -> bool:
    need = [i for i, x in enumerate(barsR) if x.length > 2 * r]
    adj = []
    for i in need:
        adj.append(
            [j for j, y in enumerate(barsX) if _retract_compatible(barsR[i], y, r)]
        )
    return _bipartite_match(adj, len(barsX)) == len(need)


def shift_invariant(metric: Callable, B1: Barcode, B2: Barcode):
    """inf over global shifts s of metric(S^s B1, B2)."""
    diffs = {Fraction(0)}
    for x in B1.bars:
        for y in B2.bars:
            for u, v in ((x.birth, y.birth), (x.death, y.death), (x.birth, y.death), (x.death, y.birth)):
                if u != INF and v != INF:
                    diffs.add(v - u)
    base = sorted(diffs)
    cands = set(base)
    for u, v in itertools.combinations(base, 2):
        cands.add((u + v) / 2)
    best = INF
    for s in sorted(cands):
        val = metric(B1.shift(s), B2)
        if val < best:
            best = val
    return best


def spectral_range(B: Barcode):
    """max birth - min birth over semi-infinite bars."""
    births = [b.birth for b in B.bars if b.infinite]
    if not births:
        raise ValueError("barcode has no semi-infinite bars")
    return max(births) - min(births)


def retract_complement(R: Barcode, X: Barcode, eps) -> Barcode:
    """A barcode K with d_int(R + K, X) < 2*eps, given d_rint(R, X) < eps."""
    eps = Fraction(eps)
    r = retract_interleaving(R, X)
    if not r < eps:
        raise ValueError(f"retract_interleaving(R,X) = {r} is not < eps = {eps}")
    leftover: list[Bar] = []
    for barsR, barsX in _degree_slices(R, X):
        need = [i for i, x in enumerate(barsR) if x.length > 2 * r]
        adj = [
            [j for j, y in enumerate(barsX) if _retract_compatible(barsR[i], y, r)]
            for i in need
        ]
        match_r = [-1] * len(barsX)

        def try_kuhn(u, seen):
            for v in adj[u]:
                if not seen[v]:
                    seen[v] = True
                    if match_r[v] == -1 or try_kuhn(match_r[v], seen):
                        match_r[v] = u
                        return True
            return False

        for u in range(len(need)):
            if not try_kuhn(u, [False] * len(barsX)):
                raise AssertionError("matching disappeared below certified r")
        used = {v for v, u in enumerate(match_r) if u != -1}
        leftover.extend(y for j, y in enumerate(barsX) if j not in used)
    return Barcode(tuple(leftover), X.grading_modulus)


# -- chain-level brute-force oracle ------------------------------------------
#
# Interval modules over GF(2): a morphism [b1,d1) -> [b2,d2) of degree-equal
# bars is nonzero iff b2 <= b1 < d2 <= d1.  Morphisms of barcodes are GF(2)
# matrices supported on such pairs; compositions are matrix products with a
# reachability filter.  The oracle enumerates phi and solves linearly for psi.


def _hom_nonzero(src: Bar, dst: Bar) -> bool:
    # src = [b1,d1), dst = [b2,d2): nonzero iff b2 <= b1 < d2 <= d1
    if dst.birth > src.birth:
        return False
    if dst.death != INF and src.birth >= dst.death:
        return False
    if dst.death == INF:
        return src.death == INF
    return src.death == INF or dst.death <= src.death


def _shift_bar(x: Bar, s) -> Bar:
    return Bar(x.birth + s, x.death + s if x.death != INF else INF, x.degree)


def _allowed_pairs(bars_src, bars_dst, shift):
    """Indices (i,j) where a degree-0 morphism S^shift src_i -> dst_j can be
    nonzero."""
    out = []
    for i, x in enumerate(bars_src):
        xs = _shift_bar(x, shift)
        for j, y in enumerate(bars_dst):
            if x.degree == y.degree and _hom_nonzero(xs, y):
                out.append((i, j))
    return out


def _eta_matrix(bars, shift):
    """Diagonal of eta_shift: S^shift I -> I, nonzero iff length > shift."""
    return [1 if (x.infinite or x.length > shift) else 0 for x in bars]


def oracle_interleaving_feasible(B1: Barcode, B2: Barcode, a, b) -> bool:
    """Brute-force: exists phi: S^a B1 -> B2 and psi: S^b B2 -> B1 with both
    composites equal to the structure maps eta_{a+b}.  Enumerates phi over
    GF(2) assignments on allowed pairs, solving linearly for psi."""
    for bars1, bars2 in _degree_slices(B1, B2):
        if not _oracle_slice_feasible(bars1, bars2, a, b, symmetric=True):
            return False
    return True


def oracle_retract_feasible(R: Barcode, X: Barcode, r) -> bool:
    for barsR, barsX in _degree_slices(R, X):
        if not _oracle_slice_feasible(barsR, barsX, r, r, symmetric=False):
            return False
    return True


def _oracle_slice_feasible(bars1, bars2, a, b, symmetric: bool) -> bool:
    pairs_phi = _allowed_pairs(bars1, bars2, a)
    pairs_psi = _allowed_pairs(bars2, bars1, b)
    eta1 = _eta_matrix(bars1, a + b)
    eta2 = _eta_matrix(bars2, a + b)
    n1, n2 = len(bars1), len(bars2)
    if not pairs_phi and any(eta1):
        return False
    # enumerate phi assignments; for each, psi must satisfy linear equations
    for bits in range(1 << len(pairs_phi)):
        phi = {}
        for t, (i, j) in enumerate(pairs_phi):
            if (bits >> t) & 1:
                phi[(i, j)] = 1
        # unknowns: psi entries on pairs_psi; cols[t] is the set of equations
        # that entry t enters, rhs the set of equations whose right side is 1
        cols = [0] * len(pairs_psi)
        rhs = 0
        eq = 0
        # psi . S^b phi = eta_{a+b} on B1
        for i in range(n1):
            for k in range(n1):
                for t, (j, kk) in enumerate(pairs_psi):
                    if kk != k:
                        continue
                    if phi.get((i, j), 0):
                        xs = _shift_bar(bars1[i], a + b)
                        if _hom_nonzero(xs, bars1[k]):
                            cols[t] ^= 1 << eq
                if i == k and eta1[i]:
                    rhs |= 1 << eq
                eq += 1
        if symmetric:
            # phi . S^a psi = eta_{a+b} on B2: linear in psi as well
            for j in range(n2):
                for k in range(n2):
                    for t, (jj, i) in enumerate(pairs_psi):
                        if jj != j:
                            continue
                        if phi.get((i, k), 0):
                            ys = _shift_bar(bars2[j], a + b)
                            if _hom_nonzero(ys, bars2[k]):
                                cols[t] ^= 1 << eq
                    if j == k and eta2[j]:
                        rhs |= 1 << eq
                    eq += 1
        if gf2.solve(cols, rhs) is not None:
            return True
    return False


def oracle_interleaving_distance(B1: Barcode, B2: Barcode):
    for bars1, bars2 in _degree_slices(B1, B2):
        if sum(1 for b in bars1 if b.infinite) != sum(1 for b in bars2 if b.infinite):
            return INF
    cands = sorted(set(_candidate_epsilons(list(B1.bars), list(B2.bars))))
    for c in cands:
        if oracle_interleaving_feasible(B1, B2, c, c):
            return c
    return INF


def oracle_dint_variant(B1: Barcode, B2: Barcode):
    best = INF
    for a, b in _candidate_ab(list(B1.bars), list(B2.bars)):
        if a + b >= best:
            continue
        if oracle_interleaving_feasible(B1, B2, a, b):
            best = a + b
    return best


def oracle_retract_interleaving(R: Barcode, X: Barcode):
    cands = sorted(
        set().union(
            *(
                _retract_candidates(
                    [b for b in R.bars if b.degree == d],
                    [b for b in X.bars if b.degree == d],
                )
                for d in set(x.degree for x in R.bars) | set(x.degree for x in X.bars)
            )
        )
        | {Fraction(0)}
    )
    for r in cands:
        if oracle_retract_feasible(R, X, r):
            return r
    return INF
