"""Floer-type complexes over the Novikov field: concise barcodes and gaps.

Generators carry an action level; a differential entry from x to y is a
Novikov element P with val(P) >= l(x) - l(y), so the action never increases.
The *normalized valuation* of an entry, val(P) - l(x) + l(y), is the length
of the bar the pair would produce, and the reduction below repeatedly cancels
the entry of minimal normalized valuation (ties by generator index).  The
result is the concise barcode: finite bar lengths plus per-degree counts of
infinite bars.

Every level and entry exponent of a complex lies in (1/D)Z for D their
common scale (``persalg.lattice``), and sums, differences and inverses of such
exponents stay there.  So the reduction compares normalized valuations as the
exact integers ``nv * D``; only the recorded bar lengths are Fractions again.

Division by pivots brings in infinite Novikov series, so the reduction runs
at a working precision; a ``PrecisionError`` is raised whenever a pivoting
decision would depend on terms beyond that precision.

A ``FloerComplex`` must not be mutated after construction: ``concise_barcode``
keeps its result on the complex, one per working precision, so each complex
is reduced once however many bar counts are read from it, and its lattice and
entry keys are read once however many checks and reductions use them.
"""

from __future__ import annotations

import heapq
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter, le
from typing import Sequence

from . import gf2, jsonread, sparse
from .filtered_complex import FilteredComplex, Gen, generators_and_edges
from .lattice import common_scale, over, scale_lcm
from .novikov import NOV_ONE, NovikovElement
from .persistence import INF


# (D, levels * D, entry keys (nv * D, i, j)): see _lattice
_Lattice = tuple[int, list[int], list[tuple[int, int, int]]]


class PrecisionError(RuntimeError):
    pass


class CoverageError(KeyError):
    """A tabulated operation was queried outside its declared coverage."""


@dataclass(frozen=True)
class ConciseBarcode:
    """Usher-Zhang invariant: finite bar lengths (with the degree of the
    dying cycle), sorted by (length, degree), and per-degree infinite bar
    counts."""

    finite: tuple[tuple[Fraction, int], ...]  # (length, degree), sorted
    infinite: tuple[tuple[int, int], ...]  # (degree, count)

    def __post_init__(self):
        if not all(map(le, self.finite, self.finite[1:])):
            raise ValueError("finite bars must be sorted by (length, degree)")

    def infinite_total(self) -> int:
        return sum(c for _, c in self.infinite)

    def generator_count(self) -> int:
        return 2 * len(self.finite) + self.infinite_total()

    def bar_count(self, delta) -> int:
        """#finite bars of length > delta plus all infinite bars."""
        delta = Fraction(delta)
        if delta < 0:
            raise ValueError("delta must be nonnegative")
        longer = len(self.finite) - bisect_right(self.finite, delta, key=itemgetter(0))
        return longer + self.infinite_total()

    def to_json(self) -> dict:
        return {
            "finite": [{"length": str(l), "degree": d} for l, d in self.finite],
            "infinite": [{"degree": d, "count": c} for d, c in self.infinite],
        }


class FloerComplex:
    def __init__(self, generators: Sequence[Gen],
                 differential: dict[int, dict[int, NovikovElement]],
                 grading_modulus: int = 2, validate: bool = True):
        self.gens = tuple(generators)
        self.modulus = int(grading_modulus)
        self.diff: dict[int, dict[int, NovikovElement]] = {
            i: {j: P for j, P in row.items() if P} for i, row in differential.items()
        }
        self.diff = {i: row for i, row in self.diff.items() if row}
        # concise barcodes by working precision (None: automatic)
        self._barcodes: dict[Fraction | None, ConciseBarcode] = {}
        self._lattice: _Lattice | None = None  # see _lattice
        if validate:
            self.validate()

    def dim(self) -> int:
        return len(self.gens)

    def degree_of(self, i: int) -> int:
        d = self.gens[i].degree
        return d % self.modulus if self.modulus else d

    def validate(self):
        for nv, i, j in _lattice(self)[2]:
            # level of P*g_j is l(g_j) - val(P); it must not exceed l(g_i)
            if nv < 0:
                raise ValueError(
                    f"entry {self.gens[i].name}->{self.gens[j].name} raises action")
            if self.modulus and (self.gens[j].degree - self.gens[i].degree + 1) % self.modulus:
                raise ValueError("differential entry has wrong degree")
        for i, row in self.diff.items():
            acc: dict[int, NovikovElement] = {}
            for j, P in row.items():
                if (dj := self.diff.get(j)) is not None:
                    sparse.add_into(acc, dj, P)
            if not sparse.is_zero(acc):
                raise ValueError(f"d^2 != 0 at generator {self.gens[i].name}")

    def apply(self, vec: dict[int, NovikovElement]) -> dict[int, NovikovElement]:
        return sparse.apply(self.diff, vec)

    def level_of(self, vec: dict[int, NovikovElement]):
        return sparse.level(vec, lambda i: self.gens[i].level)

    def to_json(self) -> dict:
        return {
            "modulus": self.modulus,
            "generators": [
                {"name": g.name, "degree": g.degree, "level": str(g.level)}
                for g in self.gens
            ],
            "differential": [
                {"from": self.gens[i].name, "to": self.gens[j].name,
                 "coefficient": str(P), **P.precision_json()}
                for i, row in sorted(self.diff.items())
                for j, P in sorted(row.items())
            ],
        }

    @staticmethod
    def from_json(data: dict) -> "FloerComplex":
        gens, edges = generators_and_edges(data)
        diff: dict[int, dict[int, NovikovElement]] = {}
        for p, rec, i, j in edges:
            diff.setdefault(i, {})[j] = NovikovElement.parse(
                jsonread.string(rec, "coefficient", p), jsonread.rational(rec, "precision", p, None))
        return FloerComplex(gens, diff, jsonread.integer(data, "modulus", default=2))


def _lattice(C: FloerComplex) -> _Lattice:
    """The common scale D of the levels and entry exponents of C, each
    generator's level times D, and the key ``(nv * D, i, j)`` of each entry
    P from i to j, in ``diff`` row order: its lattice and entry keys are read
    once and kept on C.  The normalized valuation nv is ``_val(P, D) +
    lev[i] - lev[j]`` over D."""
    if C._lattice is None:
        D = scale_lcm(common_scale(g.level for g in C.gens),
                      *{P.den for row in C.diff.values() for P in row.values()})
        lev = [over(g.level, D) for g in C.gens]
        keys = [(_val(P, D) + lev[i] - lev[j], i, j)
                for i, row in C.diff.items() for j, P in row.items()]
        C._lattice = D, lev, keys
    return C._lattice


def _val(P: NovikovElement, D: int) -> int:
    """val(P) * D as an int, for a nonzero P and D a multiple of its scale."""
    return P.num[0] * (D // P.den)


def _auto_precision(C: FloerComplex, D: int, lev: list[int]) -> Fraction:
    """(level span + largest |entry exponent| + 1) * (dim + 2) + 8."""
    span = max(lev) - min(lev) if lev else 0
    ent = 0
    for row in C.diff.values():
        for P in row.values():
            ent = max(ent, max(abs(P.num[0]), abs(P.num[-1])) * (D // P.den))
    return Fraction((span + ent + D) * (C.dim() + 2) + 8 * D, D)


@dataclass
class Reduction:
    """Outcome of the non-Archimedean Gaussian reduction.

    ``pairs`` lists (b_index, a_index, length); ``basis`` expresses the final
    basis vector attached to each original generator index in original
    coordinates (column-style change of basis, so d(basis[b]) has the single
    pivot at a after reduction of lower-order noise up to precision).
    """

    complex: FloerComplex
    pairs: list[tuple[int, int, Fraction]]
    unpaired: list[int]
    basis: dict[int, dict[int, NovikovElement]]


def reduce_floer(C: FloerComplex, working_precision=None) -> Reduction:
    """Two-sided elimination with minimal normalized-valuation pivoting.

    The pivot is the alive entry of minimal (nv, i, j).  A heap keeps a key
    per entry written, with nv as the integer nv * D, starting from the
    entry keys of ``_lattice``; a key is skipped when popped stale (i or j
    dead, entry gone or nv changed).  ``rows_at[j]`` lists the rows with an
    entry at column j, so a pivot touches only those rows, and a pivot is
    inverted only when one of them is alive.  Only rows of ``diff`` get a
    column and only columns holding an entry get ``rows_at``.  Each written
    entry passes ``is_zero``.  The automatic working precision is computed
    only when an inversion or a vanished entry reads it.  Bars of equal
    length share one Fraction.
    """
    D, lev, keys = _lattice(C)
    # an explicit precision is read now, so that a bad one raises here
    prec = Fraction(working_precision) if working_precision is not None else None

    def precision() -> Fraction:
        nonlocal prec
        if prec is None:
            prec = _auto_precision(C, D, lev)
        return prec

    n = C.dim()
    cols = {i: dict(row) for i, row in C.diff.items()}
    basis: dict[int, dict[int, NovikovElement]] = {
        i: {i: NOV_ONE} for i in range(n)
    }
    rows_at: dict[int, set[int]] = {}
    for _, i, j in keys:
        rows_at.setdefault(j, set()).add(i)
    heap = list(keys)
    heapq.heapify(heap)
    alive = set(range(n))
    pairs: list[tuple[int, int, Fraction]] = []
    lengths: dict[int, Fraction] = {}

    def is_zero(P: NovikovElement) -> bool:
        if P:
            return False
        if P.precision is not None and P.precision < precision() / 2:
            raise PrecisionError(
                "entry vanished only up to working precision; increase it")
        return True

    while heap:
        nv, bi, aj = heapq.heappop(heap)
        P = cols[bi].get(aj)
        if (bi not in alive or aj not in alive or P is None
                or _val(P, D) + lev[bi] - lev[aj] != nv):
            continue
        if (length := lengths.get(nv)) is None:
            length = lengths[nv] = Fraction(nv, D)
        pairs.append((bi, aj, length))
        alive.discard(bi)
        alive.discard(aj)
        if rows := rows_at.pop(aj) & alive:
            Pinv = P.invert(precision() + abs(P.valuation))
            residue = {k: Q for k, Q in cols[bi].items() if k != aj and k in alive}
        for x in sorted(rows):
            row = cols[x]
            coef = row.pop(aj) * Pinv
            row.pop(bi, None)
            for k, R in residue.items():
                val = coef * R
                if (old := row.get(k)) is not None:
                    val = old + val
                if is_zero(val):
                    row.pop(k, None)
                    rows_at[k].discard(x)
                else:
                    row[k] = val
                    rows_at[k].add(x)
                    heapq.heappush(heap, (_val(val, D) + lev[x] - lev[k], x, k))
            sparse.add_into(basis[x], basis[bi], coef)  # the column operation on the basis
        for x in rows_at.pop(bi, set()) & alive:
            cols[x].pop(bi, None)
    return Reduction(C, pairs, sorted(alive), basis)


def concise_barcode(C: FloerComplex, working_precision=None) -> ConciseBarcode:
    """The concise barcode of C, kept on C per working precision (None:
    automatic); a ``PrecisionError`` is raised again on every call."""
    key = None if working_precision is None else Fraction(working_precision)
    B = C._barcodes.get(key)
    if B is not None:
        return B
    red = reduce_floer(C, working_precision)
    finite = tuple(sorted((length, C.degree_of(aj)) for _, aj, length in red.pairs))
    inf_counts: dict[int, int] = {}
    for u in red.unpaired:
        d = C.degree_of(u)
        inf_counts[d] = inf_counts.get(d, 0) + 1
    B = C._barcodes[key] = ConciseBarcode(finite, tuple(sorted(inf_counts.items())))
    return B


def bar_count_at(C: FloerComplex, delta, working_precision=None) -> int:
    """#finite bars of length > delta plus all infinite bars."""
    if Fraction(delta) < 0:
        raise ValueError("delta must be nonnegative")
    return concise_barcode(C, working_precision).bar_count(delta)


def counting_lemma_bound(C: FloerComplex) -> tuple[Fraction, Fraction]:
    """If C has m generators, r of which survive in homology over the field,
    and every differential entry has normalized valuation >= v, then there
    are (m - r)/2 finite bars, each of length >= v.  Returns ((m-r)/2, v)."""
    D, _, keys = _lattice(C)
    vmin = min(keys, default=(0,))[0]
    r = concise_barcode(C).infinite_total()
    return Fraction(C.dim() - r, 2), Fraction(vmin, D)


# -- membership / gap computations --------------------------------------------

def express_in_reduction(red: Reduction, w: dict[int, NovikovElement]):
    """Write the cycle w as sum c_i d(B_i) + sum q_j U_j in the reduced basis,
    inverting pivots at the automatic working precision.

    Returns (pair_coeffs, unpaired_coeffs) where pair_coeffs[(bi, aj)] = c and
    unpaired_coeffs[u] = q.  Raises if w is not in the span (not a cycle).
    """
    C = red.complex
    D, lev, _ = _lattice(C)
    prec = _auto_precision(C, D, lev)
    # columns of the linear system: the boundaries d(B_i) and unpaired U_j
    columns: list[tuple[str, object, dict[int, NovikovElement]]] = []
    for bi, aj, _ in red.pairs:
        vec = C.apply(red.basis[bi])
        columns.append(("pair", (bi, aj), vec))
    for u in red.unpaired:
        columns.append(("unpaired", u, dict(red.basis[u])))
    target = sparse.nonzero(w)
    vecs = [dict(vec) for _, _, vec in columns]
    keys = [(kind, key) for kind, key, _ in columns]
    # combo[i] expresses the current column i over the original columns, so
    # column operations do not corrupt the meaning of the solution
    combos: list[dict[tuple, NovikovElement]] = [{keys[i]: NOV_ONE} for i in range(len(vecs))]
    order = []
    used_rows: set[int] = set()
    for idx in range(len(vecs)):
        vec = vecs[idx]
        pivot = None
        for r, P in vec.items():
            if r in used_rows or not P:
                continue
            nv = _val(P, D) - lev[r]
            if pivot is None or (nv, r) < pivot[:2]:
                pivot = (nv, r, P)
        if pivot is None:
            continue
        _, r, P = pivot
        used_rows.add(r)
        # the column without its pivot row, final from here on
        rest = {k: R for k, R in vec.items() if k != r}
        order.append((idx, r, P, rest))
        Pinv = P.invert(prec + abs(P.valuation))
        for idx2 in range(idx + 1, len(vecs)):
            Q = vecs[idx2].pop(r, None)
            if Q is not None and Q:
                coef = Q * Pinv
                sparse.add_into(vecs[idx2], rest, coef)
                sparse.add_into(combos[idx2], combos[idx], coef)
    # forward substitution: each pivot row survives only in its own column
    residual = dict(target)
    z: dict[int, NovikovElement] = {}
    for idx, r, P, rest in order:
        Q = residual.pop(r, None)
        if Q is None or not Q:
            continue
        coef = Q * P.invert(prec + abs(P.valuation))
        z[idx] = coef
        sparse.add_into(residual, rest, coef)
    if sparse.nonzero(residual):
        raise ValueError("vector is not a cycle of the complex")
    solution: dict[tuple, NovikovElement] = {}
    for idx, coef in z.items():
        sparse.add_into(solution, combos[idx], coef)
    pair_coeffs = {key: c for (kind, key), c in solution.items() if kind == "pair" and c}
    unp_coeffs = {key: c for (kind, key), c in solution.items() if kind == "unpaired" and c}
    return pair_coeffs, unp_coeffs


def death_level(C: FloerComplex, w: dict[int, NovikovElement]):
    """inf{s : w in d(C^{<= s})}, or INF if [w] survives forever.

    ``w`` must be a cycle; the optimum is read off the orthogonalized
    reduction: with w = sum c_i d(B_i) + sum q_j U_j, the minimal primitive
    level is max_i (l(B_i) - val(c_i)), and any nonzero q_j means +inf.
    """
    red = reduce_floer(C)
    pair_coeffs, unp_coeffs = express_in_reduction(red, w)
    if not sparse.is_zero(unp_coeffs):
        return INF
    if not pair_coeffs:
        return None  # w == 0
    out = None
    for (bi, aj), c in pair_coeffs.items():
        if not c:
            continue
        lv = C.level_of({k: v * c for k, v in red.basis[bi].items()})
        out = lv if out is None else max(out, lv)
    return out


# -- maps and cones ------------------------------------------------------------

class FloerMap:
    """Degree-0 chain map of Floer complexes with Novikov entries."""

    def __init__(self, source: FloerComplex, target: FloerComplex,
                 matrix: dict[int, dict[int, NovikovElement]], shift=0,
                 validate: bool = True):
        self.source = source
        self.target = target
        self.shift = Fraction(shift)
        self.mat = {i: {j: P for j, P in row.items() if P}
                    for i, row in matrix.items()}
        self.mat = {i: row for i, row in self.mat.items() if row}
        if validate:
            self.validate()

    def validate(self):
        for i, row in self.mat.items():
            gi = self.source.gens[i]
            for j, P in row.items():
                gj = self.target.gens[j]
                # level of P*gj is gj.level - val(P) <= gi.level + shift
                if P.valuation < gj.level - gi.level - self.shift:
                    raise ValueError("map entry exceeds declared shift")
                if self.source.modulus and (gj.degree - gi.degree) % self.source.modulus:
                    raise ValueError("map entry changes degree")
        for i in range(self.source.dim()):
            lhs = self.apply(self.source.diff.get(i, {}))
            rhs = self.target.apply(self.mat.get(i, {}))
            if sparse.add(lhs, rhs):
                raise ValueError("not a chain map")

    def apply(self, vec: dict[int, NovikovElement]) -> dict[int, NovikovElement]:
        return sparse.apply(self.mat, vec)


def floer_cone(f: FloerMap) -> tuple[FloerComplex, int]:
    """Cone(f) = target + T(source) with d(x_src) = d_src x + f(x).

    Returns the cone and the offset of the source block."""
    A, B = f.source, f.target
    gens = [Gen(g.name, g.degree, g.level) for g in B.gens]
    gens += [Gen(f"T{g.name}", g.degree + 1, g.level) for g in A.gens]
    nb = B.dim()
    diff: dict[int, dict[int, NovikovElement]] = {}
    for i, row in B.diff.items():
        diff[i] = dict(row)
    for i in range(A.dim()):
        row: dict[int, NovikovElement] = {}
        for j, P in A.diff.get(i, {}).items():
            row[nb + j] = P
        sparse.add_into(row, f.mat.get(i, {}))
        if row:
            diff[nb + i] = row
    return FloerComplex(gens, diff, B.modulus, validate=False), nb


def reach_gap_floer(w: dict[int, NovikovElement], level_r, f: FloerMap):
    """R(w, f) over the Novikov field via the cone trick: w is reached at
    level s iff it becomes a boundary of the cone at level s."""
    r = Fraction(level_r)
    conec, nb = floer_cone(f)
    w_cone = dict(w)
    lvl = death_level(conec, w_cone)
    if lvl is None:
        return r
    if lvl == INF:
        return INF
    return max(lvl, r)


# -- Z2 window oracle ----------------------------------------------------------

def z2_window_complex(C: FloerComplex, radius, step) -> FilteredComplex:
    """Finite Z2 model of C: generators T^q x for q in the grid, restricted
    to levels within [-radius, radius] (a subquotient, hence a complex)."""
    radius = Fraction(radius)
    step = Fraction(step)
    qs = []
    q = -radius
    while q <= radius:
        qs.append(q)
        q += step
    gens = []
    index = {}
    for i, g in enumerate(C.gens):
        for q in qs:
            lv = g.level - q
            if -radius <= lv <= radius:
                index[(i, q)] = len(gens)
                gens.append(Gen(f"{g.name}@{q}", g.degree, lv))
    diff: dict[int, list[int]] = {}
    for (i, q), src in index.items():
        rows = []
        for j, P in C.diff.get(i, {}).items():
            if P.precision is not None and P.precision <= 2 * radius:
                raise PrecisionError("entry precision too small for the window")
            for e in P.exponents:
                key = (j, q + e)
                tgt = index.get(key)
                if tgt is not None:
                    rows.append(tgt)
                else:
                    lv = C.gens[j].level - (q + e)
                    if lv > radius:
                        raise AssertionError("window is not closed under d")
        if rows:
            diff[src] = rows
    return FilteredComplex(gens, diff, C.modulus, validate=False)


def t1_homology_rank(C: FloerComplex) -> int:
    """Rank over Z2 of the homology after setting T = 1 (entries must be
    exact)."""
    cols = []
    for row in C.diff.values():
        mask = 0
        for j, P in row.items():
            if P.precision is not None:
                raise PrecisionError("T=1 specialization needs exact entries")
            if len(P.num) % 2:
                mask |= 1 << j
        cols.append(mask)
    return C.dim() - 2 * gf2.rank(cols)
