"""Shared random-instance generators and bench models for the test suite."""

from __future__ import annotations

import random
from fractions import Fraction

from persalg import gf2
from persalg.filtered_complex import (
    FilteredComplex,
    Gen,
    direct_sum,
    e1,
    e2,
)
from persalg.fukaya_models import (
    build_single_equator,
    build_sphere,
    build_torus_bxy,
    build_torus_grid,
    build_torus_longitudes,
)
from persalg.persistence import INF, Bar, Barcode

LEVEL_GRID = [Fraction(k, 4) for k in range(0, 17)]


def bench_models():
    """The 11 tabulated models of the ainf-diagrams benchmark, freshly built."""
    yield build_single_equator()
    for n in (2, 3, 4):
        for h in (0, Fraction(1, 100)):
            yield build_sphere(n, h)
    yield build_torus_bxy()
    for n in (2, 3):
        yield build_torus_longitudes(n, precision=6)
    yield build_torus_grid(2)


def random_elementary(rng: random.Random, n_pieces: int, modulus: int = 0,
                      degree_span: int = 2) -> FilteredComplex:
    pieces = []
    for i in range(n_pieces):
        deg = rng.randrange(-degree_span, degree_span + 1)
        if rng.random() < 0.6:
            va = rng.choice(LEVEL_GRID)
            vb = va + rng.choice(LEVEL_GRID)
            pieces.append(e2(va, vb, deg, f"g{i}", modulus))
        else:
            pieces.append(e1(rng.choice(LEVEL_GRID), deg, f"g{i}", modulus))
    return direct_sum(*pieces) if pieces else FilteredComplex((), {}, modulus)


def random_basis_change(rng: random.Random, C: FilteredComplex) -> FilteredComplex:
    """Conjugate by a random filtered unitriangular change of basis."""
    n = C.dim()
    order = sorted(range(n), key=lambda i: (C.gens[i].level, i))
    P = [1 << i for i in range(n)]  # columns: new basis vector i over old
    for _ in range(2 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        # add g_j into g_i's new vector when level(j) <= level(i), same degree
        if i == j:
            continue
        if C.gens[j].level <= C.gens[i].level and _deg_eq(C, i, j):
            P[i] ^= P[j]
    # new differential: d_new = P^{-1} d P in column form; column i of
    # P^{-1} solves P x = e_i
    inv = [gf2.solve(P, 1 << i) for i in range(n)]
    diff = {i: gf2.apply(inv, C.d_of(P[i])) for i in range(n)}
    gens = [Gen(f"h{i}", C.gens[i].degree, C.gens[i].level) for i in range(n)]
    return FilteredComplex(gens, diff, C.modulus, C.cohomological)


def _deg_eq(C: FilteredComplex, i: int, j: int) -> bool:
    if C.modulus:
        return (C.gens[i].degree - C.gens[j].degree) % C.modulus == 0
    return C.gens[i].degree == C.gens[j].degree


def random_complex(rng: random.Random, n_pieces: int, modulus: int = 0) -> FilteredComplex:
    return random_basis_change(rng, random_elementary(rng, n_pieces, modulus))


def random_barcode(rng: random.Random, max_bars: int, grid=None,
                   modulus: int = 0, allow_inf: bool = True,
                   degrees=(0,)) -> Barcode:
    grid = grid if grid is not None else [Fraction(k) for k in range(5)]
    bars = []
    for _ in range(rng.randrange(max_bars + 1)):
        b = rng.choice(grid)
        if allow_inf and rng.random() < 0.25:
            d = INF
        else:
            larger = [g for g in grid if g > b]
            if not larger:
                continue
            d = rng.choice(larger)
        bars.append(Bar(b, d, rng.choice(degrees)))
    return Barcode(tuple(bars), modulus)


def random_stability_instance(rng: random.Random, delta: Fraction):
    """(C, dprime) with D = d + D' squaring to zero and D' dropping >= delta:
    an upper-triangular extension of two elementary blocks by a chain map f
    that drops filtration by delta."""
    top = random_elementary(rng, rng.randrange(1, 4))
    bot_pieces = []
    for i in range(rng.randrange(1, 4)):
        deg = rng.randrange(-2, 3)
        va = rng.choice(LEVEL_GRID) + delta
        if rng.random() < 0.5:
            bot_pieces.append(e2(va, va + rng.choice(LEVEL_GRID), deg, f"b{i}"))
        else:
            bot_pieces.append(e1(va, deg, f"b{i}"))
    bot = direct_sum(*bot_pieces)
    C = direct_sum(top, bot)
    nt = top.dim()
    # D' = chain map f: bot -> top dropping >= delta, supported on the
    # *singles* of bot and landing on *exact* cycles of top (the a-side of
    # an E2 pair).  This is the structure of the Floer application, where
    # the fiber complexes are acyclic; letting D' pair two semi-infinite
    # bars instead provides counterexamples to the bar-count inequality.
    hit_bot = 0
    for j in range(bot.dim()):
        hit_bot |= bot.dmat[j]
    singles = [j for j in range(bot.dim())
               if not bot.dmat[j] and not ((hit_bot >> j) & 1)]
    hit_top = 0
    for i in range(top.dim()):
        hit_top |= top.dmat[i]
    exact_cycles = [i for i in range(top.dim())
                    if not top.dmat[i] and ((hit_top >> i) & 1)]
    dprime: dict[int, list[int]] = {}
    for j in singles:
        gj = bot.gens[j]
        targets = [i for i in exact_cycles
                   if top.gens[i].level <= gj.level - delta
                   and top.gens[i].degree == gj.degree + C.d_degree]
        if targets and rng.random() < 0.8:
            dprime[nt + j] = [rng.choice(targets)]
    return C, dprime


def random_floer_basis_change(rng, C):
    """Random filtered unitriangular basis change of a Floer complex."""
    from persalg.novikov import NOV_ONE, NovikovElement
    from persalg.novikov_complex import FloerComplex

    n = C.dim()
    P = [{i: NOV_ONE} for i in range(n)]
    for _ in range(n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        if (C.gens[i].degree - C.gens[j].degree) % C.modulus:
            continue
        # coefficient with level(c * g_j) <= level(g_i): val >= l_j - l_i
        base = C.gens[j].level - C.gens[i].level
        extra = Fraction(rng.randrange(0, 3), 2)
        c = NovikovElement.monomial(base + extra)
        row = P[i]
        for k, v in P[j].items():
            row[k] = row.get(k, NovikovElement.zero()) + c * v
        P[i] = {k: v for k, v in row.items() if v}

    # d_new(e_i) = P^{-1} d P e_i, solving P x = v by elimination per call
    def apply_P(vec):
        out = {}
        for i, c in vec.items():
            for k, v in P[i].items():
                out[k] = out.get(k, NovikovElement.zero()) + c * v
        return {k: v for k, v in out.items() if v}

    def solve_P(target):
        # gaussian elimination each call (tiny sizes)
        cols = [dict(P[i]) for i in range(n)]
        combos = [{i: NOV_ONE} for i in range(n)]
        resid = dict(target)
        order = []
        used = set()
        for idx in range(n):
            piv = None
            for r, c in cols[idx].items():
                if r in used or not c:
                    continue
                if piv is None or (c.valuation, r) < piv[:2]:
                    piv = (c.valuation, r, c)
            if piv is None:
                continue
            _, r, c = piv
            used.add(r)
            order.append((idx, r, c))
            cinv = c.invert(24)
            for idx2 in range(idx + 1, n):
                q = cols[idx2].pop(r, None)
                if q:
                    coef = q * cinv
                    for k, v in cols[idx].items():
                        if k == r:
                            continue
                        cols[idx2][k] = cols[idx2].get(k, NovikovElement.zero()) + coef * v
                    for k, v in combos[idx].items():
                        combos[idx2][k] = combos[idx2].get(k, NovikovElement.zero()) + coef * v
        out = {}
        for idx, r, c in order:
            q = resid.pop(r, None)
            if q is None or not q:
                continue
            coef = q * c.invert(24)
            for k, v in cols[idx].items():
                if k == r:
                    continue
                resid[k] = resid.get(k, NovikovElement.zero()) + coef * v
            for k, v in combos[idx].items():
                out[k] = out.get(k, NovikovElement.zero()) + coef * v
        assert not any(bool(v and v.exponents) for v in resid.values())
        return {k: v for k, v in out.items() if v}

    diff = {}
    for i in range(n):
        img = C.apply(P[i])
        if img:
            diff[i] = solve_P(img)
    return FloerComplex(list(C.gens), diff, C.modulus, validate=False)


def count_reduce_floer(monkeypatch) -> list:
    """Record the complex of every ``reduce_floer`` call from here on."""
    from persalg import novikov_complex

    calls = []
    real = novikov_complex.reduce_floer

    def counted(C, *args, **kwargs):
        calls.append(C)
        return real(C, *args, **kwargs)

    monkeypatch.setattr(novikov_complex, "reduce_floer", counted)
    return calls


def precision_trap():
    """A Floer complex whose reduction raises ``PrecisionError`` at a working
    precision of 100 and reads the truncated entry as zero at 4."""
    from persalg.novikov import NOV_ONE, NovikovElement
    from persalg.novikov_complex import FloerComplex

    P = NovikovElement((Fraction(1),), precision=3)
    return FloerComplex([Gen("a1", 0, 0), Gen("a2", 0, 0), Gen("b1", 1, 0), Gen("b2", 1, 0)],
                        {2: {0: NOV_ONE, 1: P}, 3: {0: NOV_ONE, 1: P}}, 2)
