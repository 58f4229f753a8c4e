import json
import random
from fractions import Fraction as F

import pytest

from persalg import gf2
from persalg.filtered_complex import (
    FilteredMap,
    Gen,
    _chain_map_classes,
    _cycles,
    homology_barcode,
    reach_gap,
)
from persalg.novikov import NOV_ONE, NovikovElement as N
from persalg.novikov_complex import (
    ConciseBarcode,
    FloerComplex,
    FloerMap,
    PrecisionError,
    bar_count_at,
    concise_barcode,
    counting_lemma_bound,
    death_level,
    reach_gap_floer,
    reduce_floer,
    t1_homology_rank,
    z2_window_complex,
)
from persalg.entropy import dehn_sphere_model
from util import count_reduce_floer, precision_trap, random_complex, random_floer_basis_change


def two_gen(coef) -> FloerComplex:
    return FloerComplex([Gen("x", 0, 0), Gen("y", 1, 5)], {1: {0: coef}})


def test_concise_examples():
    assert concise_barcode(two_gen(NOV_ONE)).finite == ((F(5), 0),)
    B = concise_barcode(two_gen(N.monomial(2)))
    assert B.finite == ((F(7), 0),)
    C = FloerComplex([Gen("a", 0, 0), Gen("b", 1, 2)], {})
    B0 = concise_barcode(C)
    assert B0.finite == () and B0.infinite == ((0, 1), (1, 1))
    assert bar_count_at(C, 100) == 2


def test_generator_count_invariant():
    rng = random.Random(3)
    for _ in range(15):
        C = _random_floer(rng)
        B = concise_barcode(C)
        assert B.generator_count() == C.dim()


def _boundary_depth(C):
    """The longest finite bar; 0 when there is none."""
    return max((l for l, _ in concise_barcode(C).finite), default=F(0))


def test_boundary_depth():
    assert _boundary_depth(two_gen(N.monomial(2))) == 7
    assert _boundary_depth(FloerComplex([Gen("a", 0, 0)], {})) == 0


def test_action_violation_rejected():
    with pytest.raises(ValueError):
        FloerComplex([Gen("x", 0, 0), Gen("y", 1, 5)], {1: {0: N.monomial(-6)}})


def test_validate_mixed_denominators():
    """Levels in thirds and entry exponents in halves: an entry whose
    valuation equals the level gap, or exceeds it by 1/6, is accepted; one
    whose valuation falls short by 1/6 or more raises action."""
    def cpx(lx, coef):
        return FloerComplex([Gen("x", 0, lx), Gen("y", 1, F(1, 3))], {1: {0: coef}})

    for lx, coef in ((F(4, 3), N.from_exponents([1, F(3, 2)])),
                     (F(2, 3), N.monomial(F(1, 2))),
                     (F(-2, 3), N.from_exponents([-1, F(1, 2)]))):
        assert cpx(lx, coef).diff == {1: {0: coef}}
    for lx, coef in ((F(4, 3), N.from_exponents([F(1, 2), F(3, 2)])),
                     (F(1), N.monomial(F(1, 2))),
                     (F(-1, 3), N.from_exponents([-1, 2]))):
        with pytest.raises(ValueError, match="entry y->x raises action"):
            cpx(lx, coef)


def test_validate_rejects_d_squared_and_degree():
    """d^2 != 0 names its generator; an entry between generators whose
    degrees do not differ by one (mod the modulus) is rejected."""
    gens = [Gen("a", 0, 0), Gen("b", 1, 0), Gen("c", 2, 0)]
    with pytest.raises(ValueError, match="d\\^2 != 0 at generator c"):
        FloerComplex(gens, {1: {0: NOV_ONE}, 2: {1: N.monomial(1)}})
    with pytest.raises(ValueError, match="wrong degree"):
        FloerComplex([Gen("x", 0, 0), Gen("y", 0, 1)], {1: {0: NOV_ONE}})
    with pytest.raises(ValueError, match="wrong degree"):
        FloerComplex([Gen("x", 0, 0), Gen("y", 3, 1)], {1: {0: NOV_ONE}}, 4)


def test_validate_names_the_first_bad_entry_in_row_order():
    """Of two bad entries, validate reports the first in ``diff`` row order
    (rows in insertion order, then entries in each row), whether it raises
    action or has the wrong degree."""
    gens = [Gen("a", 0, 0), Gen("b", 0, 0), Gen("c", 1, 5), Gen("d", 1, 5)]
    low = N.monomial(-6)
    for diff, name in (({2: {0: low}, 3: {1: low}}, "c->a"),
                       ({3: {1: low}, 2: {0: low}}, "d->b"),
                       ({2: {1: low, 0: low}}, "c->b")):
        with pytest.raises(ValueError, match=f"^entry {name} raises action$"):
            FloerComplex(gens, diff)
    # b->a has the wrong degree and is exact in action; c->a raises action
    wrong, bad = {1: {0: NOV_ONE}}, {2: {0: low}}
    with pytest.raises(ValueError, match="wrong degree"):
        FloerComplex(gens, wrong | bad)
    with pytest.raises(ValueError, match="^entry c->a raises action$"):
        FloerComplex(gens, bad | wrong)


def test_reduce_floer_keeps_isolated_generators():
    """A generator in no row and no column of the differential is unpaired
    and keeps its own basis vector, and every generator has a basis
    vector."""
    C = FloerComplex([Gen("z0", 0, 1), Gen("x", 0, 0), Gen("z1", 1, 2),
                      Gen("y", 1, 1), Gen("z2", 0, 0)], {3: {1: N.monomial(1)}})
    red = reduce_floer(C)
    assert red.pairs == [(3, 1, F(2))] and red.unpaired == [0, 2, 4]
    assert red.basis == {i: {i: NOV_ONE} for i in range(5)}
    rng = random.Random(31)
    cases = [dehn_sphere_model(4)[0]]
    cases += [random_floer_basis_change(rng, _random_floer(rng)) for _ in range(15)]
    isolated = [set(range(C.dim())) - set(C.diff) - {j for row in C.diff.values() for j in row}
                for C in cases]
    assert all(isolated[:1]) and any(isolated[1:])
    for C, lone in zip(cases, isolated):
        red = reduce_floer(C)
        assert sorted(red.basis) == list(range(C.dim()))
        for i in lone:
            assert i in red.unpaired and red.basis[i] == {i: NOV_ONE}


def test_concise_barcode_finite_is_sorted():
    """The finite bars are sorted by (length, degree); an unsorted tuple
    raises, a sorted one with repeats is accepted."""
    for finite in (((F(2), 0), (F(1), 0)), ((F(1), 1), (F(1), 0))):
        with pytest.raises(ValueError, match="sorted"):
            ConciseBarcode(finite, ())
    B = ConciseBarcode(((F(1), 0), (F(1), 0), (F(1), 1), (F(3), 0)), ((0, 2),))
    assert B.bar_count(1) == 3 and B.bar_count(0) == 6


def test_bar_count_matches_linear_count():
    """bar_count bisects on the sorted lengths; it equals the count of
    finite bars longer than delta plus the infinite bars, for delta below,
    between, equal to and above the bar lengths."""
    rng = random.Random(37)
    for _ in range(200):
        finite = tuple(sorted((F(rng.randrange(0, 12), rng.choice((1, 2, 3))),
                                rng.randrange(0, 3))
                               for _ in range(rng.randrange(0, 9))))
        infinite = tuple((d, rng.randrange(1, 3)) for d in range(rng.randrange(0, 3)))
        B = ConciseBarcode(finite, infinite)
        deltas = [F(0), F(rng.randrange(0, 50), 4)] + [l for l, _ in finite]
        for delta in deltas:
            linear = sum(1 for l, _ in finite if l > delta) + sum(c for _, c in infinite)
            assert B.bar_count(delta) == linear


def _random_floer(rng, n_pairs=None) -> FloerComplex:
    n_pairs = n_pairs if n_pairs is not None else rng.randrange(1, 4)
    gens = []
    diff = {}
    for i in range(n_pairs):
        lx = F(rng.randrange(0, 8), 2)
        ly = F(rng.randrange(0, 8), 2)
        gens.append(Gen(f"x{i}", 0, lx))
        gens.append(Gen(f"y{i}", 1, ly))
        val = lx - ly + F(rng.randrange(0, 6), 2)
        diff[2 * i + 1] = {2 * i: N.monomial(val)}
    for _ in range(rng.randrange(0, 2)):
        gens.append(Gen(f"z{len(gens)}", rng.randrange(0, 2), F(rng.randrange(0, 4))))
    return FloerComplex(gens, diff, 2)


def test_invariance_under_filtered_basis_change():
    rng = random.Random(7)
    for _ in range(12):
        C = _random_floer(rng)
        C2 = random_floer_basis_change(rng, C)
        assert concise_barcode(C).finite == concise_barcode(C2).finite
        assert concise_barcode(C).infinite == concise_barcode(C2).infinite


def test_t1_specialization_consistency():
    rng = random.Random(9)
    for _ in range(20):
        C = _random_floer(rng)
        B = concise_barcode(C)
        if all(l > 0 for l, _ in B.finite):
            assert t1_homology_rank(C) == B.infinite_total()


def test_counting_lemma():
    rng = random.Random(11)
    for _ in range(20):
        C = _random_floer(rng)
        count, vmin = counting_lemma_bound(C)
        B = concise_barcode(C)
        assert count == len(B.finite)
        if vmin is not None:
            assert all(l >= vmin for l, _ in B.finite)


def test_window_oracle():
    """The Z2 grid model of the complex reproduces each concise bar exactly
    once per grid shift whose translate lands inside a safe inner window
    (independent route: the plain Z2 pairing algorithm).  Bar births are
    bounded by the generator levels, so for each concise bar of length L > 0
    the number of window bars of length L with birth in [lo, hi] is
    (hi - lo)/step + 1 grid translates."""
    rng = random.Random(13)
    for _ in range(6):
        _assert_window_oracle(_random_floer(rng, 2))


def _assert_window_oracle(C):
    B = concise_barcode(C)
    radius, step = F(30), F(1, 2)
    W = z2_window_complex(C, radius, step)
    wb = homology_barcode(W)
    lo, hi = F(-8), F(8)
    translates = int((hi - lo) / step) + 1
    lengths = set(l for l, _ in B.finite if l > 0)
    for length in lengths:
        mult = sum(1 for l, _ in B.finite if l == length)
        got = [b for b in wb.bars if not b.infinite and b.length == length
               and lo <= b.birth <= hi]
        assert len(got) == mult * translates
    inf_mult = B.infinite_total()
    got_inf = [b for b in wb.bars if b.infinite and lo <= b.birth <= hi]
    assert len(got_inf) == inf_mult * translates


def test_reduce_floer_inverts_only_for_other_rows(monkeypatch):
    """A pivot is inverted only when another alive row holds its column: the
    Dehn models, whose pivot columns hold one row each, invert nothing; a
    basis-changed complex inverts, and its concise barcode still matches
    the Z2 window oracle."""
    calls = []
    real = N.invert

    def counted(self, *args):
        calls.append(self)
        return real(self, *args)

    monkeypatch.setattr(N, "invert", counted)
    for k in (1, 5, 40):
        C, _ = dehn_sphere_model(k)
        assert len(reduce_floer(C).pairs) == k
    assert calls == []
    for seed in (0, 2, 3, 5, 7):
        rng = random.Random(seed)
        C = random_floer_basis_change(rng, _random_floer(rng, 2))
        del calls[:]
        reduce_floer(C)
        assert calls, seed
        _assert_window_oracle(C)


def test_reduce_floer_reads_auto_precision_on_demand(monkeypatch):
    """The automatic working precision is computed only when a pivot is
    inverted or an entry vanishes: never on the Dehn models, once on a
    basis-changed complex; an explicit precision is read up front, so a bad
    one raises even where nothing would read it."""
    from persalg import novikov_complex

    calls = []
    real = novikov_complex._auto_precision
    monkeypatch.setattr(novikov_complex, "_auto_precision",
                        lambda *args: calls.append(args) or real(*args))
    for k in (1, 5, 40):
        reduce_floer(dehn_sphere_model(k)[0])
    assert calls == []
    rng = random.Random(3)
    reduce_floer(random_floer_basis_change(rng, _random_floer(rng, 2)))
    assert len(calls) == 1
    with pytest.raises(ValueError):
        reduce_floer(dehn_sphere_model(1)[0], "x")
    with pytest.raises(PrecisionError):
        reduce_floer(precision_trap(), 100)


def test_death_level_and_reach():
    C = FloerComplex([Gen("e", 0, 0), Gen("u", 1, F(1, 2))],
                     {1: {0: N.monomial(F(1, 2))}})
    assert death_level(C, {0: NOV_ONE}) == 1
    C2 = FloerComplex([Gen("z", 0, 3)], {})
    assert death_level(C2, {0: NOV_ONE}) == float("inf")


def test_reach_gap_floer_structural():
    V = FloerComplex([Gen("w", 0, 0)], {})
    Sr = FloerComplex([Gen("w", 0, F(2, 3))], {})
    eta = FloerMap(Sr, V, {0: {0: NOV_ONE}})
    assert reach_gap_floer({0: NOV_ONE}, 0, eta) == F(2, 3)
    zero = FloerMap(Sr, V, {})
    assert reach_gap_floer({0: NOV_ONE}, 0, zero) == float("inf")


def _ones(rows) -> dict[int, dict[int, N]]:
    """Z2 bitmask rows as Novikov rows with every entry 1."""
    return {i: dict.fromkeys(gf2.bits(v), NOV_ONE) for i, v in enumerate(rows) if v}


def test_reach_gap_floer_matches_z2_reach_gap():
    """Z2 complexes and chain maps embedded with entries 1: the cone-trick
    reach gap equals the Z2 ``reach_gap`` (its oracle: one sublevel solve per
    critical level, no Floer reduction) on every cycle of a basis and one
    sum of them, at levels r below, at and above the cycle's level."""
    rng = random.Random(5)
    checked = below = finite = 0
    for _ in range(100):
        A, X = random_complex(rng, rng.randrange(1, 4)), random_complex(rng, rng.randrange(1, 4))
        AF = FloerComplex(A.gens, _ones(A.dmat), A.modulus)
        XF = FloerComplex(X.gens, _ones(X.dmat), X.modulus)
        cycles = _cycles(X, list(range(X.dim())))
        if not cycles:
            continue
        ws = cycles + [gf2.apply(cycles, rng.randrange(1, 1 << len(cycles)))]
        for mat in _chain_map_classes(A, X):
            f = FilteredMap(A, X, mat, validate=False)
            fF = FloerMap(AF, XF, _ones(f.mat))
            for w in ws:
                lw = max(X.gens[j].level for j in gf2.bits(w))
                for r in (lw - 1, lw, lw + F(1, 3)):
                    want = reach_gap(w, r, f)
                    assert reach_gap_floer(dict.fromkeys(gf2.bits(w), NOV_ONE), r, fF) == want
                    checked += 1
                    below += r < lw
                    finite += want != float("inf")
    assert (checked, below, finite) == (1452, 484, 921)


def test_json_round_trip():
    C = two_gen(N.from_exponents([2, F(7, 2)]))
    C2 = FloerComplex.from_json(C.to_json())
    assert concise_barcode(C).finite == concise_barcode(C2).finite


def _reduce_outcome(C):
    try:
        red = reduce_floer(C)
    except PrecisionError:
        return PrecisionError
    return red.pairs, red.unpaired


def test_json_round_trip_keeps_truncation():
    """A truncated entry's precision is written beside it and read back, so
    the round trip is equal entry by entry and a complex that raises
    PrecisionError at automatic precision still raises after it; exact
    entries are written without the field."""
    assert all("precision" not in rec
               for rec in two_gen(N.from_exponents([2, F(7, 2)])).to_json()["differential"])
    # replay the draws of test_reduce_floer_against_brute_force_scan: one of
    # its mixed-denominator complexes has truncated entries and raises
    rng = random.Random(29)
    for _ in range(25):
        random_floer_basis_change(rng, _random_floer(rng, rng.randrange(2, 4)))
    raised = 0
    for _ in range(20):
        C = random_floer_basis_change(rng, _mixed_floer(rng, rng.randrange(2, 4)))
        C2 = FloerComplex.from_json(json.loads(json.dumps(C.to_json())))
        assert C2.diff == C.diff  # NovikovElement equality compares precision
        got = _reduce_outcome(C)
        assert _reduce_outcome(C2) == got
        raised += got is PrecisionError
    assert raised


def _window_death_oracle(C, w, radius=F(20), step=F(1, 2)):
    """Brute force: the smallest grid level s with w in d(C^{<= s}), solved
    over Z2 on the grid model (independent of the reduction route)."""
    qs = []
    q = -radius
    while q <= radius:
        qs.append(q)
        q += step
    index = {}
    gens = []
    for i, g in enumerate(C.gens):
        for q in qs:
            lv = g.level - q
            if -radius <= lv <= radius:
                index[(i, q)] = len(gens)
                gens.append((i, q, lv))
    w_vec = 0
    for i, c in w.items():
        for e in c.exponents:
            w_vec ^= 1 << index[(i, e)]
    levels = sorted(set(lv for _, _, lv in gens))
    for s in levels:
        cols = []
        for (i, q), idx in index.items():
            if C.gens[i].level - q > s:
                continue
            mask = 0
            ok = True
            for j, P in C.diff.get(i, {}).items():
                for e in P.exponents:
                    tgt = index.get((j, q + e))
                    if tgt is None:
                        ok = False
                        break
                    mask ^= 1 << tgt
                if not ok:
                    break
            if ok and mask:
                cols.append(mask)
        if gf2.solve(cols, w_vec) is not None:
            return s
    return float("inf")


def test_death_level_against_window_oracle():
    """The orthogonalized-reduction death level matches a brute-force
    sublevel sweep of the Z2 grid model, including for combination cycles."""
    rng = random.Random(21)
    checked = 0
    while checked < 12:
        C = _random_floer(rng, 2)
        # a random boundary: w = d(combination of y's), possibly scaled
        vec = {}
        for i in range(C.dim()):
            if C.gens[i].name.startswith("y") and rng.random() < 0.7:
                vec[i] = N.monomial(F(rng.randrange(-2, 3), 2))
        w = C.apply(vec)
        if not w:
            continue
        got = death_level(C, w)
        want = _window_death_oracle(C, w)
        assert got == want, (C.to_json(), {k: str(v) for k, v in w.items()}, got, want)
        checked += 1


def test_death_level_infinite_against_oracle():
    C = FloerComplex([Gen("z", 0, 3), Gen("x", 0, 0), Gen("y", 1, 1)],
                     {2: {1: N.monomial(F(1, 2))}})
    assert death_level(C, {0: NOV_ONE}) == float("inf")
    assert _window_death_oracle(C, {0: NOV_ONE}) == float("inf")


def test_reach_gap_shift_compatibility():
    """R(w, f) <= R(w pushed up by delta, shifted f) + delta, where the
    shifted map has both source and target moved down by delta."""
    def make(shift):
        V = FloerComplex([Gen("w", 0, -shift), Gen("p", 0, -shift),
                          Gen("q", 1, F(3, 2) - shift)],
                         {2: {1: N.monomial(F(3, 2))}})
        src = FloerComplex([Gen("v", 0, F(2, 3) - shift)], {})
        return FloerMap(src, V, {0: {0: NOV_ONE}})

    base = reach_gap_floer({0: NOV_ONE}, 0, make(0))
    for delta in (F(1, 4), F(1, 2), F(2)):
        shifted = reach_gap_floer({0: NOV_ONE}, delta, make(delta))
        assert base <= shifted + delta


def test_reduce_floer_precision_error():
    """An entry that cancels only up to a precision below half the working
    precision stops the reduction; at a working precision of 4 it counts as
    zero."""
    C = precision_trap()
    with pytest.raises(PrecisionError):
        reduce_floer(C, 100)
    red = reduce_floer(C, 4)
    assert red.pairs == [(2, 0, 0)] and red.unpaired == [1, 3]


def test_concise_barcode_memo(monkeypatch):
    """One reduction per complex; a PrecisionError is never kept, so it is
    raised again on every call."""
    calls = count_reduce_floer(monkeypatch)
    trap = precision_trap()
    for _ in range(2):
        with pytest.raises(PrecisionError):
            concise_barcode(trap)
    assert len(calls) == 2
    C = two_gen(N.monomial(2))
    B = concise_barcode(C)
    assert B.finite == ((F(7), 0),) and B.infinite == ()
    assert concise_barcode(C) is B and bar_count_at(C, 0) == 1
    assert len(calls) == 3


def test_reduce_floer_dehn_pairs():
    C, _ = dehn_sphere_model(200)
    red = reduce_floer(C)
    assert red.pairs == [(2 * i + 3, 2 * i + 2, F(3, 32)) for i in range(200)]
    assert red.unpaired == [0, 1]


def _norm_val(C, i, j, P):
    """Normalized valuation val(P) + l(g_i) - l(g_j), on Fractions."""
    return P.valuation + C.gens[i].level - C.gens[j].level


def _brute_force_reduce(C, prec):
    """The rule of the module docstring, with a full scan for each pivot:
    cancel the alive entry of minimal (normalized valuation, i, j).  Returns
    PrecisionError where an entry vanishes only up to a precision below half
    of ``prec``."""
    cols = {i: dict(C.diff.get(i, {})) for i in range(C.dim())}
    alive = set(range(C.dim()))
    pairs = []
    while True:
        keys = [(_norm_val(C, i, j, P), i, j) for i in alive
                for j, P in cols[i].items() if j in alive and P]
        if not keys:
            return pairs, sorted(alive)
        nv, bi, aj = min(keys)
        pairs.append((bi, aj, nv))
        alive -= {bi, aj}
        P = cols[bi][aj]
        Pinv = P.invert(prec + abs(P.valuation))
        for x in alive:
            Q = cols[x].pop(aj, None)
            cols[x].pop(bi, None)
            if Q:
                for k, R in cols[bi].items():
                    if k in alive:
                        v = cols[x].get(k, N.zero()) + Q * Pinv * R
                        if not v and v.precision is not None and v.precision < prec / 2:
                            return PrecisionError
                        cols[x][k] = v
            cols[x] = {k: v for k, v in cols[x].items() if v}


MIXED = sorted({F(k, d) for d in (3, 4, 6) for k in range(1, 2 * d)})


def _mixed_floer(rng, n_pairs) -> FloerComplex:
    """Twist pairs whose levels and two-term entries mix the denominators
    3, 4 and 6."""
    gens, diff = [], {}
    for i in range(n_pairs):
        lx, ly = rng.choice(MIXED), rng.choice(MIXED)
        gens += [Gen(f"x{i}", 0, lx), Gen(f"y{i}", 1, ly)]
        val = lx - ly + rng.choice([F(0)] + MIXED)
        diff[2 * i + 1] = {2 * i: N.from_exponents([val, val + rng.choice(MIXED)])}
    return FloerComplex(gens, diff, 2)


def _auto_precision_oracle(C):
    """The automatic working precision, on Fractions:
    (level span + largest |entry exponent| + 1) * (dim + 2) + 8."""
    levels = [g.level for g in C.gens]
    ent = max((abs(e) for row in C.diff.values() for P in row.values()
               for e in (P.exponents[0], P.exponents[-1])), default=F(0))
    return (max(levels) - min(levels) + ent + 1) * (C.dim() + 2) + 8


def test_reduce_floer_against_brute_force_scan():
    rng = random.Random(29)
    for _ in range(25):
        C = random_floer_basis_change(rng, _random_floer(rng, rng.randrange(2, 4)))
        prec = F(40)
        red = reduce_floer(C, prec)
        assert (red.pairs, red.unpaired) == _brute_force_reduce(C, prec)
    # levels and exponents over 3, 4 and 6, at automatic precision and at an
    # explicit one over the unrelated denominator 5
    raised = []
    for _ in range(20):
        C = random_floer_basis_change(rng, _mixed_floer(rng, rng.randrange(2, 4)))
        for prec in (None, F(40), F(7, 5)):
            try:
                red = reduce_floer(C, prec)
                got = (red.pairs, red.unpaired)
            except PrecisionError:
                got = PrecisionError
            oracle_prec = prec if prec is not None else _auto_precision_oracle(C)
            assert got == _brute_force_reduce(C, oracle_prec)
            raised.append(got is PrecisionError)
    assert sum(raised) <= len(raised) // 10  # the oracle mostly compares pairs
