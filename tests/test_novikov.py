import random
from fractions import Fraction as F

import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from persalg.novikov import (
    NOV_ONE,
    NOV_ZERO,
    NovikovElement,
    inversion_recursion,
    series_divisor_sum,
    series_odd_squares,
    series_theta,
)

exponents = st.fractions(min_value=-4, max_value=4, max_denominator=8)
elements = st.lists(exponents, max_size=6).map(NovikovElement.from_exponents)


def test_char2_addition():
    t = NovikovElement.monomial(F(1, 2))
    assert not t + t


def test_cancellation():
    a = NovikovElement.from_exponents([0, 1])
    b = NovikovElement.from_exponents([1, 2])
    assert (a + b).exponents == (F(0), F(2))


def test_additive_identity():
    f = series_odd_squares(200)
    assert (f + NovikovElement.zero(200)).exponents == f.exponents


def test_squaring_char2():
    a = NovikovElement.parse("1 + T^{1/2}")
    assert str(a * a) == "1 + T"


def test_monomial_products():
    q = NovikovElement.monomial(F(1, 4))
    assert (q * q).exponents == (F(1, 2),)
    f = NovikovElement.from_exponents([1, 9]) * NovikovElement.monomial(-1)
    assert f.exponents == (F(0), F(8))


def test_valuation():
    assert NovikovElement.from_exponents([F(1, 2), 2]).valuation == F(1, 2)
    assert NOV_ZERO.valuation == float("inf")
    assert (NovikovElement.monomial(-1) * NovikovElement.from_exponents([0, 8])).valuation == -1


@given(elements, elements, elements)
@settings(max_examples=150, deadline=None)
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@given(elements, elements)
@settings(max_examples=150, deadline=None)
def test_valuation_multiplicative(a, b):
    if not a or not b:
        return
    assert (a * b).valuation == a.valuation + b.valuation


def test_invert_monomial():
    assert NovikovElement.monomial(3).invert(10) == NovikovElement.monomial(-3)


def test_invert_one():
    inv = NOV_ONE.invert(50)
    assert inv.exponents == (F(0),)


def test_inversion_example_precision_26():
    f = series_odd_squares(26)
    inv = f.invert(26)
    # T^{-1}(1 + T^8 + T^16): the g_24 coefficient vanishes mod 2
    assert inv.exponents == (F(-1), F(7), F(15))
    prod = f * inv
    assert prod.exponents == (F(0),)
    assert prod.precision >= 25


def test_gn_recursion_oracle():
    """The recursion g_n = sum_{e in E\\{0}, e<=n} g_{n-e} over the shifted
    exponent set is an independent oracle for the geometric-series
    inversion."""
    f = series_odd_squares(202)
    E = [e - 1 for e in f.exponents]
    g = inversion_recursion(E, 200)
    assert g[8] == 1 and g[16] == 1 and g[24] == 0
    inv = f.invert(201)
    expected = sorted(F(n - 1) for n, gn in enumerate(g) if gn)
    got = [e for e in inv.exponents if e <= 199]
    assert got == [e for e in expected if e <= 199]


def test_inversion_identity_precision_200():
    f = series_odd_squares(201)
    inv = f.invert(200)
    prod = f * inv
    assert prod.coefficient(0) == 1
    assert all(e == 0 for e in prod.exponents)
    assert prod.precision >= 200


@given(elements, st.integers(min_value=5, max_value=24))
@settings(max_examples=200, deadline=None)
def test_invert_random(a, prec):
    if not a:
        return
    b = a.invert(prec)
    prod = a * b
    assert prod.coefficient(0) == 1
    assert all(e >= prec for e in prod.exponents if e != 0)


def test_invert_zero_raises():
    with pytest.raises(ZeroDivisionError):
        NOV_ZERO.invert(5)


def test_series_odd_squares():
    assert series_odd_squares(26).exponents == (F(1), F(9), F(25))


def test_series_theta_quarter():
    th = series_theta(F(1, 4), 1, 2)
    assert th.exponents == (F(1, 16), F(9, 16), F(25, 16))


def test_series_theta_equals_odd_squares():
    # sum_{n>=0} T^{(2n+1)^2} = theta_{1/4,0}(16,0)
    assert series_theta(F(1, 4), 16, 200).exponents == series_odd_squares(200).exponents


def test_series_divisor_sum_oracle():
    """Frozen from brute-force divisor enumeration: among (2k+1)/3 < 2 the
    exponent 5/3 has the two divisors 1, 5 = -1 mod 6 and cancels, while
    3/3 = 1 has only d = 1 and survives."""
    assert series_divisor_sum(3, 2).exponents == (F(1, 3), F(1))


def test_series_divisor_lowest_term():
    for N in (2, 3, 4, 5):
        s = series_divisor_sum(N, 1)
        assert s.valuation == F(1, N)


def test_text_round_trip():
    vals = [NOV_ZERO, NOV_ONE, series_odd_squares(30),
            NovikovElement.from_exponents([F(-1, 2), 0, F(3, 7)])]
    for v in vals:
        assert NovikovElement.parse(str(v)).exponents == v.exponents


def test_precision_tracking_mul():
    a = NovikovElement((F(0),), precision=F(5))
    b = NovikovElement((F(2),))
    assert (a * b).precision == F(7)
    z = NovikovElement((), precision=F(3))
    assert (z * z).precision == F(6)


def test_coefficient_beyond_precision_raises():
    a = NovikovElement((F(0),), precision=F(5))
    with pytest.raises(ValueError):
        a.coefficient(6)


def test_invert_truncated_input_never_overclaims():
    a = NovikovElement((F(0), F(2)), precision=F(5))
    b = a.invert(100)
    assert b.precision == 5
    prod = a * b
    assert prod.exponents == (F(0),) and prod.precision == 5


def _inverse_oracle(exps, precision, want):
    """(exponents, precision) of the inverse of sum T^e, from the fixed point
    c = 1 + x c below p over plain sets of Fractions (self = T^v (1 + x))."""
    v = exps[0]
    if precision is None and len(exps) == 1:
        return (-v,), None
    p = want if precision is None else min(want, precision - v)
    x = [e - v for e in exps[1:] if e - v < p]
    one = {F(0)} if p > 0 else set()
    c = set(one)
    while True:
        nxt = set(one)
        for a in x:
            for b in c:
                if a + b < p:
                    nxt ^= {a + b}
        if nxt == c:
            return tuple(sorted(q - v for q in c)), p - v
        c = nxt


def test_invert_against_fixed_point_oracle():
    rng = random.Random(17)

    def rational(lo, hi, dmax):
        d = rng.randint(1, dmax)
        return F(rng.randint(lo * d, hi * d), d)

    for trial in range(300):
        v = rational(-3, 3, 4)
        xs = sorted({rational(1, 15, 6) / 3 for _ in range(rng.randint(1, 5))})
        exps = [v] + [v + x for x in xs]
        precision = None if trial % 2 else exps[-1] + rational(0, 3, 3) + F(1, 5)
        want = rational(0, 12, 4)
        got = NovikovElement(tuple(exps), precision).invert(want)
        assert (got.exponents, got.precision) == _inverse_oracle(exps, precision, want)


def test_invert_exact_monomial_and_truncated_monomial():
    assert NovikovElement.monomial(F(3, 2)).invert(7) == NovikovElement.monomial(F(-3, 2))
    b = NovikovElement((F(1),), precision=F(4)).invert(10)
    assert b.exponents == (F(-1),) and b.precision == 2


def _canonical(r):
    exps, prec = r.exponents, r.precision
    assert type(exps) is tuple and all(type(e) is F for e in exps)
    assert all(a < b for a, b in zip(exps, exps[1:]))
    assert prec is None or (type(prec) is F and all(e < prec for e in exps))
    assert r == NovikovElement(exps, prec) and hash(r) == hash(NovikovElement(exps, prec))
    return set(exps), prec


def _oracle_add(x, y):
    (a, pa), (b, pb) = x, y
    p = min((q for q in (pa, pb) if q is not None), default=None)
    return {e for e in a ^ b if p is None or e < p}, p


def _oracle_mul(x, y):
    (a, pa), (b, pb) = x, y
    bounds = []
    if pa is not None and b:
        bounds.append(pa + min(b))
    if pb is not None and a:
        bounds.append(pb + min(a))
    if pa is not None and pb is not None:
        bounds.append(pa + pb)
    p = min(bounds, default=None)
    out = set()
    for s in a:
        for t in b:
            out ^= {s + t}
    return {e for e in out if p is None or e < p}, p


def test_arithmetic_against_set_oracle():
    """Sums and products (trusted constructor, exact fast paths) equal a
    plain-set oracle and are canonical."""
    rng = random.Random(23)

    def rational(lo, hi, dmax):
        d = rng.randint(1, dmax)
        return F(rng.randint(lo * d, hi * d), d)

    def element():
        kind = rng.randrange(8)
        if kind == 0:
            return NovikovElement.zero(rational(-2, 4, 3) if rng.random() < 0.5 else None)
        if kind == 1:
            return NovikovElement.one()
        if kind == 2:
            return NovikovElement.monomial(rational(-3, 3, 4))
        exps = sorted({rational(-3, 3, 4) for _ in range(rng.randint(0, 5))})
        if rng.random() < 0.3:
            exps = sorted(set(exps) | {F(0)})
        prec = rational(-2, 5, 3) if rng.random() < 0.4 else None
        return NovikovElement(tuple(exps), prec)

    assert _canonical(NovikovElement.zero()) == (set(), None)
    assert _canonical(NovikovElement.zero(3)) == (set(), F(3))
    assert _canonical(NovikovElement.one()) == ({F(0)}, None)
    assert _canonical(NovikovElement.monomial("1/2")) == ({F(1, 2)}, None)
    for _ in range(500):
        x, y = element(), element()
        sx, sy = _canonical(x), _canonical(y)
        assert _canonical(x + y) == _oracle_add(sx, sy)
        assert _canonical(x * y) == _oracle_mul(sx, sy)
        assert _canonical(y * x) == _oracle_mul(sy, sx)
        if x:
            _canonical(x.invert(rational(0, 6, 4)))


def test_public_constructor_validates():
    with pytest.raises(ValueError):
        NovikovElement((1, 1))
    a = NovikovElement((F(3),), 2)
    assert a.exponents == () and a.precision == F(2) and type(a.precision) is F
    b = NovikovElement((2, F(1, 2), 0))
    assert b.exponents == (F(0), F(1, 2), F(2)) and all(type(e) is F for e in b.exponents)


# -- the int-over-scale representation against plain Fraction sets ---------------

MIXED = (1, 2, 3, 4, 6, 8)
mixed_rationals = st.builds(F, st.integers(-24, 24), st.sampled_from(MIXED))
# (exponent set, precision or None), reduced by the precision as an element is
mixed_sets = st.tuples(st.frozensets(mixed_rationals, max_size=5),
                       st.none() | mixed_rationals).map(
    lambda sp: (frozenset(e for e in sp[0] if sp[1] is None or e < sp[1]), sp[1]))


def _routes(sp, q):
    """The element (exponents, precision) = sp built four ways: the public
    constructor, from_exponents with a cancelling pair, parse of its text,
    and a product by T^q and then by T^-q."""
    exps, prec = sp
    a = NovikovElement(tuple(sorted(exps)), prec)
    b = NovikovElement.from_exponents(list(exps) + [q, q], prec)
    c = NovikovElement.parse(str(a), prec)
    d = (a * NovikovElement.monomial(q)) * NovikovElement.monomial(-q)
    return a, b, c, d


@seed(20261019)
@settings(max_examples=300, deadline=None)
@given(mixed_sets, mixed_sets, mixed_rationals, mixed_rationals)
@example((frozenset({F(1, 4)}), None), (frozenset({F(1, 4)}), None), F(1, 8), F(1, 2))
@example((frozenset({F(1, 2), F(2, 3)}), F(5, 6)), (frozenset({F(1, 2)}), None), F(3, 8), F(0))
def test_int_representation_against_fraction_sets(x, y, q, t):
    """Sums, products and inverses on mixed denominators equal plain-set
    Fraction arithmetic, exact and truncated; the same element built by
    different routes compares and hashes equal."""
    xs, ys = _routes(x, q), _routes(y, t)
    for r in xs[1:]:
        assert r == xs[0] and hash(r) == hash(xs[0])
        assert (r.exponents, r.precision) == (xs[0].exponents, xs[0].precision)
    a, b = xs[0], ys[-1]
    sa, sb = _canonical(a), _canonical(b)
    assert sa == (set(x[0]), x[1]) and sb == (set(y[0]), y[1])
    assert _canonical(a + b) == _oracle_add(sa, sb)
    assert _canonical(a * b) == _oracle_mul(sa, sb)
    if a:
        exps, prec = _inverse_oracle(sorted(sa[0]), sa[1], abs(t) + 1)
        assert _canonical(a.invert(abs(t) + 1)) == (set(exps), prec)


def test_scale_is_least():
    """A result whose exponents need a smaller scale than its factors' is
    stored on it: T^{1/4} T^{1/4} is T^{1/2}, and T^{1/3} + (T^{1/3} + 1) is
    1."""
    half = NovikovElement.monomial(F(1, 4)) * NovikovElement.monomial(F(1, 4))
    assert half == NovikovElement.monomial(F(1, 2)) == NovikovElement.parse("T^{1/2}")
    assert hash(half) == hash(NovikovElement.parse("T^{1/2}")) and half.den == 2
    third = NovikovElement.monomial(F(1, 3))
    one = third + NovikovElement.from_exponents([0, F(1, 3)])
    assert one == NOV_ONE and hash(one) == hash(NOV_ONE) and one.den == 1
