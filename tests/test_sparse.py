from fractions import Fraction as F

from persalg.novikov import NOV_ONE, NovikovElement as N
from persalg.sparse import accumulate, add, add_into, apply, expand, is_zero, level, nonzero


def _abw():
    """a + b vanishes but keeps precision 2; w lies above that bound."""
    a = N((F(1),), F(2))
    b = N.monomial(1)
    w = N.monomial(3)
    return a, b, w


def test_rule_k_keeps_a_vanished_sum():
    a, b, w = _abw()
    out = {}
    for v in (a, b, w):
        add_into(out, {"x": v})
    got = out["x"]
    assert not got and got.precision == 2
    assert nonzero(out) == {}


def test_rule_d_drops_a_vanished_sum():
    a, b, w = _abw()
    out = {}
    accumulate(out, {"x": a})
    accumulate(out, {"x": b})
    assert out == {}
    accumulate(out, {"x": w})
    got = out["x"]
    assert got.exponents == (F(3),) and got.precision is None


def test_rule_d_is_a_chain_of_adds():
    a, b, w = _abw()
    out, chained = {}, {}
    for v in (a, b, w):
        accumulate(out, {"x": v, "y": v})
        chained = add(chained, {"x": v, "y": v})
    assert [(k, v.exponents, v.precision) for k, v in out.items()] == \
        [(k, v.exponents, v.precision) for k, v in chained.items()]


def test_scaled_sums():
    c = N.monomial(F(1, 2))
    out = {"x": NOV_ONE}
    add_into(out, {"x": NOV_ONE, "y": N.monomial(1)}, c)
    assert out["x"].exponents == (0, F(1, 2)) and out["y"].exponents == (F(3, 2),)
    # rule D skips a vanishing product; rule K keeps it, with its precision
    zero = N.zero(F(4))
    kept, dropped = {}, {}
    add_into(kept, {"x": NOV_ONE}, zero)
    accumulate(dropped, {"x": NOV_ONE}, zero)
    assert kept["x"].precision == 4 and dropped == {}


def test_apply_skips_zero_coefficients():
    rows = {0: {1: NOV_ONE, 2: N.monomial(1)}, 1: {2: N.monomial(1)}}
    got = apply(rows, {0: NOV_ONE, 1: NOV_ONE, 2: N.monomial(5)})
    assert got == {1: NOV_ONE}  # the two T^1 at 2 cancel
    assert apply(rows, {0: N.zero(F(1))}) == {}


def test_level_of_empty_and_zero_vectors():
    key_level = {"x": F(1), "y": F(2)}.__getitem__
    assert level({}, key_level) is None
    assert level({"x": N.zero(), "y": N.zero(F(3))}, key_level) is None
    assert level({"x": N.monomial(F(-1, 2)), "y": N.monomial(1)}, key_level) == F(3, 2)


def test_expand_skips_vanishing_products():
    one_t = {"a": NOV_ONE, "b": N.monomial(1)}
    assert list(expand([one_t, {"c": N.zero()}])) == []
    assert list(expand([one_t, {"c": N.zero(F(2))}])) == []
    got = list(expand([one_t, {"c": N.monomial(2), "d": N.zero(F(2))}]))
    assert [(k, v.exponents) for k, v in got] == [(("a", "c"), (2,)), (("b", "c"), (3,))]


def test_is_zero():
    a, b, _ = _abw()
    assert is_zero({})
    assert is_zero({"x": N.zero(), "y": a + b})
    assert not is_zero({"x": N.zero(), "y": a})
