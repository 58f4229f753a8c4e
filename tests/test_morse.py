import numpy as np
import pytest

from persalg.morse import (
    PiecewiseProfile,
    build_1d,
    build_torus,
    fold_step,
    shrink_step,
    verify,
)


def test_build_1d_acceptance_parameters():
    p = build_1d(0.1, 0.5, 1e-3, 1.0, 10000)
    rep = verify(p)
    assert rep.ok, rep.violations
    assert rep.variation <= 0.1
    assert rep.critical_count >= 10
    assert rep.min_value == 0.0


def test_build_1d_two_critical_points_suffice():
    p = build_1d(0.6, 0.5, 1e-2, 1.0, 4000)
    rep = verify(p)
    assert rep.ok and rep.critical_count == 2


def test_slope_counting_lower_bound():
    """Variation per unit-slope segment <= K forces >= 1/K monotone
    segments, i.e. >= 1/K critical points at K = 0.1."""
    for K in (0.1, 0.05):
        p = build_1d(K, 0.5, 1e-4, 1.0, 20000)
        rep = verify(p)
        assert rep.ok
        assert rep.critical_count >= 1 / K


def test_constant_function_fails():
    const = PiecewiseProfile(np.zeros(1000), 1.0, 0.1, 0.5, 1e-3, [])
    rep = verify(const)
    assert not rep.ok
    assert any(v[0] == "gradient" for v in rep.violations)


def test_infeasible_parameters():
    with pytest.raises(ValueError):
        build_1d(0.1, 0.5, 0.2, 1.0, 1000)  # eta too large: balls overlap
    with pytest.raises(ValueError):
        build_1d(0.1, 1.5, 1e-3)  # delta must be < 1
    # central differences need three samples; every float must be finite
    for kwargs, name in [
        ({"resolution": 0}, "resolution"), ({"resolution": 1}, "resolution"),
        ({"resolution": 2}, "resolution"),
        ({"circumference": float("inf")}, "circumference"),
        ({"circumference": float("nan")}, "circumference"),
        ({"circumference": 0.0}, "circumference"),
        ({"circumference": -1.0}, "circumference"),
        ({"K": float("nan")}, "K"), ({"delta": float("nan")}, "delta"),
        ({"eta": float("inf")}, "eta"), ({"margin": 0.0}, "margin"),
    ]:
        args = {"K": 1.0, "delta": 0.5, "eta": 0.01} | kwargs
        with pytest.raises(ValueError, match=f"^{name} must be"):
            build_1d(**args)


def test_fold_halves_variation():
    p = build_1d(0.1, 0.5, 1e-3, 1.0, 10000)
    v0 = verify(p).variation
    folded = fold_step(p, [v0 / 2])
    rep = verify(folded)
    assert rep.ok, rep.violations
    assert abs(rep.variation - v0 / 2) < 0.01
    assert rep.critical_count > verify(p).critical_count


def test_fold_identity():
    p = build_1d(0.1, 0.5, 1e-3, 1.0, 5000)
    same = fold_step(p, [])
    assert np.array_equal(same.samples, p.samples)


def test_shrink_keeps_bounds():
    p = build_1d(0.1, 0.5, 1e-3, 1.0, 10000)
    z = p.critical_points[0][0]
    sh = shrink_step(p, z, 5e-4)
    rep = verify(sh)
    assert rep.ok, rep.violations
    assert sh.critical_points[0][1] == 5e-4
    # |df| <= delta inside the shrunk ball
    xs = sh.grid()
    grad = (np.roll(sh.samples, -1) - np.roll(sh.samples, 1)) / (2 * (1.0 / len(xs)))
    d = np.abs((xs - z + 0.5) % 1.0 - 0.5)
    assert np.abs(grad[d <= 5e-4]).max() <= 0.5 + 1e-9


def test_shrink_requires_declared_point():
    p = build_1d(0.1, 0.5, 1e-3, 1.0, 5000)
    with pytest.raises(ValueError):
        shrink_step(p, 0.123456, 1e-4)


def test_torus_product():
    t = build_torus(0.2, 0.5, 1e-2, 512)
    rep = verify(t)
    assert rep.ok, rep.violations[:5]
    assert rep.variation <= 0.2
    assert rep.min_value == 0.0
    assert len(t.critical_points) >= 4
