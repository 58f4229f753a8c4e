import math
import random

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


def _scalar_teeth(K, delta, eta, L, n, margin=0.9):
    """build_1d's samples one at a time: the tooth formula on t = x mod w."""
    M = max(1, math.ceil(L / (2.0 * margin * K)))
    w = L / M
    rho = min(eta / delta, w / 8.0)
    xs = np.arange(n) * (L / n)
    vals = np.empty(n)
    for i, x in enumerate(xs):
        t = x % w
        if t < rho:
            v = t * t / (2 * rho)
        elif t > w - rho:
            tt = w - t
            v = tt * tt / (2 * rho)
        elif abs(t - w / 2) < rho:
            tt = t - w / 2
            v = (w / 2 - rho) - tt * tt / (2 * rho)
        elif t <= w / 2:
            v = t - rho / 2
        else:
            v = (w - t) - rho / 2
        vals[i] = v
    return vals


def test_build_1d_matches_scalar_teeth():
    for K, delta, eta, L in ((0.1, 0.5, 1e-3, 1.0), (0.3, 0.9, 1e-2, 2.5),
                             (0.05, 0.1, 1e-4, 0.37), (1.0, 0.5, 0.01, 1.0)):
        for n in (3, 17, 10000):
            got = build_1d(K, delta, eta, L, n).samples
            assert np.array_equal(got, _scalar_teeth(K, delta, eta, L, n)), (K, L, n)


def _pairwise_overlaps(pts, L):
    """Every pair i < j of declared balls closer than the sum of their radii."""
    out = []
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            pi, ri = pts[i]
            pj, rj = pts[j]
            if isinstance(pi, tuple):
                d = math.hypot(
                    abs((pi[0] - pj[0] + L / 2) % L - L / 2),
                    abs((pi[1] - pj[1] + L / 2) % L - L / 2))
            else:
                d = abs((pi - pj + L / 2) % L - L / 2)
            if d < ri + rj:
                out.append(("overlap", i, j))
    return out


def _overlaps(pts, L, dim):
    samples = np.zeros((6,) * dim)
    rep = verify(PiecewiseProfile(samples, L, 1.0, 0.5, 1.0, pts))
    return [v for v in rep.violations if v[0] == "overlap"]


def test_overlaps_match_pairwise_check():
    """verify's sorted sweep reports the same overlapping pairs, in the same
    order, as the pairwise check, in 1-D and 2-D, with balls that wrap
    around the circle and positions outside [0, L)."""
    rng = random.Random(41)
    wrapped = found = 0
    for trial in range(150):
        L = rng.choice((1.0, 2.5, 0.37))
        dim = 1 + trial % 2
        n = rng.randrange(0, 40)
        rmax = rng.choice((0.002, 0.02, 0.1)) * L

        def coord():
            x = rng.random() * L
            if rng.random() < 0.2:
                x = rng.choice((x * 0.01, L - x * 0.01))  # near the seam
            if rng.random() < 0.1:
                x += rng.choice((-L, L, 3 * L))
            return x

        pts = [((coord(), coord()) if dim == 2 else coord(), rng.random() * rmax)
               for _ in range(n)]
        want = _pairwise_overlaps(pts, L)
        assert _overlaps(pts, L, dim) == want
        found += len(want)
        for _, i, j in want:
            a, b = pts[i][0], pts[j][0]
            a, b = (a[0], b[0]) if dim == 2 else (a, b)
            wrapped += abs(a % L - b % L) > L / 2
    assert found > 50 and wrapped > 5
    # a NaN radius or a non-finite position meets nothing; an infinite
    # radius meets every ball at a finite distance (the gradient mask of a
    # ball at an infinite position is NaN, hence errstate)
    nan, inf = float("nan"), float("inf")
    for pts in ([(0.1, 0.05), (0.12, nan), (0.14, 0.05), (inf, 0.3), (0.9, 0.2)],
                [(0.5, inf), (0.1, 0.0), (nan, 0.1), (0.95, 0.01)]):
        with np.errstate(invalid="ignore"):
            assert _overlaps(pts, 1.0, 1) == _pairwise_overlaps(pts, 1.0)
