"""Small-variation, large-gradient Morse profiles on the circle and torus.

``build_1d`` realizes the sawtooth-with-caps construction: unit slopes away
from the critical points, quadratic caps of radius rho at peaks and valleys
so that |f'| >= delta holds outside balls of radius eta_z = delta * rho <=
eta around the critical points, total variation < K, minimum exactly 0.
``fold_step`` reflects the profile at a cut level and ``shrink_step``
rescales a critical cap; ``verify`` checks all the claimed bounds on a
uniform grid with central differences (slack delta*1e-3 near the smoothing
zones).  The 2-D torus profile is the inductive sum phi(f1(x)) +
beta(f1(x)) * f_W(y).

Each function that calls numpy imports it itself, so that importing persalg,
and every part of it that computes exactly, does not load numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:
    import numpy as np


@dataclass
class PiecewiseProfile:
    """Sampled profile on a circle (1-D) or torus grid (2-D)."""

    samples: np.ndarray  # values on a uniform grid (1-D or 2-D)
    domain_size: float  # circumference / side length
    K: float
    delta: float
    eta: float
    critical_points: list[tuple] = field(default_factory=list)  # (position(s), radius)

    @property
    def resolution(self) -> int:
        return self.samples.shape[0]

    def grid(self) -> np.ndarray:
        import numpy as np
        n = self.resolution
        return np.arange(n) * (self.domain_size / n)


@dataclass
class VerifyReport:
    ok: bool
    variation: float
    min_value: float
    critical_count: int
    violations: list = field(default_factory=list)


def build_1d(K, delta, eta, circumference=1.0, resolution: int = 10000
             ) -> PiecewiseProfile:
    """Sawtooth with quadratic caps: teeth of height ~0.9*K, slopes +-1."""
    K, delta, eta, L = float(K), float(delta), float(eta), float(circumference)
    for name, value in (("K", K), ("delta", delta), ("eta", eta),
                        ("circumference", L)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    if L <= 0:
        raise ValueError(f"circumference must be positive, got {L}")
    n = int(resolution)
    if n < 3:
        raise ValueError(
            f"resolution must be >= 3 (central differences need three samples), got {n}")
    if not 0 < delta < 1:
        raise ValueError("need 0 < delta < 1")
    if K <= 0 or eta <= 0:
        raise ValueError("K and eta must be positive")
    # M teeth, each of width w = L / M, height w/2 <= 0.9 * K
    M = max(1, math.ceil(L / (2.0 * 0.9 * K)))
    w = L / M
    if eta >= w / 4:
        raise ValueError(
            f"eta too large: balls of radius up to {eta} cannot stay disjoint "
            f"on teeth of width {w} (need eta < {w / 4})")
    rho = min(eta / delta, w / 8.0)
    eta_z = delta * rho

    # one tooth on [0, w]: quadratic valley caps at 0 and w, unit slopes,
    # quadratic peak cap at w/2 of height w/2 - rho (C^1 throughout); the
    # first condition that holds picks the piece
    import numpy as np
    t = np.arange(n) * (L / n) % w
    cap = t - w / 2
    vals = np.select(
        [t < rho, t > w - rho, np.abs(cap) < rho, t <= w / 2],
        [t * t / (2 * rho), (w - t) * (w - t) / (2 * rho),
         (w / 2 - rho) - cap * cap / (2 * rho), t - rho / 2],
        (w - t) - rho / 2)
    crits = []
    for m in range(M):
        crits.append(((m * w) % L, eta_z))  # valley
        crits.append(((m * w + w / 2) % L, eta_z))  # peak
    return PiecewiseProfile(vals, L, K, delta, eta, crits)


def verify(profile: PiecewiseProfile) -> VerifyReport:
    """Grid checks: 0 <= f, min = 0, variation <= K, central-difference
    gradient >= delta outside the declared balls (with delta*1e-3 leeway),
    declared balls pairwise disjoint with radii <= eta."""
    import numpy as np
    f = profile.samples
    L = profile.domain_size
    grad_floor = profile.delta * (1 - 1e-3)
    violations = []
    if f.ndim == 1:
        n = f.shape[0]
        h = L / n
        grad = (np.roll(f, -1) - np.roll(f, 1)) / (2 * h)
        xs = np.arange(n) * h
        outside = np.ones(n, dtype=bool)
        for pos, rad in profile.critical_points:
            if rad > profile.eta + 1e-12:
                violations.append(("radius", pos, rad))
            d = np.abs((xs - pos + L / 2) % L - L / 2)
            outside &= d > rad
        bad = outside & (np.abs(grad) < grad_floor)
        for i in np.where(bad)[0][:5]:
            violations.append(("gradient", float(xs[i]), float(grad[i])))
        crit_count = _count_sign_changes(grad)
    else:
        n0, n1 = f.shape
        h0, h1 = L / n0, L / n1
        gx = (np.roll(f, -1, 0) - np.roll(f, 1, 0)) / (2 * h0)
        gy = (np.roll(f, -1, 1) - np.roll(f, 1, 1)) / (2 * h1)
        norm = np.hypot(gx, gy)
        outside = np.ones_like(f, dtype=bool)
        xs0 = np.arange(n0) * h0
        xs1 = np.arange(n1) * h1
        X, Y = np.meshgrid(xs0, xs1, indexing="ij")
        for (pos, rad) in profile.critical_points:
            px, py = pos
            dx = np.abs((X - px + L / 2) % L - L / 2)
            dy = np.abs((Y - py + L / 2) % L - L / 2)
            outside &= np.hypot(dx, dy) > rad
        bad = outside & (norm < grad_floor)
        idx = np.argwhere(bad)[:5]
        for i, j in idx:
            violations.append(("gradient", (float(xs0[i]), float(xs1[j])), float(norm[i, j])))
        crit_count = len(profile.critical_points)
    variation = float(f.max() - f.min())
    if variation > profile.K + 1e-12:
        violations.append(("variation", variation))
    if abs(float(f.min())) > 1e-9 * max(1.0, profile.K):
        violations.append(("min", float(f.min())))
    if f.min() < -1e-12:
        violations.append(("negative", float(f.min())))
    # declared balls pairwise disjoint
    pts = profile.critical_points
    for i, j in _candidate_pairs(pts, L):
        pi, ri = pts[i]
        pj, rj = pts[j]
        if isinstance(pi, tuple):
            d = math.hypot(
                abs((pi[0] - pj[0] + L / 2) % L - L / 2),
                abs((pi[1] - pj[1] + L / 2) % L - L / 2))
        else:
            d = abs((pi - pj + L / 2) % L - L / 2)
        if d < ri + rj:
            violations.append(("overlap", i, j))
    return VerifyReport(not violations, variation, float(f.min()),
                        crit_count, violations)


def _candidate_pairs(pts: list[tuple], L: float) -> list[tuple[int, int]]:
    """The pairs i < j, in order, of declared balls that can meet: two balls
    meet only when their first coordinates lie within twice the largest
    radius of each other around the circle, so a sweep over the sorted
    first coordinates, wrapped once, finds them.  The reach carries a slack
    of 1e-9 * L for the rounding of ``% L``.  A ball whose first coordinate
    is not finite, or whose radius is NaN, meets no other under the distance
    test; an infinite radius makes every pair a candidate."""
    live = [(p[0] if isinstance(p, tuple) else p, r, k)
            for k, (p, r) in enumerate(pts)]
    live = [(x % L, r, k) for x, r, k in live if math.isfinite(x) and r == r]
    if len(live) < 2:
        return []
    reach = 2 * max(r for _, r, _ in live) + 1e-9 * L
    live.sort()
    xs = [x for x, _, _ in live] + [x + L for x, _, _ in live]
    n = len(live)
    pairs = set()
    for a in range(n):
        b = a + 1
        while b < a + n and xs[b] - xs[a] <= reach:
            i, j = live[a][2], live[b % n][2]
            pairs.add((i, j) if i < j else (j, i))
            b += 1
    return sorted(pairs)


def _count_sign_changes(grad: np.ndarray) -> int:
    import numpy as np
    sign = np.sign(grad)
    sign = sign[sign != 0]
    if len(sign) == 0:
        return 0
    changes = int(np.sum(sign[1:] != sign[:-1]))
    if sign[0] != sign[-1]:
        changes += 1
    return changes


def fold_step(profile: PiecewiseProfile, cut_levels: Sequence[float]) -> PiecewiseProfile:
    """Reflect the profile at regular cut levels a_1 < a_2 < ...: values
    follow the sawtooth fold of the level axis, then are renormalized to
    min 0.  The critical set is re-derived from the folded samples (local
    extrema clustered into declared balls); the new eta is at least the
    smoothing radius max(eta, 4h) for the grid step h."""
    import numpy as np
    if profile.samples.ndim != 1:
        raise ValueError("fold_step is 1-D")
    f = profile.samples.copy()
    cuts = sorted(float(a) for a in cut_levels)
    if not cuts:
        return profile
    lo = float(f.min())
    segs = [lo] + cuts + [float(f.max())]

    def fold_value(v: float) -> float:
        idx = 0
        for a in cuts:
            if v > a:
                idx += 1
        base, top = segs[idx], segs[idx + 1]
        return (v - base) if idx % 2 == 0 else (top - v)

    out = np.vectorize(fold_value)(f)
    out = out - out.min()
    n = len(out)
    h = profile.domain_size / n
    eps = max(profile.eta, 4 * h)
    crits = _detect_critical_clusters(out, profile.domain_size, profile.delta, h)
    eta_new = max([profile.eta] + [rad for _, rad in crits])
    return PiecewiseProfile(out, profile.domain_size, profile.K,
                            profile.delta, max(eta_new, eps), crits)


def _detect_critical_clusters(f: np.ndarray, L: float, delta: float,
                              h: float) -> list[tuple]:
    """Cluster the sub-delta-gradient locus into declared balls."""
    import numpy as np
    n = len(f)
    grad = (np.roll(f, -1) - np.roll(f, 1)) / (2 * h)
    critical = np.abs(grad) < delta
    idx = np.where(critical)[0]
    if len(idx) == 0:
        return []
    clusters = []
    cur = [int(idx[0])]
    for i in idx[1:]:
        if (i - cur[-1]) <= 4:
            cur.append(int(i))
        else:
            clusters.append(cur)
            cur = [int(i)]
    clusters.append(cur)
    if len(clusters) > 1 and (n - clusters[-1][-1] + clusters[0][0]) <= 4:
        merged = clusters.pop()
        clusters[0] = [i - n for i in merged] + clusters[0]
    out = []
    for cl in clusters:
        center = ((cl[0] + cl[-1]) / 2 * h) % L
        span = (cl[-1] - cl[0]) * h / 2
        out.append((float(center), float(span + 2 * h)))
    return out


def shrink_step(profile: PiecewiseProfile, z: float, eta_new: float) -> PiecewiseProfile:
    """Rescale the cap at the critical point z so the sub-delta-gradient
    ball has radius eta_new (<= old): a tighter quadratic cap of radius
    rho' = eta_new/delta, rejoined to the profile by a collar of slope
    (3 rho - rho')/(2 (2 rho - rho')) >= 3/4 over [rho', 2 rho].

    Requires delta <= 3/4 (the collar slope bound)."""
    import numpy as np
    if profile.samples.ndim != 1:
        raise ValueError("shrink_step is 1-D")
    if profile.delta > 0.75:
        raise ValueError("shrink_step needs delta <= 3/4 for the collar")
    eta_new = float(eta_new)
    f = profile.samples.copy()
    L = profile.domain_size
    xs = profile.grid()
    match = None
    for idx, (pos, rad) in enumerate(profile.critical_points):
        if abs((pos - z + L / 2) % L - L / 2) < rad + 1e-12:
            match = (idx, pos, rad)
            break
    if match is None:
        raise ValueError(f"no declared critical point near {z}")
    idx, pos, rad = match
    if eta_new > rad:
        raise ValueError("shrink_step cannot grow a ball")
    rho = rad / profile.delta  # the cap radius that produced this ball
    rho_new = eta_new / profile.delta
    d_signed = (xs - pos + L / 2) % L - L / 2
    d = np.abs(d_signed)
    i_center = int(np.argmin(d))
    fz = float(f[i_center])
    ring = (d > rad) & (d <= rho)
    sgn = 1.0 if (f[ring].mean() >= fz if ring.any() else True) else -1.0
    collar_end = min(2 * rho, L / 2)
    # rejoin the actual profile value at the collar edge with constant slope
    f_end = float(f[int(np.argmin(np.abs(d - collar_end)))])
    s = sgn * (f_end - (fz + sgn * rho_new / 2)) / (collar_end - rho_new)
    inside_cap = d <= rho_new
    collar = (d > rho_new) & (d < collar_end)
    f[inside_cap] = fz + sgn * (d[inside_cap] ** 2) / (2 * rho_new)
    f[collar] = fz + sgn * (rho_new / 2 + s * (d[collar] - rho_new))
    crits = list(profile.critical_points)
    crits[idx] = (pos, eta_new)
    return PiecewiseProfile(f - f.min(), L, profile.K, profile.delta,
                            profile.eta, crits)


def build_torus(K, delta, eta, resolution: int = 512) -> PiecewiseProfile:
    """The flat-torus instance of the induction: the fiberwise 1-D profile is
    added over the whole base, F(x,y) = f_1(x) + f_W(y), so the gradient
    bound holds off the product critical balls and the critical points are
    nondegenerate products."""
    K, delta, eta = float(K), float(delta), float(eta)
    base = build_1d(K / 2, delta, eta, 1.0, resolution)
    fiber = build_1d(K / 2, delta, eta, 1.0, resolution)
    F = base.samples[:, None] + fiber.samples[None, :]
    F = F - F.min()
    crits: list[tuple] = []
    for px, rx in base.critical_points:
        for py, ry in fiber.critical_points:
            crits.append(((px, py), math.hypot(rx, ry)))
    return PiecewiseProfile(F, 1.0, K, delta, math.sqrt(2) * eta, crits)
