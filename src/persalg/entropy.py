"""Cone-length growth bounds, entropy estimators, and action models.

The eta profile realizes the radial Hamiltonian shape: zero on [0,1], slope
sigma on [2,7] (so eta(x) = sigma x - k there with k = 3 sigma / 2 for the
smoothstep transitions used here), constant past 8, convex on (1,2) and
concave on (7,8).  Roots of eta'(r) = l/n are found by bisection; certified
bar counts only ever use the rational gap bound 5n - 7l, never the numeric
roots.  ``entropy_estimate``'s least-squares fit is the only use of numpy,
which it imports itself, so that importing this module does not load numpy.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence

from .filtered_complex import Gen
from .novikov import NovikovElement
from .novikov_complex import (
    ConciseBarcode,
    FloerComplex,
    bar_count_at,
    counting_lemma_bound,
    t1_homology_rank,
)
from .persistence import Barcode, bar_count


# -- eta profile ---------------------------------------------------------------

def _smoothstep(t: float) -> float:
    return t * t * (3.0 - 2.0 * t)


def _smoothstep_integral(t: float) -> float:
    return t ** 3 - 0.5 * t ** 4


@dataclass(frozen=True)
class EtaProfile:
    """Piecewise profile with eta' = sigma * smoothstep on the transitions."""

    sigma: float = 1.0

    def __post_init__(self):
        if not 1.0 <= self.sigma < 1.5:
            raise ValueError("sigma must lie in [1, 3/2)")

    @property
    def k(self) -> float:
        # eta(x) = sigma x - k on [2, 7] forces k = 3 sigma / 2 here
        return 1.5 * self.sigma

    @property
    def variation(self) -> float:
        return 6.0 * self.sigma

    def eta(self, x: float) -> float:
        s = self.sigma
        if x <= 1:
            return 0.0
        if x <= 2:
            return s * _smoothstep_integral(x - 1)
        if x <= 7:
            return s * x - self.k
        if x <= 8:
            return (7 * s - self.k) + s * ((x - 7) - _smoothstep_integral(x - 7))
        return self.variation

    def eta_prime(self, x: float) -> float:
        s = self.sigma
        if x <= 1 or x >= 8:
            return 0.0
        if x < 2:
            return s * _smoothstep(x - 1)
        if x <= 7:
            return s
        return s * (1.0 - _smoothstep(x - 7))


def eta_solve(profile: EtaProfile, ell, n) -> tuple[float, float]:
    """The two roots of eta'(r) = ell/n, r in (1,2) and r' in (7,8), to 1e-12."""
    tol = 1e-12
    target = float(ell) / float(n)
    if not 0 < target < profile.sigma:
        raise ValueError("admissibility requires 0 < ell/n < sigma")

    def bisect(lo, hi, increasing):
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            val = profile.eta_prime(mid)
            if abs(val - target) < tol and hi - lo < tol:
                return mid
            if (val < target) == increasing:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    return bisect(1.0, 2.0, True), bisect(7.0, 8.0, False)


def action_value(profile: EtaProfile, n: int, ell, r: float) -> float:
    return n * profile.eta(r) - r * float(ell)


# -- length spectra --------------------------------------------------------------

@dataclass
class LengthSpectrum:
    """Geodesic arc lengths: either an explicit finite multiset, kept as
    sorted Fractions so that certified counts are exact, or a counting
    function T -> #{l <= T} of a float T for synthetic asymptotic families."""

    lengths: Optional[tuple] = None
    count_fn: Optional[Callable[[float], int]] = None

    def __post_init__(self):
        if (self.lengths is None) == (self.count_fn is None):
            raise ValueError("provide exactly one of lengths / count_fn")
        if self.lengths is not None:
            lengths = tuple(sorted(Fraction(x) for x in self.lengths))
            if any(x <= 0 for x in lengths):
                raise ValueError("lengths must be positive")
            self.lengths = lengths

    def count_leq(self, T) -> int:
        """#{l <= T}: exact on explicit lengths; count_fn takes float(T)."""
        if self.count_fn is not None:
            return int(self.count_fn(float(T)))
        return bisect.bisect_right(self.lengths, T)

    @staticmethod
    def exponential(h: float = 1.0) -> "LengthSpectrum":
        """count(l <= T) = round(e^{hT}/(hT)) for T >= 1/h."""
        def fn(T: float) -> int:
            if T * h < 1e-9:
                return 0
            return int(round(math.exp(h * T) / (h * T)))
        return LengthSpectrum(count_fn=fn)


def certified_bar_count(spectrum: LengthSpectrum, n: int, delta) -> int:
    """#{l : 5n - 7l >= delta} -- every such geodesic contributes a bar of
    length >= delta to HC(x,y;n) by the rational gap bound."""
    cutoff = (5 * n - Fraction(delta)) / 7
    if cutoff <= 0:
        return 0
    return spectrum.count_leq(cutoff)


def floer_action_model(spectrum: LengthSpectrum, profile: EtaProfile, n: int,
                       delta) -> tuple[list[float], int]:
    """Numeric bar lengths (action gaps A(gamma') - A(gamma) per admissible
    geodesic) plus the certified count at threshold delta.  The spectrum is
    assumed generic: sigma is not in Q L for the lengths L."""
    if spectrum.lengths is None:
        raise ValueError("the explicit action model needs an explicit spectrum")
    gaps = []
    for ell in spectrum.lengths:
        if ell / n >= profile.sigma:
            continue  # not yet admissible
        r, rp = eta_solve(profile, ell, n)
        gap = action_value(profile, n, ell, rp) - action_value(profile, n, ell, r)
        assert gap >= 5 * n - 7 * ell - 1e-6
        gaps.append(gap)
    return sorted(gaps), certified_bar_count(spectrum, n, delta)


# -- entropy estimators ------------------------------------------------------------

def entropy_estimate(seq: Sequence[float], mode: str = "exponential",
                     k_start: int = 1) -> tuple[float, tuple[int, int]]:
    """Least-squares growth-rate estimate of N_k over the finite prefix.

    exponential: slope of log N_k against k;
    slow:        slope of log N_k against log k.
    ``seq[i]`` is N_{k_start + i}.  Returns (estimate, (k_min, k_max))."""
    import numpy as np
    ks, logs = [], []
    for i, v in enumerate(seq):
        k = k_start + i
        if v > 0:
            ks.append(k)
            logs.append(math.log(v))
    if len(ks) < 3:
        raise ValueError("need at least 3 positive points")
    if mode == "exponential":
        xs = np.array(ks, dtype=float)
    elif mode == "slow":
        if ks[0] < 1:
            raise ValueError("slow mode needs k >= 1")
        xs = np.log(np.array(ks, dtype=float))
    else:
        raise ValueError("mode must be exponential or slow")
    slope = float(np.polyfit(xs, np.array(logs), 1)[0])
    return slope, (ks[0], ks[-1])


def lower_bound_conelength(hom_barcodes: Sequence, k_family: Fraction, eps) -> int:
    """ceil(k(F) * sum_F #B^{2 eps}(hom(F, L))) from the bar-count bound."""
    eps = Fraction(eps)
    total = 0
    for B in hom_barcodes:
        if isinstance(B, Barcode):
            total += bar_count(B, 2 * eps)
        elif isinstance(B, ConciseBarcode):
            total += B.bar_count(2 * eps)
        else:
            raise TypeError("expected Barcode or ConciseBarcode")
    return math.ceil(Fraction(k_family) * total)


# -- the Dehn-twist model on the sphere ---------------------------------------------

def dehn_sphere_model(k: int, eps_prime=Fraction(1, 32)
                      ) -> tuple[FloerComplex, int]:
    """Synthetic Floer complex of (L_1, Psi^k L): 2k+2 generators, twist
    pairs with differential valuation 3/32, poles surviving at T=1.

    Returns the complex and the certified count of bars of length > 2/32
    (via the counting lemma: (m - r)/2 bars of length >= min valuation)."""
    k = int(k)
    if k < 1:
        raise ValueError("k must be >= 1")
    eps_prime = Fraction(eps_prime)
    if eps_prime > Fraction(1, 32):
        raise ValueError("eps' must be <= 1/32")
    area, zero = NovikovElement.monomial(Fraction(3, 32)), Fraction(0)
    gens = [Gen("n", 0, zero), Gen("s", 1, zero)]
    diff: dict[int, dict[int, NovikovElement]] = {}
    for i in range(k):
        xi = len(gens)
        gens.append(Gen(f"x{i}", 0, zero))
        gens.append(Gen(f"y{i}", 1, zero))
        diff[xi + 1] = {xi: area}
    C = FloerComplex(gens, diff, 2)
    count, vmin = counting_lemma_bound(C)
    assert t1_homology_rank(C) == 2
    assert vmin >= Fraction(3, 32)
    certified = int(count) if vmin > 2 * eps_prime else 0
    return C, certified


def dehn_bound_sequence(k_max: int, eps=Fraction(1, 32)) -> list[int]:
    """Certified lower bounds for N^r at iterates 1..k_max: the bar count of
    the model complex through the cone-length inequality with k(F) = 1."""
    out = []
    for k in range(1, k_max + 1):
        C, certified = dehn_sphere_model(k, eps)
        out.append(bar_count_at(C, Fraction(2, 32)))
    return out
