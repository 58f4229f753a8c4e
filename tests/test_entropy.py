import math
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from persalg.entropy import (
    EtaProfile,
    LengthSpectrum,
    action_value,
    certified_bar_count,
    dehn_bound_sequence,
    dehn_sphere_model,
    entropy_estimate,
    eta_solve,
    floer_action_model,
    lower_bound_conelength,
)
from persalg.filtered_complex import e1, internal_hom, cone_length, family_constant, homology_barcode
from persalg.novikov_complex import bar_count_at, concise_barcode, t1_homology_rank
from persalg.persistence import Bar, Barcode, INF
from util import count_reduce_floer


def test_eta_shape():
    p = EtaProfile(1.0)
    assert p.eta(0.5) == 0
    assert abs(p.eta(4) - (4 - 1.5)) < 1e-12  # sigma x - k on [2, 7]
    assert p.eta(9) == p.variation == 6.0
    # eta' <= 3/2 everywhere, monotone on transitions
    xs = np.linspace(0, 9, 2000)
    ds = [p.eta_prime(x) for x in xs]
    assert max(ds) <= 1.5
    trans = [p.eta_prime(x) for x in np.linspace(1.01, 1.99, 50)]
    assert all(a < b for a, b in zip(trans, trans[1:]))


def test_eta_profile_range():
    with pytest.raises(ValueError):
        EtaProfile(1.6)
    EtaProfile(1.49)


def test_eta_solve_roots():
    p = EtaProfile(1.0)
    for ell, n in ((1.0, 2), (0.5, 1), (3.0, 7)):
        r, rp = eta_solve(p, ell, n)
        assert 1 < r < 2 and 7 < rp < 8
        assert abs(p.eta_prime(r) - ell / n) < 1e-12
        assert abs(p.eta_prime(rp) - ell / n) < 1e-12


def test_eta_solve_inadmissible():
    p = EtaProfile(1.0)
    with pytest.raises(ValueError):
        eta_solve(p, 3.0, 2)  # ell/n = 1.5 >= sigma


def test_action_gap_bound():
    p = EtaProfile(1.0)
    r, rp = eta_solve(p, 1.0, 2)
    gap = action_value(p, 2, 1.0, rp) - action_value(p, 2, 1.0, r)
    assert gap >= 5 * 2 - 7 * 1  # the rational lower bound 5n - 7l


def test_floer_action_model():
    spec = LengthSpectrum(lengths=(1.0, 2.0, 3.5))
    p = EtaProfile(1.0)
    gaps, certified = floer_action_model(spec, p, 4, 1)
    assert len(gaps) == 3  # all admissible at n = 4 (l < n sigma)
    assert certified == len([l for l in spec.lengths if 5 * 4 - 7 * l >= 1])
    gaps2, _ = floer_action_model(spec, p, 2, 1)
    assert len(gaps2) == 1  # only l = 1 < n sigma is admissible at n = 2


def test_certified_count_threshold():
    spec = LengthSpectrum(lengths=(1.0,))
    # n >= (7 l + delta)/5: for l = 1, delta = 3: n >= 2
    assert certified_bar_count(spec, 2, 3) == 1
    assert certified_bar_count(spec, 1, 3) == 0


@seed(20261019)
@settings(max_examples=400, deadline=None)
@given(st.integers(1, 300), st.integers(1, 59), st.sampled_from((1, 2, 3, 7)),
       st.sampled_from((-1, 0, 1)),
       st.lists(st.fractions(min_value=F(1, 60), max_value=40, max_denominator=60), max_size=6))
@example(5, 3, 3, 0, [])
def test_certified_count_exact_at_the_boundary(p, q, n, side, others):
    """#{l : 5n - 7l >= delta} counts l = p/q exactly at delta = 5n - 7l, and
    one part in 10^12 to either side of it."""
    ell = F(p, q)
    delta = 5 * n - 7 * ell + side * F(1, 10 ** 12)
    spec = LengthSpectrum(lengths=(ell, *others))
    want = sum(1 for x in (ell, *others) if 5 * n - 7 * x >= delta)
    assert certified_bar_count(spec, n, delta) == want
    assert all(type(x) is F for x in spec.lengths) and list(spec.lengths) == sorted(spec.lengths)


def test_entropy_estimates():
    est, _ = entropy_estimate([2 ** k for k in range(1, 12)], "exponential")
    assert abs(est - math.log(2)) < 1e-9
    est2, _ = entropy_estimate(list(range(10, 200)), "slow", k_start=10)
    assert 0.9 <= est2 <= 1.1
    est3, _ = entropy_estimate([7] * 30, "exponential")
    assert abs(est3) < 1e-9
    with pytest.raises(ValueError):
        entropy_estimate([1, 2], "exponential")


def test_lower_bound_conelength():
    B = Barcode((Bar(0, 1), Bar(0, 3), Bar(2, INF)))
    assert lower_bound_conelength([B], F(1), F(1, 4)) == 3
    assert lower_bound_conelength([B], F(1, 2), F(1, 4)) == 2  # ceiling
    assert lower_bound_conelength([], F(1), 0) == 0
    # consistency with eq-identi for F = {k}: bound <= exact cone length
    C = e1(0)
    kF = family_constant(internal_hom(C, C))
    assert kF == 1
    from persalg.filtered_complex import direct_sum, e2
    A = direct_sum(e2(0, 1, name="a"), e1(2, 0, "c"))
    bound = lower_bound_conelength([homology_barcode(A)], kF, F(1, 4))
    exact, _ = cone_length(A, F(1, 4))
    assert bound <= exact


def test_dehn_model():
    C, certified = dehn_sphere_model(5)
    assert C.dim() == 12
    assert certified == 5
    assert t1_homology_rank(C) == 2
    assert bar_count_at(C, F(2, 32)) == 7  # 5 twist bars + 2 poles
    B = concise_barcode(C)
    assert all(l == F(3, 32) for l, _ in B.finite)
    C1, cert1 = dehn_sphere_model(1)
    assert cert1 == 1
    with pytest.raises(ValueError):
        dehn_sphere_model(3, F(1, 16))  # eps' > 1/32


def test_dehn_sequence_growth():
    seq = dehn_bound_sequence(40)
    assert seq[:5] == [3, 4, 5, 6, 7]
    assert all(b - a == 1 for a, b in zip(seq, seq[1:]))
    est, _ = entropy_estimate(seq[9:], "slow", k_start=10)
    assert 0.8 <= est <= 1.1


def test_synthetic_spectrum_slope():
    spec = LengthSpectrum.exponential(1.0)
    counts = [certified_bar_count(spec, n, 1) for n in range(10, 41)]
    slope, window = entropy_estimate(counts, "exponential", k_start=10)
    assert window == (10, 40)
    assert slope >= 5 / 8 - 0.1


def test_entropy_chain_inequality():
    """h_F >= h^r_F >= h^r_{G_F} >= barcode entropy at 2 eps: realized on the
    Dehn family where all four are the growth of the same linear sequence
    (the bounds coincide up to constants, so the slow estimates agree)."""
    seq = dehn_bound_sequence(30)
    upper, _ = entropy_estimate([2 * s for s in seq[9:]], "slow", k_start=10)
    lower, _ = entropy_estimate(seq[9:], "slow", k_start=10)
    assert upper >= lower - 1e-9


def test_dehn_sequence_reduces_each_model_once(monkeypatch):
    calls = count_reduce_floer(monkeypatch)
    assert dehn_bound_sequence(12) == [k + 2 for k in range(1, 13)]
    assert len(calls) == 12 and len({id(C) for C in calls}) == 12
