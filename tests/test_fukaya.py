import json
import re
from fractions import Fraction as F

import pytest

from persalg.fukaya_models import (
    approximability_certificate,
    build_single_equator,
    build_sphere,
    build_torus_bxy,
    build_torus_grid,
    build_torus_longitudes,
    oc_evaluate,
    oracle_grid_theta,
    oracle_lattice_oc,
    q_series,
)
from persalg.hochschild import dcc, is_cycle
from persalg.novikov import (
    NOV_ONE,
    NovikovElement as N,
    series_divisor_sum,
    series_odd_squares,
    series_theta,
)
from persalg.novikov_complex import CoverageError


def test_single_model_mu_values():
    M = build_single_equator()
    A = M.category
    a = {"pt_L": NOV_ONE, "e_L": N.monomial(F(1, 4))}  # a_L = pt_L + T^{1/4} e_L
    half = N.monomial(F(1, 2))
    for k in range(2, 5):
        assert A.mu_elems([a] * k) == {"e_L": half}


def test_single_oc_values():
    M = build_single_equator()
    assert oc_evaluate(M, {("e_L",): NOV_ONE}).coefficients == ()
    v = oc_evaluate(M, {("pt_L",): NOV_ONE})
    assert v.coefficient("pt_S2") == NOV_ONE
    assert v.coefficient("u") == N.monomial(F(1, 2))
    w = oc_evaluate(M, M.witness)
    assert w.coefficient("u") == N.monomial(F(1, 2))


def test_single_certificate():
    cert = approximability_certificate(build_single_equator())
    assert cert.cycle_check == "verified"
    assert cert.r_bound == F(1, 2)
    assert cert.accuracy == F(1, 4)  # no nu term for one Lagrangian


def test_sphere_slice_oracle():
    """The N circles cut the sphere (area 1) into 2N slices of area 1/(2N)."""
    for Nc in (2, 3, 4):
        S = build_sphere(Nc)
        got = S.category.mu[("n1", "s1'")]["e1"].valuation
        assert got == F(1, 2 * Nc)


def test_sphere_witness_and_certificate():
    for Nc in (2, 3, 4):
        for h in (F(0), F(1, 100)):
            S = build_sphere(Nc, h)
            assert is_cycle(S.category, S.witness)
            v = oc_evaluate(S, S.witness)
            assert v.coefficient("u") == N.monomial(F(1, 2 * Nc))
            cert = approximability_certificate(S)
            assert cert.accuracy == F(1, 4 * Nc) + 2 * h
            assert cert.r_bound == F(1, 2 * Nc) + 2 * h


def test_torus_bxy_oc_matches_oracle():
    M = build_torus_bxy(precision=120)
    assert is_cycle(M.category, M.witness)
    v = oc_evaluate(M, M.witness).coefficient("u")
    oracle = oracle_lattice_oc(120)
    assert v.exponents == oracle.exponents
    assert v.exponents == series_odd_squares(120).exponents
    assert v.exponents[:3] == (F(1), F(9), F(25))


def test_lattice_oracle_chain_of_identities():
    """sum nm T^{nm} = sum n^2 T^{n^2} = sum T^{(2n+1)^2} over Z2."""
    P = 150
    lhs = oracle_lattice_oc(P)
    mid_exps = [F(n * n) for n in range(1, 13) if n * n < P and n % 2]
    assert lhs.exponents == tuple(mid_exps)
    assert lhs.exponents == series_odd_squares(P).exponents


def test_longitudes_oc_divisor_formula():
    for Nc in (2, 3):
        TL = build_torus_longitudes(Nc, precision=6)
        assert is_cycle(TL.category, TL.witness)
        v = oc_evaluate(TL, TL.witness).coefficient("u")
        assert v.exponents == series_divisor_sum(Nc, 6).exponents
        assert v.valuation == F(1, Nc)


def test_longitudes_oc_oracle_odd_N():
    """For odd N the Z2 reduction of the raw lattice series equals the
    divisor-sum series exactly (the even case needs the residue-set
    disambiguation, which is the tabulated route)."""
    for Nc in (3, 5):
        assert q_series("oc", F(1, Nc), 6).exponents == \
            series_divisor_sum(Nc, 6).exponents


def test_away_strip_cancellation_odd_N():
    """The strips away from u cancel in pairs for odd N: their tabulated
    series is the reduced raw series and an even number of copies sum to 0;
    the total therefore equals the u-strip series."""
    TL = build_torus_longitudes(3, precision=6)
    vals = [TL.oc_table[t].get("u") for t in TL.oc_table
            if len(t) == 4]
    nonzero = [v for v in vals if v]
    # u-strip plus two identical away-strips
    assert len(nonzero) == 3
    away = [v for v in nonzero if v.valuation != F(1, 3)]
    assert len(away) == 2 and away[0].exponents == away[1].exponents


def test_longitudes_certificate():
    TL = build_torus_longitudes(2, precision=6, h=F(1, 100))
    cert = approximability_certificate(TL)
    # R <= 1/N + 4h, accuracy = R/2 + h = 1/(2N) + 3h
    assert cert.r_bound == F(1, 2) + 4 * F(1, 100)
    assert cert.accuracy == F(1, 4) + 3 * F(1, 100)


def test_grid_oc_theta():
    G = build_torus_grid(2, precision=10)
    v = oc_evaluate(G, G.witness).coefficient("u")
    assert v.exponents == series_theta(F(1, 4), 4, 10).exponents
    assert v.valuation == F(1, 4)
    assert v.exponents == oracle_grid_theta(2, 10).exponents


def test_grid_certificate_coverage_limited():
    G = build_torus_grid(2, precision=10)
    cert = approximability_certificate(G)
    assert cert.cycle_check.startswith("coverage-limited")
    assert cert.oc_lowest_exponent == F(1, 4)


def test_oc_is_filtered():
    """level(OC(c)) <= level(c) on every covered chain of every model."""
    models = [build_single_equator(), build_sphere(2, F(1, 100)),
              build_torus_bxy(40), build_torus_longitudes(2, 5, F(1, 50))]
    for M in models:
        for t, val in M.oc_table.items():
            lv_in = sum((M.category.gen_info[g].level for g in t), F(0))
            for g, c in val.items():
                assert -c.valuation <= lv_in


def test_oc_coverage_gap():
    M = build_single_equator()
    with pytest.raises(CoverageError):
        oc_evaluate(M, {("pt_L", "pt_L", "pt_L"): NOV_ONE})


def test_intermediate_non_cycle_matches_correction():
    """d_CC of the bare strip sum equals q-tilde times the correction pairs
    (the stated intermediate value), for N = 3 where q-tilde != 0."""
    TL = build_torus_longitudes(3, precision=5)
    A = TL.category
    bare = {t: c for t, c in TL.witness.items() if len(t) == 4}
    got = dcc(A, bare)
    qht = q_series("ht", F(1, 3), 5)
    expected = {}
    for j in (1, 2, 3):
        expected[(f"axy{j}", f"ayx{j}")] = qht
        expected[(f"ayx{j}", f"axy{j}")] = qht
    assert got == expected


def test_model_json_round_trip():
    from persalg.ainf import TabulatedAInfCategory

    for M in (build_single_equator(), build_sphere(2), build_torus_longitudes(2, 5)):
        A2 = TabulatedAInfCategory.from_json(M.category.to_json())
        assert A2.verify(3).ok
        assert set(A2.coverage) == set(M.category.coverage)
        # the wire format carries the exponents and each truncated entry's
        # precision exactly (NovikovElement equality compares both)
        assert A2.mu == M.category.mu
    truncated = [c for val in A2.mu.values() for c in val.values() if c.precision is not None]
    assert len(truncated) == 2  # longitudes N = 2


def test_model_json_names_an_infinite_number():
    """A JSON Infinity as a level, a precision or a shift tag is a
    ValueError naming the field, not an OverflowError."""
    from persalg.ainf import TabulatedAInfCategory

    data = build_torus_longitudes(2, 5).category.to_json()
    n, rec = next((n, r) for n, r in enumerate(data["mu"])
                  if any("precision" in t for t in r["output_terms"]))
    m = next(m for m, t in enumerate(rec["output_terms"]) if "precision" in t)
    obj = data["objects"][0]
    for field, edit in (
            ("generators[1].level", lambda d: d["generators"][1].update(level=float("inf"))),
            (f"mu[{n}].output_terms[{m}].precision",
             lambda d: d["mu"][n]["output_terms"][m].update(precision=float("-inf"))),
            (f"shift_tags.{obj}", lambda d: d["shift_tags"].update({obj: float("inf")}))):
        bad = json.loads(json.dumps(data))
        edit(bad)
        with pytest.raises(ValueError, match=re.escape(field)):
            TabulatedAInfCategory.from_json(bad)


def test_model_json_names_an_unknown_generator():
    """A unit, a mu input (first, last or inner) or a mu output that names
    no generator is a ValueError naming it, not a KeyError; so is a mu
    record without inputs."""
    from persalg.ainf import TabulatedAInfCategory

    data = build_single_equator().category.to_json()
    for match, edit in (
            ("zz", lambda d: d["units"].update(L="zz")),
            ("zz", lambda d: d["mu"][0].update(inputs=["zz"])),
            ("zz", lambda d: d["mu"][1].update(inputs=["pt_L", "zz"])),
            ("zz", lambda d: d["mu"][2].update(inputs=["pt_L", "zz", "pt_L"])),
            ("zz", lambda d: d["mu"][2]["output_terms"][0].update(gen="zz")),
            ("at least one input", lambda d: d["mu"][0].update(inputs=[]))):
        bad = json.loads(json.dumps(data))
        edit(bad)
        with pytest.raises(ValueError, match=match):
            TabulatedAInfCategory.from_json(bad)


def test_away_strip_equals_raw_reduction():
    """For N != 2 the tabulated away-strip series IS the Z2 reduction of the
    raw lattice double sum; the set-difference semantics only bites at the
    N = 2 residue collision, where the tabulated series is empty."""
    from persalg.fukaya_models import _away_strip_series, _double_sum

    for Nc in (3, 4, 5):
        A = F(1, Nc)
        raw = _double_sum(6, lambda n, m: n * (m - A), lambda n, m: n * m) + \
            _double_sum(6, lambda n, m: n * (m + A), lambda n, m: n * m)
        assert raw.exponents == _away_strip_series(Nc, 6).exponents
    assert not _away_strip_series(2, 8)


def test_sphere_unit_reach_reports_missing_tuple():
    """The sphere tables only carry the slice products mu_2(n_i, s_i') and
    mu_2(s_i', n_i); the bar-bimodule contraction needs mu_2(n_1, n_1') and
    must report exactly that gap rather than assume it vanishes."""
    from persalg.ainf import unit_reach

    S2 = build_sphere(2)
    with pytest.raises(CoverageError) as exc:
        unit_reach(S2.category, ["L1", "L2"], "L1", 2)
    assert exc.value.args[0][1] == ("n1", "n1'")
