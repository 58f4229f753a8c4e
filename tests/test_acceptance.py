"""Acceptance suite: the thirteen exit criteria, one test per criterion.

Every tolerance is pinned here, from the contract; each test prints one
PASS line (run with ``pytest -s tests/test_acceptance.py`` or execute this
file directly to see them all).
"""

import itertools
import os
import random
import sys
import time
from fractions import Fraction as F

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from persalg.ainf import (
    cone_differential,
    star_product,
    unit_reach,
    verify_abouzaid_diagram,
    verify_lambda_homotopy,
    verify_unit_witness,
)
from persalg.entropy import (
    LengthSpectrum,
    certified_bar_count,
    dehn_bound_sequence,
    dehn_sphere_model,
    entropy_estimate,
    lower_bound_conelength,
)
from persalg.filtered_complex import (
    barcode_by_rank_oracle,
    cone_length,
    e1,
    full_differential,
    homology_barcode,
    min_cone_decomposition,
    stability_reduce,
)
from persalg.fukaya_models import (
    approximability_certificate,
    build_single_equator,
    build_sphere,
    build_torus_bxy,
    build_torus_grid,
    build_torus_longitudes,
    oc_evaluate,
    oracle_lattice_oc,
)
from persalg.hochschild import is_cycle
from persalg.morse import build_1d, verify as morse_verify
from persalg.novikov import (
    NOV_ONE,
    NovikovElement as N,
    inversion_recursion,
    series_divisor_sum,
    series_odd_squares,
    series_theta,
)
from persalg.novikov_complex import bar_count_at
from persalg.persistence import (
    Bar,
    Barcode,
    INF,
    bar_count,
    dint_variant,
    interleaving_distance,
    oracle_dint_variant,
    oracle_interleaving_distance,
    oracle_retract_interleaving,
    retract_interleaving,
)
from util import random_barcode, random_complex, random_stability_instance


def report(num: int, detail: str):
    print(f"AC{num} PASS: {detail}")


def timed(budget_s):
    class _Timer:
        def __enter__(self):
            self.t0 = time.monotonic()
            return self

        def __exit__(self, *exc):
            self.elapsed = time.monotonic() - self.t0
            assert self.elapsed < budget_s, f"over budget: {self.elapsed:.1f}s"
    return _Timer()


def test_ac1_single_equator():
    with timed(1.0) as t:
        model = build_single_equator()
        A = model.category
        r = unit_reach(A, ["L"], "L", 3)
        assert r <= F(1, 2)
        # the witness route: mu(T^{-1/2} a x a x a) = e_L exactly, and the
        # cycle correction e x a x e certifies the <= 1/2 bound
        lead = {}
        terms = [("pt_L", NOV_ONE), ("e_L", N.monomial(F(1, 4)))]
        for combo in itertools.product(terms, repeat=3):
            key = tuple(g for g, _ in combo)
            c = N.monomial(F(-1, 2))
            for _, x in combo:
                c = c * x
            lead[key] = lead.get(key, N.zero()) + c
        mu_val = {}
        for tpl, c in lead.items():
            for h, v in A.mu_gens(tpl).items():
                mu_val[h] = mu_val.get(h, N.zero()) + c * v
        assert mu_val == {"e_L": NOV_ONE}
        witness = dict(lead)
        for key, add in ((("e_L", "pt_L", "e_L"), NOV_ONE),
                         (("e_L", "e_L", "e_L"), N.monomial(F(1, 4)))):
            witness[key] = witness.get(key, N.zero()) + add
        assert verify_unit_witness(A, ["L"], "L", witness) == F(1, 2)
        cert = approximability_certificate(model)
        assert cert.accuracy == F(1, 4)
        assert cert.cycle_check == "verified"
    report(1, f"unit reach {r} <= 1/2 via the a-cube witness; certificate "
              f"reports exactly 1/4-retract-approximability ({t.elapsed:.2f}s)")


def test_ac2_sphere_families():
    with timed(1.0) as t:
        for Nc in (2, 3, 4):
            for h in (F(0), F(1, 100)):
                S = build_sphere(Nc, h)
                assert is_cycle(S.category, S.witness)
                v = oc_evaluate(S, S.witness)
                assert v.coefficient("u") == N.monomial(F(1, 2 * Nc))
                cert = approximability_certificate(S)
                assert cert.accuracy == F(1, 4 * Nc) + 2 * h
    report(2, "sphere N=2,3,4: witness cycles, OC = T^{1/(2N)}u, accuracy "
              f"1/(4N)+2h for h in {{0, 1/100}} ({t.elapsed:.2f}s)")


def test_ac3_torus_1x1_series():
    with timed(10.0) as t:
        M = build_torus_bxy(precision=120)
        assert is_cycle(M.category, M.witness)
        v = oc_evaluate(M, M.witness).coefficient("u")
        expected = series_odd_squares(120)
        assert v.exponents == expected.exponents
        oracle = oracle_lattice_oc(120)
        assert v.exponents == oracle.exponents
    report(3, f"torus 1x1: OC(a-vec) = sum T^((2n+1)^2) to precision 120, "
              f"term-by-term equal to the lattice-polygon oracle ({t.elapsed:.2f}s)")


def test_ac4_torus_longitudes():
    with timed(10.0) as t:
        for Nc in (2, 3):
            TL = build_torus_longitudes(Nc, precision=6)
            assert is_cycle(TL.category, TL.witness)
            v = oc_evaluate(TL, TL.witness).coefficient("u")
            assert v.valuation == F(1, Nc)
            assert v.exponents == series_divisor_sum(Nc, 6).exponents
    report(4, "longitude families N=2,3: d_CC(witness)=0, OC lowest term "
              f"T^(1/N), series = divisor-sum formula to precision 6 ({t.elapsed:.2f}s)")


def test_ac5_torus_grid():
    with timed(10.0) as t:
        G = build_torus_grid(2, precision=10)
        v = oc_evaluate(G, G.witness).coefficient("u")
        assert v.exponents == series_theta(F(1, 4), 4, 10).exponents
        assert v.valuation == F(1, 4)
    report(5, f"grid N=2: OC = theta series to precision 10, lowest exponent "
              f"1/4 ({t.elapsed:.2f}s)")


def test_ac6_novikov_inversion():
    with timed(5.0) as t:
        f = series_odd_squares(201)
        inv = f.invert(200)
        prod = f * inv
        assert prod.coefficient(0) == 1
        assert all(e == 0 for e in prod.exponents)
        assert prod.precision >= 200
        E = [e - 1 for e in series_odd_squares(202).exponents]
        g = inversion_recursion(E, 200)
        assert g[8] == 1 and g[16] == 1 and g[24] == 0
        expected = sorted(F(n - 1) for n, gn in enumerate(g) if gn)
        assert [e for e in inv.exponents if e < 199] == \
            [e for e in expected if e < 199]
    report(6, f"f * f^-1 = 1 to precision 200 with coefficients matching the "
              f"g_n recursion (g8=g16=1, g24=0) ({t.elapsed:.2f}s)")


def test_ac7_cone_length_identity():
    with timed(120.0) as t:
        rng = random.Random(2026)
        for _ in range(200):
            C = random_complex(rng, rng.randrange(1, 6))  # dim <= 10
            eps = F(rng.randrange(0, 9), 4)
            value, dec = cone_length(C, eps)
            # the formula recomputed through the independent rank oracle
            B = barcode_by_rank_oracle(C)
            n_inf = sum(1 for b in B.bars if b.infinite)
            assert value == 2 * bar_count(B, 2 * eps) - n_inf
            assert len(dec) == value and sum(s.weight for s in dec.steps) == 0
        # full enumeration at dim <= 3
        done = 0
        while done < 10:
            C = random_complex(rng, rng.randrange(1, 3))
            if not 1 <= C.dim() <= 3:
                continue
            eps = F(rng.randrange(0, 5), 4)
            value, _ = cone_length(C, eps)
            found = min_cone_decomposition(homology_barcode(C), [e1(0)], eps,
                                           max_steps=value, metric="interleaving")
            assert found == value
            done += 1
    report(7, f"cone length == 2#B^(2eps) - dim H^inf on 200 random complexes "
              f"(dim <= 10) and == brute-force minimum on 10 instances of "
              f"dim <= 3 ({t.elapsed:.1f}s)")


def test_ac8_stability_counts():
    with timed(60.0) as t:
        rng = random.Random(77)
        for _ in range(500):
            delta = F(rng.randrange(1, 5), 2)
            C, dprime = random_stability_instance(rng, delta)
            D = full_differential(C, dprime)
            Bd, BD = homology_barcode(C), homology_barcode(D)
            for num in range(4):
                eps = delta * num / 4
                assert bar_count(BD, eps) >= bar_count(Bd, eps)
            # the retract carries every long bar of (C, D)
            eps = delta / 2
            R, _ = stability_reduce(C, dprime, delta, eps)
            longs = lambda B: sorted((b.birth, b.death, b.degree)
                                     for b in B.bars
                                     if b.infinite or b.length > eps)
            assert longs(BD) == longs(homology_barcode(R))
    report(8, f"500 perturbed-differential instances: bar counts dominate at "
              f"every eps < delta and the reduction retract carries all long "
              f"bars ({t.elapsed:.1f}s)")


GRID5 = [F(k) for k in range(5)]


def test_ac9_distance_oracle_equivalence():
    with timed(300.0) as t:
        # exhaustive over <= 2 bars per side on the 5-value grid (18496
        # ordered pairs, all three metrics)
        small_bars = [Bar(b, d) for b in GRID5 for d in GRID5 if d > b]
        small_bars += [Bar(b, INF) for b in GRID5]
        codes = [Barcode(())] + [Barcode((b,)) for b in small_bars]
        codes += [Barcode(c) for c in
                  itertools.combinations_with_replacement(small_bars, 2)]
        for A in codes:
            for B in codes:
                assert interleaving_distance(A, B) == oracle_interleaving_distance(A, B)
                assert dint_variant(A, B) == oracle_dint_variant(A, B)
                assert retract_interleaving(A, B) == oracle_retract_interleaving(A, B)
        # randomized over <= 4 bars on the same grid
        rng = random.Random(4242)
        for _ in range(250):
            A = random_barcode(rng, 4, GRID5)
            B = random_barcode(rng, 4, GRID5)
            assert interleaving_distance(A, B) == oracle_interleaving_distance(A, B)
            assert retract_interleaving(A, B) == oracle_retract_interleaving(A, B)
        for _ in range(80):
            A = random_barcode(rng, 2, GRID5)
            B = random_barcode(rng, 2, GRID5)
            assert dint_variant(A, B) == oracle_dint_variant(A, B)
        # sandwich on 1000 random pairs
        for _ in range(1000):
            A = random_barcode(rng, 4, GRID5)
            B = random_barcode(rng, 4, GRID5)
            d = interleaving_distance(A, B)
            D = dint_variant(A, B)
            if D == INF:
                assert d == INF
            else:
                assert D / 2 <= d <= D
    report(9, f"matching-based d_int, D_int, d_rint equal the chain-level "
              f"oracle (exhaustive <= 2 bars, 18496 pairs, + randomized "
              f"<= 4 bars over the 5-value grid); sandwich D/2 <= d <= D on "
              f"1000 pairs ({t.elapsed:.1f}s)")


def test_ac10_diagram_checks():
    with timed(240.0) as t:
        single = build_single_equator()
        sphere2 = build_sphere(2, F(1, 100))
        r1 = verify_abouzaid_diagram(single.category, ["L"], "L", 3, l_max=2)
        assert r1.ok and r1.checked
        r2 = verify_abouzaid_diagram(sphere2.category, ["L1", "L2"], "L1", 3,
                                     l_max=1)
        assert r2.ok and r2.checked
        l1 = verify_lambda_homotopy(single.category, "L", "L", l_max=3)
        assert l1.ok and l1.checked
        l2 = verify_lambda_homotopy(sphere2.category, "L1", "L1", l_max=2)
        assert l2.ok and l2.checked
        # star-Leibniz on 200 random cone elements
        A = single.category
        rng = random.Random(31)

        def rand_elem():
            out = {}
            for _ in range(rng.randint(1, 3)):
                tpl = tuple(rng.choice(["e_L", "pt_L"])
                            for _ in range(rng.randint(1, 3)))
                c = N.monomial(F(rng.randint(-2, 2), rng.choice([1, 2, 4])))
                out[tpl] = out.get(tpl, N.zero()) + c
            return {k: v for k, v in out.items() if v}

        for _ in range(200):
            x, y = rand_elem(), rand_elem()
            lhs = cone_differential(A, star_product(A, x, y))
            for part in (star_product(A, cone_differential(A, x), y),
                         star_product(A, x, cone_differential(A, y))):
                for k, v in part.items():
                    lhs[k] = lhs.get(k, N.zero()) + v
            assert not any(bool(v) for v in lhs.values())
    report(10, f"Abouzaid diagram and lambda homotopy exact on the single-"
               f"equator and sphere-2 models at N_max=3; star-Leibniz on 200 "
               f"random cone elements ({t.elapsed:.1f}s)")


def test_ac11_dehn_growth():
    with timed(30.0) as t:
        from persalg.novikov_complex import concise_barcode

        bounds = []
        for k in range(1, 51):
            C, certified = dehn_sphere_model(k)
            assert certified >= k
            assert bar_count_at(C, F(2, 32)) >= k
            # the cone-length lower bound with k(F) = 1 for the fiber family
            bounds.append(lower_bound_conelength([concise_barcode(C)],
                                                 F(1), F(1, 32)))
        diffs = [b - a for a, b in zip(bounds, bounds[1:])]
        assert all(d == 1 for d in diffs)  # linear growth
        seq = dehn_bound_sequence(200)
        est, window = entropy_estimate(seq[9:], "slow", k_start=10)
        assert 0.9 <= est <= 1.1
    report(11, f"Dehn model: >= k bars of length > 2/32 up to k=50, linear "
               f"lower bounds, slow entropy {est:.3f} in [0.9, 1.1] over "
               f"k in {window} ({t.elapsed:.1f}s)")


def test_ac12_geodesic_scaling():
    with timed(60.0) as t:
        spec = LengthSpectrum.exponential(1.0)
        counts = [certified_bar_count(spec, n, 1) for n in range(10, 41)]
        slope, window = entropy_estimate(counts, "exponential", k_start=10)
        assert window == (10, 40)
        assert slope >= 5 / 8 - 0.1
    report(12, f"synthetic spectrum count(l<=T)=round(e^T/T): bar-count "
               f"log-slope {slope:.3f} >= 5/8 - 0.1 over n in [10, 40] "
               f"({t.elapsed:.1f}s)")


def test_ac13_morse_profile():
    with timed(10.0) as t:
        profile = build_1d(0.1, 0.5, 1e-3, 1.0, 10000)
        rep = morse_verify(profile)
        assert rep.ok, rep.violations
        assert rep.variation <= 0.1
        assert rep.critical_count >= 10
    report(13, f"Morse profile K=0.1, delta=0.5, eta=1e-3 verifies on the "
               f"1e4 grid with {rep.critical_count} critical points and "
               f"variation {rep.variation:.4f} <= K ({t.elapsed:.1f}s)")


if __name__ == "__main__":
    tests = [(name, fn) for name, fn in globals().items()
             if name.startswith("test_ac") and callable(fn)]
    tests.sort(key=lambda t: int("".join(ch for ch in t[0].split("_")[1] if ch.isdigit())))
    failures = 0
    for name, fn in tests:
        try:
            fn()
        except AssertionError as exc:
            num = "".join(ch for ch in name.split("_")[1] if ch.isdigit())
            print(f"AC{num} FAIL: {exc}")
            failures += 1
    sys.exit(1 if failures else 0)
