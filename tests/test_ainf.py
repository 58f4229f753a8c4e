import copy
import hashlib
import itertools
import random
from collections import Counter
from fractions import Fraction as F

import pytest

from persalg.ainf import (
    AinfReport,
    HomGen,
    TabulatedAInfCategory,
    _eval_tuples,
    _q_chains,
    bar_complex,
    cone_differential,
    contractions,
    contracting_homotopy,
    extract_unit_tensors,
    maurer_cartan_defect,
    shift_category,
    star_product,
    twist,
    twisted_cone,
    twisted_hom_complex,
    unit_reach,
    verify_abouzaid_diagram,
    verify_lambda_homotopy,
    verify_unit_witness,
    TwistedComplex,
)
from persalg.fukaya_models import (
    build_single_equator,
    build_sphere,
    build_torus_bxy,
    build_torus_grid,
    build_torus_longitudes,
)
from persalg.novikov import NOV_ONE, NovikovElement as N
from persalg.novikov_complex import CoverageError, concise_barcode, floer_cone, FloerMap
from persalg.sparse import accumulate, add, add_into
from util import bench_models


@pytest.fixture(scope="module")
def single():
    return build_single_equator()


@pytest.fixture(scope="module")
def sphere2():
    return build_sphere(2, F(1, 100))


def a_cubed_chain(scale=F(-1, 2)):
    """T^{scale} a x a x a expanded over the generators."""
    out = {}
    terms = [("pt_L", NOV_ONE), ("e_L", N.monomial(F(1, 4)))]
    for combo in itertools.product(terms, repeat=3):
        key = tuple(g for g, _ in combo)
        c = N.monomial(scale)
        for _, x in combo:
            c = c * x
        out[key] = out.get(key, N.zero()) + c
    return out


def corrected_witness():
    """T^{-1/2} a x a x a + e x a x e: a d_bar cycle with mu = e_L."""
    wit = a_cubed_chain()
    wit[("e_L", "pt_L", "e_L")] = wit.get(("e_L", "pt_L", "e_L"), N.zero()) + NOV_ONE
    wit[("e_L", "e_L", "e_L")] = wit.get(("e_L", "e_L", "e_L"), N.zero()) + N.monomial(F(1, 4))
    return wit


def test_verify_ainf_models(single, sphere2):
    assert single.category.verify(5).ok
    assert sphere2.category.verify(3).ok
    assert build_sphere(4).category.verify(3).ok


def test_verify_negative_control_filtration(single):
    """A corrupted mu_3 entry violating the filtration is reported with the
    offending tuple."""
    bad = build_single_equator()
    bad.category.mu[("pt_L", "pt_L", "pt_L")] = {"e_L": N.monomial(F(-1, 2))}
    rep = bad.category.verify(4)
    assert not rep.ok
    assert ("filtration", ("pt_L", "pt_L", "pt_L"), "e_L") in rep.failures


def relation_control():
    """A table with a genuinely broken A-infinity relation at (f, g, f)."""
    gens = [
        HomGen("eX", "X", "X", 0, 0), HomGen("p", "X", "X", 0, 0),
        HomGen("eY", "Y", "Y", 0, 0),
        HomGen("f", "X", "Y", 1, 0), HomGen("g", "Y", "X", 1, 0),
    ]
    mu = {
        ("f", "g"): {"p": NOV_ONE},
        ("g", "f"): {},
        ("p", "f"): {"f": NOV_ONE},
        ("f", "g", "f"): {},
        ("p",): {}, ("f",): {}, ("g",): {},
        ("p", "p"): {}, ("g", "p"): {},
    }
    return TabulatedAInfCategory(["X", "Y"], gens, {"X": "eX", "Y": "eY"}, mu)


def test_verify_negative_control_relation():
    """A table with a genuinely broken A-infinity relation fails on the
    violated tuple."""
    A = relation_control()
    rep = A.verify(3)
    assert not rep.ok
    assert any(kind == "relation" and key == ("f", "g", "f")
               for kind, key, *_ in rep.failures)


def test_unit_tuples_not_tabulatable():
    with pytest.raises(ValueError):
        TabulatedAInfCategory(
            ["X"], [HomGen("e", "X", "X", 0, 0)], {"X": "e"},
            {("e", "e"): {"e": NOV_ONE}}, ())


def test_bar_complex_truncation(single):
    barC, mu_map, tensors = bar_complex(single.category, ["L"], "L", 3)
    assert barC.dim() == 4 + 8 + 16 + 32
    # d_bar squares to zero (checked by construction through FloerComplex)
    for i in range(barC.dim()):
        acc = barC.apply(barC.diff.get(i, {}))
        assert not any(bool(v) for v in acc.values())
    # the contraction is a chain map: mu d_bar = d mu
    for i in range(barC.dim()):
        lhs = mu_map.apply(barC.diff.get(i, {}))
        rhs = mu_map.target.apply(mu_map.mat.get(i, {}))
        keys = set(lhs) | set(rhs)
        assert all(not (lhs.get(k, N.zero()) + rhs.get(k, N.zero())) for k in keys)


def test_bar_complex_empty_family(single):
    barC, mu_map, tensors = bar_complex(single.category, [], "L", 3)
    assert barC.dim() == 0


def test_unit_witness(single):
    level = verify_unit_witness(single.category, ["L"], "L", corrected_witness())
    assert level == F(1, 2)
    with pytest.raises(ValueError):
        verify_unit_witness(single.category, ["L"], "L", a_cubed_chain())


def test_mu_of_leading_witness_term(single):
    """mu(T^{-1/2} a x a x a) = e_L on the nose (the leading witness term)."""
    A = single.category
    total = {}
    for t, c in a_cubed_chain().items():
        for h, v in A.mu_gens(t).items():
            total[h] = total.get(h, N.zero()) + c * v
    assert total == {"e_L": NOV_ONE}


def test_unit_reach_single(single):
    # K in B retracts onto itself through e x e, so the honest gap is 0,
    # certifying the <= 1/2 bound of the witness route
    r = unit_reach(single.category, ["L"], "L", 3)
    assert r == 0
    assert r <= F(1, 2)


def test_unit_reach_monotone_in_truncation(single):
    vals = [unit_reach(single.category, ["L"], "L", n) for n in (1, 2, 3)]
    assert all(a >= b for a, b in zip(vals, vals[1:]))


def test_unit_reach_coverage_gap(single):
    with pytest.raises(CoverageError):
        unit_reach(single.category, ["L"], "missing", 2)


def rand_cone_elem(rng):
    out = {}
    for _ in range(rng.randint(1, 3)):
        ln = rng.randint(1, 3)
        t = tuple(rng.choice(["e_L", "pt_L"]) for _ in range(ln))
        c = N.monomial(F(rng.randint(-2, 2), rng.choice([1, 2, 4])))
        out[t] = out.get(t, N.zero()) + c
    return {k: v for k, v in out.items() if v}


def test_star_leibniz_200(single):
    A = single.category
    rng = random.Random(7)
    for _ in range(200):
        x, y = rand_cone_elem(rng), rand_cone_elem(rng)
        lhs = cone_differential(A, star_product(A, x, y))
        rhs = elem_add_chain(star_product(A, cone_differential(A, x), y),
                             star_product(A, x, cone_differential(A, y)))
        assert chains_equal(lhs, rhs)


def elem_add_chain(a, b):
    out = dict(a)
    for k, v in b.items():
        out[k] = out.get(k, N.zero()) + v
    return {k: v for k, v in out.items() if v}


def chains_equal(a, b):
    return not elem_add_chain(a, b)


def test_star_unit(single):
    A = single.category
    rng = random.Random(8)
    for _ in range(30):
        x = rand_cone_elem(rng)
        assert chains_equal(star_product(A, x, {("e_L",): NOV_ONE}), x)


def test_contracting_homotopy(single):
    A = single.category
    H = contracting_homotopy(A, corrected_witness(), {})
    rng = random.Random(9)

    def level(chain):
        # all single-equator generators sit at level 0
        return max((-c.valuation for c in chain.values() if c), default=None)

    for _ in range(60):
        x = rand_cone_elem(rng)
        got = elem_add_chain(cone_differential(A, H(x)), H(cone_differential(A, x)))
        assert chains_equal(got, x)
        hx = H(x)
        if hx and level(hx) is not None:
            assert level(hx) <= level(x) + F(1, 2)  # shift of the witness


def test_twisted_complex_mc(single):
    A = single.category
    X = TwistedComplex(A, [("L", F(0), 0)], {})
    assert not maurer_cartan_defect(X)
    TLL = twist(A, "L", X)
    assert not maurer_cartan_defect(TLL)
    assert len(TLL.summands) == 3


def test_twisted_cone_and_inclusion(single):
    A = single.category
    X = TwistedComplex(A, [("L", F(0), 0)], {})
    TLL = twist(A, "L", X)
    inc = {(0, 2): A.unit("L")}  # the X-slot of T_L L
    C = twisted_cone(inc, X, TLL, 0)
    assert not maurer_cartan_defect(C)
    assert len(C.summands) == 4


def test_twist_zero_hom():
    """Twisting by an object with hom(Y, X) = 0 returns X unchanged."""
    gens = [HomGen("eX", "X", "X", 0, 0), HomGen("eY", "Y", "Y", 0, 0)]
    A = TabulatedAInfCategory(["X", "Y"], gens, {"X": "eX", "Y": "eY"}, {},
                              declared_zero_homs=[("Y", "X"), ("X", "Y")])
    T = twist(A, "Y", TwistedComplex(A, [("X", F(0), 0)], {}))
    assert len(T.summands) == 1 and T.summands[0][0] == "X"


def test_twisted_complex_validation(single):
    A = single.category
    ok = TwistedComplex(A, [("L", F(0), 0), ("L", F(0), 0)],
                        {(0, 1): {"pt_L": NOV_ONE}})
    assert not maurer_cartan_defect(ok)
    with pytest.raises(ValueError):  # entry above filtration level 0
        TwistedComplex(A, [("L", F(0), 0), ("L", F(1), 0)],
                       {(0, 1): {"pt_L": NOV_ONE}})
    with pytest.raises(ValueError):  # wrong degree
        TwistedComplex(A, [("L", F(0), 0), ("L", F(0), 1)],
                       {(0, 1): {"pt_L": NOV_ONE}})
    with pytest.raises(ValueError):  # lower triangular entry
        TwistedComplex(A, [("L", F(0), 0), ("L", F(0), 0)],
                       {(1, 0): {"pt_L": NOV_ONE}})


def test_mc_defect_reported(single):
    """A q whose MC sum does not vanish is reported entrywise: three
    summands with mu_2(q_01, q_12) = mu_2(pt, pt)=0 pass, while wiring the
    composite through the covered mu_3(pt,pt,pt) = T^{1/2} e_L fails."""
    A = single.category
    tc = TwistedComplex(A, [("L", F(0), 0)] * 4,
                        {(0, 1): {"pt_L": NOV_ONE},
                         (1, 2): {"pt_L": NOV_ONE},
                         (2, 3): {"pt_L": NOV_ONE}})
    defect = maurer_cartan_defect(tc)
    assert (0, 3) in defect  # mu_3(pt,pt,pt) = T^{1/2} e_L survives
    assert maurer_cartan_defect(tc)


def test_twisted_hom_matches_cone_of_contraction(single):
    """Yoneda image of T_L L vs the cone of the evaluation map on hom
    complexes: same concise barcode at every level (lambda-lemma check)."""
    A = single.category
    TLL = twist(A, "L", TwistedComplex(A, [("L", F(0), 0)], {}))
    H1 = twisted_hom_complex(A, "L", TLL)
    # cone of evaluation hom(L,L) (x) A(L,L) -> hom(L,L): with mu_1 = 0 the
    # evaluation phi(b (x) c) = mu_2(b, c)
    from persalg.filtered_complex import Gen
    from persalg.novikov_complex import FloerComplex

    kk = A.hom("L", "L")
    src_gens, src_map = [], {}
    for i, g in enumerate(kk):
        for j, c in enumerate(kk):
            src_gens.append(Gen(f"{g}|{c}",
                                A.gen_info[g].degree + A.gen_info[c].degree,
                                A.gen_info[g].level + A.gen_info[c].level))
    tgt = FloerComplex([Gen(g, A.gen_info[g].degree, A.gen_info[g].level)
                        for g in kk], {}, A.modulus)
    src = FloerComplex(src_gens, {}, A.modulus, validate=False)
    mat = {}
    for i, g in enumerate(kk):
        for j, c in enumerate(kk):
            val = A.mu_elems([A.gen_elem(g), A.gen_elem(c)])
            row = {kk.index(h): v for h, v in val.items()}
            if row:
                mat[i * len(kk) + j] = row
    cone_c, _ = floer_cone(FloerMap(src, tgt, mat, 0, validate=False))
    assert concise_barcode(H1).finite == concise_barcode(cone_c).finite
    assert concise_barcode(H1).infinite == concise_barcode(cone_c).infinite


def test_extract_unit_tensors(single):
    A = single.category
    X = TwistedComplex(A, [("L", F(0), 0)], {})
    f = {0: A.unit("L")}
    g = {0: A.unit("L")}
    total, tensors = extract_unit_tensors(A, "L", X, f, g)
    assert total == {"e_L": NOV_ONE}
    assert set(tensors) == {("e_L", "e_L")}
    # level of every extracted tensor bounds the h-vector level
    level = max(sum(A.gen_info[n].level for n in t) - c.valuation
                for t, c in tensors.items())
    assert level == 0


def test_lambda_homotopy(single, sphere2):
    rep = verify_lambda_homotopy(single.category, "L", "L", l_max=2)
    assert rep.ok and rep.checked and not rep.uncheckable
    rep2 = verify_lambda_homotopy(sphere2.category, "L1", "L2", l_max=1)
    assert rep2.ok and rep2.checked


def test_lambda_homotopy_zero_module(single):
    gens = [HomGen("eX", "X", "X", 0, 0), HomGen("eY", "Y", "Y", 0, 0)]
    A = TabulatedAInfCategory(["X", "Y"], gens, {"X": "eX", "Y": "eY"}, {},
                              declared_zero_homs=[("Y", "X"), ("X", "Y")])
    rep = verify_lambda_homotopy(A, "X", "Y", l_max=1)
    assert rep.ok  # degenerate pass: hom(X, Y) = 0


def _corrupt(xs, m):
    return {"e_L": N.monomial(F(1, 5))} if len(xs) == 1 else {}


def test_lambda_homotopy_negative_control(single):
    rep = verify_lambda_homotopy(single.category, "L", "L", l_max=1,
                                 corrupt=_corrupt)
    assert not rep.ok


@pytest.mark.parametrize("check", [
    lambda A: verify_lambda_homotopy(A, "L", "nope"),
    lambda A: verify_lambda_homotopy(A, "nope", "L"),
    lambda A: verify_abouzaid_diagram(A, ["L"], "nope", 1),
    lambda A: verify_abouzaid_diagram(A, ["nope"], "L", 1),
])
def test_diagram_checks_name_unknown_objects(single, check):
    """An object the category does not have is an error naming it, not a
    vacuous pass; a declared-zero hom still passes vacuously
    (test_lambda_homotopy_zero_module)."""
    with pytest.raises(ValueError, match="unknown object nope"):
        check(single.category)


def test_abouzaid_diagram(single, sphere2):
    rep = verify_abouzaid_diagram(single.category, ["L"], "L", 3, l_max=2)
    assert rep.ok and len(rep.checked) > 500
    rep2 = verify_abouzaid_diagram(sphere2.category, ["L1", "L2"], "L1", 2,
                                   l_max=1)
    assert rep2.ok and rep2.checked


def test_abouzaid_unit_chain_reduces(single):
    """gamma = e_K-endpoint chains reduce to unit identities: all terms
    covered and the relation still closes."""
    rep = verify_abouzaid_diagram(single.category, ["L"], "L", 1, l_max=1)
    assert rep.ok


def test_shift_category(single):
    A = single.category
    S0, eta0 = shift_category(A, 0)
    assert all(S0.gen_info[g].level == A.gen_info[g].level for g in A.gen_info)
    S2 = build_sphere(2)
    Sr, eta = shift_category(S2.category, F(1, 3))
    for g, info in Sr.gen_info.items():
        base = S2.category.gen_info[g]
        if base.source == base.target:
            assert info.level == base.level
        else:
            assert info.level == base.level + F(1, 3)
    assert eta["shift"] == F(1, 3)
    assert Sr.verify(3).ok  # the shifted category is still filtered A-infinity


# -- mu evaluation against restated rules ---------------------------------------

def _mu_gens_oracle(A, key):
    """The lookup rules restated: units (mu_2 with a unit input is the
    identity, higher mu with a unit input vanish), a declared-zero output
    hom, then coverage; a fresh copy of the table entry."""
    units_at = [i for i, g in enumerate(key) if g in A.unit_names]
    if units_at:
        if len(key) != 2:
            return {}
        if len(units_at) == 2:
            return {key[0]: NOV_ONE}
        return {key[1 - units_at[0]]: NOV_ONE}
    src, tgt = A.gen_info[key[0]].source, A.gen_info[key[-1]].target
    if A.homs.get((src, tgt)) == []:
        return {}
    if key in A.coverage:
        return dict(A.mu.get(key, {}))
    raise CoverageError((len(key), key))


def _composable(A, max_arity):
    frontier = [(g,) for g in sorted(A.gen_info)]
    for _ in range(max_arity):
        yield from frontier
        frontier = [t + (g,) for t in frontier for g in sorted(A.gen_info)
                    if A.gen_info[t[-1]].target == A.gen_info[g].source]


def _outcome(fn, *args):
    try:
        return fn(*args)
    except CoverageError as exc:
        return ("CoverageError", exc.args)


def _table_copy(A):
    return {k: dict(v) for k, v in A.mu.items()}


def test_mu_gens_matches_rules_on_every_model():
    """mu_gens against the restated rules on every composable tuple of
    arity <= 4, values and CoverageError alike."""
    for A in [M.category for M in bench_models()] + [relation_control()]:
        before = _table_copy(A)
        for key in _composable(A, 4):
            assert _outcome(A.mu_gens, key) == _outcome(_mu_gens_oracle, A, key), key
        assert A.mu == before


def test_mu_table_unchanged_by_callers(single, sphere2):
    """mu_gens hands out the table's own entries; no caller may mutate them."""
    control = relation_control()
    cats = [single.category, sphere2.category, build_sphere(4).category, control]
    before = [_table_copy(A) for A in cats]
    single.category.verify(5)
    sphere2.category.verify(3)
    build_sphere(4).category.verify(3)
    control.verify(3)
    verify_abouzaid_diagram(single.category, ["L"], "L", 2, l_max=1)
    verify_abouzaid_diagram(sphere2.category, ["L1", "L2"], "L1", 1, l_max=1)
    verify_lambda_homotopy(single.category, "L", "L", l_max=2)
    verify_lambda_homotopy(sphere2.category, "L1", "L2", l_max=1)
    verify_unit_witness(single.category, ["L"], "L", corrected_witness())
    A = single.category
    rng = random.Random(7)
    for _ in range(200):
        x, y = rand_cone_elem(rng), rand_cone_elem(rng)
        cone_differential(A, star_product(A, x, y))
        star_product(A, cone_differential(A, x), y)
        star_product(A, x, cone_differential(A, y))
    assert [A.mu for A in cats] == before


def _mu_elems_expansion(A, factors):
    """The multilinear product expansion, one tuple at a time."""
    out = {}
    for combo in itertools.product(*[list(f.items()) for f in factors]):
        coeff = NOV_ONE
        for _, c in combo:
            coeff = coeff * c
        if not coeff:
            continue
        for h, v in A.mu_gens(tuple(g for g, _ in combo)).items():
            out[h] = out.get(h, N.zero()) + coeff * v
    return {k: v for k, v in out.items() if v}


def test_mu_elems_single_terms_match_expansion():
    """Single-term factors (one lookup) and factors of two or three terms
    (the general path) agree with the product expansion, exponents and
    precision alike, and raise CoverageError on the same inputs; the
    coefficients mix 1, exact monomials, zero and truncated series from the
    longitudes model at precision 6."""
    A = build_torus_longitudes(2, precision=6).category
    truncated = sorted({c for val in A.mu.values() for c in val.values()
                        if c.precision is not None}, key=str)
    assert truncated
    coeffs = [NOV_ONE, N.monomial(F(1, 2)), N.monomial(F(-1, 3)), N.zero(),
              N.zero(F(4))] + truncated
    rng = random.Random(17)
    seen = {"value": 0, "CoverageError": 0, "multi-term": 0}

    def factor(g):
        # g and up to two more generators of its hom space
        info = A.gen_info[g]
        others = [h for h in A.hom(info.source, info.target) if h != g]
        names = [g] + rng.sample(others, min(len(others), rng.randint(0, 2)))
        return {h: rng.choice(coeffs) for h in names}

    for key in _composable(A, 4):
        for draw in range(6):
            factors = [{g: rng.choice(coeffs)} for g in key] if draw < 3 else \
                [factor(g) for g in key]
            if any(len(f) > 1 for f in factors):
                seen["multi-term"] += 1
            got = _outcome(A.mu_elems, factors)
            want = _outcome(_mu_elems_expansion, A, factors)
            assert got == want, (key, factors)
            if isinstance(got, dict):
                assert [(c.exponents, c.precision) for c in got.values()] == \
                    [(c.exponents, c.precision) for c in want.values()]
            seen["CoverageError" if isinstance(got, tuple) else "value"] += 1
    assert all(seen.values())


# -- pinned diagram-check reports ------------------------------------------------

def _report_digest(rep):
    """sha256 of the full report: checked, uncheckable and failures, in
    order, by repr."""
    text = repr((rep.checked, rep.uncheckable, rep.failures))
    return hashlib.sha256(text.encode()).hexdigest()


def test_abouzaid_report_pinned_single(single):
    rep = verify_abouzaid_diagram(single.category, ["L"], "L", 3, l_max=2)
    assert (len(rep.checked), len(rep.uncheckable), len(rep.failures)) == (832, 8, 0)
    pt = "pt_L"
    assert rep.uncheckable[0] == (((pt,) * 4, (pt, pt), pt), (7, (pt,) * 7))
    assert rep.uncheckable[-1] == (((pt,) * 5, (pt, pt), pt), (7, (pt,) * 7))
    assert _report_digest(rep) == \
        "18af249c2c9f260de8ed3fe9b22249002b718ef9fb189c2a84c80e0957f573e9"


def test_abouzaid_report_pinned_sphere2():
    A = build_sphere(2).category
    rep = verify_abouzaid_diagram(A, ["L1", "L2"], "L1", 2, l_max=1)
    assert (len(rep.checked), len(rep.uncheckable), len(rep.failures)) == (1203, 31557, 0)
    assert rep.uncheckable[0] == ((("e1", "e1"), ("n1",), "n1'"), (2, ("n1", "n1'")))
    assert rep.uncheckable[-1] == ((("s2'", "pt2", "pt2", "s2"), ("s2'",), "s2"),
                                   (4, ("s2'", "pt2", "pt2", "s2")))
    assert _report_digest(rep) == \
        "90904f5e36fd0abe2f1afae23376803e3a402ebcd8ca214b1b8e83f55a89035e"


def test_lambda_report_pinned_sphere2():
    A = build_sphere(2).category
    rep = verify_lambda_homotopy(A, "L1", "L2", l_max=1)
    assert (len(rep.checked), len(rep.uncheckable), len(rep.failures)) == (3304, 3756, 0)
    assert rep.uncheckable[0] == ((0, ("e1",), "n1", (), "pt1"), (2, ("pt1", "n1")))
    assert rep.uncheckable[-1] == ((1, ("s2'", "s2"), "s2'", ("s2'",), "s2"),
                                   (2, ("s2'", "s2")))
    assert _report_digest(rep) == \
        "a1172bc7a8e9aacae48f9eb7218231b689be7ed7f7bc3b62e71e5f3c215986ed"


def test_lambda_report_pinned_single(single):
    rep = verify_lambda_homotopy(single.category, "L", "L", l_max=3)
    assert (len(rep.checked), len(rep.uncheckable), len(rep.failures)) == (1802, 0, 0)
    assert _report_digest(rep) == \
        "869dd2e54471eb7e363ce0204f527d674e9fdfb1669047068dd01b477a05d31a"


def _lambda_per_pair(A, L, X, l_max, corrupt=None):
    """verify_lambda_homotopy as it walked mu_1^mod in full for every
    (phi, evaluation tuple) pair, F given as a function."""
    rep = AinfReport()

    def mu_M(xs, m):
        out = A.mu_elems(list(xs) + [m])
        return out if corrupt is None else add(out, corrupt(xs, m))

    e_L = A.units[L]

    def d_mod(F, args):
        out = {}
        for i in range(len(args)):
            if inner := F(args[i:]):
                accumulate(out, mu_M([A.gen_elem(g) for g in args[:i]], inner))
        for i in range(len(args)):
            for h, c in A.mu_gens(args[i:]).items():
                accumulate(out, F(args[:i] + (h,)), c)
        for key, c in contractions(A, args[:-1]):
            accumulate(out, F(key + args[-1:]), c)
        return out

    for m_name in A.hom(L, X) or []:
        m = A.gen_elem(m_name)
        try:
            got = mu_M([A.gen_elem(e_L)], m)
        except CoverageError as exc:
            rep.uncheckable.append((("theta.lambda", m_name), exc.args[0]))
            continue
        if add(got, m):
            rep.failures.append(("theta.lambda", m_name, got))
        else:
            rep.checked.append(("theta.lambda", m_name))
    evals = _eval_tuples(A, L, l_max)
    for l0, t0, m0 in [(l0, xs + (y,), m0) for l0, xs, y in evals for m0 in A.hom(L, X) or []]:
        def phi(names, t0=t0, m0=m0):
            return {m0: NOV_ONE} if names == t0 else {}

        def H(names, phi=phi):
            return phi(names + (e_L,))

        theta = phi((e_L,))
        for l, xs, y in evals:
            xy = xs + (y,)
            try:
                lhs = A.mu_elems([A.gen_elem(g) for g in xy] + [theta]) if theta else {}
                lhs = add(lhs, phi(xy))
                rhs = add(d_mod(H, xy), d_mod(phi, xy + (e_L,)))
                (rep.failures if add(lhs, rhs) else rep.checked).append(
                    ("homotopy", (l0, t0, m0), (xs, y)))
            except CoverageError as exc:
                rep.uncheckable.append(((l0, t0, m0, xs, y), exc.args[0]))
    return rep


def test_lambda_tables_match_per_pair_walk():
    """verify_lambda_homotopy's per-call tables give, in order and by repr,
    the reports of the walk per pair: the single equator at l_max 0-3, the
    spheres N = 2, 3 at h = 0, 1/100 and l_max 0, 1, and the three torus
    models at l_max 1, over every ordered (L, X) pair, and the corrupted
    negative control at l_max 1, 2."""
    single = build_single_equator().category
    cases = [(single, "L", "L", l, None) for l in range(4)]
    cases += [(single, "L", "L", l, _corrupt) for l in (1, 2)]
    for A, l_maxes in [(build_sphere(2).category, (0, 1)), (build_sphere(2, F(1, 100)).category, (0, 1)),
                       (build_sphere(3).category, (0, 1)), (build_sphere(3, F(1, 100)).category, (0, 1)),
                       (build_torus_bxy().category, (1,)),
                       (build_torus_longitudes(2).category, (1,)),
                       (build_torus_grid(2).category, (1,))]:
        cases += [(A, L, X, l, None) for L in A.objects for X in A.objects for l in l_maxes]
    seen = Counter()
    for A, L, X, l_max, corrupt in cases:
        want = _lambda_per_pair(A, L, X, l_max, corrupt)
        got = verify_lambda_homotopy(A, L, X, l_max, corrupt)
        assert repr((got.checked, got.uncheckable, got.failures)) == \
            repr((want.checked, want.uncheckable, want.failures)), (L, X, l_max)
        seen.update(checked=len(want.checked), uncheckable=len(want.uncheckable),
                    failures=len(want.failures))
    assert all(seen[k] for k in ("checked", "uncheckable", "failures"))


# -- block contractions and q-chains against plain enumerations -----------------

def _contractions_loop(mu, t, whole, rows, after):
    """The nested i/j loop over the blocks t[i..j] with i < rows (every i
    when None) and j >= after, then mu's terms."""
    n = len(t)
    for i in range(n):
        for j in range(i, n):
            if not whole and (i, j) == (0, n - 1):
                continue
            if rows is not None and i >= rows or j < after:
                continue
            for h, c in mu(t[i:j + 1]).items():
                yield t[:i] + (h,) + t[j + 1:], c


def _drain(items):
    """(key, exponents, precision) up to the first CoverageError, and its
    args (None when there is none)."""
    out = []
    try:
        for key, c in items:
            out.append((key, c.exponents, c.precision))
    except CoverageError as exc:
        return out, exc.args
    return out, None


def test_contractions_match_nested_loop(single, sphere2, monkeypatch):
    """contractions yields the nested loop's (key, coefficient) sequence, in
    order and up to the same first CoverageError, with and without the
    whole-tensor block, unbounded and with the star product's bounds
    (rows = after = len(tx) on t = tx + ty) and the Hochschild rotation's
    (rows=1, after=r); without the whole block, mu is never evaluated on the
    tensor, and it is never evaluated on a block outside the bounds or on
    one that holds a unit and is not of length 2, which vanishes by the
    strict-unit rule."""
    seen = {"value": 0, "CoverageError": 0, "unit skipped": 0}
    for M, seed in ((single, 3), (sphere2, 4)):
        A = M.category
        mu_gens = A.mu_gens
        tuples = list(_composable(A, 5))
        rng = random.Random(seed)
        for t in rng.sample(tuples, min(len(tuples), 300)):
            n = len(t)
            bounds = [(True, None, 0), (False, None, 0)]
            bounds += [(True, m, m) for m in range(1, n)]  # star product
            bounds += [(True, 1, r) for r in range(n)]  # Hochschild rotation
            for whole, rows, after in bounds:
                asked = []

                def mu(key):
                    asked.append(key)
                    return mu_gens(key)

                monkeypatch.setattr(A, "mu_gens", mu)
                got = _drain(contractions(A, t, whole, rows, after))
                monkeypatch.undo()
                want = _drain(_contractions_loop(A.mu_gens, t, whole, rows, after))
                assert got == want, (t, whole, rows, after)
                assert whole or t not in asked
                assert all(len(k) == 2 or A.unit_names.isdisjoint(k) for k in asked), t
                assert all(any(t[i:i + len(k)] == k for i in range(rows or n)
                               if i + len(k) > after) for k in asked), (t, rows, after)
                if got[1] is None and not A.unit_names.isdisjoint(t) and len(t) > 2:
                    seen["unit skipped"] += 1
                seen["value" if got[1] is None else "CoverageError"] += 1
    assert all(seen.values())


def _index_chain_entries(q, i, j):
    """Every chain i = c_0 < ... < c_k = j by recursion, then its q entries
    looked up; chains with a missing entry dropped."""
    def chains(cur):
        if cur[-1] == j:
            yield cur
            return
        for nxt in range(cur[-1] + 1, j + 1):
            yield from chains(cur + [nxt])

    out = []
    for chain in chains([i]):
        keys = list(zip(chain, chain[1:]))
        if all(k in q for k in keys):
            out.append([q[k] for k in keys])
    return out


def test_q_chains_match_index_chain_enumeration():
    """_q_chains gives the entry lists of the recursive index-chain
    enumeration, in its order, for all i <= j on random q patterns (missing
    entries and i == j included)."""
    rng = random.Random(11)
    for _ in range(60):
        n = rng.randint(1, 7)
        density = rng.choice([0.2, 0.5, 0.8, 1.0])
        q = {(a, b): {f"q{a}{b}": NOV_ONE} for a in range(n) for b in range(a + 1, n)
             if rng.random() < density}
        for i in range(n):
            for j in range(i, n):
                got = list(_q_chains(q, i, j))
                want = _index_chain_entries(q, i, j)
                assert got == want, (q, i, j)
                assert all(a is b for x, y in zip(got, want) for a, b in zip(x, y))


def test_bar_complex_coverage_gap_pinned():
    """bar_complex reports the first uncovered proper block; mu on a whole
    tensor is the contraction map and is not evaluated by d_bar."""
    cases = [(build_sphere(2).category, ["L1", "L2"], "L2", (2, ("n1'", "pt1"))),
             (build_torus_bxy().category, ["Lx", "Ly"], "Lx", (2, ("pt_x", "a_xy")))]
    for A, B, K, gap in cases:
        with pytest.raises(CoverageError) as exc:
            bar_complex(A, B, K, 1)
        assert exc.value.args[0] == gap


# -- composable-tuple orders against recursive enumerators ----------------------

def _bar_tensors_recursive(A, B, K, n_max):
    """gamma_1 (x) a_1 ... a_d (x) gamma_2 by depth-first recursion over the
    interior objects, d = 0..n_max."""
    out = []

    def interiors(last, length):
        if length == 0:
            yield []
            return
        for nxt in B:
            for g in A.hom(last, nxt) or []:
                for rest in interiors(nxt, length - 1):
                    yield [g] + rest

    for d in range(n_max + 1):
        for L0 in B:
            for g1 in A.hom(K, L0) or []:
                for mid in interiors(L0, d):
                    Ld = A.gen_info[mid[-1]].target if mid else L0
                    for g2 in A.hom(Ld, K) or []:
                        out.append((g1, *mid, g2))
    return out


def _hochschild_tensors_recursive(A, objects, n_max):
    """Cyclic tensors of length <= n_max by depth-first extension, scanning
    every hom pair inside ``objects`` at each step; no unit after slot 1."""
    out = []
    pairs = {p: names for p, names in A.homs.items()
             if p[0] in objects and p[1] in objects}

    def extend(chain, length):
        tail = A.gen_info[chain[-1]].target
        if len(chain) == length:
            if tail == A.gen_info[chain[0]].source:
                out.append(tuple(chain))
            return
        for (src, _), names in pairs.items():
            if src == tail:
                for g in names:
                    if g not in A.unit_names:
                        extend(chain + [g], length)

    for length in range(1, n_max + 1):
        for names in pairs.values():
            for g0 in names:
                extend([g0], length)
    return out


def _composable_recursive(A, max_arity):
    """Composable tuples by arity, then first generator name, then by the
    order of each further generator among the generators of its source."""
    def extend(t, n):
        if len(t) == n:
            yield t
            return
        for g in A.gen_info:
            if A.gen_info[g].source == A.gen_info[t[-1]].target:
                yield from extend(t + (g,), n)

    return [t for n in range(1, max_arity + 1)
            for g in sorted(A.gen_info) for t in extend((g,), n)]


def _order_models():
    yield build_single_equator()
    yield build_sphere(2)
    yield build_sphere(3, F(1, 100))
    yield build_torus_bxy()
    for n in (2, 3):
        yield build_torus_longitudes(n, precision=6)
    yield build_torus_grid(2)


def test_enumeration_orders_match_recursive_references():
    """bar_tensors, hochschild_tensors and verify's key order are the
    depth-first orders of the recursive enumerators, on proper and permuted
    object families, a K outside B, and n_max = 0."""
    from persalg.ainf import bar_tensors
    from persalg.hochschild import hochschild_tensors

    for M in _order_models():
        A = M.category
        objs = A.objects
        families = [objs, objs[::-1], objs[:1], objs[1:], []]
        for B in families:
            for K in (objs[0], objs[-1]):
                for n in (0, 1, 2):
                    assert bar_tensors(A, B, K, n) == _bar_tensors_recursive(A, B, K, n), \
                        (M.name, B, K, n)
            for n in (0, 1, 2, 3):
                assert hochschild_tensors(A, B, n) == \
                    _hochschild_tensors_recursive(A, B, n), (M.name, B, n)
        keys = _composable_recursive(A, 3)
        assert [t for tuples in A.composable(sorted(A.gen_info), A._by_source, 3)
                for t in tuples] == keys
        rep = A.verify(3)
        checked, gaps = rep.checked, [k for k, _ in rep.uncheckable]
        relation = [f[1] for f in rep.failures if f[0] == "relation"]
        assert sorted(checked + gaps + relation) == sorted(keys)
        for got in (checked, gaps):
            seen = set(got)
            assert got == [k for k in keys if k in seen]
        assert A.composable(sorted(A.gen_info), A._by_source, 0) == []


# -- the strict-unit skip against sums that look up every block -------------------

def _naive_cone_differential(A, x):
    """Every block t[i..j] of every tensor looked up, units included."""
    out = {}
    for t, c in x.items():
        if not c:
            continue
        for i in range(len(t)):
            for j in range(i, len(t)):
                for h, v in A.mu_gens(t[i:j + 1]).items():
                    key, p = t[:i] + (h,) + t[j + 1:], c * v
                    out[key] = p if key not in out else out[key] + p
    return {k: v for k, v in out.items() if v}


def _naive_star_product(A, x, y):
    """Every suffix of tx joined to every nonempty prefix of ty looked up."""
    out = {}
    for tx, cx in x.items():
        for ty, cy in y.items():
            c = cx * cy
            if not c:
                continue
            for k in range(len(tx)):
                for j in range(1, len(ty) + 1):
                    for h, v in A.mu_gens(tx[k:] + ty[:j]).items():
                        key, p = tx[:k] + (h,) + ty[j:], c * v
                        out[key] = p if key not in out else out[key] + p
    return {k: v for k, v in out.items() if v}


def _naive_verify(A, max_arity):
    """verify's filtration, degree and relation checks with every inner and
    outer block looked up."""
    rep = AinfReport()
    for key, val in A.mu.items():
        total_level = sum(A.gen_info[g].level for g in key)
        total_deg = sum(A.gen_info[g].degree for g in key)
        for h, c in val.items():
            if A.gen_info[h].level - c.valuation > total_level:
                rep.failures.append(("filtration", key, h))
            if A.modulus and (A.gen_info[h].degree - (total_deg + 2 - len(key))) % A.modulus:
                rep.failures.append(("degree", key, h))
    for key in _composable_recursive(A, max_arity):
        n = len(key)
        try:
            acc = {}
            for i in range(n):
                for j in range(i, n):
                    outer = {}
                    for h, c in A.mu_gens(key[i:j + 1]).items():
                        for h2, c2 in A.mu_gens(key[:i] + (h,) + key[j + 1:]).items():
                            p = c * c2
                            outer[h2] = p if h2 not in outer else outer[h2] + p
                    for h2, p in outer.items():
                        s = acc[h2] + p if h2 in acc else p
                        if s:
                            acc[h2] = s
                        else:
                            acc.pop(h2, None)
            if acc:
                rep.failures.append(("relation", key, acc))
            else:
                rep.checked.append(key)
        except CoverageError as exc:
            rep.uncheckable.append((key, exc.args[0]))
    return rep


def _unit_tensors(A, rng, count):
    """Seeded composable tensors of length 1..4, each with the strict unit
    of the object there inserted at one position, every position in turn."""
    tuples = list(_composable(A, 3))
    out = []
    while len(out) < count:
        t = rng.choice(tuples)
        for p in range(len(t) + 1):
            X = A.gen_info[t[p]].source if p < len(t) else A.gen_info[t[-1]].target
            out.append(t[:p] + (A.units[X],) + t[p:])
    return out


def _coefficient(rng):
    q = F(rng.randint(-4, 4), rng.choice((1, 2, 3, 4)))
    if rng.random() < 0.3:
        return N((q, q + F(1, 2)), q + rng.choice((1, 2)))
    return N.monomial(q)


def test_unit_skip_matches_every_block_looked_up(single, sphere2):
    """cone_differential and star_product, which skip the unit blocks that
    vanish, give the dicts (order and precisions included) or the first
    CoverageError of sums that look up every block, on elements with a unit
    at every position; exact and truncated coefficients."""
    seen = {"value": 0, "CoverageError": 0}
    for M, seed in ((single, 5), (sphere2, 6)):
        A = M.category
        rng = random.Random(seed)
        tensors = _unit_tensors(A, rng, 200)
        for _ in range(150):
            x = {t: _coefficient(rng) for t in rng.sample(tensors, rng.randint(1, 3))}
            y = {t: _coefficient(rng) for t in rng.sample(tensors, rng.randint(1, 3))}
            for got, want in ((_outcome(cone_differential, A, x),
                               _outcome(_naive_cone_differential, A, x)),
                              (_outcome(star_product, A, x, y),
                               _outcome(_naive_star_product, A, x, y))):
                assert got == want, (x, y)
                if isinstance(got, dict):
                    assert [(k, c.exponents, c.precision) for k, c in got.items()] == \
                        [(k, c.exponents, c.precision) for k, c in want.items()]
                seen["CoverageError" if isinstance(got, tuple) else "value"] += 1
    assert all(seen.values())



# -- the kept contraction terms of the cone differential and star product ---------

def _dump(outcome):
    """An outcome of ``_outcome``: a dict as (key, exponents, precision) in
    insertion order, or the CoverageError tuple."""
    if isinstance(outcome, tuple):
        return outcome
    return [(k, c.exponents, c.precision) for k, c in outcome.items()]


def test_kept_terms_equal_uncached_sums():
    """On a fresh category of each model, the first and a repeat call of
    cone_differential, star_product and contracting_homotopy give the dicts
    (order, exponents and precisions) or the CoverageError of the sums that
    look up every block; units at every position, exact and truncated
    coefficients."""
    models = (build_single_equator(), build_sphere(2, F(1, 100)),
              build_sphere(4, F(1, 100)), build_torus_bxy(), build_torus_grid(2))
    seen = Counter()  # (model, raised)
    for seed, M in enumerate(models):
        A = M.category
        assert A._terms == {}
        rng = random.Random(40 + seed)
        tensors = _unit_tensors(A, rng, 60) + list(_composable(A, 2))

        def elem():
            return {t: _coefficient(rng) for t in rng.sample(tensors, rng.randint(1, 3))}

        for _ in range(40):
            x, y, h_chain = elem(), elem(), elem()
            a_K = {g: _coefficient(rng) for g in rng.sample(sorted(A.gen_info), 2)}
            total = dict(h_chain)
            add_into(total, {(g,): c for g, c in a_K.items()})
            H = contracting_homotopy(A, h_chain, a_K)
            for fn, args, naive, naive_args in (
                    (cone_differential, (A, x), _naive_cone_differential, (A, x)),
                    (star_product, (A, x, y), _naive_star_product, (A, x, y)),
                    (H, (x,), _naive_star_product, (A, x, total))):
                want = _dump(_outcome(naive, *naive_args))
                assert _dump(_outcome(fn, *args)) == want, (M, x, y)
                assert _dump(_outcome(fn, *args)) == want, (M, x, y)
                seen[seed, isinstance(want, tuple)] += 1
    assert all(seen[seed, False] for seed in range(len(models)))
    assert all(seen[seed, True] for seed in range(1, len(models)))  # single covers all


def test_uncovered_input_keeps_nothing():
    """An input whose terms meet an uncovered block raises the reference's
    CoverageError on every call and leaves the table as it was; a shifted
    or JSON round-tripped category starts with an empty table."""
    A = build_sphere(2, F(1, 100)).category
    rng = random.Random(12)
    tensors, seen = list(_composable(A, 4)), 0
    for _ in range(200):
        tx, ty = rng.choice(tensors), rng.choice(tensors)
        for fn, naive, args in (
                (cone_differential, _naive_cone_differential, (A, {tx: NOV_ONE})),
                (star_product, _naive_star_product, (A, {tx: NOV_ONE}, {ty: NOV_ONE}))):
            want = _outcome(naive, *args)
            before = dict(A._terms)
            assert _outcome(fn, *args) == want
            assert _outcome(fn, *args) == want
            if isinstance(want, tuple):
                assert A._terms == before
                seen += 1
    assert seen and A._terms
    assert shift_category(A, F(1, 3))[0]._terms == {}
    assert TabulatedAInfCategory.from_json(A.to_json())._terms == {}


def _block_counts(tensors, pairs):
    """How often each block occurs, once per position, among the blocks of
    the tensors (the cone differential's) and the suffix-prefix joins of
    the pairs (the star product's)."""
    out = Counter()
    for t in tensors:
        out.update(t[i:j] for i in range(len(t)) for j in range(i + 1, len(t) + 1))
    for tx, ty in pairs:
        out.update(tx[k:] + ty[:j] for k in range(len(tx)) for j in range(1, len(ty) + 1))
    return out


def test_star_leibniz_lookups_once_per_kept_entry(monkeypatch):
    """Over the three terms of 200 random star-Leibniz identities on a fresh
    category, mu is looked up on each block at most once per distinct tensor
    or (tx, ty) pair that holds it, one table entry per such input; the same
    sweep again looks up nothing."""
    A = build_single_equator().category
    mu_gens, asked = A.mu_gens, []

    def mu(key):
        asked.append(key)
        return mu_gens(key)

    monkeypatch.setattr(A, "mu_gens", mu)
    rng = random.Random(13)
    pairs = [(rand_cone_elem(rng), rand_cone_elem(rng)) for _ in range(200)]
    tensors, joined = set(), set()

    def sweep():
        for x, y in pairs:
            xy, dx, dy = star_product(A, x, y), cone_differential(A, x), cone_differential(A, y)
            lhs = cone_differential(A, xy)
            assert chains_equal(lhs, elem_add_chain(star_product(A, dx, y),
                                                    star_product(A, x, dy)))
            tensors.update(x, y, xy)
            joined.update((tx, ty) for a, b in ((x, y), (dx, y), (x, dy))
                          for tx in a for ty in b)

    sweep()
    bound = _block_counts(tensors, joined)
    assert asked and all(n <= bound[key] for key, n in Counter(asked).items())
    assert len(A._terms) == len(tensors) + len(joined)
    asked.clear()
    sweep()
    assert asked == []


def _without_record(A, key):
    """A's category without the mu record ``key``, which is then uncovered."""
    return TabulatedAInfCategory(
        A.objects, list(A.gen_info.values()), A.units,
        {k: v for k, v in A.mu.items() if k != key}, A.coverage - {key}, A.modulus,
        A.half_dim, A.shift_tags, [pair for pair, names in A.homs.items() if not names])


def grouping_control():
    """A relation at (x, y) whose report the rule K/D grouping decides.  The
    block (x) gives z the terms T^1 truncated at 2, T^1 and T^3: by rule K
    they sum to 0 truncated at 2, which rule D then drops across blocks.
    The block (x, y) gives z the term T^0 truncated at 5, and that is the
    report.  Summed by rule D within the block, the first would leave T^3."""
    gens = [HomGen(g, "X", "X", 0, 0) for g in ("eX", "x", "y", "a1", "a2", "a3", "w", "z")]
    mu = {("x",): {"a1": N((1,), 2), "a2": N.monomial(1), "a3": N.monomial(3)},
          ("a1", "y"): {"z": NOV_ONE}, ("a2", "y"): {"z": NOV_ONE},
          ("a3", "y"): {"z": NOV_ONE}, ("x", "y"): {"w": N((0,), 5)},
          ("w",): {"z": NOV_ONE}, ("y",): {}}
    return TabulatedAInfCategory(["X"], gens, {"X": "eX"}, mu, grading_modulus=0)


def _report_dump(rep):
    """checked, uncheckable (with each first-gap argument) and failures, in
    order, each failure's value with its exponents and precisions."""
    return (rep.checked, rep.uncheckable,
            [tuple(_dump(x) if isinstance(x, dict) else x for x in f) for f in rep.failures])


def test_verify_unit_skip_matches_every_block_looked_up():
    """verify's reports equal those of the loop that looks up every block:
    the bench models at arity 4 and the single equator at 5; the single
    equator with mu_3(pt, pt, pt) removed, whose gap then first shows in an
    outer lookup; a relation failure that the rule K/D grouping decides;
    the broken relation and the broken filtration."""
    gapped = _without_record(build_single_equator().category, ("pt_L",) * 3)
    filtration = build_single_equator().category
    filtration.mu[("pt_L",) * 3] = {"e_L": N.monomial(F(-1, 2))}
    cases = [(M.category, 4) for M in bench_models()]
    cases += [(build_single_equator().category, 5), (gapped, 5), (grouping_control(), 3),
              (relation_control(), 4), (filtration, 4)]
    seen = Counter()
    for A, arity in cases:
        want = _report_dump(_naive_verify(A, arity))
        assert _report_dump(A.verify(arity)) == want, arity
        seen.update(checked=len(want[0]), uncheckable=len(want[1]), failures=len(want[2]))
    assert all(seen[k] for k in ("checked", "uncheckable", "failures"))
    outer_gaps = [(key, gap) for key, gap in gapped.verify(5).uncheckable
                  if gap[1] not in {key[i:j] for i in range(len(key))
                                    for j in range(i + 1, len(key) + 1)}]
    assert outer_gaps
    assert _report_dump(grouping_control().verify(3))[2] == \
        [("relation", ("x", "y"), [("z", (F(0),), F(5))])]
    assert ("filtration", ("pt_L",) * 3, "e_L") in filtration.verify(4).failures
    assert [f[:2] for f in relation_control().verify(4).failures] == \
        [("relation", ("f", "g", "f"))]


def test_verify_looks_up_each_tuple_once_and_keeps_nothing(monkeypatch):
    """One verify(4) on a fresh sphere-4h looks each tuple up at most once
    and leaves the category's attributes as they were; a second call makes
    the same lookups again."""
    A = build_sphere(4, F(1, 100)).category
    mu_gens, asked = A.mu_gens, []

    def mu(key):
        asked.append(key)
        return mu_gens(key)

    monkeypatch.setattr(A, "mu_gens", mu)
    attrs, values = dict(vars(A)), copy.deepcopy(vars(A))
    A.verify(4)
    first = list(asked)
    assert len(first) == len(set(first)) == 1032
    assert vars(A) == values
    assert vars(A).keys() == attrs.keys() and all(vars(A)[k] is v for k, v in attrs.items())
    asked.clear()
    A.verify(4)
    assert asked == first


def test_lambda_check_walks_each_tuple_once_and_keeps_nothing(monkeypatch):
    """One verify_lambda_homotopy on the single equator at l_max 3 makes at
    most 1,000 lookups (the walk per pair made 25,950) and leaves the
    category's attributes as they were; a second call makes the same
    lookups again."""
    A = build_single_equator().category
    mu_gens, asked = A.mu_gens, []

    def mu(key):
        asked.append(key)
        return mu_gens(key)

    monkeypatch.setattr(A, "mu_gens", mu)
    attrs, values = dict(vars(A)), copy.deepcopy(vars(A))
    verify_lambda_homotopy(A, "L", "L", l_max=3)
    first = list(asked)
    assert 0 < len(first) <= 1000
    assert vars(A) == values
    assert vars(A).keys() == attrs.keys() and all(vars(A)[k] is v for k, v in attrs.items())
    asked.clear()
    verify_lambda_homotopy(A, "L", "L", l_max=3)
    assert asked == first
