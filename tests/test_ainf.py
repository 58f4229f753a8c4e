import itertools
import random
from fractions import Fraction as F

import pytest

from persalg.ainf import (
    HomGen,
    TabulatedAInfCategory,
    bar_complex,
    cone_differential,
    contracting_homotopy,
    extract_unit_tensors,
    maurer_cartan_check,
    maurer_cartan_defect,
    object_twisted,
    shift_category,
    star_product,
    twist,
    twisted_cone,
    twisted_hom_complex,
    unit_inclusion,
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
    X = object_twisted(A, "L")
    assert maurer_cartan_check(X)
    TLL = twist(A, "L", X)
    assert maurer_cartan_check(TLL)
    assert len(TLL.summands) == 3


def test_twisted_cone_and_inclusion(single):
    A = single.category
    X = object_twisted(A, "L")
    TLL = twist(A, "L", X)
    inc = unit_inclusion(A, "L", TLL, 2)  # the X-slot of T_L L
    C = twisted_cone(inc, X, TLL, 0)
    assert maurer_cartan_check(C)
    assert len(C.summands) == 4


def test_twist_zero_hom():
    """Twisting by an object with hom(Y, X) = 0 returns X unchanged."""
    gens = [HomGen("eX", "X", "X", 0, 0), HomGen("eY", "Y", "Y", 0, 0)]
    A = TabulatedAInfCategory(["X", "Y"], gens, {"X": "eX", "Y": "eY"}, {},
                              declared_zero_homs=[("Y", "X"), ("X", "Y")])
    T = twist(A, "Y", object_twisted(A, "X"))
    assert len(T.summands) == 1 and T.summands[0][0] == "X"


def test_twisted_complex_validation(single):
    A = single.category
    ok = TwistedComplex(A, [("L", F(0), 0), ("L", F(0), 0)],
                        {(0, 1): {"pt_L": NOV_ONE}})
    assert maurer_cartan_check(ok)
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
    assert not maurer_cartan_check(tc)


def test_twisted_hom_matches_cone_of_contraction(single):
    """Yoneda image of T_L L vs the cone of the evaluation map on hom
    complexes: same concise barcode at every level (lambda-lemma check)."""
    A = single.category
    TLL = twist(A, "L", object_twisted(A, "L"))
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
    X = object_twisted(A, "L")
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


def test_lambda_homotopy_negative_control(single):
    def corrupt(xs, m):
        return {"e_L": N.monomial(F(1, 5))} if len(xs) == 1 else {}

    rep = verify_lambda_homotopy(single.category, "L", "L", l_max=1,
                                 corrupt=corrupt)
    assert not rep.ok


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


def _all_models():
    yield build_single_equator()
    for n in (2, 3, 4):
        for h in (0, F(1, 100)):
            yield build_sphere(n, h)
    yield build_torus_bxy()
    for n in (2, 3):
        yield build_torus_longitudes(n, precision=6)
    yield build_torus_grid(2)


def _table_copy(A):
    return {k: dict(v) for k, v in A.mu.items()}


def test_mu_gens_matches_rules_on_every_model():
    """mu_gens against the restated rules on every composable tuple of
    arity <= 4, values and CoverageError alike."""
    for A in [M.category for M in _all_models()] + [relation_control()]:
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

def test_abouzaid_report_pinned_single(single):
    rep = verify_abouzaid_diagram(single.category, ["L"], "L", 3, l_max=2)
    assert (len(rep.checked), len(rep.uncheckable), len(rep.failures)) == (832, 8, 0)
    pt = "pt_L"
    assert rep.uncheckable[0] == (((pt,) * 4, (pt, pt), pt), (7, (pt,) * 7))
    assert rep.uncheckable[-1] == (((pt,) * 5, (pt, pt), pt), (7, (pt,) * 7))


def test_abouzaid_report_pinned_sphere2():
    A = build_sphere(2).category
    rep = verify_abouzaid_diagram(A, ["L1", "L2"], "L1", 2, l_max=1)
    assert (len(rep.checked), len(rep.uncheckable), len(rep.failures)) == (1203, 31557, 0)
    assert rep.uncheckable[0] == ((("e1", "e1"), ("n1",), "n1'"), (2, ("n1", "n1'")))
    assert rep.uncheckable[-1] == ((("s2'", "pt2", "pt2", "s2"), ("s2'",), "s2"),
                                   (4, ("s2'", "pt2", "pt2", "s2")))


def test_lambda_report_pinned_sphere2():
    A = build_sphere(2).category
    rep = verify_lambda_homotopy(A, "L1", "L2", l_max=1)
    assert (len(rep.checked), len(rep.uncheckable), len(rep.failures)) == (3304, 3756, 0)
    assert rep.uncheckable[0] == ((0, ("e1",), "n1", (), "pt1"), (2, ("pt1", "n1")))
    assert rep.uncheckable[-1] == ((1, ("s2'", "s2"), "s2'", ("s2'",), "s2"),
                                   (2, ("s2'", "s2")))


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
