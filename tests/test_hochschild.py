import itertools
from fractions import Fraction as F

import pytest

from persalg.fukaya_models import (
    build_single_equator,
    build_sphere,
    build_torus_longitudes,
)
from persalg.hochschild import (
    chain_canonical,
    chain_degree,
    chain_level,
    class_boundary_depth,
    dcc,
    dcc_tensor,
    hochschild_barcode,
    hochschild_complex,
    is_cycle,
    tensor_is_cyclic,
)
from persalg.novikov import NOV_ONE, NovikovElement as N
from persalg.novikov_complex import CoverageError
from util import bench_models


@pytest.fixture(scope="module")
def single():
    return build_single_equator()


def a_elem_chain(power):
    """a_L^{(x) power} expanded over the generators (reduced canonically)."""
    out = {}
    terms = [("pt_L", NOV_ONE), ("e_L", N.monomial(F(1, 4)))]
    for combo in itertools.product(terms, repeat=power):
        key = tuple(g for g, _ in combo)
        c = NOV_ONE
        for _, x in combo:
            c = c * x
        out[key] = out.get(key, N.zero()) + c
    return out


def test_reduced_convention(single):
    A = single.category
    assert chain_canonical(A, {("pt_L", "e_L"): NOV_ONE}) == {}
    kept = chain_canonical(A, {("e_L", "pt_L"): NOV_ONE})
    assert kept == {("e_L", "pt_L"): NOV_ONE}


def test_pt_pt_is_cycle(single):
    assert is_cycle(single.category, {("pt_L", "pt_L"): NOV_ONE})


def test_dcc_aaa(single):
    A = single.category
    got = dcc(A, a_elem_chain(3))
    assert got == {("e_L",): N.monomial(F(1, 2))}


def test_dcc_a4(single):
    """d(a^{(x)4}) = T^{1/2} e (x) pt in the reduced complex (the companion
    pt (x) e term carries a unit in slot 2 and is reduced away)."""
    A = single.category
    got = dcc(A, a_elem_chain(4))
    assert got == {("e_L", "pt_L"): N.monomial(F(1, 2))}


def test_sphere_slice_differential():
    S = build_sphere(3)
    A = S.category
    got = dcc_tensor(A, ("n1", "s1'"))
    assert got == {("e1",): N.monomial(F(1, 6)), ("e2",): N.monomial(F(1, 6))}
    assert is_cycle(A, S.witness)


def test_longitude_witness_cycle():
    for Nc in (2, 3):
        TL = build_torus_longitudes(Nc, precision=5)
        assert is_cycle(TL.category, TL.witness)
    # at N = 3 the q-tilde series is nonzero, so the bare strip sum is not
    # a cycle and the unit correction terms are required; at N = 2 the two
    # exponent families coincide (m - 1 + 1/2 = m - 1/2) and everything
    # collapses over Z2
    TL3 = build_torus_longitudes(3, precision=5)
    bare = {t: c for t, c in TL3.witness.items() if len(t) == 4}
    assert not is_cycle(TL3.category, bare)
    from persalg.fukaya_models import q_series
    assert not q_series("ht", F(1, 2), 5)


def test_correction_term_identity():
    TL = build_torus_longitudes(2, precision=5)
    A = TL.category
    got = dcc_tensor(A, ("e1", "axy1", "ayx1"))
    assert got == {("axy1", "ayx1"): NOV_ONE, ("ayx1", "axy1"): NOV_ONE}


def test_degree_formula(single):
    A = single.category
    C, tensors = hochschild_complex(A, ["L"], 4)
    for t in tensors:
        image = dcc_tensor(A, t)
        for t2 in image:
            assert chain_degree(A, t2) == (chain_degree(A, t) - 1) % A.modulus


def test_dcc_squares_to_zero_and_filtrations(single):
    A = single.category
    C, tensors = hochschild_complex(A, ["L"], 4)
    C.validate()  # action non-increasing + d^2 = 0 over the truncation
    for t in tensors:
        img = dcc_tensor(A, t)
        for t2 in img:
            assert len(t2) <= len(t)


def test_boundary_depth_e_class(single):
    A = single.category
    assert class_boundary_depth(A, ["L"], 4, {("e_L",): NOV_ONE}) == F(1, 2)
    assert class_boundary_depth(A, ["L"], 3, {("e_L",): NOV_ONE}) == F(1, 2)


def test_boundary_depth_e_pt_class(single):
    """[e (x) pt] also dies at depth 1/2 (via d(a^{(x)4}))."""
    A = single.category
    assert class_boundary_depth(A, ["L"], 4, {("e_L", "pt_L"): NOV_ONE}) == F(1, 2)


def test_hochschild_barcode_has_depth_bar(single):
    A = single.category
    B = hochschild_barcode(A, ["L"], 4)
    assert F(1, 2) in [l for l, _ in B.finite]
    assert B.generator_count() == 8


def test_coverage_gap_reported():
    G = __import__("persalg.fukaya_models", fromlist=["build_torus_grid"]).build_torus_grid(2, 6)
    with pytest.raises(CoverageError):
        is_cycle(G.category, G.witness)


def test_chain_level(single):
    A = single.category
    assert chain_level(A, {("pt_L", "pt_L"): NOV_ONE}) == 0
    assert chain_level(A, {("pt_L",): N.monomial(F(-1, 2))}) == F(1, 2)


# -- the differential against the plain r/l block loop --------------------------

def _dcc_tensor_loop(A, t):
    """The Hochschild differential by plain loops: the interior blocks of
    t[1:] in i, then j order, then the module blocks mu(t[k-r:], t[0],
    t[1:l+1]) wrapping through slot 1 in r, then l order, mu evaluated on
    every block (units included) and each output tensor reduced."""
    k, out = len(t), {}

    def add(key, c):
        if c and A.unit_names.isdisjoint(key[1:]):
            old = out.get(key)
            out[key] = c if old is None else old + c

    for i in range(1, k):
        for j in range(i + 1, k + 1):
            for h, c in A.mu_gens(t[i:j]).items():
                add(t[:i] + (h,) + t[j:], c)
    for r in range(0, k):
        for l in range(0, k - r):
            if r == 0 and l == 0:
                block = (t[0],)
            else:
                block = t[k - r:] + (t[0],) + t[1:l + 1]
            rest = t[l + 1:k - r] if k - r > l + 1 else ()
            for h, c in A.mu_gens(block).items():
                add((h,) + tuple(rest), c)
    return {key: c for key, c in out.items() if c}


def _dump(fn, A, t):
    """(key, exponents, precision) in insertion order, or the first
    CoverageError's argument."""
    try:
        return [(key, c.exponents, c.precision) for key, c in fn(A, t).items()]
    except CoverageError as exc:
        assert len(exc.args) == 1
        return ("CoverageError", exc.args[0])


def test_dcc_tensor_matches_module_block_loop():
    """dcc_tensor gives the plain loop's chain, in insertion order with
    exponents and precisions, or the same first CoverageError, on every
    cyclic tensor of length <= 4 of every bench model."""
    seen = {"value": 0, "CoverageError": 0, "unit in slot 1": 0}
    raising = set()
    for index, M in enumerate(bench_models()):
        A = M.category
        frontier = [(g,) for g in sorted(A.gen_info)]
        for _ in range(4):
            for t in frontier:
                if not tensor_is_cyclic(A, t):
                    continue
                got = _dump(dcc_tensor, A, t)
                assert got == _dump(_dcc_tensor_loop, A, t), t
                if isinstance(got, tuple):
                    seen["CoverageError"] += 1
                    raising.add(index)
                else:
                    seen["value"] += 1
                    seen["unit in slot 1"] += t[0] in A.unit_names and len(t) > 1
            frontier = [t + (g,) for t in frontier for g in sorted(A.gen_info)
                        if A.gen_info[t[-1]].target == A.gen_info[g].source]
    assert all(seen.values())
    assert {1, 10} <= raising  # sphere-2 and the grid
