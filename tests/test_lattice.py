import ast
from fractions import Fraction as F
from pathlib import Path

from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from persalg.lattice import ceil_over, common_scale, over, scale_lcm

SRC = Path(__file__).resolve().parent.parent / "src" / "persalg"


def _primes(n: int) -> set[int]:
    out, p = set(), 2
    while p * p <= n:
        while n % p == 0:
            out.add(p)
            n //= p
        p += 1
    return out | ({n} if n > 1 else set())


@seed(20261019)
@settings(max_examples=100, deadline=None)
@given(st.lists(st.fractions(min_value=-40, max_value=40, max_denominator=60), max_size=10))
@example([])
@example([F(-3, 4), F(5, 6), F(2), F(0)])
def test_common_scale_is_least_and_over_is_exact(qs):
    D = common_scale(qs)
    assert type(D) is int and D >= 1
    assert all((q * D).denominator == 1 for q in qs)
    for p in _primes(D):
        assert any((q * (D // p)).denominator != 1 for q in qs)
    for q in qs:
        n = over(q, D)
        assert type(n) is int and n == q * D
    # the least scale of all is the least multiple of each one's scale
    L = scale_lcm(*(common_scale([q]) for q in qs))
    assert type(L) is int and L == D
    for q in qs:
        for S in (1, 7, D, 2 * D):
            c = ceil_over(q, S)
            assert type(c) is int and c - 1 < q * S <= c
            assert all((n < c) == (F(n, S) < q) for n in range(c - 2, c + 2))


def _trees():
    for path in sorted(SRC.glob("*.py")):
        yield path.name, ast.parse(path.read_text())


def _names(node) -> set[str]:
    """Every name and attribute that the code under node mentions."""
    return ({n.id for n in ast.walk(node) if isinstance(n, ast.Name)} |
            {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)})


def test_lattice_is_the_only_rational_to_integer_conversion():
    """math.lcm calls and .denominator reads belong to persalg.lattice."""
    found = {}
    for name, tree in _trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr == "denominator":
                found.setdefault(name, []).append((node.lineno, ".denominator"))
            if isinstance(node, ast.Call) and "lcm" in _names(node.func):
                found.setdefault(name, []).append((node.lineno, "lcm"))
    assert set(found) == {"lattice.py"}, found


# functions that certify the integer paths without being routed through them
ORACLE_ROOTS = {"z2_window_complex", "inversion_recursion"}


def test_oracles_do_not_reach_lattice():
    """No oracle, nor a module function it calls by name, uses the lattice
    or a trusted constructor."""
    roots_seen = set()
    for name, tree in _trees():
        funcs = {f.name: f for f in tree.body if isinstance(f, ast.FunctionDef)}
        todo = [f for f in funcs if "oracle" in f or f in ORACLE_ROOTS]
        roots_seen.update(todo)
        reached = set()
        while todo:
            f = todo.pop()
            if f in reached:
                continue
            reached.add(f)
            names = _names(funcs[f])
            assert not names & {"lattice", "common_scale", "over", "_make"}, (name, f)
            todo.extend(names & funcs.keys())
    assert {"oracle_interleaving_distance", "oracle_dint_variant",
            "oracle_retract_interleaving", "barcode_by_rank_oracle",
            "oracle_lattice_oc", "z2_window_complex",
            "inversion_recursion"} <= roots_seen


# per oracle, the fast paths it certifies, which it must not reach
DISTANCE_PATHS = {"_int_slices", "_matching", "_adjacency", "_d_int", "_D_int", "_d_rint"}
CERTIFIED_PATHS = {
    "oracle_interleaving_distance": DISTANCE_PATHS,
    "oracle_dint_variant": DISTANCE_PATHS,
    "oracle_retract_interleaving": DISTANCE_PATHS,
    "barcode_by_rank_oracle": {"_pairing"},
    "z2_window_complex": {"reduce_floer", "invert"},
    "inversion_recursion": {"reduce_floer", "invert"},
    "reach_gap": {"reduce_floer", "express_in_reduction", "invert"},
}


def test_oracles_do_not_reach_the_path_they_certify():
    """Walked from one oracle at a time, the module functions it calls by
    name mention none of the fast paths that oracle certifies.  Every
    forbidden name must be a function or method defined in src/, so that a
    rename or a deletion cannot silently empty a guard."""
    defined = {f.name for _, tree in _trees() for f in ast.walk(tree)
               if isinstance(f, ast.FunctionDef)}
    undefined = set().union(*CERTIFIED_PATHS.values()) - defined
    assert not undefined, f"forbidden fast paths not defined in src/: {sorted(undefined)}"
    roots_seen = set()
    for name, tree in _trees():
        funcs = {f.name: f for f in tree.body if isinstance(f, ast.FunctionDef)}
        for root in CERTIFIED_PATHS.keys() & funcs.keys():
            roots_seen.add(root)
            reached, todo, names = set(), [root], set()
            while todo:
                f = todo.pop()
                if f not in reached:
                    reached.add(f)
                    names |= _names(funcs[f])
                    todo.extend(_names(funcs[f]) & funcs.keys())
            assert not names & CERTIFIED_PATHS[root], (name, root)
    assert roots_seen == CERTIFIED_PATHS.keys()


# -- the public surface: every public name has a reader or a stated claim -----

PERFBENCH = SRC.parent.parent / "perfbench"
DEFS = (ast.FunctionDef, ast.ClassDef)

# public names that only tests read: the paper claim each reproduces (or the
# fast path it certifies, for an oracle) -- the test that pins it
TEST_ONLY = {
    "unit_reach": "unit reach R([e_K], [mu^bar(K)]) of the equator is <= 1/2 -- "
                  "test_ac1_single_equator",
    "verify_unit_witness": "a d_bar cycle with mu = e_K bounds the unit reach by its "
                           "level -- test_unit_witness",
    "contracting_homotopy": "mu(h) = e_K + d a_K contracts Cone(mu) by x * (h + a_K) -- "
                            "test_contracting_homotopy",
    "maurer_cartan_defect": "twisted complexes solve the Maurer-Cartan equation -- "
                            "test_mc_defect_reported",
    "twist": "the twisting T_Y X = Cone(Y (x) hom(Y, X) -> X) is a twisted complex -- "
             "test_twisted_complex_mc",
    "twisted_cone": "the lambda-filtered cone of a closed morphism of twisted complexes -- "
                    "test_twisted_cone_and_inclusion",
    "twisted_hom_complex": "lambda-lemma: hom(Q, T_L L) has the barcode of the cone of "
                           "evaluation -- test_twisted_hom_matches_cone_of_contraction",
    "extract_unit_tensors": "split generation: mu_2 of twisted morphisms and the bar "
                            "tensors realizing it -- test_extract_unit_tensors",
    "shift_category": "the normalized r-shift of a filtered A-infinity category is one -- "
                      "test_shift_category",
    "floer_action_model": "cotangent class: each admissible geodesic has action gap "
                          ">= 5n - 7l -- test_floer_action_model",
    "e1": "the elementary complexes E1 and E2 whose sums realize every barcode -- "
          "test_barcode_examples",
    "e2": "the elementary complexes E1 and E2 whose sums realize every barcode -- "
          "test_barcode_examples",
    "full_differential": "stability: bar counts of (C, d + D') dominate those of (C, d) -- "
                         "test_ac8_stability_counts",
    "stability_reduce": "stability: the retract of (C, d + D') carries every long bar -- "
                        "test_ac8_stability_counts",
    "min_cone_decomposition": "cone length 2#B^{2eps} - dim H^inf is the least number of "
                              "cone attachments -- test_ac7_cone_length_identity",
    "retract_cone_length_lower": "retract cone length >= k(G) #B^{2eps}(H(hom(G, A))) -- "
                                 "test_retract_cone_length_bracket",
    "reach_gap": "oracle of reach_gap_floer: the Z2 reach gap R(w, f) -- "
                 "test_reach_gap_floer_matches_z2_reach_gap",
    "oracle_sphere_slice": "the sphere's N circles cut slices of area 1/(2N) -- "
                           "test_sphere_slice_oracle",
    "class_boundary_depth": "the Hochschild class [e_L] of the equator dies at depth 1/2 -- "
                            "test_boundary_depth_e_class",
    "fold_step": "small variation: folding at the mid level halves the variation -- "
                 "test_fold_halves_variation",
    "shrink_step": "large gradient: shrinking a critical ball keeps the bounds -- "
                   "test_shrink_keeps_bounds",
    "build_torus": "the flat-torus product keeps small variation and large gradient -- "
                   "test_torus_product",
    "inversion_recursion": "oracle of Novikov inversion: the g_n recursion -- "
                           "test_ac6_novikov_inversion",
    "z2_window_complex": "oracle of concise barcodes: the Z2 window model -- "
                         "test_window_oracle",
    "oracle_interleaving_distance": "oracle of d_int by GF(2) morphisms -- "
                                    "test_ac9_distance_oracle_equivalence",
    "oracle_dint_variant": "oracle of D_int by GF(2) morphisms -- "
                           "test_ac9_distance_oracle_equivalence",
    "oracle_retract_interleaving": "oracle of d_rint by GF(2) morphisms -- "
                                   "test_ac9_distance_oracle_equivalence",
    "retract_complement": "d_rint(R, X) < eps leaves K with d_int(R + K, X) < 2 eps -- "
                          "test_retract_complement_two_eps_bound",
    "spectral_range": "the spectral range of the semi-infinite bars -- test_spectral_range",
}


def test_every_public_name_has_a_reader_or_a_claim():
    """Walked from the program's roots (the CLI, each module's top-level
    statements, the benchmark) and from TEST_ONLY, every public top-level
    function, class and method of src/ is reached; every TEST_ONLY name is
    defined in src/; and the program roots alone reach no TEST_ONLY name, so
    no entry is stale.  A reached definition adds every name its body uses,
    a class its methods' bodies too.  Names resolve by their bare word, so
    the walk over-approximates: ``set().union`` reaches ``Barcode.union``."""
    defs: dict[str, list] = {}
    roots: set[str] = set()
    for name, tree in _trees():
        for node in tree.body:
            if not isinstance(node, DEFS):
                roots |= _names(node)
                continue
            defs.setdefault(node.name, []).append(node)
            if isinstance(node, ast.ClassDef):
                for m in node.body:
                    if isinstance(m, DEFS):
                        defs.setdefault(m.name, []).append(m)
        if name == "cli.py":
            roots |= _names(tree)
    for path in sorted(PERFBENCH.glob("*.py")):
        if path.name != "test_perfbench.py":
            roots |= _names(ast.parse(path.read_text()))

    def reach(start):
        reached, todo = set(), list(start & defs.keys())
        while todo:
            f = todo.pop()
            if f not in reached:
                reached.add(f)
                for node in defs[f]:
                    todo.extend(_names(node) & defs.keys())
        return reached

    unreached = {f for f in defs if not f.startswith("_")} - reach(roots | TEST_ONLY.keys())
    assert not unreached, f"public names with no reader and no TEST_ONLY claim: {sorted(unreached)}"
    undefined = TEST_ONLY.keys() - defs.keys()
    assert not undefined, f"TEST_ONLY names not defined in src/: {sorted(undefined)}"
    stale = TEST_ONLY.keys() & reach(roots)
    assert not stale, f"TEST_ONLY names the program reads: {sorted(stale)}"
