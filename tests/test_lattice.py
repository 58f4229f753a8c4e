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
