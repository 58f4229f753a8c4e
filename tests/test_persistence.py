import ast
import functools
import itertools
import math
import random
import re
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from persalg.persistence import (
    EMPTY,
    INF,
    Bar,
    Barcode,
    _candidate_ab,
    _ends,
    bar_count,
    dint_variant,
    interleaving_distance,
    oracle_dint_variant,
    oracle_interleaving_distance,
    oracle_retract_interleaving,
    retract_complement,
    retract_interleaving,
    shift_invariant,
    spectral_range,
)
from util import random_barcode


def bc(*bars, modulus=0):
    return Barcode(tuple(Bar(*b) for b in bars), modulus)


def test_bar_count():
    assert bar_count(bc((0, 1)), F(3, 5)) == 1
    assert bar_count(bc((0, 1)), 1) == 0  # strict inequality
    assert bar_count(bc((0, F(1, 5)), (0, 3), (1, INF)), F(1, 2)) == 2
    with pytest.raises(ValueError):
        bar_count(EMPTY, -1)


def test_empty_bar_rejected():
    with pytest.raises(ValueError):
        Bar(1, 1)


def test_interleaving_trivial():
    assert interleaving_distance(bc((0, 1)), bc((0, 1))) == 0
    assert interleaving_distance(bc((0, INF)), bc((F(1, 2), INF))) == F(1, 2)
    assert interleaving_distance(bc((0, 2)), EMPTY) == 1
    assert interleaving_distance(bc((0, INF)), EMPTY) == INF


def test_interleaving_degree_mismatch():
    with pytest.raises(ValueError):
        interleaving_distance(bc((0, 1)), Barcode((Bar(0, 1),), 2))


def test_degrees_split_matching():
    B1 = bc((0, 2, 0), (0, 2, 1))
    B2 = bc((0, 2, 0), (0, 2, 1))
    assert interleaving_distance(B1, B2) == 0
    # the same interval in a different degree cannot be matched, so both
    # bars must die: distance = half the length, not 0
    assert interleaving_distance(bc((0, 20, 0)), bc((0, 20, 1))) == 10
    # modulus folds degrees together
    assert interleaving_distance(Barcode((Bar(0, 20, 0),), 2),
                                 Barcode((Bar(0, 20, 2),), 2)) == 0


def test_dint_variant_examples():
    assert dint_variant(bc((0, 1)), bc((0, 1))) == 0
    assert dint_variant(bc((0, 2)), EMPTY) == 2
    assert dint_variant(bc((0, INF)), bc((1, INF))) == 1


def test_retract_examples():
    X = bc((0, 1), (5, 6))
    assert retract_interleaving(bc((0, 1)), X) == 0  # sub-barcode retract
    assert retract_interleaving(bc((0, 10)), EMPTY) == 5
    assert retract_interleaving(EMPTY, bc((0, 1), (2, INF))) == 0


def test_shift_invariant():
    assert shift_invariant(interleaving_distance, bc((0, INF)), bc((7, INF))) == 0
    B = bc((0, 1), (2, INF))
    for r in (F(1, 3), 2, F(11, 7)):
        assert shift_invariant(interleaving_distance, B, B.shift(r)) == 0
        assert shift_invariant(retract_interleaving, B, B.shift(r)) == 0
        assert shift_invariant(dint_variant, B, B.shift(r)) == 0
    assert shift_invariant(interleaving_distance, bc((0, 1)), bc((0, 3))) == 1


def test_shift_invariant_agrees_unshifted():
    """The stabilized metric agrees with the plain one when the second
    argument is the first's own shift."""
    rng = random.Random(17)
    for _ in range(20):
        B = random_barcode(rng, 3)
        s = F(rng.randrange(-4, 5), 3)
        assert shift_invariant(interleaving_distance, B, B.shift(s)) == \
            interleaving_distance(B, B)


def test_spectral_range():
    assert spectral_range(bc((0, INF), (2, INF))) == 2
    assert spectral_range(bc((5, INF))) == 0
    assert spectral_range(bc((0, 1), (3, INF), (4, INF))) == 1
    with pytest.raises(ValueError):
        spectral_range(bc((0, 1)))


def test_retract_complement_exact():
    R = bc((0, 1))
    X = bc((0, 1), (5, 6))
    K = retract_complement(R, X, F(1, 10))
    assert K.bars == bc((5, 6)).bars


def test_retract_complement_empty_R():
    X = bc((0, 1), (2, INF))
    K = retract_complement(EMPTY, X, F(1, 2))
    assert K.bars == X.bars


def test_retract_complement_two_eps_bound():
    rng = random.Random(11)
    done = 0
    while done < 40:
        X = random_barcode(rng, 4)
        R_bars = [b for b in X.bars if rng.random() < 0.5]
        R = Barcode(tuple(R_bars))
        eps = F(1, 10)
        if not retract_interleaving(R, X) < eps:
            continue
        K = retract_complement(R, X, eps)
        assert interleaving_distance(R.union(K), X) < 2 * eps
        done += 1


def test_pseudo_metric_properties():
    rng = random.Random(5)
    for _ in range(60):
        A = random_barcode(rng, 3)
        B = random_barcode(rng, 3)
        C = random_barcode(rng, 3)
        ab, ba = interleaving_distance(A, B), interleaving_distance(B, A)
        assert ab == ba
        bcd = interleaving_distance(B, C)
        ac = interleaving_distance(A, C)
        if ab != INF and bcd != INF:
            assert ac <= ab + bcd


def test_retract_le_interleaving_with_summand():
    rng = random.Random(6)
    for _ in range(60):
        R = random_barcode(rng, 3)
        K = random_barcode(rng, 3)
        X = random_barcode(rng, 3)
        lhs = retract_interleaving(R, X)
        rhs = interleaving_distance(R.union(K), X)
        assert lhs <= rhs


GRID = [F(k) for k in range(5)]
SMALL_BARS = [Bar(b, d) for b in GRID for d in GRID if d > b] + [Bar(b, INF) for b in GRID]


def _enumerate_barcodes(max_bars):
    out = [EMPTY]
    for k in range(1, max_bars + 1):
        for combo in itertools.combinations_with_replacement(SMALL_BARS, k):
            out.append(Barcode(tuple(combo)))
    return out


def test_oracle_equivalence_exhaustive_small():
    """Matching-based d_int, D_int, d_rint agree with the chain-level oracle
    on all pairs of barcodes with <= 1 bar over the 5-value grid."""
    codes = _enumerate_barcodes(1)
    for A in codes:
        for B in codes:
            assert interleaving_distance(A, B) == oracle_interleaving_distance(A, B)
            assert dint_variant(A, B) == oracle_dint_variant(A, B)
            assert retract_interleaving(A, B) == oracle_retract_interleaving(A, B)


def test_oracle_equivalence_random_pairs():
    rng = random.Random(2024)
    for _ in range(150):
        A = random_barcode(rng, 3, GRID, allow_inf=True)
        B = random_barcode(rng, 3, GRID, allow_inf=True)
        assert interleaving_distance(A, B) == oracle_interleaving_distance(A, B)
        assert retract_interleaving(A, B) == oracle_retract_interleaving(A, B)
    for _ in range(60):
        A = random_barcode(rng, 2, GRID, allow_inf=True)
        B = random_barcode(rng, 2, GRID, allow_inf=True)
        assert dint_variant(A, B) == oracle_dint_variant(A, B)


def test_sandwich_inequality():
    rng = random.Random(99)
    for _ in range(400):
        A = random_barcode(rng, 4, GRID)
        B = random_barcode(rng, 4, GRID)
        d = interleaving_distance(A, B)
        D = dint_variant(A, B)
        if D == INF:
            assert d == INF
        else:
            assert D / 2 <= d <= D


def test_json_round_trip():
    B = bc((0, 1, 0), (F(1, 3), INF, 1), modulus=2)
    assert Barcode.from_json(B.to_json()) == B


def test_retract_complement_degree_mixed():
    R = bc((0, 1, 0), (2, INF, 1))
    X = bc((0, 1, 0), (2, INF, 1), (5, 6, 0), (3, 4, 1))
    K = retract_complement(R, X, F(1, 10))
    assert sorted((b.birth, b.death, b.degree) for b in K.bars) == \
        [(F(3), F(4), 1), (F(5), F(6), 0)]
    assert interleaving_distance(R.union(K), X) == 0


_bar_st = st.builds(
    lambda b, length, inf: Bar(b, INF if inf else b + length),
    st.fractions(min_value=0, max_value=4, max_denominator=4),
    st.fractions(min_value=F(1, 4), max_value=4, max_denominator=4),
    st.booleans(),
)
_barcode_st = st.lists(_bar_st, max_size=3).map(lambda bs: Barcode(tuple(bs)))


@given(_barcode_st, _barcode_st, _barcode_st)
@settings(max_examples=120, deadline=None)
def test_triangle_inequality_hypothesis(A, B, C):
    ab = interleaving_distance(A, B)
    bc_ = interleaving_distance(B, C)
    ac = interleaving_distance(A, C)
    assert ab == interleaving_distance(B, A)
    if ab != INF and bc_ != INF:
        assert ac <= ab + bc_


@given(_barcode_st, _barcode_st)
@settings(max_examples=120, deadline=None)
def test_sandwich_hypothesis(A, B):
    d = interleaving_distance(A, B)
    D = dint_variant(A, B)
    if D == INF:
        assert d == INF
    else:
        assert D / 2 <= d <= D


def test_staggered_1200_bars():
    """Bars [2i, 2i+100) against [2j+1, 2j+101): the augmenting paths of a
    depth-first matcher grow to the length of the barcode, which overflowed
    the stack of a recursive one."""
    A = Barcode(tuple(Bar(2 * i, 2 * i + 100) for i in range(1200)))
    B = Barcode(tuple(Bar(2 * j + 1, 2 * j + 101) for j in range(1200)))
    assert interleaving_distance(A, B) == 1
    eps = retract_interleaving(A, B) + F(1, 10)
    K = retract_complement(A, B, eps)
    assert interleaving_distance(A.union(K), B) < 2 * eps


# -- integer scaling: mixed denominators, several degrees, a grading modulus

# Endpoints and moves come from small sets, so that the brute-force candidate
# sets stay small while every scale (lcm up to 840) occurs.
POINTS = [F(0), F(1, 3), F(2, 5), F(3, 7), F(5, 8), F(1), F(7, 5), F(11, 8), F(5, 3)]
LENGTHS = [F(1, 7), F(3, 8), F(2, 3), F(1), F(6, 5), F(2)]
MOVES = [F(1, 8), F(-1, 5), F(2, 7), F(-1, 3)]


def _mixed_bar(rng, span=1):
    birth = rng.choice(POINTS) + rng.randrange(span)
    death = INF if rng.random() < 0.2 else birth + rng.choice(LENGTHS)
    return Bar(birth, death, rng.randrange(4))


def _mixed_pair(rng, n, span, moved):
    """A barcode of n bars and a copy with ``moved`` bars moved a little,
    both with grading modulus 3 (degree 3 reads as 0)."""
    bars = [_mixed_bar(rng, span) for _ in range(n)]
    copy = list(bars)
    for i in rng.sample(range(n), min(moved, n)):
        x = copy[i]
        s, t = rng.choice(MOVES), rng.choice(MOVES)
        if x.infinite or x.birth + s < x.death + t:
            copy[i] = Bar(x.birth + s, INF if x.infinite else x.death + t, x.degree)
    return Barcode(tuple(bars), 3), Barcode(tuple(copy), 3)


def test_mixed_denominators_equal_oracles():
    rng = random.Random(31)
    for k in range(200):
        if k % 2:
            A, B = _mixed_pair(rng, rng.randrange(4), 1, 2)
        else:
            A = Barcode(tuple(_mixed_bar(rng) for _ in range(rng.randrange(4))), 3)
            B = Barcode(tuple(_mixed_bar(rng) for _ in range(rng.randrange(4))), 3)
        assert interleaving_distance(A, B) == oracle_interleaving_distance(A, B)
        assert retract_interleaving(A, B) == oracle_retract_interleaving(A, B)
        assert dint_variant(A, B) == oracle_dint_variant(A, B)


def _match_ok(x, y, a, b):
    if not -b <= y.birth - x.birth <= a:
        return False
    if x.infinite or y.infinite:
        return x.infinite and y.infinite
    return -b <= y.death - x.death <= a


def _covers(adj, n_right):
    """Does a maximum matching cover every left vertex (augmenting paths)?"""
    match = [None] * n_right

    def augment(u, seen):
        for v in adj[u]:
            if v not in seen:
                seen.add(v)
                if match[v] is None or augment(match[v], seen):
                    match[v] = u
                    return True
        return False
    return all(augment(u, set()) for u in range(len(adj)))


def _fraction_dint(A, B):
    """D_int by a full scan of the (a, b) candidates in order of a + b, with
    Fraction endpoint tests and a plain matcher."""
    for a, b in _candidate_ab(_ends(A.bars), _ends(B.bars)):
        for d in {x.degree for x in A.bars + B.bars}:
            bars1 = [x for x in A.bars if x.degree == d]
            bars2 = [y for y in B.bars if y.degree == d]
            long1 = [x for x in bars1 if x.length > a + b]
            long2 = [y for y in bars2 if y.length > a + b]
            if not (_covers([[j for j, y in enumerate(bars2) if _match_ok(x, y, a, b)]
                             for x in long1], len(bars2)) and
                    _covers([[i for i, x in enumerate(bars1) if _match_ok(x, y, a, b)]
                             for y in long2], len(bars1))):
                break
        else:
            return a + b
    return INF


def test_mixed_denominators_dint_full_scan():
    rng = random.Random(37)
    for n in (24, 40):
        A, B = _mixed_pair(rng, n, 1, 2)
        D = dint_variant(A, B)
        assert D == _fraction_dint(A, B)
        d = interleaving_distance(A, B)
        assert D / 2 <= d <= D
    assert dint_variant(EMPTY, EMPTY) == 0 == _fraction_dint(EMPTY, EMPTY)


# -- shift_invariant against the plain loop over the same candidate shifts

def _public_shift(B, s):
    """B moved by s through the public constructors only."""
    return Barcode(tuple(Bar(b.birth + s, INF if b.infinite else b.death + s, b.degree)
                         for b in B.bars), B.grading_modulus)


def _plain_shift_invariant(metric, B1, B2):
    """metric(S^s B1, B2) minimised over every candidate shift s, one call per
    candidate: the endpoint differences and their midpoints on the lattice
    (1/S)Z, S twice the lcm of the finite endpoints' denominators.  Returns
    the minimum and the first s*S attaining it (None when nothing is < INF)."""
    ends1 = [x for b in B1.bars for x in (b.birth, b.death) if not x == INF]
    ends2 = [x for b in B2.bars for x in (b.birth, b.death) if not x == INF]
    S = 2 * math.lcm(*{x.denominator for x in ends1 + ends2})
    base = sorted({0} | {int((q - p) * S) for p in ends1 for q in ends2})
    best, at = INF, None
    for s in sorted(set(base) | {(u + v) // 2 for u, v in itertools.combinations(base, 2)}):
        val = metric(_public_shift(B1, F(s, S)), B2)
        if val < best:
            best, at = val, s
    return best, at


def _varied_barcode(rng, n, modulus):
    """Up to n bars over denominators 1 to 6, about a quarter of them
    infinite, in degrees 0 to 3 when there is a modulus."""
    bars = []
    for _ in range(rng.randrange(n + 1)):
        b = F(rng.randrange(-8, 9), rng.choice((1, 2, 3, 5, 6)))
        d = INF if rng.random() < 0.25 else b + F(rng.randrange(1, 7), rng.choice((1, 2, 3, 5, 6)))
        bars.append(Bar(b, d, rng.randrange(4) if modulus else 0))
    return Barcode(tuple(bars), modulus)


def test_shift_invariant_matches_plain_loop():
    """Values and types agree with the plain loop for the three library
    metrics (integer kernels, d_int pruned)."""
    rng = random.Random(20261019)
    metrics = [(interleaving_distance, 4), (retract_interleaving, 3), (dint_variant, 2)]
    odd = 0
    for _ in range(110):
        modulus = rng.choice((0, 2))
        for metric, size in metrics:
            B1 = _varied_barcode(rng, size, modulus)
            B2 = _public_shift(B1, F(rng.randrange(-9, 10), rng.choice((2, 4, 7, 10))))
            if rng.random() < 0.4:
                B2 = _varied_barcode(rng, size, modulus)
            elif rng.random() < 0.5:  # with deaths moved: a midpoint shift may be best
                B2 = Barcode(tuple(b if b.infinite else Bar(b.birth, b.death + F(
                    rng.randrange(0, 5), 3), b.degree) for b in B2.bars), modulus)
            got = shift_invariant(metric, B1, B2)
            want, at = _plain_shift_invariant(metric, B1, B2)
            assert got == want and type(got) is type(want), (metric, B1, B2)
            odd += at is not None and at % 2  # B1 shifted there has odd endpoints
    assert odd >= 10  # the first best shift is odd in 11 of the 330 cases


def test_shift_invariant_sees_through_wrappers():
    """A wrapped library metric, as a tracer installs it, still takes the
    integer path: the wrapper itself is never called.  Any other callable is
    rejected, even one with a library metric's values."""
    calls = []

    @functools.wraps(interleaving_distance)
    def traced(B1, B2):
        calls.append(1)
        return interleaving_distance(B1, B2)

    B1, B2 = bc((0, 1), (F(1, 3), INF)), bc((2, F(7, 2)), (F(5, 2), INF))
    assert shift_invariant(traced, B1, B2) == shift_invariant(interleaving_distance, B1, B2)
    assert calls == []
    with pytest.raises(ValueError, match="interleaving_distance, dint_variant or "
                                         "retract_interleaving"):
        shift_invariant(lambda X, Y: interleaving_distance(X, Y), B1, B2)


@pytest.mark.parametrize("data,field", [
    ([{"birth": "0", "death": "1"}], "JSON object"),
    ({"bars": [3]}, "bars[0]"),
    ({"bars": [{"birth": [0], "death": "1"}]}, "bars[0].birth"),
    ({"bars": [{"birth": "0", "death": {}}]}, "bars[0].death"),
    ({"bars": [{"birth": "0", "death": "1", "degree": 1.5}]}, "bars[0].degree"),
    ({"modulus": 2.5, "bars": []}, "modulus"),
    ({"bars": [{"birth": INF, "death": "inf"}]}, "bars[0].birth"),
])
def test_from_json_names_the_field(data, field):
    with pytest.raises(ValueError, match=re.escape(field)):
        Barcode.from_json(data)


def test_from_json_keeps_integral_numbers():
    B = Barcode.from_json({"modulus": 2.0, "bars": [{"birth": 0, "death": "3/2", "degree": 3.0}]})
    assert B == bc((0, F(3, 2), 1), modulus=2)
    assert type(B.grading_modulus) is int and type(B.bars[0].degree) is int


# -- trusted construction --------------------------------------------------------

SRC = Path(__file__).resolve().parent.parent / "src" / "persalg"


def test_trusted_constructors_stay_inside():
    """Bar._make and Barcode._make are called only in persistence.py and in
    filtered_complex._barcode, on data built there."""
    callers = set()
    for path in sorted(SRC.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and
                        node.func.attr == "_make" and isinstance(node.func.value, ast.Name) and
                        node.func.value.id in ("Bar", "Barcode")):
                    callers.add(path.name if path.name == "persistence.py" else
                                (path.name, getattr(top, "name", None)))
    assert callers == {"persistence.py", ("filtered_complex.py", "_barcode")}
