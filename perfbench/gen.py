"""Seeded inputs whose answers are known by construction.

Everything here is plain Python over ints and Fractions: it builds the raw
generator lists and coefficient tables, and the answer each input must
produce, without calling the library's algorithms.  The workloads turn the
raw data into library objects during set-up.
"""

from __future__ import annotations

from fractions import Fraction

INF = float("inf")

LEVEL_STEP = Fraction(1, 8)
MAX_BAR_STEPS = 64  # finite bar lengths are 1/8 .. 8


def filtered_sum(rng, dim: int, degrees: int):
    """A random elementary sum of E2(a, b) pieces and E1(c) singles with
    ``dim`` generators, hidden by a filtered unitriangular change of basis.

    Returns (gens, columns, bars): gens are (name, degree, level) triples,
    columns[i] is the bitmask of d(g_i), and bars is the known barcode as
    (birth, death, degree) triples, death = INF for the singles.
    """
    gens: list[tuple[str, int, Fraction]] = []
    cols: list[int] = []
    bars: list[tuple[Fraction, object, int]] = []
    span = max(8, dim // 2) * 8
    while len(gens) < dim:
        deg = rng.randrange(degrees)
        birth = LEVEL_STEP * rng.randrange(span)
        if len(gens) + 2 <= dim and rng.random() < 0.75:
            death = birth + LEVEL_STEP * rng.randrange(1, MAX_BAR_STEPS + 1)
            a = len(gens)
            gens.append((f"a{a}", deg, birth))
            cols.append(0)
            gens.append((f"b{a}", deg + 1, death))
            cols.append(1 << a)
            bars.append((birth, death, deg))
        else:
            gens.append((f"c{len(gens)}", deg, birth))
            cols.append(0)
            bars.append((birth, INF, deg))
    _hide_gf2(rng, gens, cols, 2 * dim)
    return gens, cols, bars


def _hide_gf2(rng, gens, cols, n_ops: int):
    """Conjugate d by n_ops elementary filtered basis changes f_i = g_i + g_j
    (same degree, level(g_j) <= level(g_i)).  In new coordinates d(f_i) =
    d(g_i) + d(g_j), and every image containing g_i also gains g_j."""
    n = len(gens)
    rows = [0] * n  # rows[t]: bitmask of the columns whose image contains g_t
    for k, m in enumerate(cols):
        for t in _bits(m):
            rows[t] |= 1 << k
    by_degree: dict[int, list[int]] = {}
    for i, (_, deg, _) in enumerate(gens):
        by_degree.setdefault(deg, []).append(i)
    for _ in range(n_ops):
        i = rng.randrange(n)
        j = rng.choice(by_degree[gens[i][1]])
        if i == j or gens[j][2] > gens[i][2]:
            continue
        m = cols[j]
        cols[i] ^= m
        for t in _bits(m):
            rows[t] ^= 1 << i
        m = rows[i]
        rows[j] ^= m
        for k in _bits(m):
            cols[k] ^= 1 << j


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def perturbed(rng, bars, delta: Fraction):
    """A copy of ``bars`` with every finite endpoint moved by at most delta,
    never emptying a bar, so that d_int between the two is at most delta."""
    out = []
    quarter = delta / 4
    for birth, death, deg in bars:
        while True:
            b = birth + quarter * rng.randrange(-4, 5)
            d = death if death == INF else death + quarter * rng.randrange(-4, 5)
            if b < d:
                break
        out.append((b, d, deg))
    return out


def small_bars(rng, n: int, span: int = 10):
    """n random bars in one degree on the 1/8 grid, about one in six infinite."""
    out = []
    for _ in range(n):
        birth = LEVEL_STEP * rng.randrange(8 * span)
        if rng.random() < 0.15:
            out.append((birth, INF, 0))
        else:
            out.append((birth, birth + LEVEL_STEP * rng.randrange(1, MAX_BAR_STEPS + 1), 0))
    return out


def floer_pairs(rng, n_pairs: int, n_ops: int):
    """Diagonal pairs d y_p = P_p x_p over the Novikov field, hidden by n_ops
    random filtered basis changes f_i = g_i + c g_j.

    Each P_p = T^v (1 + T) has two terms, so every pivot of the reduction is
    a genuine series to invert.  Levels are 0 or 1 (the first pair pins the
    span to [0, 1]) and all exponents are integers, which keeps the working
    precision, and so the series length, nearly the same from seed to seed.
    Returns (gens, diff, finite): gens are (name, degree, level), diff maps
    i -> {j: exponent tuple} with Z2 coefficients, and finite is the known
    concise barcode as sorted (length, degree) pairs.
    """
    gens: list[tuple[str, int, Fraction]] = []
    cols: list[dict[int, frozenset]] = []
    finite = []
    for p in range(n_pairs):
        deg = p % 2
        lx = Fraction(0 if p == 0 else rng.randrange(2))
        ly = Fraction(1 if p == 0 else rng.randrange(2))
        length = Fraction(rng.randrange(1, 4))
        v = length + lx - ly
        a = len(gens)
        gens.append((f"x{a}", deg, lx))
        cols.append({})
        gens.append((f"y{a}", deg + 1, ly))
        cols.append({a: frozenset((v, v + 1))})
        finite.append((length, deg))
    n = len(gens)
    done = 0
    while done < n_ops:
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j or (gens[i][1] - gens[j][1]) % 2:
            continue
        done += 1
        c = frozenset((gens[j][2] - gens[i][2] + rng.randrange(2),))
        # column op: d(f_i) = d(g_i) + c d(g_j)
        for k, q in list(cols[j].items()):
            _acc(cols[i], k, _mul(c, q))
        # row op: every image containing g_i = f_i + c f_j gains c at j
        for col in cols:
            q = col.get(i)
            if q:
                _acc(col, j, _mul(c, q))
    diff = {i: {j: tuple(sorted(q)) for j, q in col.items()}
            for i, col in enumerate(cols) if col}
    return gens, diff, tuple(sorted(finite))


def _mul(a: frozenset, b: frozenset) -> frozenset:
    out: set = set()
    for x in a:
        for y in b:
            out ^= {x + y}
    return frozenset(out)


def _acc(col: dict, k: int, q: frozenset):
    s = col.get(k, frozenset()) ^ q
    if s:
        col[k] = s
    else:
        col.pop(k, None)
