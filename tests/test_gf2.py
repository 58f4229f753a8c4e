"""Differential tests of persalg.gf2 against a mod-2 Gaussian elimination
written here with numpy, on seeded random matrices."""

import random

import numpy as np
import pytest

from persalg import gf2


def to_array(cols, n_rows):
    """Bitmask columns as an (n_rows, len(cols)) 0/1 array."""
    A = np.zeros((n_rows, len(cols)), dtype=np.uint8)
    for j, c in enumerate(cols):
        digits = format(c, f"0{n_rows}b")[::-1]
        A[:, j] = np.frombuffer(digits.encode(), dtype=np.uint8) - ord("0")
    return A


def np_rank(A):
    """Rank mod 2 by row reduction."""
    A = A.copy() % 2
    rows, cols = A.shape
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.nonzero(A[r:, c])[0]
        if nz.size == 0:
            continue
        p = r + nz[0]
        A[[r, p]] = A[[p, r]]
        below = r + 1 + np.nonzero(A[r + 1:, c])[0]
        A[below] ^= A[r]
        r += 1
    return r


def mul_mod2(A, B):
    # float products are exact for these sizes, and BLAS makes them fast
    return (A.astype(np.float64) @ B.astype(np.float64)).astype(np.int64) % 2


def random_cols(rng, n_rows, n_cols, density, offset=0):
    """Columns with bits in [offset, n_rows), each set with ``density``."""
    cols = []
    for _ in range(n_cols):
        c = 0
        for i in range(offset, n_rows):
            if rng.random() < density:
                c |= 1 << i
        cols.append(c)
    return cols


def singular(rng, cols):
    """Make the last column a combination of the others."""
    cols = list(cols)
    combo = 0
    for c in cols[:-1]:
        if rng.random() < 0.5:
            combo ^= c
    cols[-1] = combo
    return cols


# (n_rows, n_cols, density, offset): square and rectangular, sparse and
# dense; the offset cases put every bit above bit 1000
SHAPES = [
    (12, 12, 0.5, 0),
    (40, 40, 0.05, 0),
    (30, 50, 0.5, 0),
    (50, 30, 0.5, 0),
    (60, 25, 0.08, 0),
    (1100, 40, 0.5, 1000),
    (1100, 60, 0.02, 1000),
    (1064, 64, 0.3, 1000),
]
SEEDS = range(3)


def cases():
    for shape in SHAPES:
        for seed in SEEDS:
            for make_singular in (False, True):
                yield pytest.param(shape, seed, make_singular,
                                   id=f"{shape[0]}x{shape[1]}-d{shape[2]}-s{seed}"
                                      f"{'-singular' if make_singular else ''}")


def instance(shape, seed, make_singular):
    n_rows, n_cols, density, offset = shape
    rng = random.Random(seed * 7919 + n_rows * 31 + n_cols)
    cols = random_cols(rng, n_rows, n_cols, density, offset)
    if make_singular:
        cols = singular(rng, cols)
    return rng, cols, n_rows


@pytest.mark.parametrize("shape,seed,make_singular", cases())
def test_rank(shape, seed, make_singular):
    _, cols, n_rows = instance(shape, seed, make_singular)
    assert gf2.rank(cols) == np_rank(to_array(cols, n_rows))


@pytest.mark.parametrize("shape,seed,make_singular", cases())
def test_kernel(shape, seed, make_singular):
    _, cols, n_rows = instance(shape, seed, make_singular)
    A = to_array(cols, n_rows)
    ker = gf2.kernel(cols)
    assert len(ker) == len(cols) - np_rank(A)
    if ker:
        K = to_array(ker, len(cols))
        assert not mul_mod2(A, K).any()
        assert np_rank(K) == len(ker)


@pytest.mark.parametrize("shape,seed,make_singular", cases())
def test_solve(shape, seed, make_singular):
    rng, cols, n_rows = instance(shape, seed, make_singular)
    A = to_array(cols, n_rows)
    rank = np_rank(A)
    # one right side in the column space, and random ones that may not be
    rhs = [gf2.apply(cols, rng.getrandbits(len(cols)))]
    rhs += random_cols(rng, n_rows, 3, 0.5, shape[3])
    for b in rhs:
        x = gf2.solve(cols, b)
        bvec = to_array([b], n_rows)
        consistent = np_rank(np.hstack([A, bvec])) == rank
        assert (x is not None) == consistent
        if x is not None:
            assert x >> len(cols) == 0
            xvec = to_array([x], len(cols))
            assert (mul_mod2(A, xvec) == bvec).all()
            assert gf2.apply(cols, x) == b


def test_bits():
    rng = random.Random(0)
    masks = [0, 1, 1 << 1000, (1 << 1100) - 1]
    masks += [rng.getrandbits(rng.choice([8, 64, 1100])) for _ in range(200)]
    for m in masks:
        want = [i for i, ch in enumerate(reversed(bin(m)[2:])) if ch == "1"]
        assert list(gf2.bits(m)) == want
