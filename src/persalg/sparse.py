"""Sparse Novikov vectors: dicts {key: NovikovElement}, a missing key being
an exact zero.  Keys are generator names, tensors or indices.

Sums are accumulated in place by one of two rules, and they are not the
same.  With a = T^1 truncated at 2, b = T^1 exact and w = T^3, the sum a + b
vanishes but keeps precision 2:

- rule K (``add_into``) keeps the vanished entry until ``nonzero`` removes
  it, so (a + b) + w is 0 truncated at 2;
- rule D (``accumulate``) drops it at once, so adding w afterwards gives
  the exact T^3.

Each caller keeps the rule its values were defined with.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Callable, Iterator, Optional, Sequence

from .novikov import NOV_ONE, NovikovElement

Vec = dict  # {key: NovikovElement}


def add_into(out: Vec, val: Vec, c: Optional[NovikovElement] = None) -> None:
    """Rule K: out += c * val in place (c = 1 when None).  A sum that
    vanishes stays in ``out``, with its precision, until ``nonzero``."""
    for k, v in val.items():
        if c is not None:
            v = c * v
        old = out.get(k)
        out[k] = v if old is None else old + v


def accumulate(out: Vec, val: Vec, c: Optional[NovikovElement] = None) -> None:
    """Rule D: out += c * val in place (c = 1 when None), with the value
    ``add`` gives when ``out`` holds no zero: a vanishing product c * v is
    skipped, and an entry whose sum vanishes is removed (its truncation
    bound goes with it)."""
    for h, v in val.items():
        if c is not None:
            v = v * c
            if not v:
                continue
        old = out.get(h)
        if old is None:
            if v:
                out[h] = v
        elif s := old + v:
            out[h] = s
        else:
            del out[h]


def nonzero(vec: Vec) -> Vec:
    """``vec`` without its vanished entries."""
    return {k: v for k, v in vec.items() if v}


def is_zero(vec: Vec) -> bool:
    """True when every entry of ``vec`` vanishes (also when it has none)."""
    return not any(vec.values())


def add(a: Vec, b: Vec) -> Vec:
    """a + b as a new vector without vanished entries."""
    out = dict(a)
    add_into(out, b)
    return nonzero(out)


def apply(rows: dict, vec: Vec) -> Vec:
    """The image sum_i vec[i] * rows[i] of ``vec`` under the sparse matrix
    ``rows`` ({i: {j: P}}); zero coefficients of ``vec`` are skipped."""
    out: Vec = {}
    for i, c in vec.items():
        if c:
            add_into(out, rows.get(i, {}), c)
    return nonzero(out)


def level(vec: Vec, key_level: Callable[[object], Fraction]) -> Optional[Fraction]:
    """max over the nonzero entries of key_level(key) - val(coefficient);
    None when there is none."""
    lv = None
    for k, c in vec.items():
        if c:
            cur = key_level(k) - c.valuation
            lv = cur if lv is None else max(lv, cur)
    return lv


def expand(factors: Sequence[Vec]) -> Iterator[tuple[tuple, NovikovElement]]:
    """The multilinear expansion of a product of vectors: (key tuple,
    coefficient product) for each choice of one entry per factor, in
    ``itertools.product`` order, skipping the products that vanish."""
    for combo in itertools.product(*[f.items() for f in factors]):
        coeff = NOV_ONE
        for _, c in combo:
            coeff = coeff * c
        if coeff:
            yield tuple(k for k, _ in combo), coeff
