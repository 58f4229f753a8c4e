"""Exact rationals as integers: q in (1/D)Z becomes the int q * D.  The
distances, the level sort, the Floer pivots and Novikov arithmetic compute on
such integers, and this is the one module that converts them."""

import math


def common_scale(qs) -> int:
    """The least D >= 1 with q * D integral for every Fraction q in qs, and
    1 when there is none."""
    return math.lcm(*{q.denominator for q in qs})


def over(q, D: int) -> int:
    """q * D as an int, for a Fraction q in (1/D)Z."""
    return q.numerator * (D // q.denominator)


def scale_lcm(*scales: int) -> int:
    """The least scale that every one of ``scales`` divides (1 for none):
    integers over each of them are integers over it."""
    return math.lcm(*scales)


def ceil_over(p, D: int) -> int:
    """The least int >= p * D, for a Fraction p: an int n is below
    ``ceil_over(p, D)`` exactly when n / D < p."""
    return -(-p.numerator * D // p.denominator)
