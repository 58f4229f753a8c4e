"""Exact rationals as integers: q in (1/D)Z becomes the int q * D.  The
distances, the level sort, the Floer pivots and Novikov inversion compute on
such integers, and this is the one module that converts them."""

import math


def common_scale(qs) -> int:
    """The least D >= 1 with q * D integral for every Fraction q in qs, and
    1 when there is none."""
    return math.lcm(*{q.denominator for q in qs})


def over(q, D: int) -> int:
    """q * D as an int, for a Fraction q in (1/D)Z."""
    return q.numerator * (D // q.denominator)
