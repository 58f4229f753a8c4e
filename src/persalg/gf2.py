"""GF(2) linear algebra over int bitmasks: the one elimination kernel.

A vector is an int whose bit i is its i-th coordinate; a matrix is a list
of column vectors.  ``Echelon`` keeps reduced vectors in a dict keyed by
their leading (highest) bit, so reducing a vector costs one dict lookup and
one xor per step, with no scan over the stored vectors and no re-sort.  Each
stored vector carries a tag, xored along with it, that records which
combination of the inserted vectors it is; ``kernel`` and ``solve`` read
their answers off the tags.  ``apply`` is the one matrix-vector product: a
loop that peels off the lowest set bit, with no generator.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional, Sequence


def bits(mask: int) -> Iterator[int]:
    """Indices of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def apply(cols: Sequence[int], vec: int) -> int:
    """The matrix-vector product: the xor of ``cols[j]`` over the bits j of vec."""
    acc = 0
    while vec:
        low = vec & -vec
        acc ^= cols[low.bit_length() - 1]
        vec ^= low
    return acc


class Echelon:
    """Vectors in echelon form, keyed by leading bit, each with its tag."""

    __slots__ = ("pivots",)

    def __init__(self, vectors: Iterable[int] = ()):
        self.pivots: dict[int, tuple[int, int]] = {}
        for v in vectors:
            self.add(v)

    def __len__(self) -> int:
        return len(self.pivots)

    def reduce(self, vec: int, tag: int = 0) -> tuple[int, int]:
        """Clear leading bits of ``vec`` against the pivots until its leading
        bit is not a pivot or it is zero; the tag follows every xor.  The
        result is zero exactly when ``vec`` lies in the span."""
        pivots = self.pivots
        while vec:
            hit = pivots.get(vec.bit_length() - 1)
            if hit is None:
                break
            vec ^= hit[0]
            tag ^= hit[1]
        return vec, tag

    def add(self, vec: int, tag: int = 0) -> tuple[int, int]:
        """Reduce ``vec`` and keep it as a new pivot unless it reduced to
        zero; returns the reduced vector and its tag."""
        vec, tag = self.reduce(vec, tag)
        if vec:
            self.pivots[vec.bit_length() - 1] = (vec, tag)
        return vec, tag


def _tagged(cols: Sequence[int]) -> tuple[Echelon, list[int]]:
    """Echelon of ``cols`` tagged by column index, and the kernel basis
    found on the way (the tags of the columns that reduced to zero)."""
    ech = Echelon()
    null = []
    for j, c in enumerate(cols):
        vec, tag = ech.add(c, 1 << j)
        if not vec:
            null.append(tag)
    return ech, null


def rank(vectors: Iterable[int]) -> int:
    return len(Echelon(vectors))


def kernel(cols: Sequence[int]) -> list[int]:
    """Basis of {x : apply(cols, x) = 0}, as masks over column indices."""
    return _tagged(cols)[1]


def solve(cols: Sequence[int], rhs: int) -> Optional[int]:
    """One x with apply(cols, x) = rhs, or None when there is none."""
    rest, x = _tagged(cols)[0].reduce(rhs)
    return None if rest else x

