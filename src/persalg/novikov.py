"""Exact arithmetic in the Novikov ring/field over Z2 with rational exponents.

Elements are finite Z2-combinations of monomials T^q with q an exact rational,
optionally truncated at a rational precision bound P (exponents >= P are
unrepresented).  All arithmetic tracks the tightest sound precision of its
output, so truncation never silently corrupts low-order terms.

An element stores its exponents as a strictly increasing tuple of ints
``num`` over one scale ``den``, the least common denominator of the
exponents (1 when there are none), so T^{2/4} is stored as T^{1/2} and equal
elements compare and hash equal.  Sums, products, truncations and inverses
run on those ints, over the least common multiple of the two scales (a
factor already on it is not rescaled), and divide the result's scale back
down to its least.  The public ``exponents``, a tuple of
Fractions, is built from them when first read; ``precision`` stays a
Fraction (or None).  ``persalg.lattice`` does every conversion between
rationals and such integers.
"""

from __future__ import annotations

import heapq
import re
from bisect import bisect_left
from fractions import Fraction
from math import gcd
from typing import Iterable, Optional, Sequence

from .lattice import ceil_over, common_scale, over, scale_lcm

INF = float("inf")
_new = object.__new__

_MONOMIAL_RE = re.compile(
    r"""^\s*(?:
        (?P<one>1)
      | T\^\{(?P<braced>-?\d+(?:/0*[1-9]\d*)?)\}
      | T\^(?P<plain>-?\d+(?:/0*[1-9]\d*)?)
      | (?P<bare>T)
    )\s*$""",
    re.VERBOSE,
)


def _min_prec(p: Optional[Fraction], q: Optional[Fraction]) -> Optional[Fraction]:
    if p is None:
        return q
    if q is None:
        return p
    return min(p, q)


def _frac(x) -> Fraction:
    """x as a Fraction, without a copy when it is one."""
    return x if x.__class__ is Fraction else Fraction(x)


def _of(num: tuple[int, ...], den: int, precision: Optional[Fraction]) -> "NovikovElement":
    """Trusted constructor on the stored form: ``num`` a strictly increasing
    tuple of ints over the least scale ``den`` (1 when ``num`` is empty), all
    below ``precision`` (a Fraction or None)."""
    self = _new(NovikovElement)
    self._num = num
    self._den = den
    self._prec = precision
    return self


def _least(num: Sequence[int], den: int, precision: Optional[Fraction]) -> "NovikovElement":
    """``_of`` for strictly increasing ints over any scale ``den``: the
    scale is divided down to the least one first."""
    if not num:
        return _of((), 1, precision)
    if den > 1:
        g = gcd(den, *num)
        if g > 1:
            return _of(tuple(e // g for e in num), den // g, precision)
    return _of(tuple(num), den, precision)


class NovikovElement:
    """A finite Z2-series sum_i T^{q_i}, exponents strictly increasing.

    ``precision`` is the truncation bound: terms with exponent >= precision
    are unknown/unrepresented.  ``None`` means the element is exact.
    ``exponents[i]`` is ``num[i] / den``, with ``den`` the least such scale.
    Elements are immutable.
    """

    __slots__ = ("_num", "_den", "_prec", "_exps")

    def __init__(self, exponents: Iterable, precision=None):
        exps = tuple(map(_frac, exponents))
        prec = None if precision is None else _frac(precision)
        if prec is not None:
            exps = tuple(e for e in exps if e < prec)
        den = common_scale(exps)
        num = [over(e, den) for e in exps]
        if any(a >= b for a, b in zip(num, num[1:])):
            num.sort()
            if any(a == b for a, b in zip(num, num[1:])):
                raise ValueError("duplicate exponents; Z2 cancellation not applied")
        else:
            self._exps = exps
        self._num = tuple(num)
        self._den = den
        self._prec = prec

    # -- the stored form and its views ---------------------------------------

    @property
    def exponents(self) -> tuple[Fraction, ...]:
        """The exponents as a strictly increasing tuple of Fractions."""
        try:
            return self._exps
        except AttributeError:
            den = self._den
            self._exps = tuple(Fraction(e, den) for e in self._num)
            return self._exps

    @property
    def precision(self) -> Optional[Fraction]:
        return self._prec

    @property
    def num(self) -> tuple[int, ...]:
        """The exponents times ``den``, as ints."""
        return self._num

    @property
    def den(self) -> int:
        """The least D >= 1 with every exponent times D an int."""
        return self._den

    def __eq__(self, other):
        if other.__class__ is not NovikovElement:
            return NotImplemented
        return (self._num == other._num and self._den == other._den
                and self._prec == other._prec)

    def __hash__(self):
        return hash((self._num, self._den, self._prec))

    def __repr__(self) -> str:
        return f"NovikovElement(exponents={self.exponents!r}, precision={self._prec!r})"

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(precision: Optional[Fraction] = None) -> "NovikovElement":
        return _of((), 1, None if precision is None else _frac(precision))

    @staticmethod
    def one() -> "NovikovElement":
        return _of((0,), 1, None)

    @staticmethod
    def monomial(exponent) -> "NovikovElement":
        q = _frac(exponent)
        den = common_scale((q,))
        self = _of((over(q, den),), den, None)
        self._exps = (q,)
        return self

    @staticmethod
    def from_exponents(exps: Iterable, precision=None) -> "NovikovElement":
        """Build from an iterable of exponents with Z2 cancellation."""
        seen: dict[Fraction, int] = {}
        for e in exps:
            q = _frac(e)
            seen[q] = seen.get(q, 0) ^ 1
        prec = None if precision is None else _frac(precision)
        return NovikovElement(tuple(sorted(q for q, c in seen.items() if c)), prec)

    # -- basic queries -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self._num

    def __bool__(self) -> bool:
        return bool(self._num)

    @property
    def valuation(self):
        """Least exponent; +inf for the zero element."""
        if not self._num:
            return INF
        try:
            return self._exps[0]
        except AttributeError:
            return Fraction(self._num[0], self._den)

    def coefficient(self, exponent) -> int:
        q = _frac(exponent)
        if self._prec is not None and q >= self._prec:
            raise ValueError(f"exponent {q} is beyond precision {self._prec}")
        return 1 if q in set(self.exponents) else 0

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "NovikovElement") -> "NovikovElement":
        prec = _min_prec(self._prec, other._prec)
        a, b = self._num, other._num
        if not b and prec == self._prec:
            return self
        if not a and prec == other._prec:
            return other
        da, db = self._den, other._den
        den = scale_lcm(da, db)
        if den != da:
            a = [e * (den // da) for e in a]
        if den != db:
            b = [e * (den // db) for e in b]
        sym = set(a).symmetric_difference(b)
        if prec is not None:
            limit = ceil_over(prec, den)
            sym = [e for e in sym if e < limit]
        return _least(sorted(sym), den, prec)

    def __mul__(self, other: "NovikovElement") -> "NovikovElement":
        a, b = self._num, other._num
        pa, pb = self._prec, other._prec
        da, db = self._den, other._den
        if pa is None and pb is None:
            # exact factors: zero, the unit T^0 and monomial x monomial
            if not a or not b:
                return NOV_ZERO
            if len(a) == 1:
                if not a[0]:
                    return other
                if len(b) == 1:
                    den = scale_lcm(da, db)
                    e = a[0] * (den // da) + b[0] * (den // db)
                    g = gcd(e, den)
                    return _of((e // g,), den // g, None)
            if len(b) == 1 and not b[0]:
                return self
        # Tightest sound precision: a missing term T^{>=Pa} of self times the
        # lowest term of other first pollutes exponent Pa + val(other); if both
        # factors are truncated their missing tails pollute at Pa + Pb.
        prec = None
        if pa is not None and b:
            prec = pa + other.valuation
        if pb is not None and a:
            prec = _min_prec(prec, pb + self.valuation)
        if pa is not None and pb is not None:
            prec = _min_prec(prec, pa + pb)
        den = scale_lcm(da, db)
        if den != da:
            a = [e * (den // da) for e in a]
        if den != db:
            b = [e * (den // db) for e in b]
        # each row x + b has distinct terms, so toggling a row at once is the
        # Z2 sum of its terms
        sym: set[int] = set()
        for x in a:
            sym.symmetric_difference_update([x + y for y in b])
        if prec is not None:
            limit = ceil_over(prec, den)
            sym = [e for e in sym if e < limit]
        return _least(sorted(sym), den, prec)

    def scale(self, exponent) -> "NovikovElement":
        """Multiply by the monomial T^exponent."""
        q = _frac(exponent)
        den = scale_lcm(self._den, common_scale((q,)))
        k, s = den // self._den, over(q, den)
        prec = None if self._prec is None else self._prec + q
        return _least([e * k + s for e in self._num], den, prec)

    def truncate(self, precision) -> "NovikovElement":
        prec = _min_prec(self._prec, _frac(precision))
        num = self._num
        return _least(num[:bisect_left(num, ceil_over(prec, self._den))], self._den, prec)

    def invert(self, precision) -> "NovikovElement":
        """Inverse b with self*b = 1 up to terms of exponent >= precision.

        Writes self = T^v (1 + x) with val(x) > 0 and computes c = (1+x)^{-1}
        below p = min(precision, precision of x) in one pass, exponents in
        increasing order: c_q = [q == 0] + sum_{e in x} c_{q-e} over Z2.  Only
        0 and q + e < p with c_q = 1 can be exponents, so only those are
        visited, as ints over the scale of self.
        """
        num, den = self._num, self._den
        if not num:
            raise ZeroDivisionError("cannot invert the zero Novikov element")
        v = num[0]
        if self._prec is None and len(num) == 1:
            return _of((-v,), den, None)
        # self * b = (1+x) c exactly, so computing c = (1+x)^{-1} mod T^p
        # makes the product correct below the requested precision; p includes
        # the input's own truncation bound so the result never overclaims.
        p, val = _frac(precision), self.valuation
        if self._prec is not None:
            p = min(p, self._prec - val)
        limit = ceil_over(p, den)  # q < p  <=>  q * den < limit
        steps = [e - v for e in num[1:] if e - v < limit]
        ones: dict[int, None] = {}  # insertion-ordered: increasing exponents
        seen = {0}
        heap = [0] if limit > 0 else []
        while heap:
            q = heapq.heappop(heap)
            bit = q == 0
            for s in steps:
                if s > q:
                    break
                bit ^= (q - s) in ones
            if not bit:
                continue
            ones[q] = None
            for s in steps:
                r = q + s
                if r >= limit:
                    break
                if r not in seen:
                    seen.add(r)
                    heapq.heappush(heap, r)
        return _least([q - v for q in ones], den, p - val)

    # -- formatting --------------------------------------------------------

    def __str__(self) -> str:
        if not self._num:
            return "0"
        return " + ".join(format_exponent(e) for e in self.exponents)

    def precision_json(self) -> dict:
        """The JSON field that carries a truncated element's precision next
        to its ``str``: ``{"precision": bound}``, or ``{}`` when exact."""
        return {} if self._prec is None else {"precision": str(self._prec)}

    @staticmethod
    def parse(text: str, precision=None) -> "NovikovElement":
        """Inverse of ``str``; ``precision`` is the truncation bound (None:
        exact), as written by ``precision_json``."""
        text = text.strip()
        if text == "0" or not text:
            return NovikovElement.zero(precision)
        exps = []
        for part in text.split("+"):
            m = _MONOMIAL_RE.match(part)
            if m is None:
                raise ValueError(f"cannot parse Novikov monomial {part!r}")
            exps.append(Fraction(0 if m["one"] else 1 if m["bare"] else m["braced"] or m["plain"]))
        return NovikovElement.from_exponents(exps, precision)


def format_exponent(e: Fraction) -> str:
    if e == 0:
        return "1"
    if e == 1:
        return "T"
    return "T^{%s}" % e


NOV_ZERO = NovikovElement.zero()
NOV_ONE = NovikovElement.one()


# -- series generators -------------------------------------------------------

def series_odd_squares(precision) -> NovikovElement:
    """sum_{n>=0} T^{(2n+1)^2}, truncated below ``precision``."""
    prec = Fraction(precision)
    exps = []
    n = 0
    while Fraction((2 * n + 1) ** 2) < prec:
        exps.append(Fraction((2 * n + 1) ** 2))
        n += 1
    return NovikovElement(tuple(exps), prec)


def series_theta(beta, scale, precision) -> NovikovElement:
    """sum_{n in Z} T^{scale*(n+beta)^2}, truncated below ``precision``."""
    prec = Fraction(precision)
    b = Fraction(beta)
    c = Fraction(scale)
    if c <= 0:
        raise ValueError("theta scale must be positive")
    exps = []
    n = 0
    while True:
        hit = False
        for m in ({n, -n} if n else {0}):
            e = c * (m + b) ** 2
            if e < prec:
                exps.append(e)
                hit = True
        if not hit and n > abs(b) + 1:
            break
        n += 1
    return NovikovElement.from_exponents(exps, prec)


def series_divisor_sum(n_param: int, precision) -> NovikovElement:
    """sum_{k>=0} #{d = +-1 mod 2N, d | 2k+1} T^{(2k+1)/N} over Z2."""
    N = int(n_param)
    if N < 1:
        raise ValueError("divisor_sum parameter must be >= 1")
    prec = Fraction(precision)
    exps = []
    k = 0
    while Fraction(2 * k + 1, N) < prec:
        v = 2 * k + 1
        count = 0
        for d in range(1, v + 1):
            if v % d == 0 and (d % (2 * N) == 1 or d % (2 * N) == 2 * N - 1):
                count ^= 1
        if count:
            exps.append(Fraction(v, N))
        k += 1
    return NovikovElement(tuple(exps), prec)


def inversion_recursion(exponent_set: Iterable[int], n_max: int) -> list[int]:
    """The g_n recursion: g_0 = 1, g_n = sum_{e in E\\{0}, e<=n} g_{n-e} mod 2.

    ``exponent_set`` is E, the set of integer exponents of f/T^{val}.
    Returns [g_0, ..., g_{n_max}].
    """
    E = sorted(set(int(e) for e in exponent_set))
    if not E or E[0] != 0:
        raise ValueError("recursion requires 0 in the exponent set")
    g = [0] * (n_max + 1)
    g[0] = 1
    for n in range(1, n_max + 1):
        acc = 0
        for e in E[1:]:
            if e > n:
                break
            acc ^= g[n - e]
        g[n] = acc
    return g
