"""Exact arithmetic in the Novikov ring/field over Z2 with rational exponents.

Elements are finite Z2-combinations of monomials T^q with q an exact rational,
optionally truncated at a rational precision bound P (exponents >= P are
unrepresented).  All arithmetic tracks the tightest sound precision of its
output, so truncation never silently corrupts low-order terms.
"""

from __future__ import annotations

import heapq
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional

from .lattice import common_scale, over

INF = float("inf")
_new = object.__new__
_set = object.__setattr__

_MONOMIAL_RE = re.compile(
    r"""^\s*(?:
        (?P<one>1)
      | T\^\{(?P<braced>-?\d+(?:/\d+)?)\}
      | T\^(?P<plain>-?\d+(?:/\d+)?)
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


@dataclass(frozen=True)
class NovikovElement:
    """A finite Z2-series sum_i T^{q_i}, exponents strictly increasing.

    ``precision`` is the truncation bound: terms with exponent >= precision
    are unknown/unrepresented.  ``None`` means the element is exact.
    """

    exponents: tuple[Fraction, ...]
    precision: Optional[Fraction] = None

    def __post_init__(self):
        exps = tuple(Fraction(e) for e in self.exponents)
        if self.precision is not None:
            prec = Fraction(self.precision)
            exps = tuple(e for e in exps if e < prec)
            object.__setattr__(self, "precision", prec)
        if any(exps[i] >= exps[i + 1] for i in range(len(exps) - 1)):
            exps = tuple(sorted(exps))
            if any(exps[i] == exps[i + 1] for i in range(len(exps) - 1)):
                raise ValueError("duplicate exponents; Z2 cancellation not applied")
        object.__setattr__(self, "exponents", exps)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def _make(exps: tuple[Fraction, ...], precision: Optional[Fraction]) -> "NovikovElement":
        """Trusted constructor: skips ``__post_init__``.  Only for data the
        class has just built canonically: ``exps`` a strictly increasing tuple
        of Fractions, all below ``precision`` (a Fraction or None)."""
        self = _new(NovikovElement)
        _set(self, "exponents", exps)
        _set(self, "precision", precision)
        return self

    @staticmethod
    def zero(precision: Optional[Fraction] = None) -> "NovikovElement":
        return NovikovElement._make((), None if precision is None else Fraction(precision))

    @staticmethod
    def one() -> "NovikovElement":
        return NovikovElement._make((Fraction(0),), None)

    @staticmethod
    def monomial(exponent) -> "NovikovElement":
        return NovikovElement._make((Fraction(exponent),), None)

    @staticmethod
    def from_exponents(exps: Iterable, precision=None) -> "NovikovElement":
        """Build from an iterable of exponents with Z2 cancellation."""
        seen: dict[Fraction, int] = {}
        for e in exps:
            q = Fraction(e)
            seen[q] = seen.get(q, 0) ^ 1
        prec = None if precision is None else Fraction(precision)
        return NovikovElement(tuple(sorted(q for q, c in seen.items() if c)), prec)

    # -- basic queries -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.exponents

    def __bool__(self) -> bool:
        return bool(self.exponents)

    @property
    def valuation(self):
        """Least exponent; +inf for the zero element."""
        return self.exponents[0] if self.exponents else INF

    def coefficient(self, exponent) -> int:
        q = Fraction(exponent)
        if self.precision is not None and q >= self.precision:
            raise ValueError(f"exponent {q} is beyond precision {self.precision}")
        return 1 if q in set(self.exponents) else 0

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "NovikovElement") -> "NovikovElement":
        prec = _min_prec(self.precision, other.precision)
        if not other.exponents and prec == self.precision:
            return self
        if not self.exponents and prec == other.precision:
            return other
        sym = set(self.exponents) ^ set(other.exponents)
        if prec is not None:
            sym = [e for e in sym if e < prec]
        return NovikovElement._make(tuple(sorted(sym)), prec)

    def __mul__(self, other: "NovikovElement") -> "NovikovElement":
        a, b = self.exponents, other.exponents
        if self.precision is None and other.precision is None:
            # exact factors: zero, the unit T^0 and monomial x monomial
            if not a or not b:
                return NOV_ZERO
            if len(a) == 1:
                if not a[0]:
                    return other
                if len(b) == 1:
                    return NovikovElement._make((a[0] + b[0],), None)
            if len(b) == 1 and not b[0]:
                return self
        # Tightest sound precision: a missing term T^{>=Pa} of self times the
        # lowest term of other first pollutes exponent Pa + val(other); if both
        # factors are truncated their missing tails pollute at Pa + Pb.
        prec = None
        if self.precision is not None and b:
            prec = _min_prec(prec, self.precision + b[0])
        if other.precision is not None and a:
            prec = _min_prec(prec, other.precision + a[0])
        if self.precision is not None and other.precision is not None:
            prec = _min_prec(prec, self.precision + other.precision)
        counts: dict[Fraction, int] = {}
        for x in a:
            for y in b:
                q = x + y
                counts[q] = counts.get(q, 0) ^ 1
        exps = [q for q, c in counts.items() if c and (prec is None or q < prec)]
        return NovikovElement._make(tuple(sorted(exps)), prec)

    def scale(self, exponent) -> "NovikovElement":
        """Multiply by the monomial T^exponent."""
        q = Fraction(exponent)
        prec = None if self.precision is None else self.precision + q
        return NovikovElement._make(tuple(e + q for e in self.exponents), prec)

    def truncate(self, precision) -> "NovikovElement":
        prec = _min_prec(self.precision, Fraction(precision))
        return NovikovElement._make(tuple(e for e in self.exponents if e < prec), prec)

    def invert(self, precision) -> "NovikovElement":
        """Inverse b with self*b = 1 up to terms of exponent >= precision.

        Writes self = T^v (1 + x) with val(x) > 0 and computes c = (1+x)^{-1}
        below p = min(precision, precision of x) in one pass, exponents in
        increasing order: c_q = [q == 0] + sum_{e in x} c_{q-e} over Z2.  Only
        0 and q + e < p with c_q = 1 can be exponents, so only those are
        visited (as integers over the common scale of x, ``persalg.lattice``).
        """
        if not self.exponents:
            raise ZeroDivisionError("cannot invert the zero Novikov element")
        v = self.valuation
        if self.precision is None and len(self.exponents) == 1:
            return NovikovElement._make((-v,), None)
        # self * b = (1+x) c exactly, so computing c = (1+x)^{-1} mod T^p
        # makes the product correct below the requested precision; p includes
        # the input's own truncation bound so the result never overclaims.
        p = Fraction(precision)
        if self.precision is not None:
            p = min(p, self.precision - v)
        xs = [e - v for e in self.exponents[1:] if e - v < p]
        den = common_scale(xs)
        steps = [over(e, den) for e in xs]
        limit = math.ceil(p * den)  # q < p  <=>  q * den < limit
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
        return NovikovElement._make(tuple(Fraction(q, den) - v for q in ones), p - v)

    # -- formatting --------------------------------------------------------

    def __str__(self) -> str:
        if not self.exponents:
            return "0"
        return " + ".join(format_exponent(e) for e in self.exponents)

    def precision_json(self) -> dict:
        """The JSON field that carries a truncated element's precision next
        to its ``str``: ``{"precision": bound}``, or ``{}`` when exact."""
        return {} if self.precision is None else {"precision": str(self.precision)}

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
            if m.group("one"):
                exps.append(Fraction(0))
            elif m.group("bare"):
                exps.append(Fraction(1))
            else:
                exps.append(Fraction(m.group("braced") or m.group("plain")))
        return NovikovElement.from_exponents(exps, precision)

    def to_json(self) -> list[str]:
        return [str(e) for e in self.exponents]

    @staticmethod
    def from_json(data: Iterable[str]) -> "NovikovElement":
        return NovikovElement.from_exponents(Fraction(s) for s in data)


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
