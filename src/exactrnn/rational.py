"""Exact rational scalars and bit-length accounting.

``Rational`` is an immutable arbitrary-precision fraction kept canonical at
every step: gcd(|num|, den) = 1, den > 0, zero is 0/1. The canonical text
form is always ``"num/den"`` (including ``"3/1"``); that form is what file
formats and the CLI emit.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd


class Rational:
    __slots__ = ("num", "den")

    def __init__(self, num, den=1):
        if isinstance(num, Rational):
            num, den = num.num, num.den * den
        if den == 0:
            raise ZeroDivisionError("rational with zero denominator")
        if num == 0:
            object.__setattr__(self, "num", 0)
            object.__setattr__(self, "den", 1)
            return
        if den < 0:
            num, den = -num, -den
        g = gcd(num, den)
        if g > 1:
            num //= g
            den //= g
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, *_):
        raise AttributeError("Rational is immutable")

    # fast path for values already canonical (kernel outputs)
    @classmethod
    def _make(cls, num, den):
        self = object.__new__(cls)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)
        return self

    @classmethod
    def parse(cls, text: str) -> "Rational":
        """``"num/den"`` or ``"num"``; ``ValueError`` on malformed text,
        including a zero denominator."""
        num, _, den = text.partition("/")
        den = int(den) if den else 1
        if den == 0:
            raise ValueError(f"zero denominator in {text!r}")
        return cls(int(num), den)

    def __add__(self, other):
        o = other if isinstance(other, Rational) else Rational(other)
        if self.den == 1 and o.den == 1:
            return Rational._make(self.num + o.num, 1)
        return Rational(self.num * o.den + o.num * self.den, self.den * o.den)

    __radd__ = __add__

    def __neg__(self):
        return Rational._make(-self.num, self.den)

    def __sub__(self, other):
        o = other if isinstance(other, Rational) else Rational(other)
        if self.den == 1 and o.den == 1:
            return Rational._make(self.num - o.num, 1)
        return Rational(self.num * o.den - o.num * self.den, self.den * o.den)

    def __rsub__(self, other):
        return Rational(other) - self

    def __mul__(self, other):
        o = other if isinstance(other, Rational) else Rational(other)
        if self.den == 1 and o.den == 1:
            return Rational._make(self.num * o.num, 1)
        return Rational(self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = other if isinstance(other, Rational) else Rational(other)
        if o.num == 0:
            raise ZeroDivisionError("rational division by zero")
        return Rational(self.num * o.den, self.den * o.num)

    def __rtruediv__(self, other):
        return Rational(other) / self

    def __abs__(self):
        return Rational._make(abs(self.num), self.den)

    def _cmp(self, other):
        o = other if isinstance(other, Rational) else Rational(other)
        lhs = self.num * o.den
        rhs = o.num * self.den
        return (lhs > rhs) - (lhs < rhs)

    def __eq__(self, other):
        if isinstance(other, Rational):
            return self.num == other.num and self.den == other.den
        if isinstance(other, int):
            return self.den == 1 and self.num == other
        return NotImplemented

    def __lt__(self, other):
        return self._cmp(other) < 0

    def __le__(self, other):
        return self._cmp(other) <= 0

    def __gt__(self, other):
        return self._cmp(other) > 0

    def __ge__(self, other):
        return self._cmp(other) >= 0

    def __hash__(self):
        return hash((self.num, self.den))

    def __bool__(self):
        return self.num != 0

    def sign(self) -> int:
        return (self.num > 0) - (self.num < 0)

    def __str__(self):
        return f"{self.num}/{self.den}"

    def __repr__(self):
        return f"Rational({self.num}, {self.den})"


ZERO = Rational(0)
ONE = Rational(1)


def rat(num, den=1) -> Rational:
    return Rational(num, den)


def rat_cmp(a: Rational, b: Rational) -> int:
    """Three-way comparison: -1, 0, or 1."""
    return a._cmp(b)


@dataclass(frozen=True)
class PrecisionReport:
    """Bit-length summary of a collection of values.

    A value num/den costs bit_length(|num|) + bit_length(den) bits, except
    zero which costs 1 (a fixed one-token encoding). ``max_value_bits`` is
    the costliest single value, ``total_bits`` the sum over all values.
    """

    max_value_bits: int
    total_bits: int


def value_bits(q: Rational) -> int:
    if q.num == 0:
        return 1
    return abs(q.num).bit_length() + q.den.bit_length()


def precision_of(values) -> PrecisionReport:
    """Measure an iterable of Rationals."""
    mx = 0
    total = 0
    for q in values:
        b = value_bits(q)
        total += b
        if b > mx:
            mx = b
    return PrecisionReport(mx, total)
