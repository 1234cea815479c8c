"""Exact rational scalars and bit-length accounting.

``Rational`` is an immutable arbitrary-precision fraction kept canonical at
every step: gcd(|num|, den) = 1, den > 0, zero is 0/1, and num and den are
ints. The canonical text form is always ``"num/den"`` (including ``"3/1"``);
that form is what file formats and the CLI emit. Construction and
arithmetic go through the package's one arithmetic backend,
:mod:`exactrnn.kernels` (``rnorm``, ``radd``, ``rmul``).
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import index

from . import kernels


def _pair(x):
    """``(num, den)`` of an operand: a ``Rational`` or an int."""
    if isinstance(x, Rational):
        return x.num, x.den
    return index(x), 1


class Rational:
    __slots__ = ("num", "den")

    def __init__(self, num, den=1):
        # index() keeps num and den ints: a float, str or Fraction is a
        # TypeError, and True is stored as 1
        if isinstance(num, Rational):
            num, den = num.num, num.den * index(den)
        else:
            num, den = index(num), index(den)
        if den == 0:
            raise ZeroDivisionError("rational with zero denominator")
        num, den = kernels.rnorm(num, den)
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
        including a slash with no denominator and a zero denominator."""
        num, slash, den = text.partition("/")
        if slash and not den:
            raise ValueError(f"no denominator after the slash in {text!r}")
        den = int(den) if slash else 1
        if den == 0:
            raise ValueError(f"zero denominator in {text!r}")
        return cls(int(num), den)

    def __add__(self, other):
        on, od = _pair(other)
        return Rational._make(*kernels.radd(self.num, self.den, on, od))

    __radd__ = __add__

    def __neg__(self):
        return Rational._make(-self.num, self.den)

    def __sub__(self, other):
        on, od = _pair(other)
        return Rational._make(*kernels.radd(self.num, self.den, -on, od))

    def __rsub__(self, other):
        return Rational(other) - self

    def __mul__(self, other):
        on, od = _pair(other)
        return Rational._make(*kernels.rmul(self.num, self.den, on, od))

    __rmul__ = __mul__

    def __truediv__(self, other):
        on, od = _pair(other)
        if on == 0:
            raise ZeroDivisionError("rational division by zero")
        return Rational._make(*kernels.rmul(self.num, self.den, od, on))

    def __rtruediv__(self, other):
        return Rational(other) / self

    def __abs__(self):
        return Rational._make(abs(self.num), self.den)

    def _cmp(self, other):
        on, od = _pair(other)
        lhs = self.num * od
        rhs = on * self.den
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


def as_rational(value) -> Rational:
    """``value`` if it is a ``Rational``, else ``Rational(value)``."""
    return value if isinstance(value, Rational) else Rational(value)


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
