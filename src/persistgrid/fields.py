"""Exact scalar arithmetic: arbitrary-precision rationals and prime fields.

Rational values are plain ints when integral and `fractions.Fraction`s
(always normalized) otherwise; the two compare and hash alike, so either
may stand for an integer.  Prime field values are plain ints in [0, p).  A
`Field` object bundles the operations so matrix code can stay generic.
"""

from __future__ import annotations

import re
from fractions import Fraction

DEFAULT_PRIME = 1009
# a file's modulus must lie below this; trial division then takes milliseconds
MAX_MODULUS = 2**31
# digits of a scalar string's numerator and of its denominator: Python's
# default bound for int <-> str conversion, so every scalar `fmt` writes
MAX_SCALAR_DIGITS = 4300
_SCALAR = re.compile(f"-?[0-9]{{1,{MAX_SCALAR_DIGITS}}}(/[0-9]{{1,{MAX_SCALAR_DIGITS}}})?")
# the one spelling of each prime field's tag, as to_json writes it
_FP_TAG = re.compile("Fp:([1-9][0-9]*)")


def _reduced(q: Fraction):
    """q as an int when it is integral."""
    return q.numerator if q.denominator == 1 else q


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p < 4:
        return True
    if p % 2 == 0:
        return False
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


class Field:
    """The base field: rationals (p is None) or the prime field F_p."""

    __slots__ = ("p",)

    def __init__(self, p: int | None = None):
        if p is not None:
            if not _is_prime(p):
                raise ValueError(f"modulus {p} is not prime")
        self.p = p

    @staticmethod
    def rationals() -> "Field":
        return Field(None)

    @staticmethod
    def prime(p: int = DEFAULT_PRIME) -> "Field":
        return Field(p)

    @property
    def is_rational(self) -> bool:
        return self.p is None

    # -- element constructors ------------------------------------------

    zero = 0
    one = 1

    def of(self, n: int):
        """Canonical image of the integer n."""
        return n if self.p is None else n % self.p

    # -- arithmetic ----------------------------------------------------
    # over Q an integral result is an int, as parse and inv give it

    def add(self, a, b):
        if self.p is None:
            return s if type(s := a + b) is int or s.denominator != 1 else s.numerator
        return (a + b) % self.p

    def sub(self, a, b):
        if self.p is None:
            return s if type(s := a - b) is int or s.denominator != 1 else s.numerator
        return (a - b) % self.p

    def mul(self, a, b):
        if self.p is None:
            return s if type(s := a * b) is int or s.denominator != 1 else s.numerator
        return (a * b) % self.p

    def neg(self, a):
        return -a if self.p is None else (-a) % self.p

    def inv(self, a):
        if self.p is None:
            if a == 0:
                raise ZeroDivisionError("inverse of 0")
            if a == 1 or a == -1:
                return int(a)
            return _reduced(Fraction(a.denominator, a.numerator))
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of 0")
        return pow(a, self.p - 2, self.p)

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    # -- serialization -------------------------------------------------

    def parse(self, s):
        """Scalar from its PMOD representation: an int, or a string of the
        form `-?digits(/digits)?` with at most MAX_SCALAR_DIGITS digits."""
        if type(s) is not int:
            if not isinstance(s, str):
                raise TypeError(f"scalar {s!r} is neither an integer nor a string")
            if not _SCALAR.fullmatch(s):
                raise ValueError(f"scalar {s[:40]!r} is not an integer or num/den of at most {MAX_SCALAR_DIGITS} digits")
        if self.p is None:
            return int(s) if type(s) is int or "/" not in s else _reduced(Fraction(s))
        return int(s) % self.p

    def fmt(self, a):
        """PMOD representation: exact string over Q, residue int over F_p."""
        if self.p is None:
            return str(a.numerator) if a.denominator == 1 else f"{a.numerator}/{a.denominator}"
        return int(a)

    def rand(self, rng):
        """Uniform random element; over Q, a small integer in [-2, 2]."""
        if self.p is None:
            return rng.randint(-2, 2)
        return rng.randrange(self.p)

    def elements(self):
        """All field elements (finite fields only)."""
        if self.p is None:
            raise ValueError("the rationals are infinite")
        return [self.of(i) for i in range(self.p)]

    # -- identity ------------------------------------------------------

    def __eq__(self, other):
        return isinstance(other, Field) and self.p == other.p

    def __hash__(self):
        return hash(("Field", self.p))

    def __repr__(self):
        return "Q" if self.p is None else f"F{self.p}"

    def to_json(self) -> str:
        return "Q" if self.p is None else f"Fp:{self.p}"

    @staticmethod
    def from_json(s: str) -> "Field":
        if s == "Q":
            return Field.rationals()
        if m := _FP_TAG.fullmatch(s):
            p = int(m[1])
            if p >= MAX_MODULUS:
                raise ValueError(f"modulus {p} is not below 2^31")
            return Field.prime(p)
        raise ValueError(f"unknown field tag {s!r}")
