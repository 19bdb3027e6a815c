"""Field arithmetic on one value of the degree-16 cyclotomic field of 60th roots of unity.

The field, its power basis z^0..z^15 and the rendering of a value live in
`packed`, which every command uses; a `Cyc` wraps one value, a coefficient
tuple over a positive denominator in lowest terms, for `+ - * / **`.  Only
the code that returns a `Cyc` loads this module: `FTMatrix.matrix`,
`FTMatrix.trace()` and `trifourier.Cyc`.
"""

from __future__ import annotations

from sys import hash_info
from typing import TYPE_CHECKING

from .packed import DEGREE, cyc_text, json_terms, lowest_terms, reduce_powers

if TYPE_CHECKING:
    from fractions import Fraction


class Cyc:
    """An element of the field, immutable and hashable."""

    __slots__ = ("num", "den")

    def __init__(self, num, den: int = 1):
        num = tuple(int(c) for c in num)
        if len(num) != DEGREE:
            raise ValueError(f"need {DEGREE} coefficients, got {len(num)}")
        num, den = lowest_terms(num, den)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, *args):
        raise AttributeError("Cyc values are immutable")

    # -- constructors --------------------------------------------------------

    @staticmethod
    def one() -> "Cyc":
        return Cyc((1,) + (0,) * (DEGREE - 1))

    @staticmethod
    def from_rational(q) -> "Cyc":
        if isinstance(q, int):
            return Cyc((q,) + (0,) * (DEGREE - 1))
        from fractions import Fraction

        q = Fraction(q)
        return Cyc((q.numerator,) + (0,) * (DEGREE - 1), q.denominator)

    # -- ring operations ------------------------------------------------------

    @staticmethod
    def _coerce(value) -> "Cyc":
        if isinstance(value, Cyc):
            return value
        if isinstance(value, int):
            return Cyc.from_rational(value)
        from fractions import Fraction

        if isinstance(value, Fraction):
            return Cyc.from_rational(value)
        return NotImplemented

    def __add__(self, other):
        other = Cyc._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        da, db = self.den, other.den
        return Cyc(tuple(a * db + b * da for a, b in zip(self.num, other.num)), da * db)

    __radd__ = __add__

    def __neg__(self) -> "Cyc":
        return Cyc(tuple(-c for c in self.num), self.den)

    def __sub__(self, other):
        other = Cyc._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = Cyc._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        conv = [0] * (2 * DEGREE - 1)
        for i, a in enumerate(self.num):
            if a:
                for j, b in enumerate(other.num):
                    if b:
                        conv[i + j] += a * b
        return Cyc(reduce_powers(conv), self.den * other.den)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Cyc":
        if n < 0:
            return self.inverse() ** (-n)
        out = Cyc.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __truediv__(self, other):
        other = Cyc._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        return Cyc._coerce(other) * self.inverse()

    def inverse(self) -> "Cyc":
        """Field inverse: x with num * x = den, solved as M x = den e_0.

        Column i of the integer matrix M is num * z^i reduced, so
        x = den * adj(M) e_0 / det M (`bareiss.adjugate`).
        """
        from .bareiss import adjugate

        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        m = [list(r) for r in zip(*(reduce_powers((0,) * i + self.num) for i in range(DEGREE)))]
        det, adj = adjugate(m)  # det != 0: the minimal polynomial is irreducible
        return Cyc(tuple(self.den * row[0] for row in adj), det)

    # -- predicates and conversions -------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.num)

    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def to_rational(self) -> Fraction:
        from fractions import Fraction

        if not self.is_rational():
            raise ValueError(f"{self!r} is not rational")
        return Fraction(self.num[0], self.den)

    def __eq__(self, other) -> bool:
        other = Cyc._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self) -> int:
        # a rational p/q hashes as the equal int or Fraction: |p| q^-1 modulo the
        # prime hash_info.modulus (hash_info.inf when it divides q), negated for p < 0
        if not self.is_rational():
            return hash((self.num, self.den))
        p, q = self.num[0], self.den
        if q == 1:  # most character values: no modular inverse
            return hash(p)
        try:
            h = hash(abs(p) * pow(q, -1, hash_info.modulus))
        except ValueError:
            h = hash_info.inf
        return hash(h if p >= 0 else -h)

    def __repr__(self) -> str:
        return cyc_text(self.num, self.den)

    def to_json(self) -> list[dict]:
        """The nonzero terms, each coefficient c/den in lowest terms (den > 0)."""
        return json_terms(self.num, self.den)
