"""Exact arithmetic in the degree-16 cyclotomic field of 60th roots of unity.

One field hosts every root of unity needed downstream: order 3 (theta),
order 4 (the imaginary unit) and order 5 (zeta), since lcm(3,4,5) | 60.
Elements are integer coefficient vectors over the power basis z^0..z^15
with a common positive denominator, reduced by the minimal polynomial
    z^16 + z^14 - z^10 - z^8 - z^6 + z^2 + 1.
"""

from __future__ import annotations

from math import gcd
from typing import TYPE_CHECKING

from .report import fraction_string

if TYPE_CHECKING:
    from fractions import Fraction

N = 60
DEGREE = 16
# -(coefficients of the minimal polynomial below degree 16): z^16 = _SUBST . (z^0..z^15)
_MIN_POLY_TAIL = (1, 0, 1, 0, 0, 0, -1, 0, -1, 0, -1, 0, 0, 0, 1, 0)
_SUBST = tuple(-c for c in _MIN_POLY_TAIL)


def _build_power_table() -> tuple[tuple[int, ...], ...]:
    """Reduced coefficient vectors of z^k for k = 0..60."""
    table = [tuple(1 if j == k else 0 for j in range(DEGREE)) for k in range(DEGREE)]
    for _ in range(DEGREE, N + 1):
        prev = table[-1]
        shifted = [0] + list(prev[:-1])
        top = prev[-1]
        if top:
            shifted = [s + top * c for s, c in zip(shifted, _SUBST)]
        table.append(tuple(shifted))
    return tuple(table)


_POWERS = _build_power_table()
# the non-zero (j, coefficient) pairs of each reduced power z^k
_TERMS = tuple(tuple((j, c) for j, c in enumerate(p) if c) for p in _POWERS)


def reduce_powers(coeffs) -> tuple[int, ...]:
    """The coefficients over z^0..z^15 of sum_k coeffs[k] z^k, for k = 0..60."""
    out = list(coeffs[:DEGREE])
    out += [0] * (DEGREE - len(out))
    for k in range(DEGREE, len(coeffs)):
        c = coeffs[k]
        if c:
            for j, p in _TERMS[k]:
                out[j] += c * p
    return tuple(out)


def conj_coeffs(num) -> tuple[int, ...]:
    """Complex conjugation on coefficients: z^j maps to z^(60-j)."""
    return reduce_powers((num[0], *(0,) * (N - DEGREE), *num[:0:-1]))


class Cyc:
    """An element of the field, immutable and hashable."""

    __slots__ = ("num", "den")

    def __init__(self, num, den: int = 1):
        num = tuple(int(c) for c in num)
        if len(num) != DEGREE:
            raise ValueError(f"need {DEGREE} coefficients, got {len(num)}")
        if den == 0:
            raise ZeroDivisionError("zero denominator")
        if den < 0:
            num, den = tuple(-c for c in num), -den
        g = gcd(den, *num) if any(num) else den
        if g > 1:
            num = tuple(c // g for c in num)
            den //= g
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, *args):
        raise AttributeError("Cyc values are immutable")

    # -- constructors --------------------------------------------------------

    @staticmethod
    def zero() -> "Cyc":
        return Cyc((0,) * DEGREE)

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

    @staticmethod
    def root_of_unity(order: int, power: int = 1) -> "Cyc":
        """The chosen primitive root of the given order, raised to a power."""
        if order <= 0 or N % order:
            raise ValueError(f"order must divide {N}, got {order}")
        exp = (N // order) * power % N
        return Cyc(_POWERS[exp])

    @staticmethod
    def theta() -> "Cyc":
        return Cyc.root_of_unity(3)

    @staticmethod
    def imag_unit() -> "Cyc":
        return Cyc.root_of_unity(4)

    @staticmethod
    def zeta5() -> "Cyc":
        return Cyc.root_of_unity(5)

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

    def conj(self) -> "Cyc":
        """Complex conjugation: the base root maps to its inverse."""
        return Cyc(conj_coeffs(self.num), self.den)

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
        return hash((self.num, self.den))

    def __repr__(self) -> str:
        if self.is_rational():
            return f"Cyc({fraction_string(self.num[0], self.den)})"
        terms = [f"{fraction_string(c, self.den)}*z^{j}" for j, c in enumerate(self.num) if c]
        return "Cyc(" + " + ".join(terms) + ")"

    def to_json(self) -> list[dict]:
        """The nonzero terms, each coefficient c/den in lowest terms (den > 0)."""
        terms = []
        for j, c in enumerate(self.num):
            if c:
                g = gcd(c, self.den)
                terms.append({"num": c // g, "den": self.den // g, "exp": j})
        return terms
