"""Exact values and matrices over the cyclotomic field, one Python int per entry product.

The field is the degree-16 cyclotomic field of 60th roots of unity.  One
field hosts every root of unity needed downstream: order 3 (theta), order 4
(the imaginary unit) and order 5 (zeta), since lcm(3,4,5) | 60; with
z = exp(2 pi i / 60) they are z^20, z^15 and z^12.  Powers are reduced by
the minimal polynomial

    z^16 + z^14 - z^10 - z^8 - z^6 + z^2 + 1.

An entry (1/den) * sum_k a_k z^k, k = 0..15, is held as its 16 integer
coefficients `a` (a `Vec`); a matrix is a list of rows of Vecs over one
common positive `den`.  Every command computes, compares and prints these
values directly (`lowest_terms`, `cyc_text`, `json_terms`); `cyclotomic.Cyc`
wraps one value for field arithmetic and calls the same functions.  For a
product, each entry is packed into one integer by Kronecker substitution,

    P(a) = sum_k a_k 2^(b k),

which is the polynomial evaluated at 2^b, so P(a) P(c) = P(a c) with the
unreduced product a c of degree <= 30, and a matrix product entry is
sum(map(mul, row, col)): one bigint multiplication per polynomial product.
Every coefficient of sum_l a_l c_l is a sum of at most 16 m terms (m the
inner dimension, at most 16 pairs i + j = s per term), so it is bounded by

    16 m max|a| max|c|.

With 2^(b-1) above that bound, adding 2^(b-1) to each base-2^b digit makes
every digit lie in [0, 2^b), so shifting and masking read the signed
coefficients back exactly; `reduce_powers` then folds z^16..z^30 onto
z^0..z^15.  Python ints do not overflow, so there is no fallback path, and
nothing is rounded: no float is involved.
"""

from __future__ import annotations

from math import gcd
from operator import mul

from .report import fraction_string

N = 60
DEGREE = 16
Vec = tuple[int, ...]
ZERO: Vec = (0,) * DEGREE
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


POWERS = _build_power_table()
# the non-zero (j, coefficient) pairs of each reduced power z^k
_TERMS = tuple(tuple((j, c) for j, c in enumerate(p) if c) for p in POWERS)


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


# -- one value: num / den ------------------------------------------------------


def lowest_terms(num: Vec, den: int) -> tuple[Vec, int]:
    """num / den with den > 0 and no factor common to den and every coefficient (zero is 0 / 1)."""
    if den == 0:
        raise ZeroDivisionError("zero denominator")
    if den < 0:
        num, den = tuple(-c for c in num), -den
    g = gcd(den, *num) if any(num) else den
    if g > 1:
        num = tuple(c // g for c in num)
        den //= g
    return num, den


def cyc_text(num: Vec, den: int) -> str:
    """The value as `Cyc(...)` text, each coefficient c/den in lowest terms (den > 0)."""
    if not any(num[1:]):
        return f"Cyc({fraction_string(num[0], den)})"
    return f"Cyc({' + '.join(f'{fraction_string(c, den)}*z^{j}' for j, c in enumerate(num) if c)})"


def scalar_text(num: Vec, den: int) -> str:
    """A rational value as its fraction ("n" or "n/d"), any other as its `cyc_text` (den > 0)."""
    return cyc_text(num, den) if any(num[1:]) else fraction_string(num[0], den)


def json_terms(num: Vec, den: int) -> list[dict]:
    """The nonzero terms, each coefficient c/den in lowest terms (den > 0)."""
    terms = []
    for j, c in enumerate(num):
        if c:
            g = gcd(c, den)
            terms.append({"num": c // g, "den": den // g, "exp": j})
    return terms


# -- matrices: Kronecker packing -----------------------------------------------

_DIGITS = 2 * DEGREE - 1  # coefficients of an unreduced product, z^0..z^30


class Packing:
    """Kronecker substitution at 2^bits, wide enough for products bounded by `bound`."""

    __slots__ = ("bits", "half", "mask", "shifts", "biases")

    def __init__(self, bound: int):
        self.bits = b = bound.bit_length() + 1  # bound < 2^(b-1)
        self.half = 1 << (b - 1)
        self.mask = (1 << b) - 1
        self.shifts = [b * m for m in range(_DIGITS)]
        # biases[n] puts 2^(b-1) on each of the digits 0..n-1
        self.biases = [0]
        for s in self.shifts:
            self.biases.append(self.biases[-1] + (self.half << s))

    def pack(self, v: Vec) -> int:
        x = 0
        for c in reversed(v):
            x = (x << self.bits) + c
        return x

    def pack_rows(self, rows: list[list[Vec]]) -> list[list[int]]:
        """Every entry packed, through a table of the distinct values."""
        table = {v: self.pack(v) for v in {v for row in rows for v in row}}
        return [[table[v] for v in row] for row in rows]

    def unpack_rows(self, rows: list[list[int]]) -> list[list[Vec]]:
        """Every entry unpacked, through a table of the distinct values."""
        table = {x: self.unpack(x) for x in {x for row in rows for x in row}}
        return [[table[x] for x in row] for row in rows]

    def unpack(self, x: int) -> Vec:
        """The reduced coefficients of x = P(p), p of degree <= 30 with every |p_s| <= bound.

        If p has degree d then |x| > 2^(b d) - (2^(b-1) - 1) sum_{s<d} 2^(b s)
        > 2^(b d - 1), so the digits from |x|.bit_length() // b + 1 up are zero.
        """
        if not x:
            return ZERO
        n = abs(x).bit_length() // self.bits + 1
        x += self.biases[n]  # each of the n digits p_s + 2^(b-1) lies in [0, 2^b)
        half, mask = self.half, self.mask
        return reduce_powers([((x >> s) & mask) - half for s in self.shifts[:n]])


def for_product(inner: int, a_max: int, c_max: int) -> Packing:
    """The packing for a sum of `inner` polynomial products with coefficients bounded by a_max, c_max."""
    return Packing(inner * DEGREE * a_max * c_max)


def max_abs(rows: list[list[Vec]]) -> int:
    return max((max(max(v), -min(v)) for v in {v for row in rows for v in row}), default=0)


def square_upper(a: list[list[Vec]]) -> list[list[Vec]]:
    """Numerators of A A on and above the diagonal, row i from column i on, for a symmetric a.

    Column j of a symmetric A is its row j, so (A A)[i][j] = row_i . row_j,
    and A A is symmetric: its other entries repeat these.
    """
    top = max_abs(a)
    pk = for_product(len(a), top, top)
    rows = pk.pack_rows(a)
    return pk.unpack_rows([[sum(map(mul, row, col)) for col in rows[i:]] for i, row in enumerate(rows)])


def conj(rows: list[list[Vec]]) -> list[list[Vec]]:
    """Numerators of the complex conjugate, through a table of the distinct values."""
    table = {v: conj_coeffs(v) for v in {v for row in rows for v in row}}
    return [[table[v] for v in row] for row in rows]
