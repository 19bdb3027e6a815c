"""Exact matrices over the cyclotomic field, one Python int per entry product.

An entry (1/den) * sum_k a_k z^k, k = 0..15, is held as its 16 integer
coefficients `a` (a `Vec`); a matrix is a list of rows of Vecs over one
common positive `den`.  For a product, each entry is packed into one integer
by Kronecker substitution,

    P(a) = sum_k a_k 2^(b k),

which is the polynomial evaluated at 2^b, so P(a) P(c) = P(a c) with the
unreduced product a c of degree <= 30, and a matrix product entry is
sum(map(mul, row, col)): one bigint multiplication per polynomial product.
Every coefficient of sum_l a_l c_l is a sum of at most 16 m terms (m the
inner dimension, at most 16 pairs i + j = s per term), so it is bounded by

    16 m max|a| max|c|.

With 2^(b-1) above that bound, adding 2^(b-1) to each base-2^b digit makes
every digit lie in [0, 2^b), so shifting and masking read the signed
coefficients back exactly; `cyclotomic.reduce_powers` then folds
z^16..z^30 onto z^0..z^15.  Python ints do not overflow, so there is no
fallback path, and nothing is rounded: no float is involved.
"""

from __future__ import annotations

from operator import mul

from .cyclotomic import DEGREE, Cyc, conj_coeffs, reduce_powers

Vec = tuple[int, ...]
ZERO: Vec = (0,) * DEGREE
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


def matmul(a: list[list[Vec]], c: list[list[Vec]]) -> list[list[Vec]]:
    """Numerators of A C for numerator rows a (n x m) and c (m x p); the denominators multiply."""
    pk = for_product(len(c), max_abs(a), max_abs(c))
    cols = pk.pack_rows(list(zip(*c)))
    return pk.unpack_rows([[sum(map(mul, row, col)) for col in cols] for row in pk.pack_rows(a)])


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


def rational(m) -> list[list[Vec]]:
    """An integer matrix as numerators over den 1."""
    return [[(x,) + ZERO[1:] for x in row] for row in m]


def to_cyc_rows(rows: list[list[Vec]], den: int) -> list[list[Cyc]]:
    return [[Cyc(v, den) for v in row] for row in rows]
