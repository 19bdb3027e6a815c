"""Exact arrays over the cyclotomic field, held as integer coefficient slices.

An array over the field of 60th roots of unity is stored as

    (1/den) * sum_k z^k a[k],    k = 0..15,

with `a` an integer numpy array whose leading axis holds the power-basis
coefficients and `den` a positive int.  A product of slices a[i] and b[j]
lands on z^(i+j), i + j <= 30; `fold` maps it back onto z^0..z^15 through
the reduced powers in `cyclotomic._POWERS`.  Complex conjugation sends z^i
to z^(60-i), a constant 16 x 16 integer matrix.

Nothing here rounds and no float is involved.  int64 arithmetic runs only
after an explicit bound on every partial sum has been checked against
2^63 (`check_headroom` raises OverflowError otherwise); a slice product
whose bound does not fit runs in Python ints (object dtype) instead.
"""

from __future__ import annotations

from math import lcm

import numpy as np

from .cyclotomic import DEGREE, N, Cyc, _POWERS

INT64_MAX = int(np.iinfo(np.int64).max)

# FOLD[i, j] = reduced coefficients of z^(i+j);  CONJ[i] = reduced coefficients of z^-i
FOLD = np.array([[_POWERS[i + j] for j in range(DEGREE)] for i in range(DEGREE)], dtype=np.int64)
CONJ = np.array([_POWERS[(N - i) % N] for i in range(DEGREE)], dtype=np.int64)
# the largest sum of |table entries| feeding one output coefficient
FOLD_GAIN = int(np.abs(FOLD).sum(axis=(0, 1)).max())
CONJ_GAIN = int(np.abs(CONJ).sum(axis=0).max())


def check_headroom(bound: int, what: str) -> None:
    """Refuse an int64 computation whose partial sums may reach 2^63 in absolute value."""
    if bound > INT64_MAX:
        raise OverflowError(f"{what}: bound {bound} on an intermediate exceeds int64")


def max_abs(a: np.ndarray) -> int:
    return int(np.abs(a).max()) if a.size else 0


def int_array(rows) -> np.ndarray:
    """Exact integer array from nested lists of ints: int64 when every entry fits, else object."""
    arr = np.array(rows, dtype=object)
    return arr if max_abs(arr) > INT64_MAX else arr.astype(np.int64)


def from_cycs(values: list[Cyc], shape: tuple[int, ...]) -> tuple[np.ndarray, int]:
    """Slices of a flat list of field elements laid out in `shape`, over their common denominator."""
    den = lcm(*(v.den for v in values))
    coeffs = int_array([[c * (den // v.den) for c in v.num] for v in values])
    return np.moveaxis(coeffs.reshape(*shape, DEGREE), -1, 0), den


def rational(m: np.ndarray) -> np.ndarray:
    """Slices of an integer array: m in the z^0 slice, zero elsewhere."""
    out = np.zeros((DEGREE, *m.shape), dtype=m.dtype)
    out[0] = m
    return out


def to_cyc(a: np.ndarray, den: int) -> Cyc:
    """The field element whose 16 slice coefficients are `a`."""
    return Cyc(a.tolist(), den)


def to_cyc_rows(a: np.ndarray, den: int) -> list[list[Cyc]]:
    """A (16, n, m) slice array as n rows of m field elements."""
    return [[Cyc(c, den) for c in row] for row in np.moveaxis(a, 0, -1).tolist()]


def support(a: np.ndarray) -> list[int]:
    """The exponents whose slice is not identically zero."""
    return [k for k in range(DEGREE) if a[k].any()]


def fold(prod: np.ndarray, rows=range(DEGREE), cols=range(DEGREE)) -> np.ndarray:
    """Reduce prod[i, j, ...], the coefficient of z^(rows[i] + cols[j]), to slices out[k, ...]."""
    table = FOLD[np.ix_(rows, cols)]
    if prod.dtype == object:
        table = table.astype(object)
    else:
        check_headroom(max_abs(prod) * FOLD_GAIN, "fold")
    return np.tensordot(table, prod, axes=([0, 1], [0, 1]))


def conj(a: np.ndarray) -> np.ndarray:
    """Slices of the complex conjugate."""
    table = CONJ
    if a.dtype == object:
        table = table.astype(object)
    else:
        check_headroom(max_abs(a) * CONJ_GAIN, "conjugation")
    return np.tensordot(table, a, axes=([0], [0]))


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Slices of A @ B for slice arrays a (16 x n x m) and b (16 x m x p).

    The denominators multiply.  int64 operands stay int64 when a bound on the
    whole product fits; otherwise the product runs in Python ints.
    """
    if a.dtype != object and b.dtype != object:
        if max_abs(a) * max_abs(b) * a.shape[-1] * FOLD_GAIN > INT64_MAX:
            a, b = a.astype(object), b.astype(object)
    elif a.dtype != b.dtype:
        a, b = a.astype(object), b.astype(object)
    rows, cols = support(a), support(b)
    prod = np.matmul(a[rows][:, None], b[cols][None, :])
    return fold(prod, rows, cols)
