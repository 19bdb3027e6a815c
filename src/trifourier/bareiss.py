"""Exact determinant and adjugate of an integer matrix by fraction-free elimination.

Bareiss's integer-preserving Gauss-Jordan elimination (Math. Comp. 22,
1968) on [M | I]: step k replaces every other row r by
    (p_k * r - r[k] * pivot row) / p_(k-1),
p_k the k-th pivot.  After step k every entry is a minor of order k + 1 of
[M | I], so each division is exact and every intermediate is an integer.
The finished left block is p_n I with p_n = +-det M, and the right block is
p_n M^-1.  Plain Python ints, so entries of any size stay exact.
"""

from __future__ import annotations


def adjugate(mat) -> tuple[int, list[list[int]]]:
    """(det, adj) for a square integer matrix given as rows, with adj . mat == det . I.

    For an invertible matrix adj is the adjugate, det * mat^-1.  For a
    singular one det is 0 and adj is the zero matrix.
    """
    n = len(mat)
    rows = [[int(v) for v in row] + [int(i == j) for j in range(n)] for i, row in enumerate(mat)]
    if any(len(row) != 2 * n for row in rows):
        raise ValueError("matrix is not square")
    sign, prev = 1, 1
    for k in range(n):
        p = next((r for r in range(k, n) if rows[r][k]), None)
        if p is None:
            return 0, [[0] * n for _ in range(n)]
        if p != k:
            rows[k], rows[p] = rows[p], rows[k]
            sign = -sign
        pivot_row = rows[k]
        pivot = pivot_row[k]
        for i, row in enumerate(rows):
            f = row[k]
            if i != k and (f or pivot != prev):  # any other row is left unchanged
                rows[i] = [(pivot * a - f * b) // prev for a, b in zip(row, pivot_row)]
        prev = pivot
    return sign * prev, [[sign * v for v in row[n:]] for row in rows]
