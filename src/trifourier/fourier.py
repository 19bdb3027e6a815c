"""The exact Fourier transform on GF(2) function space and its triangular form.

Functions V -> Q are dense vectors of length 2^D indexed by the integer
encoding of the argument.  The transform is
    (phi f)(x) = 2^-d * sum_y (-1)^((x,y)) f(y),
an involution of trace 2^d.  Write G[x, y] = (-1)^((x,y)).  Since
(x, y) = popcount(x & Gram y) mod 2, G f is the Walsh-Hadamard transform of
f o Gram^-1; `sign_transform` computes it with an exact integer fast
transform, O(D 2^D) per column, and every use of G goes through it: phi,
G^2 = 2^D I (`verify_involution`), the intertwining G Z = 2 Z G'
(`verify_z_commutation`) and the closed form below.

On the characteristic function of a subspace E, G gives 2^(dim E) times the
characteristic function of the orthogonal complement.  The change of basis
solves B X = W, where the columns of B are the member indicators and the
columns of W those closed forms.  B peels: while members remain, some vector
lies in exactly one of them.  In that order B is permuted lower
unitriangular, which proves det B = +-1 and yields X by forward
substitution.  `verify_change_of_basis` re-checks the peel order, the
residual W - B X, and the closed form against the transform.

No float is used.  Every int64 computation runs under an explicit bound on
its intermediates (`check_headroom` raises OverflowError past 2^63).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import lcm
from typing import Sequence

import numpy as np

from .bareiss import adjugate
from .family import Family, FamilyStructureError, delta
from .gf2 import Subspace, SymplecticSpace, make_space, perp
from .report import Report
from .taumaps import tau

# CobMatrix.num and the checks hold dense 2^D x 2^D int64 arrays: 128 MiB at
# D = 12, 2 GiB at D = 14.  The command line refuses the Fourier path above this.
MAX_DENSE_DIM = 12
# Columns per block in the transform checks: about 2^18 int64 entries (2 MiB),
# which keeps the butterflies near the cache and the temporaries small.
_BLOCK_ENTRIES = 1 << 18
INT64_MAX = int(np.iinfo(np.int64).max)


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


def characteristic(space: SymplecticSpace, subset) -> list[int]:
    """0/1 indicator vector of a Subspace or an iterable of vectors."""
    values = [0] * (1 << space.dim)
    if isinstance(subset, Subspace):
        subset = subset.vectors()
    for v in subset:
        values[v] = 1
    return values


def delta_function(space: SymplecticSpace, x: int) -> list[int]:
    values = [0] * (1 << space.dim)
    values[x] = 1
    return values


# -- the fast transform -------------------------------------------------------


def _gram_inverse(space: SymplecticSpace) -> np.ndarray:
    """perm with perm[Gram y] = y, so that f[perm] is f o Gram^-1.

    The Gram map must be a bijection (the pairing is nondegenerate); G f =
    WHT(f o Gram^-1) rests on it, so it is checked here.
    """
    ys = np.arange(1 << space.dim, dtype=np.int64)
    images = np.zeros_like(ys)
    for j, row in enumerate(space.gram):
        images ^= ((ys >> j) & 1) * row
    perm = np.zeros_like(ys)
    perm[images] = ys
    if not np.array_equal(images[perm], ys):
        raise ValueError(f"the pairing of {space} is degenerate")
    return perm


def sign_transform(space: SymplecticSpace, f: np.ndarray) -> np.ndarray:
    """G @ f exactly, for an integer array f with 2^D rows.

    Butterflies of the Walsh-Hadamard transform on f o Gram^-1.  Each of the
    D stages at most doubles the largest entry, so int64 input is refused
    (OverflowError) when max|f| * 2^D passes 2^63; object arrays of Python
    ints are exact at any size.
    """
    out = f[_gram_inverse(space)]
    if out.dtype != object:
        check_headroom(max_abs(out) << space.dim, "sign transform")
    size = out.shape[0]
    half = 1
    while half < size:
        pairs = out.reshape(size // (2 * half), 2, half, -1)
        low = pairs[:, 0].copy()
        pairs[:, 0] += pairs[:, 1]
        pairs[:, 1] = low - pairs[:, 1]
        half *= 2
    return out


def _column_blocks(rows: int, cols: int):
    """(lo, hi) column ranges holding about _BLOCK_ENTRIES entries each."""
    step = max(1, _BLOCK_ENTRIES // rows)
    for lo in range(0, cols, step):
        yield lo, min(cols, lo + step)


def phi(space: SymplecticSpace, values: Sequence) -> list[Fraction]:
    """The transform of an exact function vector, as Fractions."""
    size = 1 << space.dim
    if len(values) != size:
        raise ValueError(f"function vector must have length {size}")
    fracs = [Fraction(v) for v in values]
    den = lcm(*(f.denominator for f in fracs))
    ints = np.array([f.numerator * (den // f.denominator) for f in fracs], dtype=object)
    if max_abs(ints) << space.dim <= INT64_MAX:
        ints = ints.astype(np.int64)
    scale = den << space.half
    return [Fraction(int(v), scale) for v in sign_transform(space, ints)]


def verify_involution(space: SymplecticSpace) -> bool:
    """G @ G == 2^D * I, computed with the transform one block of columns at a time."""
    size = 1 << space.dim
    for lo, hi in _column_blocks(size, size):
        block = np.zeros((size, hi - lo), dtype=np.int64)
        block[np.arange(lo, hi), np.arange(hi - lo)] = 1
        if not np.array_equal(sign_transform(space, sign_transform(space, block)), block << space.dim):
            return False
    return True


# -- the push-up maps -----------------------------------------------------------


def z_map(space: SymplecticSpace, sub_space: SymplecticSpace, i: int, f_prime: Sequence) -> list:
    """Push a function on the smaller space up through the i-th embedding.

    The image of a point mass at y is the sum of the point masses at
    tau_i(y) and tau_i(y) + e_i.  Values stay Python numbers (object array).
    """
    rows = _push_rows(space, sub_space, i)
    size_small = 1 << sub_space.dim
    if len(f_prime) != size_small:
        raise ValueError(f"function vector must have length {size_small}")
    return _push(space, rows, np.array(f_prime, dtype=object)).tolist()


def _push_rows(space: SymplecticSpace, sub_space: SymplecticSpace, i: int) -> tuple[np.ndarray, np.ndarray]:
    """The two rows the i-th push-up gives each point mass y: tau_i(y) and tau_i(y) + e_i."""
    t = np.array(tau(space, sub_space, i).table(), dtype=np.int64)
    return t, t ^ space.circular(i)


def _push(space: SymplecticSpace, rows: tuple[np.ndarray, np.ndarray], f: np.ndarray) -> np.ndarray:
    """Z @ f for the push-up matrix Z with the given rows, without forming Z.

    tau_i is injective (`taumaps.tau` checks it), so neither row array repeats
    an index and a fancy-indexed += adds every term once.
    """
    out = np.zeros((1 << space.dim, *f.shape[1:]), dtype=f.dtype)
    for r in rows:
        out[r] += f
    return out


def z_matrix(space: SymplecticSpace, sub_space: SymplecticSpace, i: int) -> np.ndarray:
    """The 0/1 matrix of the i-th push-up map on point masses."""
    return _push(space, _push_rows(space, sub_space, i), np.eye(1 << sub_space.dim, dtype=np.int64))


def verify_z_commutation(dim: int) -> Report:
    """The push-up maps intertwine the two transforms: G Z = 2 Z G'."""
    rep = Report(f"z-commutation D={dim}")
    v = make_space(dim)
    vp = make_space(dim - 2)
    ident = np.eye(1 << vp.dim, dtype=np.int64)
    g_small = sign_transform(vp, ident)
    for i in range(1, dim + 2):
        rows = _push_rows(v, vp, i)
        ok = all(
            np.array_equal(sign_transform(v, _push(v, rows, ident[:, lo:hi])), 2 * _push(v, rows, g_small[:, lo:hi]))
            for lo, hi in _column_blocks(1 << dim, 1 << vp.dim)
        )
        rep.require(f"i={i}", ok)
    return rep


# -- the basis matrix ---------------------------------------------------------------


def basis_matrix(family: Family) -> np.ndarray:
    """Columns are the characteristic functions of the family members."""
    size = 1 << family.dim
    mat = np.zeros((size, len(family)), dtype=np.int64)
    for j, ent in enumerate(family.entries):
        for v in ent.subspace.vectors():
            mat[v, j] = 1
    return mat


def integer_inverse(mat: np.ndarray) -> np.ndarray:
    """Exact inverse of a unimodular integer matrix, det * adj with det = +-1.

    With `basis_matrix` it is a dense reference for the peel solve, off the
    command-line path.  Raises ValueError when det != +-1: no integer
    inverse exists.
    """
    det, adj = adjugate(mat.tolist())
    if det not in (1, -1):
        raise ValueError(f"det = {det}; matrix is not unimodular")
    return int_array([[det * v for v in row] for row in adj]).reshape(mat.shape)


def _supports(subspaces: list[Subspace]) -> tuple[np.ndarray, np.ndarray]:
    """CSR form (starts, vecs): the vectors of subspaces[j] are vecs[starts[j]:starts[j+1]]."""
    starts = np.zeros(len(subspaces) + 1, dtype=np.int64)
    np.cumsum([1 << s.dim for s in subspaces], out=starts[1:])
    vecs = np.fromiter(chain.from_iterable(s.vectors() for s in subspaces), np.int64, int(starts[-1]))
    return starts, vecs


def member_supports(family: Family) -> tuple[np.ndarray, np.ndarray]:
    """The columns of the basis matrix in CSR form (see `_supports`)."""
    return _supports([e.subspace for e in family.entries])


def _closed_forms(family: Family) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The right-hand sides W in CSR form, with column weights: column r is 2^(dim E_r)
    on the orthogonal complement of E_r, the closed form of G applied to member r."""
    starts, vecs = _supports([perp(family.space, e.subspace) for e in family.entries])
    return starts, vecs, np.array([1 << e.dim for e in family.entries], dtype=np.int64)


def _segments(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenated index ranges starts[k] .. starts[k] + counts[k] - 1."""
    offsets = np.cumsum(counts) - counts
    return np.arange(int(counts.sum()), dtype=np.int64) + np.repeat(starts - offsets, counts)


def _dense_columns(starts: np.ndarray, vecs: np.ndarray, weights: np.ndarray, size: int, lo: int, hi: int) -> np.ndarray:
    """Columns lo..hi-1 of the dense matrix whose column j is weights[j] on CSR entry j."""
    counts = starts[lo + 1 : hi + 1] - starts[lo:hi]
    block = np.zeros((size, hi - lo), dtype=np.int64)
    block[vecs[starts[lo] : starts[hi]], np.repeat(np.arange(hi - lo), counts)] = np.repeat(weights[lo:hi], counts)
    return block


def _summed(keys: np.ndarray, vals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sparse sum: the distinct keys with a nonzero total, ascending, and their totals."""
    order = np.argsort(keys, kind="stable")
    keys, vals = keys[order], vals[order]
    if not keys.size:
        return keys, vals
    firsts = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]])
    sums = np.add.reduceat(vals, firsts)
    keep = sums != 0
    return keys[firsts][keep], sums[keep]


# -- the peel solve ---------------------------------------------------------------


def peel_order(starts: np.ndarray, vecs: np.ndarray, size: int) -> np.ndarray:
    """Peel the 0/1 matrix with `size` rows whose column j has ones at rows vecs[starts[j]:starts[j+1]].

    While columns remain, take a row that lies in exactly one remaining
    column and remove that column.  Returns the (row, column) pairs in peel
    order; in that order the matrix is lower unitriangular, so a complete
    peel proves det = +-1.  Raises FamilyStructureError when the peel stalls.
    """
    cols = len(starts) - 1
    members = [vecs[starts[j] : starts[j + 1]].tolist() for j in range(cols)]
    holders: list[list[int]] = [[] for _ in range(size)]
    for j, vs in enumerate(members):
        for v in vs:
            holders[v].append(j)
    count = [len(h) for h in holders]
    alive = [True] * cols
    ready = [v for v in range(size) if count[v] == 1]
    order = []
    while ready:
        v = ready.pop()
        if count[v] != 1:
            continue
        j = next(m for m in holders[v] if alive[m])
        alive[j] = False
        order.append((v, j))
        for u in members[j]:
            count[u] -= 1
            if count[u] == 1:
                ready.append(u)
    if len(order) != cols or cols != size:
        raise FamilyStructureError(
            f"basis matrix does not peel: {len(order)} of {cols} columns peeled, {size} rows"
        )
    return np.array(order, dtype=np.int64).reshape(-1, 2)


def peel_solve(starts: np.ndarray, vecs: np.ndarray, rhs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """X with B X = rhs exactly, B the 0/1 matrix of `peel_order`, and the peel order.

    Forward substitution in peel order keeps the residual rhs - B X: step
    (v, j) takes X[j] = residual[v] and subtracts it from the rows of
    column j.  A running bound on every residual entry is checked against
    int64 before each step.  The residual must end identically zero.
    """
    order = peel_order(starts, vecs, rhs.shape[0])
    residual = rhs.astype(np.int64)  # a copy
    x = np.zeros((len(starts) - 1, rhs.shape[1]), dtype=np.int64)
    bound = max_abs(residual)
    for v, j in order.tolist():
        nz = np.flatnonzero(residual[v])
        if not nz.size:
            continue
        vals = residual[v, nz]
        x[j, nz] = vals
        bound += max_abs(vals)
        check_headroom(bound, "peel solve")
        residual[np.ix_(vecs[starts[j] : starts[j + 1]], nz)] -= vals
    if residual.any():
        raise FamilyStructureError("peel solve left a nonzero residual")
    return x, order


# -- the change of basis -----------------------------------------------------


@dataclass
class CobMatrix:
    """Exact change-of-basis matrix in the family basis.

    num[r, c] / den is the coefficient of member c in the transform of the
    characteristic function of member r.  The basis order is the family's
    canonical order: dimension ascending, ties by echelon rows.  `peel` holds
    the (vector, member) pairs of the peel order that solved for it.
    """

    family: Family
    num: np.ndarray
    den: int
    peel: np.ndarray

    @property
    def size(self) -> int:
        return len(self.family)

    def entry(self, r: int, c: int) -> Fraction:
        return Fraction(int(self.num[r, c]), self.den)

    def diagonal(self) -> list[Fraction]:
        return [self.entry(i, i) for i in range(self.size)]

    def row(self, r: int) -> list[Fraction]:
        return [self.entry(r, c) for c in range(self.size)]

    def trace(self) -> Fraction:
        return Fraction(sum(np.diagonal(self.num).tolist()), self.den)

    def _entry_strings(self) -> list[list[str]]:
        """Every entry as its reduced fraction string, through a table of the distinct values."""
        values, inverse = np.unique(self.num, return_inverse=True)
        table = np.array([str(Fraction(v, self.den)) for v in values.tolist()], dtype=object)
        return table[inverse.reshape(self.num.shape)].tolist()

    def to_json(self) -> dict:
        fam = self.family
        from .family import entry_compact

        return {
            "dim": fam.dim,
            "order": [
                {"index": e.index, "dim": e.dim, "label": entry_compact(e, fam.dim)}
                for e in fam.entries
            ],
            "entries": self._entry_strings(),
        }

    def to_csv(self) -> str:
        from .family import entry_compact

        labels = [entry_compact(e, self.family.dim) for e in self.family.entries]
        lines = ["," + ",".join(f'"{lab}"' for lab in labels)]
        for lab, row in zip(labels, self._entry_strings()):
            lines.append(f'"{lab}",' + ",".join(row))
        return "\n".join(lines) + "\n"


def change_of_basis(family: Family) -> CobMatrix:
    """Solve for the transform's matrix in the family basis, exactly.

    The transform of member r's characteristic function is
    2^(dim - d) * (indicator of the orthogonal complement); the peel solve
    expands those indicators in the family basis, with integer numerators
    over the single denominator 2^d.
    """
    size = 1 << family.dim
    pstarts, pvecs, scale = _closed_forms(family)
    rhs = _dense_columns(pstarts, pvecs, scale, size, 0, len(family))
    starts, vecs = member_supports(family)
    x, order = peel_solve(starts, vecs, rhs)
    return CobMatrix(family, x.T, 1 << family.half, order)


def _is_peel_order(order: np.ndarray, starts: np.ndarray, vecs: np.ndarray, size: int) -> bool:
    """True iff `order` makes the basis matrix lower unitriangular (so det = +-1).

    Every vector and every member appears once; each member contains the
    vector of its own step, and no vector of a member is peeled before that
    member's step.
    """
    steps = np.arange(size)
    if order.shape != (size, 2) or len(starts) - 1 != size:
        return False
    if not (np.array_equal(np.sort(order[:, 0]), steps) and np.array_equal(np.sort(order[:, 1]), steps)):
        return False
    vec_step = np.empty(size, dtype=np.int64)
    vec_step[order[:, 0]] = steps
    member_step = np.empty(size, dtype=np.int64)
    member_step[order[:, 1]] = steps
    own = np.repeat(member_step, np.diff(starts))
    peeled = vec_step[vecs]
    return bool((peeled >= own).all() and np.count_nonzero(peeled == own) == size)


def _closed_form_mismatch(fam: Family, starts, vecs, pstarts, pvecs, scale) -> int | None:
    """The first member whose indicator the raw transform does not send to its closed form."""
    size = 1 << fam.dim
    ones = np.ones(len(fam), dtype=np.int64)
    for lo, hi in _column_blocks(size, len(fam)):
        image = sign_transform(fam.space, _dense_columns(starts, vecs, ones, size, lo, hi))
        wrong = np.flatnonzero((image != _dense_columns(pstarts, pvecs, scale, size, lo, hi)).any(axis=0))
        if wrong.size:
            return lo + int(wrong[0])
    return None


def verify_change_of_basis(cob: CobMatrix) -> Report:
    """Peel certificate, solve residual, closed form, triangularity, diagonal signs,
    trace, eigenvalue count and involution, each over the nonzeros of the matrix."""
    fam = cob.family
    d = fam.half
    n = cob.size
    size = 1 << fam.dim
    rep = Report(f"change-of-basis D={fam.dim}")
    num = cob.num
    rows, cols = np.nonzero(num)
    vals = num[rows, cols]
    starts, vecs = member_supports(fam)
    pstarts, pvecs, scale = _closed_forms(fam)

    rep.require("basis-peelable", _is_peel_order(cob.peel, starts, vecs, size))

    # B X = W with X = num^T: entry (r, c) puts num[r, c] on every vector of member c in column r
    counts = np.diff(starts)[cols]
    check_headroom(max_abs(vals) * n, "solve residual")
    got = _summed(vecs[_segments(starts[cols], counts)] * n + np.repeat(rows, counts), np.repeat(vals, counts))
    pcounts = np.diff(pstarts)
    want = _summed(pvecs * n + np.repeat(np.arange(n), pcounts), np.repeat(scale, pcounts))
    same = all(np.array_equal(a, b) for a, b in zip(got, want))
    rep.require("solve-residual", same, "W - B X is not zero")

    bad_member = _closed_form_mismatch(fam, starts, vecs, pstarts, pvecs, scale)
    rep.require("closed-form", bad_member is None, f"member {bad_member}")

    dims = np.array([e.dim for e in fam.entries], dtype=np.int64)
    bad = np.flatnonzero((rows != cols) & (dims[cols] <= dims[rows]))[:3]
    rep.require("triangular", not bad.size, f"violations at {list(zip(rows[bad].tolist(), cols[bad].tolist()))}")
    diag = np.diagonal(num)
    expect = np.array([delta(d - k) for k in dims.tolist()], dtype=np.int64) * cob.den
    rep.require("diagonal signs", bool(np.array_equal(diag, expect)))
    rep.require("trace", cob.trace() == 2**d, f"trace={cob.trace()}")
    plus = int(np.count_nonzero(diag == cob.den))
    expect_plus = 2 ** (fam.dim - 1) + 2 ** (d - 1) if fam.dim else 1
    rep.require("plus-count", plus == expect_plus, f"{plus} != {expect_plus}")

    # M^2 = den^2 I: entry (r, k) pairs with every nonzero (k, c) of row k
    row_starts = np.searchsorted(rows, np.arange(n + 1))
    row_counts = np.diff(row_starts)
    pos = _segments(row_starts[cols], row_counts[cols])
    check_headroom(max_abs(vals) ** 2 * n, "involution")
    keys, sums = _summed(np.repeat(rows, row_counts[cols]) * n + cols[pos], np.repeat(vals, row_counts[cols]) * vals[pos])
    square_ok = np.array_equal(keys, np.arange(n) * (n + 1)) and bool((sums == cob.den * cob.den).all())
    rep.require("involution", square_ok)
    return rep
