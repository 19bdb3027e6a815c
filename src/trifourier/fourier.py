"""The exact Fourier transform on GF(2) function space and its triangular form.

Functions V -> Q are vectors of length 2^D indexed by the integer encoding
of the argument.  The transform is
    (phi f)(x) = 2^-d * sum_y (-1)^((x,y)) f(y),
an involution of trace 2^d.  Write G[x, y] = (-1)^((x,y)).  Since
(x, y) = popcount(x & Gram y) mod 2, G f is the Walsh-Hadamard transform of
f o Gram^-1; `sign_transform` computes it with integer butterflies, O(D 2^D)
additions, and every use of G goes through it.  The butterflies only add
and subtract, so they transform a whole matrix at once when each of its
rows is packed into one int by Kronecker substitution (`_Fields`); each
check states the bound on every field that sets the field width.

G sends the indicator of a subspace E to 2^(dim E) times the indicator of
its orthogonal complement.  The change of basis X expands those closed
forms in the family basis: B X = W, the columns of B the member indicators
and those of W the closed forms.  `expansion_rows` builds it by the paper's
recursion: the pushes of the (D-2)-rows through tau_1..tau_{D+1} (`push_up`)
give every row but the zero member's and must agree; the zero row, which
expands 1_V, is one right-hand side through a peel order of B, which makes
B lower unitriangular and proves det B = +-1 (`peel_order`).

`verify_change_of_basis` checks the result on its own: the peel
certificate, then up to MAX_DENSE_DIM the residual W - B X and the closed
form against the transform, above it the recursion's induction from D = 0
(`trifourier.lemmas`), and the triangular form, signs, trace and M^2 over
the nonzeros.  Every value is a Python int or Fraction: nothing is rounded
and nothing overflows.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from itertools import islice
from math import lcm
from operator import add, sub
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

from .family import Family, FamilyStructureError, delta, entry_compact, family_subspaces
from .gf2 import SymplecticSpace, bits_of, make_space, span_vectors
from .report import Report, fraction_string
from .taumaps import check_complement, push_key, tau

if TYPE_CHECKING:
    from fractions import Fraction

# The change of basis has 2^D x 2^D entries and the dense checks transform
# 2^D rows of 2^D fields each: 16.8M entries at D = 12, 268M at D = 14.  The
# command line refuses the matrix export above this, and `verify` checks
# lemmas in place of the dense checks, G G = 2^D I and G Z = 2 Z G'.
MAX_DENSE_DIM = 12


class _Fields:
    """Rows of `count` integer fields, each row packed into one int.

    Field j holding c adds c * 2^(bits * j).  The width is the least whole
    number of bytes with 2^(bits - 1) > bound, for a bound on |c| over every
    field of every row compared: two fields then differ by less than
    2^bits, so two packed rows are equal exactly when every field is.
    """

    def __init__(self, bound: int, count: int):
        self.width = w = (bound.bit_length() + 8) // 8
        self.bits = 8 * w
        self._half = 1 << (self.bits - 1)
        # every field biased by 2^(bits - 1) is nonnegative; one subtraction per row takes it off
        self._zero = (bytes(w - 1) + b"\x80") * count
        self._bias = int.from_bytes(self._zero, "little")

    def unit(self, j: int) -> int:
        """The row with 1 in field j and 0 elsewhere."""
        return 1 << (self.bits * j)

    def rows(self, count: int, columns: Iterable[tuple[int, Iterable[int], int]]) -> list[int]:
        """`count` packed rows from (field, rows, value) triples: each of those rows holds
        value in that field, and every other field is 0.  Each (row, field) is given at most once.

        The rows are filled as bytearrays: adding a shifted value to a packed
        int would copy the whole row for every entry.
        """
        bufs = [bytearray(self._zero) for _ in range(count)]
        w = self.width
        for j, ks, c in columns:
            lo, piece = w * j, (c + self._half).to_bytes(w, "little")
            for k in ks:
                bufs[k][lo : lo + w] = piece
        return [int.from_bytes(buf, "little") - self._bias for buf in bufs]

    def first_difference(self, a: Sequence[int], b: Sequence[int]) -> int | None:
        """The lowest field in which some row of a differs from the same row of b.

        The lowest set bit of x ^ y is the lowest bit in which x and y differ,
        which lies in the lowest differing field.
        """
        diffs = [x ^ y for x, y in zip(a, b) if x != y]
        return min(((x & -x).bit_length() - 1) // self.bits for x in diffs) if diffs else None


# -- the fast transform -------------------------------------------------------


def sign_transform(space: SymplecticSpace, f: Sequence[int]) -> list[int]:
    """G f exactly, for 2^D ints: the values of one function, or packed rows of a matrix.

    Butterflies of the Walsh-Hadamard transform on f o Gram^-1, with Gram^-1
    from `SymplecticSpace.gram_inverse`, which checks the pairing is nondegenerate.
    """
    size = 1 << space.dim
    if len(f) != size:
        raise ValueError(f"function vector must have length {size}")
    out = [f[y] for y in space.gram_inverse]
    half = 1
    while half < size:
        for lo in range(0, size, 2 * half):
            mid, hi = lo + half, lo + 2 * half
            low, high = out[lo:mid], out[mid:hi]
            out[lo:mid] = map(add, low, high)
            out[mid:hi] = map(sub, low, high)
        half *= 2
    return out


def phi(space: SymplecticSpace, values: Sequence) -> list[Fraction]:
    """The transform of an exact function vector, as Fractions."""
    from fractions import Fraction

    fracs = [Fraction(v) for v in values]  # sign_transform refuses a vector of the wrong length
    den = lcm(*(f.denominator for f in fracs))
    scale = den << space.half
    image = sign_transform(space, [f.numerator * (den // f.denominator) for f in fracs])
    return [Fraction(v, scale) for v in image]


def verify_involution(space: SymplecticSpace) -> bool:
    """G G == 2^D I, on the rows of I packed one int per row.

    G is +-1, so every field of G G I is at most 2^D in absolute value, as is
    every field of 2^D I.  At D = 12 each packed array holds 32 MB.
    """
    size = 1 << space.dim
    fields = _Fields(size, size)
    ident = [fields.unit(j) for j in range(size)]
    return sign_transform(space, sign_transform(space, ident)) == [x << space.dim for x in ident]


# -- the push-up maps -----------------------------------------------------------


def z_map(space: SymplecticSpace, i: int, f_prime: Sequence) -> list:
    """Z f' for the i-th push-up Z, on values that add: numbers, or packed rows.

    The image of a point mass at y is the sum of the point masses at
    tau_i(y) and tau_i(y) + e_i.
    """
    size_small = 1 << (space.dim - 2)
    if len(f_prime) != size_small:
        raise ValueError(f"function vector must have length {size_small}")
    e = space.circular(i)
    out = [0] * (1 << space.dim)
    for t, value in zip(tau(space, i).table(), f_prime):
        out[t] += value
        out[t ^ e] += value
    return out


def verify_z_commutation(dim: int) -> Report:
    """The push-up maps intertwine the two transforms: G Z = 2 Z G', on the packed rows of I'.

    Each column of Z holds two ones and, tau_i being injective, each row at
    most two; so every field of G Z I' is at most 2 in absolute value and
    every field of 2 Z G' I' at most 4.
    """
    rep = Report(f"z-commutation D={dim}")
    v = make_space(dim)
    vp = make_space(dim - 2)
    fields = _Fields(4, 1 << vp.dim)
    ident = [fields.unit(j) for j in range(1 << vp.dim)]
    g_small = sign_transform(vp, ident)
    for i in range(1, dim + 2):
        lhs = sign_transform(v, z_map(v, i, ident))
        rep.require(f"i={i}", lhs == [2 * x for x in z_map(v, i, g_small)])
    return rep


# -- the dense reference ------------------------------------------------------------


def basis_matrix(family: Family) -> list[list[int]]:
    """Columns are the characteristic functions of the family members."""
    mat = [[0] * len(family) for _ in range(1 << family.dim)]
    for j, ent in enumerate(family.entries):
        for v in ent.subspace.vectors():
            mat[v][j] = 1
    return mat


def integer_inverse(mat: list[list[int]]) -> list[list[int]]:
    """Exact inverse of a unimodular integer matrix, det * adj with det = +-1.

    With `basis_matrix` it is a dense reference for the peel solve, off the
    command-line path.  Raises ValueError when det != +-1: no integer
    inverse exists.
    """
    from .bareiss import adjugate

    det, adj = adjugate(mat)
    if det not in (1, -1):
        raise ValueError(f"det = {det}; matrix is not unimodular")
    return [[det * v for v in row] for row in adj]


# -- the peel order ---------------------------------------------------------------


def peel_order(members: list[list[int]], size: int) -> list[tuple[int, int]]:
    """Peel the 0/1 matrix with `size` rows whose column j has ones at the rows members[j].

    While columns remain, take a row that lies in exactly one remaining
    column and remove that column.  Returns the (row, column) pairs in peel
    order; in that order the matrix is lower unitriangular, so a complete
    peel proves det = +-1.  Raises FamilyStructureError when the peel stalls.
    """
    cols = len(members)
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
    return order


# -- the recursion -------------------------------------------------------------


@lru_cache(maxsize=None)
def zero_row_solve(dim: int) -> tuple[dict[int, int], list[tuple[int, int]]]:
    """The zero member's row by key, the expansion of G 1_{0} = 1_V in the
    family basis, and the (vector, member key) pairs of the peel order it
    was solved through.

    One right-hand side through the peel order: step (v, j) takes member j's
    coefficient from the residual at v and subtracts it on member j.
    """
    space = make_space(dim)
    keys = sorted(family_subspaces(dim))
    vectors = space.interval_vectors
    # a member's intervals are independent
    members = [span_vectors(vectors[k] for k in bits_of(key)) for key in keys]
    residual = [1] * (1 << dim)
    row = {}
    order = peel_order(members, 1 << dim)
    for v, j in order:
        value = residual[v]
        if value:
            row[keys[j]] = value
            for u in members[j]:
                residual[u] -= value
    return row, [(v, keys[j]) for v, j in order]


def push_up(dim: int, below: dict[int, dict[int, int]]) -> dict[int, dict[int, int]]:
    """The rows of the nonzero D-members by key, pushed up from the (D-2)-rows `below`.

    The row of push_i(E') is the row of E' with each column pushed the same
    way and each numerator doubled: G Z_i = 2 Z_i G', and 2^d is twice
    2^(d-1).  Z_i sends the indicator of E' to that of push_i(E') since
    tau_i's image misses e_i, which `check_complement` shows for each i.
    Raises FamilyStructureError naming the member when two pushes give it
    different rows.
    """
    space = make_space(dim)
    rows: dict[int, dict[int, int]] = {}
    for i in range(1, dim + 2):
        if not check_complement(space, i):
            raise FamilyStructureError(f"the image of tau_{i} at D={dim} is not a complement of e_{i} in its perp")
        table = tau(space, i).key_table()
        ei = space.interval_keys[space.circular(i)]
        pushed = {key: push_key(table, key, ei) for key in below}
        for key, row in below.items():
            new = {pushed[c]: 2 * v for c, v in row.items()}
            first = rows.setdefault(pushed[key], new)
            if first is not new and first != new:
                raise FamilyStructureError(
                    f"member {space.interval_span(pushed[key]).rows} at D={dim}: its push through tau_{i} "
                    f"from {make_space(dim - 2).interval_span(key).rows} gives a row that differs from an earlier push"
                )
    return rows


@lru_cache(maxsize=None)
def expansion_rows(dim: int) -> dict[int, dict[int, int]]:
    """The change of basis for dimension D by interval key: {member key: {column key: numerator}}.

    The numerators are over 2^d.  The nonzero members' rows come from
    `push_up`, the zero member's from `zero_row_solve`.  The dict is cached and
    shared: read it only.
    """
    rows = push_up(dim, expansion_rows(dim - 2)) if dim else {}
    rows[0] = zero_row_solve(dim)[0]
    if rows.keys() != family_subspaces(dim):
        raise FamilyStructureError(f"the pushes and the zero member do not give the D={dim} family")
    return rows


# -- the change of basis -----------------------------------------------------


class CobMatrix:
    """Exact change-of-basis matrix in the family basis.

    num[r][c] / den is the coefficient of member c in the transform of the
    characteristic function of member r; row r of num holds {c: numerator}
    for its nonzeros.  The basis order is the family's canonical order:
    dimension ascending, ties by echelon rows.
    """

    def __init__(self, family: Family, num: list[dict[int, int]], den: int) -> None:
        self.family = family
        self.num = num
        self.den = den

    @cached_property
    def members(self) -> list[list[int]]:
        """The vectors of each member: the columns of the basis matrix."""
        return [list(e.subspace.vectors()) for e in self.family.entries]

    @cached_property
    def peel(self) -> list[tuple[int, int]]:
        """The (vector, member) pairs of the peel order the zero row was solved through, on first use."""
        index = self.family.index_of_key
        return [(v, index[key]) for v, key in zero_row_solve(self.family.dim)[1]]

    @property
    def size(self) -> int:
        return len(self.family)

    def entry(self, r: int, c: int) -> Fraction:
        from fractions import Fraction

        return Fraction(self.num[r].get(c, 0), self.den)

    def trace(self) -> Fraction:
        from fractions import Fraction

        return Fraction(sum(row.get(i, 0) for i, row in enumerate(self.num)), self.den)

    def _entry_strings(self) -> Iterator[list[str]]:
        """Every row as reduced fraction strings: "0", and a table of the distinct nonzero values."""
        table = {v: fraction_string(v, self.den) for v in {v for row in self.num for v in row.values()}}
        for row in self.num:
            cells = ["0"] * self.size
            for c, v in row.items():
                cells[c] = table[v]
            yield cells

    def to_json(self) -> dict:
        """The JSON export's document.  Its entries are a row iterator, to be written once."""
        fam = self.family
        return {
            "dim": fam.dim,
            "order": [
                {"index": e.index, "dim": e.dim, "label": entry_compact(e, fam.dim)}
                for e in fam.entries
            ],
            "entries": self._entry_strings(),
        }

    def to_csv(self) -> Iterator[str]:
        """The CSV text, one line (newline included) at a time."""
        labels = [entry_compact(e, self.family.dim) for e in self.family.entries]
        yield "," + ",".join(f'"{lab}"' for lab in labels) + "\n"
        for lab, row in zip(labels, self._entry_strings()):
            yield f'"{lab}",' + ",".join(row) + "\n"


def _w_columns(family: Family) -> Iterator[tuple[int, list[int], int]]:
    """W by columns (r, vectors, value): column r is 2^(dim E_r) on the orthogonal
    complement of E_r, the closed form of G applied to member r.

    With s_k = x_k + x_(k+1) for k = 0..D (x_0 = x_(D+1) = 0), the pairing
    (x, e_[a,b]) is s_(a-1) + s_b, and the s of every x sums to 0.  So x is
    orthogonal to a member exactly when s agrees on the two points of each
    of its intervals.  The interval joining points p < q is the x of
    s = e_p + e_q, so the perp is spanned by the member and by the intervals
    joining the lowest point that no interval of the member touches to each
    other such point.
    """
    space = family.space
    by_ends = dict(zip(space.interval_ends, space.interval_vectors))
    points = (1 << (family.dim + 1)) - 1
    for r, e in enumerate(family.entries):
        touched = 0
        for k in bits_of(e.key):
            touched |= space.interval_ends[k]
        free = points & ~touched
        first = free & -free
        basis = list(e.subspace.rows)
        basis += (by_ends[first | (1 << p)] for p in bits_of(free ^ first))
        yield r, span_vectors(basis), 1 << e.dim


def change_of_basis(family: Family) -> CobMatrix:
    """The transform's matrix in the family basis, exactly: `expansion_rows` by member index.

    Row r expands 2^(dim E_r) * (indicator of the orthogonal complement), the
    transform of member r's characteristic function times 2^d, in the family
    basis: integer numerators over the single denominator 2^d.
    """
    index = family.index_of_key
    num: list[dict[int, int]] = [{} for _ in range(len(family))]
    for key, row in expansion_rows(family.dim).items():
        num[index[key]] = {index[c]: v for c, v in row.items()}
    return CobMatrix(family, num, 1 << family.half)


def _is_peel_order(order: list[tuple[int, int]], members: list[list[int]], size: int) -> bool:
    """True iff `order` makes the basis matrix lower unitriangular (so det = +-1).

    Every vector and every member appears once; each member contains the
    vector of its own step, and no vector of a member is peeled before that
    member's step.
    """
    if len(order) != size or len(members) != size:
        return False
    vec_step = [-1] * size
    member_step = [-1] * size
    for step, (v, j) in enumerate(order):
        if not (0 <= v < size and 0 <= j < size) or vec_step[v] >= 0 or member_step[j] >= 0:
            return False
        vec_step[v] = member_step[j] = step
    return all(min(vec_step[v] for v in vs) == member_step[j] for j, vs in enumerate(members))


def dense_checks(cob: CobMatrix) -> list[tuple[str, bool, str]]:
    """The residual W - B X and the closed form G B = W, as (check, ok, details)."""
    fam = cob.family
    n = cob.size
    size = 1 << fam.dim
    # Packed over the members r.  Row v of B X sums, over the members c that
    # hold v, the rows X_c = column c of num, so each of its fields is at most
    # n max|num|; each field of G 1_{E_r} is at most |E_r| <= 2^d, and each of
    # W is 2^(dim E_r) <= 2^d.
    num_max = max((abs(v) for row in cob.num for v in row.values()), default=0)
    fields = _Fields(max(n * num_max, 1 << fam.half), n)
    w = fields.rows(size, _w_columns(fam))
    x = fields.rows(n, ((r, (c,), val) for r, row in enumerate(cob.num) for c, val in row.items()))
    bx = [0] * size
    for c, vs in enumerate(cob.members):
        for v in vs:
            bx[v] += x[c]
    residual = ("solve-residual", bx == w, "W - B X is not zero")
    del x, bx  # before the closed form packs another 2^D rows

    indicators = fields.rows(size, ((r, vs, 1) for r, vs in enumerate(cob.members)))
    bad_member = fields.first_difference(sign_transform(fam.space, indicators), w)
    return [residual, ("closed-form", bad_member is None, f"member {bad_member}")]


def verify_change_of_basis(cob: CobMatrix) -> Report:
    """Peel certificate, solve residual, closed form, triangularity, diagonal signs,
    trace, eigenvalue count and involution, each over the nonzeros of the matrix.

    Above MAX_DENSE_DIM the residual and the closed form give way to the
    recursion's induction, `lemmas.lemma_checks`.
    """
    fam = cob.family
    d = fam.half
    rep = Report(f"change-of-basis D={fam.dim}")
    num = cob.num

    rep.require("basis-peelable", _is_peel_order(cob.peel, cob.members, cob.size))
    if fam.dim <= MAX_DENSE_DIM:
        checks = dense_checks(cob)
    else:
        from .lemmas import lemma_checks

        checks = lemma_checks(cob)
    for check, ok, details in checks:
        rep.require(check, ok, details)

    dims = [e.dim for e in fam.entries]
    bad = list(islice(((r, c) for r, row in enumerate(num) for c in sorted(row) if c != r and dims[c] <= dims[r]), 3))
    rep.require("triangular", not bad, f"violations at {bad}")
    diag = [row.get(i, 0) for i, row in enumerate(num)]
    rep.require("diagonal signs", diag == [delta(d - k) * cob.den for k in dims])
    trace_ok = sum(diag) == 2**d * cob.den
    rep.require("trace", trace_ok, "" if trace_ok else f"trace={cob.trace()}")
    plus = diag.count(cob.den)
    expect_plus = 2 ** (fam.dim - 1) + 2 ** (d - 1) if fam.dim else 1
    rep.require("plus-count", plus == expect_plus, f"{plus} != {expect_plus}")

    # M^2 = den^2 I: row r of M^2 sums num[r][k] times row k over the nonzeros of row r
    square = cob.den * cob.den
    square_ok = True
    for r, row in enumerate(num):
        acc: dict[int, int] = {}
        for k, a in row.items():
            for c, b in num[k].items():
                acc[c] = acc.get(c, 0) + a * b
        if {c: v for c, v in acc.items() if v} != {r: square}:
            square_ok = False
            break
    rep.require("involution", square_ok)
    return rep
