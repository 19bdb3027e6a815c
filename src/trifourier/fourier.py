"""The exact Fourier transform on GF(2) function space and its triangular form.

Functions V -> Q are vectors of length 2^D indexed by the integer encoding
of the argument.  The transform is
    (phi f)(x) = 2^-d * sum_y (-1)^((x,y)) f(y),
an involution of trace 2^d.  Write G[x, y] = (-1)^((x,y)).  Since
(x, y) = popcount(x & Gram y) mod 2, G f is the Walsh-Hadamard transform of
f o Gram^-1; `sign_transform` computes it with integer butterflies, O(D 2^D)
additions.

G sends the indicator of a subspace E to 2^(dim E) times the indicator of
its orthogonal complement.  The change of basis X expands those closed
forms in the family basis: B X = W, the columns of B the member indicators
and those of W the closed forms.  `expansion_rows` builds it by the paper's
recursion: the pushes of the (D-2)-rows through tau_1..tau_{D+1} (`push_up`)
give every row but the zero member's and must agree; the zero row, which
expands 1_V, is one right-hand side through a peel order of B, which makes
B lower unitriangular and proves det B = +-1 (`peel_order`).

`verify_change_of_basis` checks the result on its own at every D: the peel
certificate, the recursion's induction from D = 0, where B = X = W = [1]
(`lemma_checks`), and the triangular form, signs, trace and M^2 over the
nonzeros.  The induction uses G G = 2^k I and G Z_i = 2 Z_i G' at every level
k <= D; they follow from each level's Gram table and maps, which
`verify_z_commutation` checks once each.  No check builds a 2^D x 2^D
product.  Every value is a Python int or Fraction: nothing is rounded and
nothing overflows.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from itertools import islice
from math import lcm
from operator import add, sub
from typing import TYPE_CHECKING, Iterator, Sequence

from . import taumaps
from .family import Family, FamilyStructureError, delta, entry_compact, family_subspaces, pushes
from .gf2 import SymplecticSpace, bits_of, make_space, span_vectors
from .report import Report, fraction_string

if TYPE_CHECKING:
    from fractions import Fraction

# The change of basis has 2^D x 2^D entries: 16.8M at D = 12, 268M at
# D = 14.  The command line refuses the matrix export above this.
MAX_DENSE_DIM = 12


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
    tau_i's image misses e_i, which `family.pushes` checks for each i.
    Raises FamilyStructureError naming the member when two pushes give it
    different rows.
    """
    rows: dict[int, dict[int, int]] = {}
    for i in range(1, dim + 2):
        pushed = pushes(dim, i)
        for key, row in below.items():
            new = {pushed[c]: 2 * v for c, v in row.items()}
            first = rows.setdefault(pushed[key], new)
            if first is not new and first != new:
                raise FamilyStructureError(
                    f"member {make_space(dim).interval_span(pushed[key]).rows} at D={dim}: its push through tau_{i} "
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


# -- the certificate: the recursion's induction ---------------------------------
# Each check is one line that names the first failing level or map.  The
# certificate reads the maps through `taumaps.tau`, the recursion through
# `family.pushes`: a map substituted in `taumaps` reaches the checks, not the cached rows.


def verify_involution(space: SymplecticSpace) -> tuple[bool, str]:
    """G G = 2^D I, as (ok, details): `space.forms`, the table `sign_transform` reads through
    `gram_inverse`, is the span table of the Gram rows, alternating and a bijection.

    Then (G G)[x, z] = sum_y (-1)^(y . (forms[x] + forms[z])) = 2^D [x = z].
    """
    forms = space.forms
    if forms != span_vectors(space.gram):
        return False, "forms is not the span table of the Gram rows"
    bad = next((x for x, f in enumerate(forms) if (x & f).bit_count() & 1), None)
    if bad is not None:
        return False, f"the pairing is not alternating: (x, x) = 1 at x = {bad}"
    if len(set(forms)) != len(forms):
        return False, "forms is not a bijection"
    return True, ""


def verify_z_commutation(dim: int) -> Report:
    """The lemmas that G G = 2^k I and G Z_i = 2 Z_i G' rest on, at every level k of
    the induction, each one check naming the first level or map that fails it.

    lemma:involution-from-gram: at every k = 0..D the Gram table is the span
    table of the Gram rows, alternating and a bijection (`verify_involution`).
    lemma:preserves-form and lemma:complement: at every k = 2..D every tau_i
    preserves the form, and its image is a complement of F2 e_i in the perp of
    e_i.  On a point mass at y both sides of G Z_i = 2 Z_i G' are then
    2 (-1)^((x, tau_i y)) on the perp of e_i and 0 off it.
    """
    rep = Report("fourier")
    faults = ((k, verify_involution(make_space(k))) for k in range(0, dim + 1, 2))
    fault = next((f"D={k}: {details}" for k, (ok, details) in faults if not ok), "")
    rep.require("lemma:involution-from-gram", not fault, fault)
    maps = [(sp, i, taumaps.tau(sp, i)) for sp in map(make_space, range(2, dim + 1, 2)) for i in range(1, sp.dim + 2)]
    broken = next((f"tau_{i} D={sp.dim}" for sp, i, m in maps if not taumaps.preserves_form(sp, m)), "")
    rep.require("lemma:preserves-form", not broken, broken)
    not_complement = next((f"tau_{i} D={sp.dim}" for sp, i, m in maps if not taumaps.check_complement(sp, m, i)), "")
    rep.require("lemma:complement", not not_complement, not_complement)
    return rep


def lemma_checks(cob: CobMatrix) -> list[tuple[str, bool, str]]:
    """The induction that proves B X = W, as (check, ok, details).

    The lemmas of `verify_z_commutation` give G G = 2^k I and G Z_i = 2 Z_i G'
    at every level k = 0..D, so the push of a (k-2)-row is the row of the
    pushed member; `push_up` made the pushes agree as it built each level, and
    every row but the zero member's must be the cached level's.  At every
    level k = 0..D the zero row expands 1_V.
    """
    fam = cob.family
    keys = [e.key for e in fam.entries]
    checks = [(c.check_id, c.ok, c.details) for c in verify_z_commutation(fam.dim).checks]

    def by_key(r: int) -> dict[int, int]:
        return {keys[c]: v for c, v in cob.num[r].items()}

    rows = expansion_rows(fam.dim)
    bad = next((r for r, key in enumerate(keys) if key and rows.get(key) != by_key(r)), None)
    details = "" if bad is None else f"member {fam.entries[bad].subspace.rows} differs from its pushes"
    checks.append(("lemma:push-agreement", bad is None, details))

    for k in range(0, fam.dim + 1, 2):
        got, vectors = [0] * (1 << k), make_space(k).interval_vectors
        for key, v in (expansion_rows(k)[0] if k < fam.dim else by_key(fam.index_of_key[0])).items():
            for u in span_vectors(vectors[b] for b in bits_of(key)):  # a member's intervals are independent
                got[u] += v
        if got != [1] * len(got):
            break
    checks.append(("lemma:zero-row-residual", got == [1] * len(got), f"B x - 1_V is not zero at D={k}"))
    return checks


def verify_change_of_basis(cob: CobMatrix) -> Report:
    """Peel certificate, the recursion's induction (`lemma_checks`), triangularity,
    diagonal signs, trace, eigenvalue count and involution, each over the nonzeros
    of the matrix."""
    fam = cob.family
    d = fam.half
    rep = Report(f"change-of-basis D={fam.dim}")
    num = cob.num

    rep.require("basis-peelable", _is_peel_order(cob.peel, cob.members, cob.size))
    for check, ok, details in lemma_checks(cob):
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
