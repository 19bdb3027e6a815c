"""Bit-packed GF(2) linear algebra and symplectic spaces with a circular basis.

Vectors live in coordinates e_1..e_D and are stored as Python ints: bit i-1
of a mask is the e_i coordinate.  The extra circular vector e_{D+1} equals
e_1 + ... + e_D and is kept as derived data, so that e_1 + ... + e_{D+1} = 0.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Iterator, NamedTuple

# Cap on the ambient dimension: the function space has 2**D coordinates and
# every check here is meant to run exactly at desk scale.
MAX_DIM = 14


def bits_of(mask: int) -> Iterator[int]:
    """Yield the 0-based positions of the set bits of a mask."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def vector_from_coords(coords: Iterable[int]) -> int:
    """Pack an ordered 0/1 coordinate sequence (e_1 first) into a mask."""
    mask = 0
    for pos, c in enumerate(coords):
        if c & 1:
            mask |= 1 << pos
    return mask


class SymplecticSpace:
    """GF(2) space of even dimension D with the circularly-adjacent pairing.

    The Gram matrix in coordinates e_1..e_D has (e_i, e_j) = 1 exactly when
    i - j = +-1 mod D+1; it is alternating and nondegenerate.
    """

    def __init__(self, dim: int) -> None:
        if dim < 0 or dim % 2 != 0:
            raise ValueError(f"dimension must be even and >= 0, got {dim}")
        if dim > MAX_DIM:
            raise ValueError(f"dimension {dim} exceeds the configured cap {MAX_DIM}")
        self.dim = dim
        self.half = dim // 2
        n = dim + 1
        self.gram = tuple(
            vector_from_coords(
                1 if (i - j) % n in (1, n - 1) else 0 for j in range(dim)
            )
            for i in range(dim)
        )
        # forms[v] is Gram v, by doubling over the bits of v: 2^D ints, 16,384 at D = 14
        forms = [0]
        for row in self.gram:
            forms += [x ^ row for x in forms]
        self.forms = forms
        # The D(D+1)/2 intervals [a, b] of [1, D] in (a, b) order.  A family
        # member travels as its key: bit k is set when interval k is in its
        # interval basis.  e_[a,b] = p_(a-1) + p_b for the prefix sums
        # p_k = e_1 + ... + e_k, so the interval joins the points a-1 and b
        # of 0..D; interval_ends[k] has the bits of its two points.
        self.intervals = tuple(IntervalLabel(a, b) for a in range(1, dim + 1) for b in range(a, dim + 1))
        self.interval_vectors = tuple(((1 << b) - 1) ^ ((1 << (a - 1)) - 1) for a, b in self.intervals)
        self.interval_ends = tuple((1 << (a - 1)) | (1 << b) for a, b in self.intervals)
        self.interval_keys = {v: 1 << k for k, v in enumerate(self.interval_vectors)}  # vector -> key bit

    def __repr__(self) -> str:
        return f"SymplecticSpace(dim={self.dim})"

    def circular(self, i: int) -> int:
        """The circular vector e_i, 1 <= i <= D+1 (indices taken cyclically)."""
        i = (i - 1) % (self.dim + 1) + 1
        if i <= self.dim:
            return 1 << (i - 1)
        return (1 << self.dim) - 1  # e_{D+1} = e_1 + ... + e_D

    def circular_vectors(self) -> tuple[int, ...]:
        return tuple(self.circular(i) for i in range(1, self.dim + 2))

    def gram_apply(self, v: int) -> int:
        """The mask of the linear functional (., v): bit i-1 is (e_i, v); 0 <= v < 2^D."""
        return self.forms[v]

    def pairing(self, u: int, v: int) -> int:
        """The symplectic pairing (u, v) as a bit."""
        return self.pairings((u, v))[0]

    def pairings(self, vectors: tuple[int, ...]) -> list[int]:
        """The pairings (v_i, v_j), i < j, in row order; each functional (v_i, .) is computed once."""
        if any(v >> self.dim for v in vectors):
            raise ValueError("vector does not fit in this space")
        forms = [self.forms[v] for v in vectors]
        return [(f & v).bit_count() & 1 for i, f in enumerate(forms) for v in vectors[i + 1 :]]

    def interval_vector(self, a: int, b: int) -> int:
        """e_I for the interval I = [a, b] with 1 <= a <= b <= D."""
        if not 1 <= a <= b <= self.dim:
            raise ValueError(f"interval [{a},{b}] out of range [1,{self.dim}]")
        return ((1 << b) - 1) ^ ((1 << (a - 1)) - 1)

    def interval_span(self, key: int) -> "Subspace":
        """The span of the intervals of a key."""
        vectors = self.interval_vectors
        return Subspace.span(vectors[k] for k in bits_of(key))


@lru_cache(maxsize=None)
def make_space(dim: int) -> SymplecticSpace:
    """Shared-instance constructor for the ambient space of dimension D."""
    return SymplecticSpace(dim)


def rref(vectors: Iterable[int]) -> tuple[int, ...]:
    """Reduced row echelon form of the span, pivots scanned from bit 0 up.

    The result is a canonical function of the span: two generating sets with
    equal span produce identical tuples.  Rows are returned sorted by pivot.
    """
    piv: dict[int, int] = {}  # pivot bit mask (lowest set bit) -> row
    for v in vectors:
        while v:
            low = v & -v
            if low in piv:
                v ^= piv[low]
            else:
                piv[low] = v
                break
    lows = sorted(piv)
    rows = [piv[low] for low in lows]
    # a row has no bit below its pivot, so only rows with lower pivots need
    # clearing; going down from the top pivot, each row used is already reduced
    for j in range(len(rows) - 1, 0, -1):
        low, row = lows[j], rows[j]
        for i in range(j):
            if rows[i] & low:
                rows[i] ^= row
    return tuple(rows)


class Subspace(NamedTuple):
    """A subspace held as its canonical reduced-echelon basis rows."""

    rows: tuple[int, ...]

    @staticmethod
    def span(vectors: Iterable[int]) -> "Subspace":
        return Subspace(rref(vectors))

    @property
    def dim(self) -> int:
        return len(self.rows)

    def contains(self, v: int) -> bool:
        for row in self.rows:
            p = (row & -row).bit_length() - 1
            if (v >> p) & 1:
                v ^= row
        return v == 0

    def __contains__(self, v: int) -> bool:
        return self.contains(v)

    def vectors(self) -> Iterator[int]:
        """All 2**dim elements of the subspace."""
        vecs = [0]
        for row in self.rows:
            vecs += [v ^ row for v in vecs]
        return iter(vecs)

    def sum(self, other: "Subspace") -> "Subspace":
        return Subspace.span(self.rows + other.rows)

    def extend(self, v: int) -> "Subspace":
        return Subspace.span(self.rows + (v,))


ZERO_SUBSPACE = Subspace(())


def canonical_subspace(vectors: Iterable[int]) -> Subspace:
    """Canonical representation of the span of the given vectors."""
    return Subspace.span(vectors)


def kernel_of(constraints: Iterable[int], dim: int) -> Subspace:
    """Solution space of parity(x & c) = 0 for every constraint mask c."""
    rows = rref(constraints)
    pivots = [(row & -row).bit_length() - 1 for row in rows]
    pivot_set = set(pivots)
    basis = []
    for f in range(dim):
        if f in pivot_set:
            continue
        v = 1 << f
        for p, row in zip(pivots, rows):
            if (row >> f) & 1:
                v |= 1 << p
        basis.append(v)
    return Subspace.span(basis)


def perp(space: SymplecticSpace, sub: Subspace) -> Subspace:
    """The orthogonal complement {x : (x, u) = 0 for all u in sub}."""
    return kernel_of((space.gram_apply(row) for row in sub.rows), space.dim)


def is_isotropic(space: SymplecticSpace, sub: Subspace) -> bool:
    """True iff the pairing vanishes on the subspace (alternating: i<j only)."""
    return not any(space.pairings(sub.rows))


class IntervalLabel(NamedTuple):
    """The interval I = [a, b] inside [1, D], with its normalized print form.

    The normalized set I' is I itself when |I| is odd and the complement
    [1, D+1] - I when |I| is even; |I'| is always odd and I' is a single
    circular run of consecutive vertices mod D+1.
    """

    a: int
    b: int

    @property
    def is_even(self) -> bool:
        """|I| = b - a + 1 is even."""
        return (self.b - self.a) % 2 == 1

    def iprime(self, dim: int) -> tuple[int, ...]:
        """I' as a run of vertices in circular order, starting vertex first."""
        return _iprime(self.a, self.b, dim)


@lru_cache(maxsize=None)
def _iprime(a: int, b: int, dim: int) -> tuple[int, ...]:
    """The body of `IntervalLabel.iprime`, computed once per interval and D."""
    if (b - a) % 2 == 0:  # |I| = b - a + 1 is odd
        return tuple(range(a, b + 1))
    n = dim + 1  # the complement's run starts at b + 1
    return tuple((b + k) % n + 1 for k in range(n - (b - a + 1)))
