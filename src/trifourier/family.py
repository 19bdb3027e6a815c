"""The recursive family of 2^D isotropic subspaces and its combinatorics.

Construction by induction on D: a member either extends a member of the
(D-2)-dimensional family through one of the embeddings, or is one of the
nested interval subspaces E_k.  Every member has a unique basis consisting
of interval vectors; the even-length interval count grades each fiber.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb

from .gf2 import (
    IntervalLabel,
    Subspace,
    SymplecticSpace,
    ZERO_SUBSPACE,
    is_isotropic,
    make_space,
)
from .report import Report
from .taumaps import close_rows, generic_tau, push_rows, rotation, tau


class FamilyStructureError(AssertionError):
    """A structural invariant of the family failed (should never happen)."""


def delta(n: int) -> int:
    """The sign (-1)^(N(N+1)/2)."""
    if n < 0:
        raise ValueError("sign is defined for N >= 0")
    return -1 if (n * (n + 1) // 2) % 2 else 1


def nested_interval_subspace(space: SymplecticSpace, k: int) -> Subspace:
    """E_k: span of the k nested interval vectors e_[1,D], e_[2,D-1], ..."""
    if not 0 <= k <= space.half:
        raise ValueError(f"k={k} out of range [0,{space.half}]")
    return Subspace.span(
        space.interval_vector(j, space.dim + 1 - j) for j in range(1, k + 1)
    )


@lru_cache(maxsize=None)
def standard_paths(dim: int) -> dict[Subspace, str]:
    """The family for dimension D, each member with the first path that builds it.

    The nested interval subspaces E_0..E_d come first; then every member of
    the (D-2)-family is pushed up through tau_1..tau_D, and a member met
    again keeps its earlier path.  The dict is cached and shared: read it only.
    """
    if dim < 0 or dim % 2 != 0:
        raise ValueError(f"dimension must be even and >= 0, got {dim}")
    if dim == 0:
        return {ZERO_SUBSPACE: "zero"}
    space = make_space(dim)
    sub_space = make_space(dim - 2)
    paths = {nested_interval_subspace(space, k): f"E_{k}@D={dim}" for k in range(space.half + 1)}
    for i in range(1, dim + 1):
        t = tau(space, sub_space, i).table()
        ei = space.circular(i)
        for sub, path in standard_paths(dim - 2).items():
            paths.setdefault(Subspace(push_rows(t, sub.rows, ei)), f"tau_{i}[{path}]")
    return paths


@lru_cache(maxsize=None)
def family_subspaces(dim: int) -> frozenset[Subspace]:
    """The family for dimension D: the members `standard_paths` builds."""
    return frozenset(standard_paths(dim))


@lru_cache(maxsize=None)
def family_subspaces_prime(dim: int) -> frozenset[Subspace]:
    """Variant recursion: zero, or an extension with i running over all D+1 vertices."""
    if dim < 0 or dim % 2 != 0:
        raise ValueError(f"dimension must be even and >= 0, got {dim}")
    if dim == 0:
        return frozenset({ZERO_SUBSPACE})
    space = make_space(dim)
    sub_space = make_space(dim - 2)
    prev_rows = [sub.rows for sub in family_subspaces(dim - 2)]
    out: set[tuple[int, ...]] = {()}
    for i in range(1, dim + 2):
        t = tau(space, sub_space, i).table()
        ei = space.circular(i)
        out.update(push_rows(t, rows, ei) for rows in prev_rows)
    return frozenset(map(Subspace, out))


@lru_cache(maxsize=None)
def family_subspaces_ucb(dim: int) -> frozenset[Subspace]:
    """Graph-invariant recursion over all vertex pairs (gamma', gamma) of the two circles.

    Every pair's embedding factors as R^(gamma-1) . T_11 . rho^-(gamma'-1),
    with R and rho the rotations of the D- and (D-2)-circles and T_11 the
    pair (1, 1)'s embedding; R^(gamma-1) also sends e_1 to e_gamma.  Each
    pair's map is built, validated and checked against that factorisation,
    so the union over all pairs is the rho-closure of the (D-2)-members
    pushed once through T_11 (with e_1) and then closed under R.
    """
    if dim < 0 or dim % 2 != 0:
        raise ValueError(f"dimension must be even and >= 0, got {dim}")
    if dim == 0:
        return frozenset({ZERO_SUBSPACE})
    if dim == 2:
        return frozenset(
            {ZERO_SUBSPACE, Subspace.span([1]), Subspace.span([2]), Subspace.span([3])}
        )
    space = make_space(dim)
    sub_space = make_space(dim - 2)
    t11 = generic_tau(space, sub_space, 1, 1)
    e1 = space.circular(1)
    for gamma in range(1, dim + 2):
        r_gamma = rotation(space, gamma - 1)
        if r_gamma.apply(e1) != space.circular(gamma):
            raise FamilyStructureError(f"R^{gamma - 1} does not send e_1 to e_{gamma}")
        outer = r_gamma.compose(t11)
        for gamma_p in range(1, dim):
            factored = outer.compose(rotation(sub_space, 1 - gamma_p))
            if generic_tau(space, sub_space, gamma_p, gamma) != factored:
                raise FamilyStructureError(
                    f"the embedding of pair ({gamma_p}, {gamma}) is not R^{gamma - 1} T_11 rho^-{gamma_p - 1}"
                )
    prev = close_rows(rotation(sub_space).table(), (sub.rows for sub in family_subspaces_ucb(dim - 2)))
    t = t11.table()
    pushed = close_rows(rotation(space).table(), (push_rows(t, rows, e1) for rows in prev))
    return frozenset(map(Subspace, pushed | {()}))


# one shared label per interval, not one per member that holds it
_label = lru_cache(maxsize=None)(IntervalLabel)


def interval_basis(space: SymplecticSpace, sub: Subspace) -> tuple[IntervalLabel, ...]:
    """All interval vectors lying in the subspace; checked to form a basis.

    With the prefix sums p_k = e_1 + ... + e_k (p_0 = 0), the interval vector
    e_[a,b] is p_(a-1) + p_b, so it lies in E exactly when p_(a-1) and p_b lie
    in one coset of E.  For reduced echelon rows, p_k + (the sum of the rows
    whose pivot is below bit k) is that coset's element that is zero at every
    pivot, which names the coset.  One pass over k = 0..D sorts the D+1
    points into classes.  p_1..p_D are independent, so a class of n points
    holds C(n, 2) interval vectors of rank n - 1, and the classes' spans are
    independent.  Hence E holds exactly dim E interval vectors, all
    independent, when every class has at most 2 points and exactly dim E
    classes have 2: O(D) steps, with no vector of E listed.  E must lie in
    the space (`is_isotropic` checks that first in `Family`).  Raises
    FamilyStructureError when the count differs from dim or the vectors are
    dependent, which signals a non-member.
    """
    classes: dict[int, list[int]] = {}  # coset name -> its points k, ascending
    stop = space.dim + 1
    acc = 0  # the sum of the rows whose pivot is below bit k
    k = 0
    for row in sub.rows:  # sorted by pivot, each pivot below bit D
        pivot_end = (row & -row).bit_length()
        while k < pivot_end:
            classes.setdefault(((1 << k) - 1) ^ acc, []).append(k)
            k += 1
        acc ^= row
    while k < stop:
        classes.setdefault(((1 << k) - 1) ^ acc, []).append(k)
        k += 1
    # dim E classes of 2 points and D+1 points in all leave no class larger than 2
    pairs = [c for c in classes.values() if len(c) > 1]
    if len(pairs) != sub.dim or len(classes) + sub.dim != stop:
        count = sum(len(c) * (len(c) - 1) // 2 for c in pairs)
        if count != sub.dim:
            raise FamilyStructureError(
                f"subspace {sub.rows} contains {count} interval vectors, dim={sub.dim}"
            )
        raise FamilyStructureError(f"interval vectors in {sub.rows} are dependent")
    # the classes come in the order of their first points, so the labels come sorted
    return tuple(_label(c[0] + 1, c[1]) for c in pairs)


class FamilyEntry:
    def __init__(
        self,
        index: int,
        subspace: Subspace,
        intervals: tuple[IntervalLabel, ...],
        n_even: int,
        shriek_index: int = -1,
        fiber_index: int = -1,
        fiber_pos: int = -1,
        kappa_index: int = -1,
        provenance: str = "",
    ) -> None:
        self.index = index
        self.subspace = subspace
        self.intervals = intervals
        self.n_even = n_even
        self.shriek_index = shriek_index
        self.fiber_index = fiber_index
        self.fiber_pos = fiber_pos
        self.kappa_index = kappa_index
        self.provenance = provenance

    @property
    def dim(self) -> int:
        return self.subspace.dim

    def iprime_runs(self, dim: int) -> tuple[tuple[int, ...], ...]:
        """The I' runs of the interval basis, sorted by (run length, start)."""
        runs = [lab.iprime(dim) for lab in self.intervals]
        return tuple(sorted(runs, key=lambda r: (len(r), r[0])))


class Fiber:
    def __init__(self, index: int, shriek_index: int, members: tuple[int, ...]) -> None:
        self.index = index
        self.shriek_index = shriek_index
        self.members = members  # entry indices ordered by even-interval count


class Family:
    """The decorated family: entries in canonical order plus fiber structure."""

    def __init__(self, dim: int, subspaces: frozenset[Subspace], provenance: dict[Subspace, str]):
        self.dim = dim
        self.half = dim // 2
        self.space = make_space(dim)
        ordered = sorted(subspaces, key=lambda s: (s.dim, s.rows))
        self.entries: list[FamilyEntry] = []
        self.index_of: dict[Subspace, int] = {}
        for idx, sub in enumerate(ordered):
            if not is_isotropic(self.space, sub):
                raise FamilyStructureError(f"family member {sub.rows} is not isotropic")
            labs = interval_basis(self.space, sub)
            n_even = sum(1 for lab in labs if lab.is_even)
            self.entries.append(
                FamilyEntry(idx, sub, labs, n_even, provenance=provenance.get(sub, ""))
            )
            self.index_of[sub] = idx
        self._attach_fibers()

    def _attach_fibers(self) -> None:
        d = self.half
        # Every member's interval basis was checked unique, so span(odd) is a
        # member exactly when some member's basis is `odd`: that member holds
        # the dim independent odd vectors and no other interval vector.
        index_of_basis = {ent.intervals: ent.index for ent in self.entries}
        for ent in self.entries:
            odd = tuple(lab for lab in ent.intervals if not lab.is_even)
            if odd not in index_of_basis:
                raise FamilyStructureError(f"odd-interval span of entry {ent.index} escapes the family")
            ent.shriek_index = index_of_basis[odd]
            if self.entries[ent.shriek_index].n_even != 0:
                raise FamilyStructureError("odd-interval span has a nonzero even count")
        groups: dict[int, list[int]] = {}
        for ent in self.entries:
            groups.setdefault(ent.shriek_index, []).append(ent.index)
        self.fibers: list[Fiber] = []
        order = sorted(groups, key=lambda si: (self.entries[si].dim, self.entries[si].subspace.rows))
        for f_idx, shriek_idx in enumerate(order):
            members = sorted(groups[shriek_idx], key=lambda i: self.entries[i].n_even)
            base = self.entries[shriek_idx]
            k = d - base.dim
            ok = (
                len(members) == k + 1
                and members[0] == shriek_idx
                and all(self.entries[m].n_even == j for j, m in enumerate(members))
                and all(self.entries[m].dim == d - k + j for j, m in enumerate(members))
            )
            if not ok:
                raise FamilyStructureError(
                    f"fiber over entry {shriek_idx} is malformed: members={members}, "
                    f"dims={[self.entries[m].dim for m in members]}, "
                    f"n={[self.entries[m].n_even for m in members]}"
                )
            for pos, m in enumerate(members):
                self.entries[m].fiber_index = f_idx
                self.entries[m].fiber_pos = pos
                self.entries[m].kappa_index = members[len(members) - 1 - pos]
            self.fibers.append(Fiber(f_idx, shriek_idx, tuple(members)))

    def __len__(self) -> int:
        return len(self.entries)

    def entry(self, sub: Subspace) -> FamilyEntry:
        return self.entries[self.index_of[sub]]

    def by_dim(self, k: int) -> list[FamilyEntry]:
        return [e for e in self.entries if e.dim == k]

    def by_n(self, k: int) -> list[FamilyEntry]:
        return [e for e in self.entries if e.n_even == k]

    def kappa(self, ent: FamilyEntry) -> FamilyEntry:
        return self.entries[ent.kappa_index]

    def shriek(self, ent: FamilyEntry) -> FamilyEntry:
        return self.entries[ent.shriek_index]


@lru_cache(maxsize=None)
def build_family(dim: int) -> Family:
    return Family(dim, family_subspaces(dim), standard_paths(dim))


@lru_cache(maxsize=None)
def build_family_prime(dim: int) -> Family:
    return Family(dim, family_subspaces_prime(dim), {})


@lru_cache(maxsize=None)
def build_family_ucb(dim: int) -> Family:
    return Family(dim, family_subspaces_ucb(dim), {})


def signed_binomial_sum(d: int) -> int:
    """Sum over k of delta(d-k) * C(2d+1, k) -- equals 2^d."""
    return sum(delta(d - k) * comb(2 * d + 1, k) for k in range(d + 1))


def verify_counts(family: Family) -> Report:
    """Size-by-dimension, size-by-even-count, and the signed binomial identity."""
    rep = Report(f"counts D={family.dim}")
    d = family.half
    n = family.dim + 1
    rep.require("total", len(family) == 2**family.dim, f"{len(family)} != 2^{family.dim}")
    # a member's dimension and even count are at most D: one walk tallies both
    by_dim = [0] * n
    by_n = [0] * n
    for e in family.entries:
        by_dim[e.dim] += 1
        by_n[e.n_even] += 1
    for k in range(d + 1):
        rep.require(f"dim[{k}]", by_dim[k] == comb(n, k), f"{by_dim[k]} != C({n},{k})")
        rep.require(f"ncount[{k}]", by_n[k] == comb(n, d - k), f"{by_n[k]} != C({n},{d - k})")
    for dd in range(17):
        rep.require(f"signed-binomial d={dd}", signed_binomial_sum(dd) == 2**dd)
    return rep


def verify_structure(family: Family) -> Report:
    """Per-entry invariants: isotropy, interval bases, fibers and the involution."""
    rep = Report(f"structure D={family.dim}")
    space = family.space
    d = family.half
    for ent in family.entries:
        ok = is_isotropic(space, ent.subspace)
        rep.require(f"isotropic[{ent.index}]", ok, f"{ent.subspace.rows}")
    rep.require(
        "kappa-involution",
        all(family.entries[e.kappa_index].kappa_index == e.index for e in family.entries),
    )
    for k in range(d + 1):
        image = {family.entries[e.kappa_index].dim for e in family.by_n(k)}
        rep.require(f"kappa n={k} -> dim {d - k}", image <= {d - k}, f"dims seen: {image}")
    return rep


# -- serialization ----------------------------------------------------------


def entry_compact(entry: FamilyEntry, dim: int) -> str:
    """Compact text form: "<...>" with I' runs, or the empty-set symbol.

    Runs are sorted by (length, start vertex).  For D+1 <= 10 a run prints
    as concatenated digits and runs are comma separated; for larger D the
    vertices are comma separated and runs are joined with semicolons.
    """
    runs = entry.iprime_runs(dim)
    if not runs:
        return "∅"
    if dim + 1 <= 10:
        return "<" + ",".join("".join(str(v) for v in run) for run in runs) + ">"
    return "<" + ";".join(",".join(str(v) for v in run) for run in runs) + ">"


def fiber_lines(family: Family) -> list[str]:
    """One text line per fiber, members in even-count order."""
    return [
        ",".join(entry_compact(family.entries[m], family.dim) for m in fib.members)
        for fib in family.fibers
    ]


def family_to_json(family: Family) -> dict:
    return {
        "dim": family.dim,
        "size": len(family),
        "entries": [
            {
                "index": e.index,
                "dim": e.dim,
                "n": e.n_even,
                "iprime": [list(run) for run in e.iprime_runs(family.dim)],
                "intervals": [[lab.a, lab.b] for lab in e.intervals],
                "basis_rows": list(e.subspace.rows),
                "shriek": e.shriek_index,
                "fiber": e.fiber_index,
                "fiber_pos": e.fiber_pos,
                "kappa": e.kappa_index,
            }
            for e in family.entries
        ],
        "fibers": [
            {"index": f.index, "shriek": f.shriek_index, "members": list(f.members)}
            for f in family.fibers
        ],
    }
