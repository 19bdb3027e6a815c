"""The recursive family of 2^D isotropic subspaces and its combinatorics.

Construction by induction on D: a member either extends a member of the
(D-2)-dimensional family through one of the embeddings, or is one of the
nested interval subspaces E_k.  Every member has a unique basis consisting
of interval vectors; the even-length interval count grades each fiber.
The recursions carry each member as the key of that basis (see
`SymplecticSpace.intervals`) and push keys through one table per map, so no
push reduces rows; `Family` reduces them once per member.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb
from typing import Iterable

from .gf2 import IntervalLabel, Subspace, SymplecticSpace, back_substitute, bits_of, is_isotropic, make_space
from .report import Report
from .taumaps import _validate_embedding, close_keys, generic_tau, push_key, rotation, tau


class FamilyStructureError(AssertionError):
    """A structural invariant of the family failed (should never happen)."""


def delta(n: int) -> int:
    """The sign (-1)^(N(N+1)/2)."""
    if n < 0:
        raise ValueError("sign is defined for N >= 0")
    return -1 if (n * (n + 1) // 2) % 2 else 1


@lru_cache(maxsize=None)
def family_subspaces(dim: int) -> frozenset[int]:
    """The family for dimension D, as interval keys.

    The nested interval subspaces E_0..E_d, E_k holding the k nested
    intervals [1, D], [2, D-1], ..., and every member of the (D-2)-family
    pushed up through tau_1..tau_D.
    """
    if dim == 0:
        return frozenset({0})
    space = make_space(dim)
    keys = space.interval_keys
    prev = family_subspaces(dim - 2)
    nested = 0
    out = {nested}
    for j in range(1, space.half + 1):
        nested |= keys[space.interval_vector(j, dim + 1 - j)]
        out.add(nested)
    for i in range(1, dim + 1):
        table = tau(space, i).key_table()
        ei = keys[space.circular(i)]
        out.update(push_key(table, key, ei) for key in prev)
    return frozenset(out)


@lru_cache(maxsize=None)
def family_subspaces_prime(dim: int) -> frozenset[int]:
    """Variant recursion: zero, or an extension with i running over all D+1 vertices."""
    if dim == 0:
        return frozenset({0})
    space = make_space(dim)
    prev = family_subspaces(dim - 2)
    out = {0}
    for i in range(1, dim + 2):
        table = tau(space, i).key_table()
        ei = space.interval_keys[space.circular(i)]
        out.update(push_key(table, key, ei) for key in prev)
    return frozenset(out)


@lru_cache(maxsize=None)
def family_subspaces_ucb(dim: int) -> frozenset[int]:
    """Graph-invariant recursion over all vertex pairs (gamma', gamma) of the two circles.

    Every pair's embedding factors as R^(gamma-1) . T_11 . rho^-(gamma'-1),
    with R and rho the rotations of the D- and (D-2)-circles and T_11 the
    pair (1, 1)'s embedding; R^(gamma-1) also sends e_1 to e_gamma.  T_11
    and the 2D rotation powers are validated once per level, and each
    pair's walk is checked equal to that composition, which keeps the zero
    sum, injectivity and the form: so every walk is an embedding, and the
    union over all pairs is the rho-closure of the (D-2)-members pushed once
    through T_11 (with e_1) and then closed under R.
    """
    if dim == 0:
        return frozenset({0})
    space = make_space(dim)
    sub_space = make_space(dim - 2)
    t11 = generic_tau(space, 1, 1)
    _validate_embedding(t11, space)
    rhos = [rotation(sub_space, 1 - gamma_p) for gamma_p in range(1, dim)]
    for rho in rhos:
        _validate_embedding(rho, sub_space)
    e1 = space.circular(1)
    for gamma in range(1, dim + 2):
        r_gamma = rotation(space, gamma - 1)
        _validate_embedding(r_gamma, space)
        if r_gamma.apply(e1) != space.circular(gamma):
            raise FamilyStructureError(f"R^{gamma - 1} does not send e_1 to e_{gamma}")
        outer = r_gamma.compose(t11)
        for gamma_p, rho in enumerate(rhos, 1):
            factored = outer.compose(rho)
            if generic_tau(space, gamma_p, gamma) != factored:
                raise FamilyStructureError(
                    f"the embedding of pair ({gamma_p}, {gamma}) is not R^{gamma - 1} T_11 rho^-{gamma_p - 1}"
                )
    prev = close_keys(rotation(sub_space).key_table(), family_subspaces_ucb(dim - 2))
    table = t11.key_table()
    k1 = space.interval_keys[e1]
    pushed = close_keys(rotation(space).key_table(), (push_key(table, key, k1) for key in prev))
    return frozenset(pushed | {0})


def interval_basis_rows(space: SymplecticSpace, bits: list[int]) -> tuple[int, ...] | None:
    """The reduced rows of the span of the intervals `bits` (the set bits of
    a key, ascending), when they are its unique interval basis; else None.

    The interval e_[a,b] = p_(a-1) + p_b joins the points a-1 and b of 0..D,
    and p_1..p_D are independent (p_0 = 0).  So a set of intervals is
    independent exactly when, as edges on the points, it has no cycle, and
    its span holds the interval vector of every pair of points that it
    connects: C(n, 2) of them for a component of n points, against n - 1
    edges.  The set is thus the only interval basis of its span exactly when
    every component has at most two points, that is when no two of its
    intervals share a point: one OR of endpoint bits and one popcount.
    Then no two intervals start at one point either, so in key order their
    vectors have ascending pivots (lowest bits), and reducing them is
    `gf2.back_substitute` alone.
    """
    ends = space.interval_ends
    seen = 0
    for k in bits:
        seen |= ends[k]
    if seen.bit_count() != 2 * len(bits):
        return None
    vectors = space.interval_vectors
    return back_substitute([vectors[k] for k in bits])


class FamilyEntry:
    def __init__(
        self,
        index: int,
        subspace: Subspace,
        key: int,
        intervals: tuple[IntervalLabel, ...],
        n_even: int,
        shriek_index: int = -1,
        fiber_index: int = -1,
        fiber_pos: int = -1,
        kappa_index: int = -1,
    ) -> None:
        self.index = index
        self.subspace = subspace
        self.key = key  # the interval key: bit k for space.intervals[k]
        self.intervals = intervals
        self.n_even = n_even
        self.shriek_index = shriek_index
        self.fiber_index = fiber_index
        self.fiber_pos = fiber_pos
        self.kappa_index = kappa_index

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
    """The decorated family: entries in canonical order plus fiber structure.

    `keys` are the members' interval keys (see `SymplecticSpace.intervals`).
    Each key is checked to be the unique interval basis of its span, so
    distinct keys are distinct members; its rows are reduced once, and the
    entries are sorted by (dim, rows).  The check also makes each span
    isotropic: the pairing (e_[c,d], e_[a,b]) is [a-1 in {c-1, d}] +
    [b in {c-1, d}], so two intervals with no shared endpoint pair to 0.
    """

    def __init__(self, dim: int, keys: Iterable[int]):
        self.dim = dim
        self.half = dim // 2
        self.space = space = make_space(dim)
        labels = space.intervals
        members = []
        for key in keys:
            bits = list(bits_of(key))
            rows = interval_basis_rows(space, bits)
            if rows is None:
                labs = ", ".join(f"[{labels[k].a},{labels[k].b}]" for k in bits)
                raise FamilyStructureError(
                    f"family member {space.interval_span(key).rows} has no unique interval basis: "
                    f"two of its intervals {labs} share an endpoint"
                )
            members.append((len(rows), Subspace(rows), key, tuple(map(labels.__getitem__, bits))))
        members.sort()
        even = sum(1 << k for k, lab in enumerate(labels) if lab.is_even)
        self.entries: list[FamilyEntry] = []
        self.index_of_key: dict[int, int] = {}
        for idx, (_, sub, key, labs) in enumerate(members):
            self.entries.append(FamilyEntry(idx, sub, key, labs, (key & even).bit_count()))
            self.index_of_key[key] = idx
        self._attach_fibers(((1 << len(labels)) - 1) ^ even)

    def _attach_fibers(self, odd: int) -> None:
        d = self.half
        # span(odd intervals of a member) has those intervals as its unique
        # interval basis, so it is a member exactly when that key is one
        for ent in self.entries:
            shriek = self.index_of_key.get(ent.key & odd)
            if shriek is None:
                raise FamilyStructureError(f"odd-interval span of entry {ent.index} escapes the family")
            ent.shriek_index = shriek
            if self.entries[shriek].n_even != 0:
                raise FamilyStructureError("odd-interval span has a nonzero even count")
        groups: dict[int, list[int]] = {}
        for ent in self.entries:
            groups.setdefault(ent.shriek_index, []).append(ent.index)
        self.fibers: list[Fiber] = []
        # entries are in (dim, rows) order, so fibers come in their shriek members' order
        for f_idx, shriek_idx in enumerate(sorted(groups)):
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

    def by_n(self, k: int) -> list[FamilyEntry]:
        return [e for e in self.entries if e.n_even == k]


@lru_cache(maxsize=None)
def build_family(dim: int) -> Family:
    return Family(dim, family_subspaces(dim))


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
