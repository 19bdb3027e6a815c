"""The recursive family of 2^D isotropic subspaces and its combinatorics.

Construction by induction on D: a member either extends a member of the
(D-2)-dimensional family through one of the embeddings, or is one of the
nested interval subspaces E_k.  Every member has a unique basis consisting
of interval vectors; the even-length interval count grades each fiber.
The recursions carry each member as the key of that basis (see
`SymplecticSpace.intervals`) and push keys through one table per map, so no
push reduces rows; `pushes` is that step, shared by the recursions and the
change of basis.  `Family` checks the keys, and reduces each member's rows
once, when its indexed view is first read.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from math import comb
from typing import Iterable

from .gf2 import IntervalLabel, Subspace, SymplecticSpace, back_substitute, bits_of, is_isotropic, make_space
from .report import Report
from .taumaps import _validate_embedding, check_complement, close_keys, generic_tau, push_key, rotation, tau


class FamilyStructureError(AssertionError):
    """A structural invariant of the family failed (should never happen)."""


def delta(n: int) -> int:
    """The sign (-1)^(N(N+1)/2)."""
    if n < 0:
        raise ValueError("sign is defined for N >= 0")
    return -1 if (n * (n + 1) // 2) % 2 else 1


@lru_cache(maxsize=None)
def pushes(dim: int, i: int) -> dict[int, int]:
    """The recursion step, i in [1, D+1]: the key of each (D-2)-member E' -> that of tau_i(E') + F2 e_i.

    Refuses a tau_i whose image is not a complement of F2 e_i in the perp of
    e_i.  The dict is cached and shared: read it only.
    """
    space = make_space(dim)
    emb = tau(space, i)
    if not check_complement(space, emb, i):
        raise FamilyStructureError(f"the image of tau_{i} at D={dim} is not a complement of e_{i} in its perp")
    table, ei = emb.key_table(), space.interval_keys[space.circular(i)]
    return {key: push_key(table, key, ei) for key in family_subspaces(dim - 2)}


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
    nested = 0
    out = {nested}
    for j in range(1, space.half + 1):
        nested |= space.interval_keys[space.interval_vector(j, dim + 1 - j)]
        out.add(nested)
    for i in range(1, dim + 1):
        out.update(pushes(dim, i).values())
    return frozenset(out)


@lru_cache(maxsize=None)
def family_subspaces_prime(dim: int) -> frozenset[int]:
    """Variant recursion: zero, or an extension with i running over all D+1 vertices."""
    if dim == 0:
        return frozenset({0})
    return frozenset({0}.union(*(pushes(dim, i).values() for i in range(1, dim + 2))))


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


def is_interval_basis(space: SymplecticSpace, bits: tuple[int, ...]) -> bool:
    """True when the intervals `bits` (the set bits of a key) are the unique
    interval basis of their span.

    The interval e_[a,b] = p_(a-1) + p_b joins the points a-1 and b of 0..D,
    and p_1..p_D are independent (p_0 = 0).  So a set of intervals is
    independent exactly when, as edges on the points, it has no cycle, and
    its span holds the interval vector of every pair of points that it
    connects: C(n, 2) of them for a component of n points, against n - 1
    edges.  The set is thus the only interval basis of its span exactly when
    every component has at most two points, that is when no two of its
    intervals share a point: one OR of endpoint bits and one popcount.
    """
    ends = space.interval_ends
    seen = 0
    for k in bits:
        seen |= ends[k]
    return seen.bit_count() == 2 * len(bits)


@lru_cache(maxsize=None)
def iprime_table(dim: int) -> tuple[tuple[int, tuple[int, ...], str], ...]:
    """Per interval of `SymplecticSpace.intervals`: its I' run's sort key, the
    run, and the run's text in `entry_compact`.

    The sort key orders runs by (length, start vertex); no two intervals
    share a run, since only the runs of even intervals hold the vertex D+1.
    """
    join = "".join if dim + 1 <= 10 else ",".join
    rows = []
    for lab in make_space(dim).intervals:
        run = lab.iprime(dim)
        rows.append((len(run) * (dim + 2) + run[0], run, join(map(str, run))))
    return tuple(rows)


class FamilyEntry:
    __slots__ = (
        "index", "subspace", "key", "bits", "intervals", "n_even",
        "shriek_index", "fiber_index", "fiber_pos", "kappa_index",
    )

    def __init__(
        self,
        index: int,
        subspace: Subspace,
        key: int,
        bits: tuple[int, ...],
        intervals: tuple[IntervalLabel, ...],
        n_even: int,
    ) -> None:
        self.index = index
        self.subspace = subspace
        self.key = key  # the interval key: bit k for space.intervals[k]
        self.bits = bits  # the set bits of the key, ascending
        self.intervals = intervals
        self.n_even = n_even
        self.shriek_index = -1
        self.fiber_index = -1
        self.fiber_pos = -1
        self.kappa_index = -1

    @property
    def dim(self) -> int:
        return self.subspace.dim

    def iprime_runs(self, dim: int) -> tuple[tuple[int, ...], ...]:
        """The I' runs of the interval basis, sorted by (run length, start)."""
        return tuple(row[1] for row in sorted(map(iprime_table(dim).__getitem__, self.bits)))


class Fiber:
    def __init__(self, index: int, shriek_index: int, members: tuple[int, ...]) -> None:
        self.index = index
        self.shriek_index = shriek_index
        self.members = members  # entry indices ordered by even-interval count


class Family:
    """The family at dimension D: its members' interval keys, checked, and an
    indexed view built on first read.

    `keys` are the members' interval keys (see `SymplecticSpace.intervals`),
    kept in `keys` in the order given.  A member's dimension is the popcount
    of its key, its even count that of `key & even`, and its odd part, the
    span of its odd intervals, has the key `key & odd`.  One pass over the
    keys checks, in this order, that
      1. each key is the unique interval basis of its span, so distinct keys
         are distinct members (`is_interval_basis`);
      2. each member's odd part is a member;
      3. the members over one odd part of dimension d - k have the even
         counts 0..k, once each, and so the dimensions d - k..d.
    Check 1 also makes each span isotropic: the pairing (e_[c,d], e_[a,b]) is
    [a-1 in {c-1, d}] + [b in {c-1, d}], so two intervals with no shared
    endpoint pair to 0.  A failure raises FamilyStructureError naming the
    first bad member, or fiber, in canonical order.

    The indexed view -- `entries` in canonical (dim, rows) order with their
    reduced rows, `index_of_key` and `fibers` -- is built from what the pass
    found the first time one of them is read.  The `counts` and `dihedral`
    suites read only the keys; the `family` and `fourier` suites and every
    export read the view.
    """

    def __init__(self, dim: int, keys: Iterable[int]):
        self.dim = dim
        self.half = d = dim // 2
        self.space = space = make_space(dim)
        labels = space.intervals
        self.even = even = sum(1 << k for k, lab in enumerate(labels) if lab.is_even)
        self.odd = odd = ((1 << len(labels)) - 1) ^ even
        self.keys = keys = tuple(keys)
        self._bits: list[tuple[int, ...]] = []  # the set bits of each key, for the indexed view
        counts: dict[int, int] = {}  # odd part -> bit n set for the member over it with even count n
        malformed = set()  # the parts whose fibers are malformed
        for key in keys:
            bits = tuple(bits_of(key))
            if not is_interval_basis(space, bits):
                labs = ", ".join(f"[{labels[k].a},{labels[k].b}]" for k in bits)
                raise FamilyStructureError(
                    f"family member {space.interval_span(key).rows} has no unique interval basis: "
                    f"two of its intervals {labs} share an endpoint"
                )
            self._bits.append(bits)
            part = key & odd
            bit = 1 << (key & even).bit_count()
            seen = counts.get(part, 0)
            if seen & bit:
                malformed.add(part)
            counts[part] = seen | bit
        # the member over a part with even count 0 is the part itself: bit 0 is set exactly when it is a member
        escaped = {part for part, seen in counts.items() if not seen & 1}
        if escaped:
            index = next(i for i, (_, _, key, _) in enumerate(self._order()) if key & odd in escaped)
            raise FamilyStructureError(f"odd-interval span of entry {index} escapes the family")
        malformed.update(part for part, seen in counts.items() if seen != (2 << (d - part.bit_count())) - 1)
        if malformed:
            entries = self.entries
            fib = next(f for f in self.fibers if entries[f.shriek_index].key in malformed)
            members = list(fib.members)
            raise FamilyStructureError(
                f"fiber over entry {fib.shriek_index} is malformed: members={members}, "
                f"dims={[entries[m].dim for m in members]}, n={[entries[m].n_even for m in members]}"
            )

    def _order(self) -> list[tuple[int, tuple[int, ...], int, tuple[int, ...]]]:
        """(dim, reduced rows, key, bits) of every member, in canonical order.

        No two of a key's intervals start at one point, so in key order their
        vectors have ascending pivots (lowest bits), and reducing them is
        `gf2.back_substitute` alone.
        """
        vectors = self.space.interval_vectors
        return sorted(
            (len(bits), back_substitute([vectors[k] for k in bits]), key, bits)
            for key, bits in zip(self.keys, self._bits)
        )

    @cached_property
    def _view(self) -> tuple[list[FamilyEntry], dict[int, int], list[Fiber]]:
        labels = self.space.intervals
        even, odd = self.even, self.odd
        entries = [
            FamilyEntry(idx, Subspace(rows), key, bits, tuple(map(labels.__getitem__, bits)), (key & even).bit_count())
            for idx, (_, rows, key, bits) in enumerate(self._order())
        ]
        index_of_key = {ent.key: ent.index for ent in entries}
        # A member's odd part is the member of key `key & odd`.  Over one part
        # the dimension grows with the even count, so in canonical order a
        # fiber's members come by even count, the part first, and the fibers
        # come in their parts' order.
        groups: dict[int, list[int]] = {}
        for ent in entries:
            ent.shriek_index = shriek = index_of_key[ent.key & odd]
            groups.setdefault(shriek, []).append(ent.index)
        fibers = []
        for f_idx, (shriek, members) in enumerate(groups.items()):
            for pos, m in enumerate(members):
                ent = entries[m]
                ent.fiber_index = f_idx
                ent.fiber_pos = pos
                ent.kappa_index = members[-1 - pos]
            fibers.append(Fiber(f_idx, shriek, tuple(members)))
        return entries, index_of_key, fibers

    entries = cached_property(lambda self: self._view[0])
    index_of_key = cached_property(lambda self: self._view[1])
    fibers = cached_property(lambda self: self._view[2])

    def __len__(self) -> int:
        return len(self.keys)

    def by_n(self, k: int) -> list[FamilyEntry]:
        return [e for e in self.entries if e.n_even == k]


@lru_cache(maxsize=None)
def build_family(dim: int) -> Family:
    return Family(dim, family_subspaces(dim))


def verify_counts(family: Family) -> Report:
    """Size-by-dimension and size-by-even-count, each one check naming the first index that fails it."""
    rep = Report(f"counts D={family.dim}")
    d = family.half
    n = family.dim + 1
    rep.require("total", len(family) == 2**family.dim, f"{len(family)} != 2^{family.dim}")
    # a member's dimension and even count, the popcounts of its key and of
    # `key & even`, are at most D: one walk over the keys tallies both
    by_dim = [0] * n
    by_n = [0] * n
    even = family.even
    for key in family.keys:
        by_dim[key.bit_count()] += 1
        by_n[(key & even).bit_count()] += 1
    bad = next((f"k={k}: {by_dim[k]} != C({n},{k})" for k in range(d + 1) if by_dim[k] != comb(n, k)), "")
    rep.require("dim", not bad, bad)
    bad = next((f"n={k}: {by_n[k]} != C({n},{d - k})" for k in range(d + 1) if by_n[k] != comb(n, d - k)), "")
    rep.require("ncount", not bad, bad)
    return rep


def verify_structure(family: Family) -> Report:
    """Per-entry invariants: isotropy, interval bases, fibers and the involution.

    Each check is one line over every member or grade, which names the first one that fails it."""
    rep = Report(f"structure D={family.dim}")
    space = family.space
    d = family.half
    bad = next((ent for ent in family.entries if not is_isotropic(space, ent.subspace)), None)
    rep.require("isotropic", bad is None, "" if bad is None else f"member {bad.index}: rows {bad.subspace.rows}")
    rep.require(
        "kappa-involution",
        all(family.entries[e.kappa_index].kappa_index == e.index for e in family.entries),
    )
    images = ((k, {family.entries[e.kappa_index].dim for e in family.by_n(k)}) for k in range(d + 1))
    bad = next((f"n={k} -> dim {d - k}: dims seen: {image}" for k, image in images if not image <= {d - k}), "")
    rep.require("kappa-dim", not bad, bad)
    return rep


# -- serialization ----------------------------------------------------------


def entry_compact(entry: FamilyEntry, dim: int) -> str:
    """Compact text form: "<...>" with I' runs, or the empty-set symbol.

    Runs are sorted by (length, start vertex).  For D+1 <= 10 a run prints
    as concatenated digits and runs are comma separated; for larger D the
    vertices are comma separated and runs are joined with semicolons.
    """
    rows = sorted(map(iprime_table(dim).__getitem__, entry.bits))
    if not rows:
        return "∅"
    return "<" + ("," if dim + 1 <= 10 else ";").join([row[2] for row in rows]) + ">"


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
                "iprime": list(map(list, e.iprime_runs(family.dim))),
                "intervals": list(map(list, e.intervals)),
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
