"""Form-compatible embeddings between circular-basis spaces of dimensions D-2 and D.

For each vertex index i of the larger circle there is an embedding sending
the D-1 circular vectors of the smaller space to a sequence of circular
vectors of the larger one, with one triple sum e_{i-1}+e_i+e_{i+1} inserted.
The generic form takes an arbitrary vertex pair (one per circle) and walks
both circles consistently.  The rotation R and the reflection S of one circle
are maps of the same kind.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

from .gf2 import Subspace, SymplecticSpace, bits_of, kernel_of, make_space, rref
from .report import Report


class CircularMap(NamedTuple):
    """A linear map between two circular-basis spaces, given on the circular vectors.

    `images` lists the images of the src_dim+1 circular vectors e_1..e_{D'+1}
    of the source; the underlying matrix acts on the src_dim coordinate
    vectors.  The embeddings tau_i and the dihedral maps R and S are all of
    this type.
    """

    src_dim: int
    dst_dim: int
    images: tuple[int, ...]

    def apply(self, v: int) -> int:
        out = 0
        for j in bits_of(v):
            out ^= self.images[j]
        return out

    def table(self) -> list[int]:
        """The images of all 2^src_dim source vectors, indexed by source mask."""
        t = [0]
        for img in self.coordinate_images():
            t += [x ^ img for x in t]
        return t

    def key_table(self) -> dict[int, int]:
        """The map on interval keys (see `SymplecticSpace.intervals`): source key bit -> image key bit.

        The map sends a circular run of source vectors to a circular run of
        target vectors, and a run through e_{D+1} sums to the complementary
        interval, so the image of every interval vector is an interval
        vector; the table checks that it is.
        """
        dst = make_space(self.dst_dim).interval_keys
        out = {}
        for v, bit in make_space(self.src_dim).interval_keys.items():
            image = self.apply(v)
            if image not in dst:
                raise AssertionError(f"{self} sends the interval vector {v:#b} to {image:#b}, not an interval vector")
            out[bit] = dst[image]
        return out

    def compose(self, inner: "CircularMap") -> "CircularMap":
        """self . inner, a map from the source of inner."""
        return CircularMap(inner.src_dim, self.dst_dim, tuple(self.apply(img) for img in inner.images))

    def is_identity(self) -> bool:
        return self.src_dim == self.dst_dim and all(img == 1 << j for j, img in enumerate(self.coordinate_images()))

    def coordinate_images(self) -> tuple[int, ...]:
        return self.images[: self.src_dim]

    def image_subspace(self) -> Subspace:
        return Subspace.span(self.coordinate_images())


def rotation(space: SymplecticSpace, steps: int = 1) -> CircularMap:
    """R^steps: sends each circular vector e_i to e_{i+steps} (cyclically)."""
    return CircularMap(space.dim, space.dim, tuple(space.circular(i + steps) for i in range(1, space.dim + 2)))


def reflection(space: SymplecticSpace) -> CircularMap:
    """S: sends e_i to e_{D+1-i}, fixing e_{D+1}."""
    return CircularMap(space.dim, space.dim, tuple(space.circular(space.dim + 1 - i) for i in range(1, space.dim + 2)))


def preserves_form(space: SymplecticSpace, m: CircularMap) -> bool:
    """m carries the pairing of every pair of source circular vectors to `space`."""
    src = make_space(m.src_dim)
    circ = src.circular_vectors()
    return src.pairings(circ) == space.pairings(m.images[: len(circ)])


def _validate_embedding(emb: CircularMap, dst: SymplecticSpace) -> None:
    total = 0
    for img in emb.images:
        total ^= img
    if total != 0:
        raise AssertionError("circular images do not sum to zero")
    if len(rref(emb.coordinate_images())) != emb.src_dim:
        raise AssertionError("embedding is not injective")
    if not preserves_form(dst, emb):
        raise AssertionError("embedding is not form compatible")


def tau(space: SymplecticSpace, sub_space: SymplecticSpace, i: int) -> CircularMap:
    """The i-th embedding of the (D-2)-space into the D-space, i in [1, D+1].

    Image sequence of the D-1 circular vectors of the source:
      1 < i <= D : e_1,...,e_{i-2}, e_{i-1}+e_i+e_{i+1}, e_{i+2},...,e_{D+1}
      i = 1      : e_3,...,e_D, e_{D+1}+e_1+e_2
      i = D+1    : e_2,...,e_{D-1}, e_D+e_{D+1}+e_1
    For D = 2 the source is the zero space and the map is zero.
    """
    d_big = space.dim
    if d_big < 2 or d_big % 2 != 0:
        raise ValueError(f"target dimension must be even and >= 2, got {d_big}")
    if sub_space.dim != d_big - 2:
        raise ValueError("source space must have dimension D-2")
    if not 1 <= i <= d_big + 1:
        raise ValueError(f"index {i} out of range [1,{d_big + 1}]")
    if d_big == 2:
        return CircularMap(0, 2, (0,))
    e = space.circular
    if i == 1:
        images = [e(j + 2) for j in range(1, d_big - 1)]
        images.append(e(d_big + 1) ^ e(1) ^ e(2))
    elif i == d_big + 1:
        images = [e(j + 1) for j in range(1, d_big - 1)]
        images.append(e(d_big) ^ e(d_big + 1) ^ e(1))
    else:
        images = [e(j) for j in range(1, i - 1)]
        images.append(e(i - 1) ^ e(i) ^ e(i + 1))
        images += [e(j + 2) for j in range(i, d_big)]
    emb = CircularMap(d_big - 2, d_big, tuple(images))
    _validate_embedding(emb, space)
    return emb


def push_key(table: dict[int, int], key: int, extra: int = 0) -> int:
    """The key of the image of a member under a map, plus the interval key `extra`.

    `table` is the map's `CircularMap.key_table()`.  Each map here moves the
    points 0..D' of the intervals (see `SymplecticSpace.intervals`)
    injectively: an embedding skips the two points that its extra vector
    (e_i for tau_i) joins, and R and S permute them.  So intervals with no
    shared point push to intervals with no shared point, and the pushed key
    is again the unique interval basis of the pushed member, with no row
    reduction.
    """
    out = extra
    while key:
        low = key & -key
        out |= table[low]
        key ^= low
    return out


def close_keys(table: dict[int, int], keys: Iterable[int]) -> set[int]:
    """The member keys `keys`, closed under the map with this `key_table()`.

    Each round pushes only the members the previous round added.
    """
    out = set(keys)
    frontier = out
    while frontier:
        frontier = {push_key(table, key) for key in frontier} - out
        out |= frontier
    return out


def check_complement(space: SymplecticSpace, i: int) -> bool:
    """tau_i's image is a complement of the line F2.e_i inside the perp of e_i."""
    emb = tau(space, make_space(space.dim - 2), i)
    image = emb.image_subspace()
    ei = space.circular(i)
    if image.contains(ei) and ei != 0:
        return False
    total = image.extend(ei)
    perp_line = kernel_of([space.gram_apply(ei)], space.dim)
    return total == perp_line and total.dim == space.dim - 1


def verify_composition_identity(dim: int) -> Report:
    """Check the two-step compositions and the matching subspace identity.

    As matrices, tau_{D+1} . tau'_i = tau_j . tau'_{D-1} for i in [1, D-2];
    at i = 1 both j = 1 and j = 2 satisfy it (the two maps agree on the
    image of tau'_{D-1}).  The subspace identity

      tau_{D+1}(tau'_i(E'') + F2 e'_i) + F2 e_{D+1}
        = tau_j(tau'_{D-1}(E'') + F2 e'_{D-1}) + F2 e_j

    over every E'' in the family of the twice-smaller space holds only for
    j = i+1, including at i = 1: with j = 1 the two sides already differ as
    plain spans, since <e_2, e_{D+1}> != <e_{D+1}+e_1+e_2, e_1>.
    """
    from .family import family_subspaces

    if dim < 4 or dim % 2 != 0:
        raise ValueError("identity requires even D >= 4")
    rep = Report(f"composition-identity D={dim}")
    v = make_space(dim)
    vp = make_space(dim - 2)
    vpp = make_space(dim - 4)
    members = family_subspaces(dim - 4)
    tau_top = tau(v, vp, dim + 1)
    top = tau_top.key_table()
    tau_last = tau(vp, vpp, dim - 1)
    last = tau_last.key_table()
    e_top, e_last = v.interval_keys[v.circular(dim + 1)], vp.interval_keys[vp.circular(dim - 1)]
    for i in range(1, dim - 1):
        ti = tau(vp, vpp, i)
        lhs = tau_top.compose(ti).coordinate_images()
        for j in ({1, 2} if i == 1 else {i + 1}):
            rhs = tau(v, vp, j).compose(tau_last).coordinate_images()
            rep.require(f"matrix i={i} j={j}", lhs == rhs, f"lhs={lhs} rhs={rhs}")
        j = i + 1
        t_i, t_j = ti.key_table(), tau(v, vp, j).key_table()
        e_i, e_j = vp.interval_keys[vp.circular(i)], v.interval_keys[v.circular(j)]
        # Keys compare as subspaces: each side pushes a member's interval basis,
        # which the maps carry to the unique interval basis of the image.
        bad = [
            key for key in members
            if push_key(top, push_key(t_i, key, e_i), e_top) != push_key(t_j, push_key(last, key, e_last), e_j)
        ]
        first = [vpp.interval_span(key) for key in bad[:1]]
        rep.require(f"subspaces i={i}", not bad, f"{len(bad)} violating members, first={first}")
    return rep


def generic_tau(
    space: SymplecticSpace,
    sub_space: SymplecticSpace,
    gamma_p: int,
    gamma: int,
    orientation: int = 1,
) -> CircularMap:
    """Embedding determined by a vertex of each circle, walking both circles.

    The chosen source vertex gamma_p maps to the sum over the closed
    neighborhood of gamma; the remaining source vertices map bijectively,
    in circular order, onto the vertices outside that neighborhood.  The
    two walk directions (orientation +-1) produce the same map; walking the
    circles in opposite directions would give the reflected map instead,
    which fails the pinning identities against the numbered embeddings.
    """
    d_big = space.dim
    if d_big < 4:
        raise ValueError("generic embedding requires D >= 4")
    if sub_space.dim != d_big - 2:
        raise ValueError("source space must have dimension D-2")
    n_src = d_big - 1
    n_dst = d_big + 1
    if not 1 <= gamma_p <= n_src:
        raise ValueError(f"source vertex {gamma_p} out of range [1,{n_src}]")
    if not 1 <= gamma <= n_dst:
        raise ValueError(f"target vertex {gamma} out of range [1,{n_dst}]")
    if orientation not in (1, -1):
        raise ValueError("orientation must be +1 or -1")
    e = space.circular
    images: list[int] = [0] * n_src
    images[gamma_p - 1] = e(gamma - 1) ^ e(gamma) ^ e(gamma + 1)
    for k in range(1, n_src):
        src = (gamma_p - 1 + orientation * k) % n_src
        dst = (gamma - 1 + orientation * (k + 1)) % n_dst
        images[src] = e(dst + 1)
    emb = CircularMap(d_big - 2, d_big, tuple(images))
    _validate_embedding(emb, space)
    return emb


def numbered_pair(dim: int, i: int) -> tuple[int, int]:
    """The (gamma_p, gamma) pair whose generic embedding equals tau_i."""
    if 2 <= i <= dim:
        return i - 1, i
    if i == 1:
        return dim - 1, 1
    if i == dim + 1:
        return dim - 1, dim + 1
    raise ValueError(f"index {i} out of range [1,{dim + 1}]")
