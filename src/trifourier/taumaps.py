"""Form-compatible embeddings between circular-basis spaces of dimensions D-2 and D.

For each vertex index i of the larger circle there is an embedding sending
the D-1 circular vectors of the smaller space to a sequence of circular
vectors of the larger one, with one triple sum e_{i-1}+e_i+e_{i+1} inserted.
Each is built by the generic form, which takes a vertex pair (one per
circle) and walks both circles consistently.  The rotation R and the
reflection S of one circle are maps of the same kind.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, NamedTuple

from .gf2 import SymplecticSpace, bits_of, make_space, rref
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

    def key_table(self) -> dict[int, int]:
        """The map on interval keys (see `SymplecticSpace.intervals`): source key bit -> image key bit.

        The map sends a circular run of source vectors to a circular run of
        target vectors, and a run through e_{D+1} sums to the complementary
        interval, so the image of every interval vector is an interval
        vector; the table checks that it is.  It is made once per map and
        shared: read it only.
        """
        return _key_table(self)

    def compose(self, inner: "CircularMap") -> "CircularMap":
        """self . inner, a map from the source of inner."""
        return CircularMap(inner.src_dim, self.dst_dim, tuple(self.apply(img) for img in inner.images))

    def is_identity(self) -> bool:
        return self.src_dim == self.dst_dim and all(img == 1 << j for j, img in enumerate(self.coordinate_images()))

    def coordinate_images(self) -> tuple[int, ...]:
        return self.images[: self.src_dim]


@lru_cache(maxsize=None)
def _key_table(m: CircularMap) -> dict[int, int]:
    """The body of `CircularMap.key_table`."""
    dst = make_space(m.dst_dim).interval_keys
    out = {}
    for v, bit in make_space(m.src_dim).interval_keys.items():
        image = m.apply(v)
        if image not in dst:
            raise AssertionError(f"{m} sends the interval vector {v:#b} to {image:#b}, not an interval vector")
        out[bit] = dst[image]
    return out


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


@lru_cache(maxsize=None)
def tau(space: SymplecticSpace, i: int) -> CircularMap:
    """The i-th embedding of the (D-2)-space into `space`, i in [1, D+1]: the
    vertex-pair embedding at `numbered_pair(D, i)`.

    tau_i sends one source vector (e_{i-1}, or e_{D-1} for i = 1 and
    i = D+1) to e_{i-1}+e_i+e_{i+1}, indices mod D+1, and the others, in
    circular order, onto the circular vectors outside that sum.  Built and
    validated once per (space, i): the recursions, the change of basis and
    the checks all use the same maps.
    """
    emb = generic_tau(space, *numbered_pair(space.dim, i))
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


def check_complement(space: SymplecticSpace, m: CircularMap, i: int) -> bool:
    """The image of m, the embedding tau_i, is a complement of the line F2.e_i inside the perp of e_i.

    The perp of e_i is the kernel of the functional (., e_i), whose mask is
    `space.forms[e_i]`; it has dimension D - 1 when that mask is nonzero.
    The D-2 images of the coordinate vectors and e_i span such a complement
    plus the line exactly when they lie in the perp and have its rank, D - 1.
    """
    images = m.coordinate_images()
    ei = space.circular(i)
    form = space.forms[ei]
    in_perp = not any((form & x).bit_count() & 1 for x in images)
    return form != 0 and in_perp and len(rref((*images, ei))) == space.dim - 1


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
    tau_top = tau(v, dim + 1)
    top = tau_top.key_table()
    tau_last = tau(vp, dim - 1)
    last = tau_last.key_table()
    e_top, e_last = v.interval_keys[v.circular(dim + 1)], vp.interval_keys[vp.circular(dim - 1)]

    def matrix_fault(i: int, j: int) -> str:
        lhs = tau_top.compose(tau(vp, i)).coordinate_images()
        rhs = tau(v, j).compose(tau_last).coordinate_images()
        return "" if lhs == rhs else f"i={i} j={j}: lhs={lhs} rhs={rhs}"

    def subspace_fault(i: int) -> str:
        j = i + 1
        t_i, t_j = tau(vp, i).key_table(), tau(v, j).key_table()
        e_i, e_j = vp.interval_keys[vp.circular(i)], v.interval_keys[v.circular(j)]
        # Keys compare as subspaces: each side pushes a member's interval basis,
        # which the maps carry to the unique interval basis of the image.
        bad = [
            key for key in members
            if push_key(top, push_key(t_i, key, e_i), e_top) != push_key(t_j, push_key(last, key, e_last), e_j)
        ]
        first = [vpp.interval_span(key) for key in bad[:1]]
        return f"i={i}: {len(bad)} violating members, first={first}" if bad else ""

    pairs = [(i, j) for i in range(1, dim - 1) for j in ((1, 2) if i == 1 else (i + 1,))]
    bad = next(filter(None, (matrix_fault(i, j) for i, j in pairs)), "")
    rep.require("matrix", not bad, bad)
    bad = next(filter(None, map(subspace_fault, range(1, dim - 1))), "")
    rep.require("subspaces", not bad, bad)
    return rep


def generic_tau(space: SymplecticSpace, gamma_p: int, gamma: int) -> CircularMap:
    """The embedding of the (D-2)-space into `space` determined by a vertex of each circle.

    The chosen source vertex gamma_p maps to the sum over the closed
    neighborhood of gamma; the remaining source vertices map bijectively,
    in circular order, onto the vertices outside that neighborhood.  Walking
    both circles backwards gives the same map; walking them in opposite
    directions would give the reflected map instead, which fails the
    pinning identities against the numbered embeddings.  For D = 2 the
    source is the zero space and e_1+e_2+e_3 = 0, so the map is zero.

    The walk is returned unvalidated: `tau` validates the numbered maps, and
    `family.family_subspaces_ucb` proves every pair's walk equal to a
    composition of validated maps.
    """
    d_big = space.dim
    if d_big < 2:
        raise ValueError(f"target dimension must be even and >= 2, got {d_big}")
    n_src = d_big - 1
    if not 1 <= gamma_p <= n_src:
        raise ValueError(f"source vertex {gamma_p} out of range [1,{n_src}]")
    if not 1 <= gamma <= d_big + 1:
        raise ValueError(f"target vertex {gamma} out of range [1,{d_big + 1}]")
    e = space.circular  # indices taken cyclically
    images: list[int] = [0] * n_src
    images[gamma_p - 1] = e(gamma - 1) ^ e(gamma) ^ e(gamma + 1)
    for k in range(1, n_src):
        images[(gamma_p - 1 + k) % n_src] = e(gamma + k + 1)
    return CircularMap(d_big - 2, d_big, tuple(images))


def numbered_pair(dim: int, i: int) -> tuple[int, int]:
    """The (gamma_p, gamma) pair whose vertex-pair embedding is tau_i."""
    if 2 <= i <= dim:
        return i - 1, i
    if i == 1:
        return dim - 1, 1
    if i == dim + 1:
        return dim - 1, dim + 1
    raise ValueError(f"index {i} out of range [1,{dim + 1}]")
