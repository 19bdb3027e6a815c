"""Cross-checks of the peel solve and the fast sign transform against dense references."""

import random

import pytest

from trifourier.family import FamilyStructureError, build_family
from trifourier.fourier import (
    CobMatrix,
    _Fields,
    basis_matrix,
    change_of_basis,
    integer_inverse,
    peel_order,
    peel_solve,
    phi,
    sign_transform,
    verify_change_of_basis,
    verify_involution,
    verify_z_commutation,
    z_map,
)
from trifourier.gf2 import make_space, perp

from gf2_reference import characteristic


def matmul(a, b):
    """Dense integer product of two lists of rows, skipping the zeros of a."""
    out = []
    for row in a:
        acc = [0] * len(b[0])
        for k, x in enumerate(row):
            if x:
                acc = [s + x * y for s, y in zip(acc, b[k])]
        out.append(acc)
    return out


def transpose(a):
    return [list(col) for col in zip(*a)]


def identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def dense(cob):
    return [[row.get(c, 0) for c in range(cob.size)] for row in cob.num]


def closed_form_rhs(fam):
    """W[v][r] = 2^(dim E_r) on the orthogonal complement of member r, built entry by entry."""
    size = 1 << fam.dim
    w = [[0] * len(fam) for _ in range(size)]
    for r, ent in enumerate(fam.entries):
        for v in perp(fam.space, ent.subspace).vectors():
            w[v][r] = 1 << ent.dim
    return w


def dense_sign_matrix(space):
    """G[x][y] = (-1)^((x, y)) from the pairing itself."""
    size = 1 << space.dim
    return [[1 - 2 * space.pairing(x, y) for y in range(size)] for x in range(size)]


def transform_columns(space, mat):
    """G mat, one column at a time."""
    return transpose([sign_transform(space, col) for col in transpose(mat)])


def members_of(fam):
    return [list(e.subspace.vectors()) for e in fam.entries]


@pytest.mark.parametrize("dim", [0, 2, 4, 6, 8])
def test_peel_solve_matches_certified_inverse(dim):
    fam = build_family(dim)
    old = matmul(integer_inverse(basis_matrix(fam)), closed_form_rhs(fam))
    cob = change_of_basis(fam)
    assert all(type(v) is int and v for row in cob.num for v in row.values())
    assert dense(cob) == transpose(old)


@pytest.mark.parametrize("dim", [0, 2, 4, 6])
def test_sign_transform_matches_dense_sign_matrix(dim):
    space = make_space(dim)
    g = dense_sign_matrix(space)
    size = 1 << dim
    assert transform_columns(space, identity(size)) == g
    assert matmul(g, g) == [[size * v for v in row] for row in identity(size)]
    assert verify_involution(space)
    rng = random.Random(dim)
    f = [[rng.randrange(-9, 10) for _ in range(3)] for _ in range(size)]
    assert transform_columns(space, f) == matmul(g, f)


@pytest.mark.parametrize("dim", [2, 4, 6])
def test_z_commutation_matches_dense_sign_matrices(dim):
    v, vp = make_space(dim), make_space(dim - 2)
    g, gp = dense_sign_matrix(v), dense_sign_matrix(vp)
    for i in range(1, dim + 2):
        z = transpose([z_map(v, vp, i, characteristic(vp, [y])) for y in range(1 << vp.dim)])
        assert transform_columns(v, z) == matmul(g, z)
        assert matmul(g, z) == [[2 * x for x in row] for row in matmul(z, gp)]
    assert verify_z_commutation(dim).ok


def test_peel_order_is_lower_unitriangular():
    fam = build_family(6)
    order = peel_order(members_of(fam), 1 << fam.dim)
    b = basis_matrix(fam)
    permuted = [[b[v][j] for _, j in order] for v, _ in order]
    assert [[x if t >= s else 0 for t, x in enumerate(row)] for s, row in enumerate(permuted)] == identity(len(fam))


def test_unpeelable_system_raises():
    # det = 1, yet every row lies in at least two columns: no peel start
    members = [[0, 1, 2], [0, 1], [1, 2]]
    with pytest.raises(FamilyStructureError):
        peel_order(members, 3)
    with pytest.raises(FamilyStructureError):
        peel_solve(members, [{0: 1}, {1: 1}, {2: 1}])
    # a row in no column
    with pytest.raises(FamilyStructureError):
        peel_order([[0], [0]], 2)


def test_peel_solve_small_system():
    # B = [[1, 0], [1, 1]] (column 0 holds rows 0 and 1, column 1 holds row 1)
    rhs = [{0: 3, 1: -1}, {0: 5, 1: 7}]
    x, order = peel_solve([[0, 1], [1]], rhs)
    assert x == [{0: 3, 1: -1}, {0: 2, 1: 8}]
    assert order == [(0, 0), (1, 1)]


def test_int64_headroom_is_refused():
    # Every value is a Python int, so the inputs that once hit the int64 headroom
    # refusal now come out exact: no refusal and no second path past 2^63.
    space = make_space(4)
    assert sign_transform(space, [2**60] * 16)[0] == 2**64
    assert sign_transform(space, [2**70] * 16)[0] == 2**74
    assert sign_transform(space, [-(2**62)] * 16)[0] == -(2**66)
    assert phi(space, [2**70] * 16)[0] == 2**72
    x, _ = peel_solve([[0, 1], [1]], [{0: 2**62}, {0: -(2**62)}])
    assert x == [{0: 2**62}, {0: -(2**63)}]


@pytest.mark.parametrize("bound", [1, 127, 128, 255, 2**15 - 1, 2**15, 2**70])
def test_packing_width_boundary(bound):
    # Every pair of rows with fields in [-bound, bound] packs to equal ints exactly when
    # the rows are equal.  A width one bit short fails here: at bound 128 it packs
    # (128, 0) and (-128, 1) alike.
    values = sorted({-bound, -bound + 1, -1, 0, 1, bound - 1, bound})
    fields = _Fields(bound, 3)
    assert 2 ** (fields.bits - 1) > bound
    rows = [(a, b, c) for a in values for b in values for c in (-bound, 0, bound)]
    packed = fields.rows(len(rows), ((j, [k], row[j]) for k, row in enumerate(rows) for j in range(3)))
    assert packed == [sum(c << (fields.bits * j) for j, c in enumerate(row)) for row in rows]
    assert len(set(packed)) == len(rows)
    # and the lowest differing field is found from the packed ints alone
    assert fields.first_difference(packed[:1], packed[1:2]) == 2
    assert fields.first_difference(packed, packed) is None


def _corrupted(cob, r, c, value):
    num = [dict(row) for row in cob.num]
    num[r][c] = value
    return CobMatrix(cob.family, num, cob.den, cob.peel)


def _failed(rep):
    return {c.check_id for c in rep.failures()}


def test_verify_change_of_basis_rejects_corruptions():
    cob = change_of_basis(build_family(4))
    assert verify_change_of_basis(cob).ok
    dims = [e.dim for e in cob.family.entries]
    assert dims[1] == dims[2] == 1 and dims[5] == 1 and dims[0] == 0

    below = _corrupted(cob, 2, 1, 2)  # same dimension, off the diagonal
    assert "triangular" in _failed(verify_change_of_basis(below))

    flipped = _corrupted(cob, 0, 0, -cob.num[0][0])
    assert "diagonal signs" in _failed(verify_change_of_basis(flipped))

    perturbed = _corrupted(cob, 0, 5, cob.num[0].get(5, 0) + 1)  # above the diagonal
    failed = _failed(verify_change_of_basis(perturbed))
    assert "involution" in failed and "triangular" not in failed

    bad_peel = CobMatrix(cob.family, cob.num, cob.den, cob.peel[::-1])
    assert _failed(verify_change_of_basis(bad_peel)) == {"basis-peelable"}
