"""Cross-checks of the peel solve and the fast sign transform against dense references."""

import dataclasses

import numpy as np
import pytest

from trifourier.family import FamilyStructureError, build_family
from trifourier.fourier import (
    basis_matrix,
    change_of_basis,
    integer_inverse,
    member_supports,
    peel_order,
    peel_solve,
    phi,
    sign_transform,
    verify_change_of_basis,
    verify_involution,
    verify_z_commutation,
    z_matrix,
)
from trifourier.gf2 import make_space, perp


def closed_form_rhs(fam):
    """W[:, r] = 2^(dim E_r) on the orthogonal complement of member r, built entry by entry."""
    size = 1 << fam.dim
    w = np.zeros((size, len(fam)), dtype=np.int64)
    for r, ent in enumerate(fam.entries):
        for v in perp(fam.space, ent.subspace).vectors():
            w[v, r] = 1 << ent.dim
    return w


def dense_sign_matrix(space):
    """G[x, y] = (-1)^((x, y)) from the pairing itself."""
    size = 1 << space.dim
    return np.array(
        [[1 - 2 * space.pairing(x, y) for y in range(size)] for x in range(size)], dtype=np.int64
    )


def supports_of(columns):
    starts = np.cumsum([0] + [len(c) for c in columns]).astype(np.int64)
    return starts, np.array([v for c in columns for v in c], dtype=np.int64)


@pytest.mark.parametrize("dim", [0, 2, 4, 6, 8])
def test_peel_solve_matches_certified_inverse(dim):
    fam = build_family(dim)
    old = integer_inverse(basis_matrix(fam)) @ closed_form_rhs(fam)
    cob = change_of_basis(fam)
    assert cob.num.dtype == np.int64
    assert np.array_equal(cob.num, old.T)


@pytest.mark.parametrize("dim", [0, 2, 4, 6])
def test_sign_transform_matches_dense_sign_matrix(dim):
    space = make_space(dim)
    g = dense_sign_matrix(space)
    size = 1 << dim
    assert np.array_equal(sign_transform(space, np.eye(size, dtype=np.int64)), g)
    assert np.array_equal(g @ g, size * np.eye(size, dtype=np.int64))
    assert verify_involution(space)
    rng = np.random.default_rng(dim)
    f = rng.integers(-9, 10, size=(size, 3))
    assert np.array_equal(sign_transform(space, f), g @ f)


@pytest.mark.parametrize("dim", [2, 4, 6])
def test_z_commutation_matches_dense_sign_matrices(dim):
    v, vp = make_space(dim), make_space(dim - 2)
    g, gp = dense_sign_matrix(v), dense_sign_matrix(vp)
    for i in range(1, dim + 2):
        z = z_matrix(v, vp, i)
        assert np.array_equal(sign_transform(v, z), g @ z)
        assert np.array_equal(g @ z, 2 * (z @ gp))
    assert verify_z_commutation(dim).ok


def test_peel_order_is_lower_unitriangular():
    fam = build_family(6)
    starts, vecs = member_supports(fam)
    order = peel_order(starts, vecs, 1 << fam.dim)
    b = basis_matrix(fam)[np.ix_(order[:, 0], order[:, 1])]
    assert np.array_equal(np.triu(b), np.eye(len(fam), dtype=np.int64))


def test_unpeelable_system_raises():
    # det = 1, yet every row lies in at least two columns: no peel start
    starts, vecs = supports_of([[0, 1, 2], [0, 1], [1, 2]])
    with pytest.raises(FamilyStructureError):
        peel_order(starts, vecs, 3)
    with pytest.raises(FamilyStructureError):
        peel_solve(starts, vecs, np.eye(3, dtype=np.int64))
    # a row in no column
    starts, vecs = supports_of([[0], [0]])
    with pytest.raises(FamilyStructureError):
        peel_order(starts, vecs, 2)


def test_peel_solve_small_system():
    # B = [[1, 0], [1, 1]] (column 0 holds rows 0 and 1, column 1 holds row 1)
    starts, vecs = supports_of([[0, 1], [1]])
    rhs = np.array([[3, -1], [5, 7]], dtype=np.int64)
    x, order = peel_solve(starts, vecs, rhs)
    assert np.array_equal(np.array([[1, 0], [1, 1]]) @ x, rhs)
    assert order.tolist() == [[0, 0], [1, 1]]


def test_int64_headroom_is_refused():
    starts, vecs = supports_of([[0, 1], [1]])
    rhs = np.array([[2**62], [-(2**62)]], dtype=np.int64)
    with pytest.raises(OverflowError):
        peel_solve(starts, vecs, rhs)
    space = make_space(4)
    with pytest.raises(OverflowError):
        sign_transform(space, np.full(16, 2**60, dtype=np.int64))
    # object arrays stay exact past int64
    big = np.full(16, 2**70, dtype=object)
    assert sign_transform(space, big)[0] == 2**74
    assert phi(space, [2**70] * 16)[0] == 2**72


def _corrupted(cob, r, c, value):
    num = cob.num.copy()
    num[r, c] = value
    return dataclasses.replace(cob, num=num)


def _failed(rep):
    return {c.check_id for c in rep.failures()}


def test_verify_change_of_basis_rejects_corruptions():
    cob = change_of_basis(build_family(4))
    assert verify_change_of_basis(cob).ok
    dims = [e.dim for e in cob.family.entries]
    assert dims[1] == dims[2] == 1 and dims[5] == 1 and dims[0] == 0

    below = _corrupted(cob, 2, 1, 2)  # same dimension, off the diagonal
    assert "triangular" in _failed(verify_change_of_basis(below))

    flipped = _corrupted(cob, 0, 0, -int(cob.num[0, 0]))
    assert "diagonal signs" in _failed(verify_change_of_basis(flipped))

    perturbed = _corrupted(cob, 0, 5, int(cob.num[0, 5]) + 1)  # above the diagonal
    failed = _failed(verify_change_of_basis(perturbed))
    assert "involution" in failed and "triangular" not in failed

    bad_peel = dataclasses.replace(cob, peel=cob.peel[::-1].copy())
    assert _failed(verify_change_of_basis(bad_peel)) == {"basis-peelable"}
