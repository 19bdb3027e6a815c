import random
from fractions import Fraction

import pytest

from trifourier.family import build_family
from trifourier.fourier import (
    basis_matrix,
    change_of_basis,
    integer_inverse,
    phi,
    verify_change_of_basis,
    verify_involution,
    verify_z_commutation,
)
from trifourier.gf2 import Subspace, make_space
from trifourier.report import fraction_string

from fraction_reference import fraction_det, fraction_inverse
from gf2_reference import characteristic, dense_involution, dense_z_commutation, perp, z_map


def phi_reference(space, values):
    """Direct definition, pair by pair; independent of the vectorized path."""
    d = space.half
    out = []
    for x in range(1 << space.dim):
        acc = Fraction(0)
        for y in range(1 << space.dim):
            acc += (-1) ** space.pairings((x, y))[0] * Fraction(values[y])
        out.append(acc / 2**d)
    return out


def test_phi_d0_identity():
    sp = make_space(0)
    assert phi(sp, [Fraction(5)]) == [Fraction(5)]


def test_phi_worked_example_d2():
    sp = make_space(2)
    # the four basis functions: point mass at 0, and pair masses {0, x}
    f0 = characteristic(sp, [0])
    pair = {x: characteristic(sp, Subspace.span([x])) for x in (1, 2, 3)}
    for x, fx in pair.items():
        assert phi(sp, fx) == [Fraction(v) for v in fx]
    image = phi(sp, f0)
    expect = [
        -Fraction(v0) + Fraction(1, 2) * sum(Fraction(pv[i]) for pv in pair.values())
        for i, v0 in enumerate(f0)
    ]
    assert image == expect


def test_phi_matches_reference_and_squares_to_identity():
    rng = random.Random(3)
    for dim in (2, 4):
        sp = make_space(dim)
        values = [rng.randrange(-5, 6) for _ in range(1 << dim)]
        once = phi(sp, values)
        assert once == phi_reference(sp, values)
        assert phi(sp, once) == [Fraction(v) for v in values]


def test_phi_rejects_bad_length():
    with pytest.raises(ValueError):
        phi(make_space(2), [1, 2, 3])


def test_sign_matrix_involution():
    for dim in (0, 2, 4, 6, 8, 10):
        assert dense_involution(make_space(dim)) and verify_involution(make_space(dim)) == (True, "")


def test_characteristic():
    sp = make_space(2)
    assert characteristic(sp, Subspace.span([1])) == [1, 1, 0, 0]
    assert characteristic(sp, [0]) == [1, 0, 0, 0]
    assert characteristic(sp, range(4)) == [1, 1, 1, 1]


def test_phi_of_subspace_indicator_hits_perp():
    # transform of a subspace indicator = 2^(k-d) * indicator of the perp
    fam = build_family(4)
    sp = fam.space
    for ent in fam.entries:
        image = phi(sp, characteristic(sp, ent.subspace))
        comp = characteristic(sp, perp(sp, ent.subspace))
        scale = Fraction(2 ** ent.dim, 2**sp.half)
        assert image == [scale * v for v in comp]


def test_z_map_pushes_zero_subspace():
    v, vp = make_space(4), make_space(2)
    out = z_map(v, 5, characteristic(vp, Subspace(())))
    assert out == characteristic(v, Subspace.span([v.circular(5)]))


def test_z_map_point_mass():
    v, vp = make_space(4), make_space(2)
    from trifourier.taumaps import tau

    emb = tau(v, 2)
    for y in range(4):
        out = z_map(v, 2, characteristic(vp, [y]))
        t = emb.apply(y)
        expect = [0] * 16
        expect[t] += 1
        expect[t ^ v.circular(2)] += 1
        assert out == expect


def test_z_commutation_via_matrices():
    for dim in (4, 6):
        for rep in (dense_z_commutation(dim), verify_z_commutation(dim)):
            assert rep.ok, rep.summary()


def test_z_commutation_pointwise_d4():
    # exact commutation on every point mass, via the function-level interfaces
    v, vp = make_space(4), make_space(2)
    for i in range(1, 6):
        for y in range(4):
            f = characteristic(vp, [y])
            lhs = phi(v, z_map(v, i, f))
            rhs = z_map(v, i, phi(vp, f))
            assert lhs == rhs


def test_basis_matrix_unimodular_small():
    for dim in (0, 2, 4, 6):
        fam = build_family(dim)
        b = basis_matrix(fam)
        det = fraction_det([[Fraction(int(v)) for v in row] for row in b])
        assert det in (1, -1)


def test_integer_inverse_certifies():
    rng = random.Random(5)
    for n in (1, 3, 6):
        mat = [[int(i == j) for j in range(n)] for i in range(n)]
        for _ in range(20):  # random integer row operations keep det = +-1
            i, j = rng.randrange(n), rng.randrange(n)
            if i != j:
                f = rng.randrange(-3, 4)
                mat[i] = [a + f * b for a, b in zip(mat[i], mat[j])]
        inv = integer_inverse(mat)
        product = [[sum(a * b for a, b in zip(row, col)) for col in zip(*mat)] for row in inv]
        assert product == [[int(i == j) for j in range(n)] for i in range(n)]


def test_integer_inverse_rejects_non_unimodular():
    with pytest.raises(ValueError):
        integer_inverse([[2, 0], [0, 1]])
    with pytest.raises(ValueError):
        integer_inverse([[1, 1], [1, 1]])


def test_integer_inverse_beyond_int64():
    big = 2**70
    mat = [[1, big], [0, 1]]
    inv = integer_inverse(mat)
    assert inv == [[1, -big], [0, 1]]
    product = [[sum(a * b for a, b in zip(row, col)) for col in zip(*mat)] for row in inv]
    assert product == [[1, 0], [0, 1]]


def test_change_of_basis_d2_exact_rows():
    cob = change_of_basis(build_family(2))
    assert [cob.entry(i, i) for i in range(4)] == [Fraction(-1), Fraction(1), Fraction(1), Fraction(1)]
    assert [cob.entry(0, c) for c in range(4)] == [Fraction(-1), Fraction(1, 2), Fraction(1, 2), Fraction(1, 2)]
    for r in (1, 2, 3):
        assert [cob.entry(r, c) for c in range(4)] == [Fraction(int(r == c)) for c in range(4)]


def test_change_of_basis_against_fraction_solver():
    # independent oracle: invert the basis matrix over Fractions and expand
    # the definition-computed transform of each member indicator
    for dim in (2, 4):
        fam = build_family(dim)
        sp = fam.space
        b = [[Fraction(int(v)) for v in row] for row in basis_matrix(fam)]
        binv = fraction_inverse(b)
        cob = change_of_basis(fam)
        for r, ent in enumerate(fam.entries):
            rhs = phi_reference(sp, characteristic(sp, ent.subspace))
            coeffs = [sum(binv[i][j] * rhs[j] for j in range(len(rhs))) for i in range(len(rhs))]
            assert coeffs == [cob.entry(r, c) for c in range(len(fam))]
            assert all((c * 2**sp.half).denominator == 1 for c in coeffs)


def test_change_of_basis_verification_small():
    for dim in (0, 2, 4, 6, 8):
        rep = verify_change_of_basis(change_of_basis(build_family(dim)))
        assert rep.ok, rep.summary()


def test_cob_example_values():
    cob4 = change_of_basis(build_family(4))
    assert cob4.entry(0, 0) == Fraction(-1)  # zero subspace comes first; sign -1
    assert cob4.trace() == Fraction(4)
    plus = sum(1 for i in range(16) if cob4.entry(i, i) == 1)
    assert plus == 10


def test_cob_serialization():
    cob = change_of_basis(build_family(2))
    doc = cob.to_json()
    assert doc["dim"] == 2
    first = next(iter(doc["entries"]))  # the rows are streamed
    assert first[0] == "-1"
    assert first[1] == "1/2"
    csv = "".join(cob.to_csv())
    assert csv.splitlines()[1].startswith('"∅",-1,1/2,1/2,1/2')


def test_fraction_string_is_the_reduced_fraction():
    for den in (1, 2, 4, 8, 64, 6):
        for num in range(-3 * den, 3 * den + 1):
            assert fraction_string(num, den) == str(Fraction(num, den)), (num, den)


def test_z_map_shape():
    v, vp = make_space(4), make_space(2)
    columns = [z_map(v, 1, characteristic(vp, [y])) for y in range(4)]
    assert all(len(col) == 16 and sorted(col) == [0] * 14 + [1, 1] for col in columns)
