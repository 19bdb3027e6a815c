import json
from fractions import Fraction

import pytest

from trifourier import packed
from trifourier.cyclotomic import Cyc
from trifourier.nonabelian import (
    PIECE_SIGNS,
    PIECES,
    MPair,
    hyperplane_check,
    load_basis,
    load_basis_file,
    mdata,
    nonabelian_ft,
    piece_partition,
    s3_new_basis,
    verify_triangular,
)

from fraction_reference import fraction_det
from nonabelian_reference import (
    apply_columns,
    group_data,
    group_ft,
    kron_ft,
    new_basis_to_json,
    sign_consistency_report,
)

# image coefficients of the first two basis vectors for the smallest group,
# frozen as exact fractions
S3_ROW_TRIVIAL = {
    ("1", "1"): Fraction(1, 6),
    ("1", "r"): Fraction(1, 3),
    ("1", "eps"): Fraction(1, 6),
    ("g2", "1"): Fraction(1, 2),
    ("g2", "eps"): Fraction(1, 2),
    ("g3", "1"): Fraction(1, 3),
    ("g3", "theta"): Fraction(1, 3),
    ("g3", "theta2"): Fraction(1, 3),
}

S3_IMAGE_OF_SUM = {  # image of (1,1) + (1,r)
    ("1", "1"): Fraction(1, 2),
    ("1", "r"): Fraction(1),
    ("1", "eps"): Fraction(1, 2),
    ("g2", "1"): Fraction(1, 2),
    ("g2", "eps"): Fraction(1, 2),
    ("g3", "1"): Fraction(0),
    ("g3", "theta"): Fraction(0),
    ("g3", "theta2"): Fraction(0),
}


def as_fraction(value: Cyc) -> Fraction:
    assert value.is_rational()
    return value.to_rational()


def test_m_sizes():
    assert len(group_data("s2").pairs) == 4
    assert len(mdata("s3").pairs) == 8
    assert len(mdata("s4").pairs) == 21
    assert len(mdata("s5").pairs) == 39


def test_s3_row_of_trivial_pair():
    ft = nonabelian_ft("s3")
    row = ft.matrix[ft.mdata.index[MPair("1", "1")]]
    assert {(p.x, p.rho): as_fraction(v) for p, v in zip(ft.mdata.pairs, row)} == S3_ROW_TRIVIAL


def test_s3_image_of_sum():
    ft = nonabelian_ft("s3")
    md = ft.mdata
    coeffs = [0] * ft.size
    coeffs[md.index[MPair("1", "1")]] = 1
    coeffs[md.index[MPair("1", "r")]] = 1
    image = apply_columns(ft, coeffs)
    got = {(p.x, p.rho): as_fraction(image[j]) for j, p in enumerate(md.pairs)}
    assert got == S3_IMAGE_OF_SUM


def test_s3_basis_vector_fixed_by_transform():
    # (1,1)+(1,r)+(g2,eps) is an exact eigenvector with eigenvalue +1
    ft = nonabelian_ft("s3")
    md = ft.mdata
    coeffs = [0] * ft.size
    for pair in (MPair("1", "1"), MPair("1", "r"), MPair("g2", "eps")):
        coeffs[md.index[pair]] = 1
    image = apply_columns(ft, coeffs)
    assert [as_fraction(v) for v in image] == [Fraction(c) for c in coeffs]


@pytest.mark.parametrize("name", ["s2", "s3", "s4"])
def test_ft_symmetric_involutive_rational(name):
    ft = group_ft(name)
    assert ft.is_symmetric()
    assert ft.is_involution()
    assert all(v.is_rational() for row in ft.matrix for v in row)


def test_ft_s5_symmetric_involutive_real():
    ft = nonabelian_ft("s5")
    assert ft.is_symmetric()
    assert ft.is_involution()
    assert packed.conj(ft.num) == ft.num
    assert not all(v.is_rational() for row in ft.matrix for v in row)  # order-five entries genuinely leave the rationals


def test_traces():
    assert as_fraction(nonabelian_ft("s5").trace()) == 13
    assert as_fraction(nonabelian_ft("s4").trace()) == 9
    assert as_fraction(nonabelian_ft("s3").trace()) == 4
    assert as_fraction(group_ft("s2").trace()) == 2


def test_piece_partitions():
    assert [len(p) for p in piece_partition("s3")] == [1, 1, 6]
    assert [len(p) for p in piece_partition("s4")] == [1, 1, 1, 5, 13]
    assert [len(p) for p in piece_partition("s5")] == [1, 1, 1, 1, 1, 3, 8, 23]
    assert piece_partition("s5")[0] == [MPair("g5", "zeta")]
    assert piece_partition("s4")[3] == [
        MPair("1", "lambda2"), MPair("g2", "1"), MPair("g2'", "1"),
        MPair("g2", "eps''"), MPair("g2", "eps'"),
    ]
    assert PIECES["s5"][5] == [("1", "lambda2"), ("g2", "1"), ("g2", "-1")]


def test_s3_new_basis_variants():
    md = nonabelian_ft("s3").mdata
    for variant, companion in (("g2", "1"), ("e", "eps")):
        nb = s3_new_basis(variant)
        col = md.index[MPair("g3", "theta")]
        support = {md.pairs[i] for i in range(8) if nb.matrix[i][col]}
        assert support == {MPair("1", "1"), MPair("g2", companion), MPair("g3", "theta")}


def test_s3_new_basis_unimodular():
    for variant in ("g2", "e"):
        det = fraction_det([[Fraction(v) for v in row] for row in s3_new_basis(variant).matrix])
        assert det in (1, -1)


@pytest.mark.parametrize("variant", ["g2", "e"])
def test_s3_triangularity_and_signs(variant):
    ft = nonabelian_ft("s3")
    rep = verify_triangular(ft, s3_new_basis(variant))
    assert rep.ok, rep.summary()


def test_hyperplane():
    ft = nonabelian_ft("s5")
    rep = hyperplane_check(ft)
    assert rep.ok, rep.summary()
    # independent membership probes of the defining functional
    md = ft.mdata

    def functional(coeffs):
        return (
            coeffs[md.index[MPair("g5", "zeta")]]
            + coeffs[md.index[MPair("g5", "zeta4")]]
            - coeffs[md.index[MPair("g5", "zeta2")]]
            - coeffs[md.index[MPair("g5", "zeta3")]]
        )

    one_one = [0] * 39
    one_one[md.index[MPair("1", "1")]] = 1
    assert functional(one_one) == 0
    signed = [0] * 39
    signed[md.index[MPair("g5", "zeta")]] = 1
    signed[md.index[MPair("g5", "zeta4")]] = 1
    signed[md.index[MPair("g5", "zeta2")]] = -1
    signed[md.index[MPair("g5", "zeta3")]] = -1
    assert functional(signed) == 4


def test_sign_consistency():
    rep = sign_consistency_report()
    assert rep.ok, rep.summary()


def test_kron_matches_definition():
    prod = group_ft("s2xs2")
    ft2 = group_ft("s2")
    assert prod.matrix == kron_ft(ft2, ft2)
    assert len(group_data("s2xs2").pairs) == 16


def test_basis_roundtrip(tmp_path):
    nb = s3_new_basis("e")
    doc = new_basis_to_json(nb)
    path = tmp_path / "basis.json"
    path.write_text(json.dumps(doc))
    loaded = load_basis_file(str(path))
    assert loaded.matrix == nb.matrix
    rep = verify_triangular(nonabelian_ft("s3"), loaded)
    assert rep.ok


def test_corrupted_basis_non_unimodular():
    nb = s3_new_basis("g2")
    nb.matrix[0] = [2 * v for v in nb.matrix[0]]  # scale a row: det becomes +-2
    rep = verify_triangular(nonabelian_ft("s3"), nb)
    assert not rep.ok
    assert any(c.check_id == "unimodular" and not c.ok for c in rep.checks)


def test_corrupted_basis_breaks_triangularity():
    nb = s3_new_basis("g2")
    md = nonabelian_ft("s3").mdata
    j = md.index[MPair("1", "eps")]
    for i in range(8):  # replace hat(1,eps) by the bare pair (unimodular change)
        nb.matrix[i][j] = 1 if i == j else 0
    rep = verify_triangular(nonabelian_ft("s3"), nb)
    assert not rep.ok
    failing = [c for c in rep.checks if not c.ok]
    assert failing and failing[0].check_id == "triangular"
    assert "hat" in failing[0].details


def test_misordered_pieces_detected(monkeypatch):
    monkeypatch.setitem(PIECES, "s3", list(reversed(PIECES["s3"])))
    monkeypatch.setitem(PIECE_SIGNS, "s3", list(reversed(PIECE_SIGNS["s3"])))
    rep = verify_triangular(nonabelian_ft("s3"), s3_new_basis("g2"))
    assert not rep.ok


def test_load_basis_validation_errors():
    nb = new_basis_to_json(s3_new_basis("g2"))
    missing = {"group": "s3", "expansions": nb["expansions"][:-1]}
    with pytest.raises(ValueError, match="missing"):
        load_basis(missing)
    dup = {"group": "s3", "expansions": nb["expansions"] + [nb["expansions"][0]]}
    with pytest.raises(ValueError, match="duplicate"):
        load_basis(dup)
    bad_pair = json.loads(json.dumps(nb))
    bad_pair["expansions"][0]["terms"][0]["x"] = "g9"
    with pytest.raises(ValueError, match="unknown pair"):
        load_basis(bad_pair)
    frac = json.loads(json.dumps(nb))
    frac["expansions"][0]["terms"][0]["coeff_den"] = 2
    with pytest.raises(ValueError, match="non-integer"):
        load_basis(frac)


def test_load_basis_integrality_reads_like_fractions():
    # integrality is tested with num % den; the entry and the refusal read as Fraction(num, den) does
    for num, den in ((3, 2), (3, -2), (-6, 4), (4, -2), (-4, -1), (0, -5), (10**30 + 1, 10**30 + 1)):
        doc = new_basis_to_json(s3_new_basis("g2"))
        doc["expansions"][0]["terms"][0].update(coeff_num=num, coeff_den=den)
        coeff = Fraction(num, den)
        if coeff.denominator == 1:
            assert load_basis(doc).matrix[0][0] == int(coeff)
        else:
            with pytest.raises(ValueError) as err:
                load_basis(doc)
            assert str(err.value) == f"non-integer coefficient {coeff} in expansion of (1,1)"


def test_ft_json_shape():
    doc = nonabelian_ft("s3").to_json()
    assert doc["group"] == "s3"
    assert len(doc["pairs"]) == 8 and len(doc["entries"]) == 8


def _unimodular(n: int, rng) -> list[list[int]]:
    """A random integer matrix of determinant 1: elementary row additions on the identity."""
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(3 * n):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-3, -2, -1, 1, 2, 3))
        m[i] = [a + c * b for a, b in zip(m[i], m[j])]
    return m


@pytest.mark.parametrize("name", ["s3", "s4", "s5"])
def test_conjugated_packs_once_as_two_products(name):
    # V F U by one packing of F equals the two packed products, for the identity, the s3
    # bases and random unimodular bases with large coefficients
    import random

    from trifourier.bareiss import adjugate
    from trifourier.nonabelian import _conjugated

    ft = nonabelian_ft(name)
    n = ft.size
    rng = random.Random(16)
    bases = [[[int(i == j) for j in range(n)] for i in range(n)], _unimodular(n, rng), _unimodular(n, rng)]
    if name == "s3":
        bases += [s3_new_basis(v).matrix for v in ("g2", "e")]
    for u in bases:
        det, adj = adjugate(u)
        sign = 1 if det > 0 else -1
        v = packed.rational([[sign * a for a in row] for row in adj])
        expected = packed.matmul(v, packed.matmul(ft.num, packed.rational(u)))
        assert _conjugated(ft, u, det, adj) == (expected, ft.den * abs(det))
