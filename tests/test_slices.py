"""The packed cyclotomic-matrix kernel against definitional `Cyc` computations."""

import ast
import random
from fractions import Fraction
from pathlib import Path

import pytest

from trifourier import packed
from trifourier.bareiss import adjugate
from trifourier.cyclotomic import Cyc
from trifourier.groups import CharacterTable, _cyclic_table, pconj, pinv, pmul
from trifourier.nonabelian import (
    FTMatrix,
    MPair,
    _conjugated,
    hyperplane_check,
    mdata,
    nonabelian_ft,
    s3_new_basis,
)
from trifourier.packed import DEGREE, POWERS, conj_coeffs

from nonabelian_reference import (
    apply_columns,
    conjugated_reference,
    cyc_product,
    group_data,
    group_ft,
    rational,
    to_cyc_rows,
    unimodular,
)


def reference_ft(name: str) -> list[list[Cyc]]:
    """F[(x,s),(y,t)] = 1/(|Z(x)||Z(y)|) sum over g in G with x.u = u.x, u = g y g^-1,
    of s(u) conj(t(g^-1 x g)), summed entry by entry in `Cyc` arithmetic."""
    md = group_data(name)
    n = len(md.pairs)
    matrix = [[Cyc.from_rational(0)] * n for _ in range(n)]
    for xl in md.class_labels:
        x, zx = md.reps[xl], md.tables[xl]
        for yl in md.class_labels:
            y, zy = md.reps[yl], md.tables[yl]
            terms = []
            for g in md.group.elements:
                u = pconj(g, y)
                if pmul(x, u) == pmul(u, x):
                    terms.append((u, pconj(pinv(g), x)))
            scale = Cyc.from_rational(Fraction(1, zx.order * zy.order))
            for sl in zx.labels:
                for tl in zy.labels:
                    acc = Cyc.from_rational(0)
                    for u, v in terms:
                        acc = acc + Cyc(zx.values[sl][u]) * Cyc(conj_coeffs(zy.values[tl][v]))
                    matrix[md.index[MPair(xl, sl)]][md.index[MPair(yl, tl)]] = acc * scale
    return matrix


def random_vec(rng: random.Random, size: int = 5) -> packed.Vec:
    return tuple(rng.randint(-size, size) for _ in range(DEGREE))


@pytest.mark.parametrize("name", ["s2", "s3", "s4", "s5", "s3xs2"])
def test_slice_build_matches_definition(name):
    ft = group_ft(name)
    assert ft.matrix == reference_ft(name)


@pytest.mark.parametrize("name", ["s3", "s4", "s5"])
def test_slice_predicates_match_cyc(name):
    ft = nonabelian_ft(name)
    m = ft.matrix
    n = ft.size
    assert ft.trace() == sum((m[i][i] for i in range(n)), Cyc.from_rational(0))
    assert ft.is_symmetric() == all(m[i][j] == m[j][i] for i in range(n) for j in range(n))
    assert (packed.conj(ft.num) == ft.num) == all(Cyc(conj_coeffs(v.num), v.den) == v for row in m for v in row)
    assert (not any(any(v[1:]) for row in ft.num for v in row)) == all(v.is_rational() for row in m for v in row)


def test_fold_and_conj_match_cyc_arithmetic():
    rng = random.Random(5)
    a, aden = [[random_vec(rng) for _ in range(3)] for _ in range(2)], 6
    b, bden = [[random_vec(rng) for _ in range(2)] for _ in range(3)], 7
    xs, ys = to_cyc_rows(a, aden), to_cyc_rows(b, bden)
    got = to_cyc_rows(packed.matmul(a, b), aden * bden)
    assert got == cyc_product(xs, ys)
    assert to_cyc_rows(packed.conj(a), aden) == [[Cyc(conj_coeffs(v.num), v.den) for v in row] for row in xs]


def test_perturbed_slice_fails_involution():
    ft = nonabelian_ft("s5")
    num = [list(row) for row in ft.num]
    i, j = ft.mdata.index[MPair("g5", "zeta")], ft.mdata.index[MPair("g3", "1")]
    bumped = tuple(c + (k == 6) for k, c in enumerate(num[i][j]))
    num[i][j] = num[j][i] = bumped  # still symmetric
    broken = FTMatrix(ft.mdata, num, ft.den)
    assert broken.is_symmetric()
    assert not broken.is_involution()
    assert not hyperplane_check(broken).ok


@pytest.mark.parametrize("row, col", [(("g5", "zeta"), ("g3", "1")), (("g5", "zeta2"), ("g5", "zeta"))])
def test_corrupted_s5_fails_the_eigenvector_check_at_the_cyc_residual(row, col):
    # phi . F as four signed rows gives the residual that `Cyc` arithmetic gives; the second
    # corruption changes the entry the scalar is read from, so the scalar leaves the rationals
    ft = nonabelian_ft("s5")
    md = ft.mdata
    i, j = md.index[MPair(*row)], md.index[MPair(*col)]
    num = [list(r) for r in ft.num]
    num[i][j] = num[j][i] = tuple(c + (k == 3) for k, c in enumerate(num[i][j]))
    broken = FTMatrix(md, num, ft.den)
    phi = {md.index[MPair("g5", rho)]: sign for rho, sign in (("zeta", 1), ("zeta4", 1), ("zeta2", -1), ("zeta3", -1))}
    m = to_cyc_rows(num, ft.den)
    composed = [sum((m[k][c] * s for k, s in phi.items()), Cyc.from_rational(0)) for c in range(ft.size)]
    lam = composed[md.index[MPair("g5", "zeta")]]
    residual = [str(md.pairs[c]) for c in range(ft.size) if composed[c] != lam * phi.get(c, 0)]
    check = next(c for c in hyperplane_check(broken).checks if c.check_id == "functional is an eigenvector")
    assert not check.ok and check.details == f"residual at {residual[:3]}"


@pytest.mark.parametrize("name", ["s3", "s4", "s5"])
def test_square_upper_is_the_upper_triangle_of_the_square(name):
    ft = nonabelian_ft(name)
    square = packed.matmul(ft.num, ft.num)
    assert packed.square_upper(ft.num) == [row[i:] for i, row in enumerate(square)]
    rng = random.Random(7)
    cells = {(i, j): random_vec(rng) for i in range(4) for j in range(i, 4)}
    num, den = [[cells[min(i, j), max(i, j)] for j in range(4)] for i in range(4)], 5
    sym = to_cyc_rows(num, den)
    want = cyc_product(sym, sym)
    got = to_cyc_rows(packed.square_upper(num), den * den)
    assert got == [want[i][i:] for i in range(4)]


def test_matmul_unpacks_each_distinct_sum_once(monkeypatch):
    ft = nonabelian_ft("s5")
    unpacked = []
    unpack = packed.Packing.unpack
    monkeypatch.setattr(packed.Packing, "unpack", lambda pk, x: unpacked.append(x) or unpack(pk, x))
    square = packed.matmul(ft.num, ft.num)
    # 4 distinct packed sums among the 1,521 entries, 2 values (den^2 and 0) once folded
    assert len(unpacked) == len(set(unpacked)) == 4
    assert len({v for row in square for v in row}) == 2
    unpacked.clear()
    packed.square_upper(ft.num)
    assert len(unpacked) == len(set(unpacked)) <= 4


def test_involution_without_symmetry_is_checked_in_full():
    md = mdata("s3")
    one, zero, minus = (1,) + packed.ZERO[1:], packed.ZERO, (-1,) + packed.ZERO[1:]
    assert FTMatrix(md, [[one, one], [zero, minus]], 1).is_involution()  # F^2 = I, F != F^T
    assert not FTMatrix(md, [[one, one], [zero, minus]], 1).is_symmetric()
    assert not FTMatrix(md, [[one, one], [zero, one]], 1).is_involution()
    assert not FTMatrix(md, [[one, zero], [one, minus]], 2).is_involution()


def test_wrong_character_value_fails_validate():
    table = mdata("s4").tables["g2'"]
    values = {lab: dict(vals) for lab, vals in table.values.items()}
    g = next(e for e in table.group_elements if values["r"][e] == packed.ZERO)
    values["r"][g] = POWERS[15]  # the imaginary unit
    broken = CharacterTable(table.group_elements, table.labels, values)
    with pytest.raises(AssertionError, match=r"orthogonality fails for \(1,r\)"):
        broken.validate()
    values["r"] = dict(table.values["r"])
    values["r"][table.group_elements[0]] = (3,) + packed.ZERO[1:]  # the identity: degree 3
    with pytest.raises(AssertionError, match="sum of squared degrees"):
        CharacterTable(table.group_elements, table.labels, values).validate()
    # z^25 at a generator of order 5 is no character: its fifth power is z^5, not 1
    g5 = mdata("s5").reps["g5"]
    typo = _cyclic_table(g5, [("1", 0), ("bad", 25), ("zeta2", 24), ("zeta3", 36), ("zeta4", 48)])
    with pytest.raises(AssertionError, match=r"orthogonality fails for \(1,bad\)"):
        typo.validate()


def test_headroom_guard_rejects_out_of_range_product():
    # Python ints cannot overflow; the guard left is the packing width's headroom.  Every
    # unreduced coefficient of sum_l a_l c_l reaches the proven bound 16 m max|a| max|c|
    # at z^15, and all 31 lie within it: the chosen width decodes them exactly, and a
    # packing one bit narrower wraps the digit at z^15
    m, top_a, top_c = 3, 2**61 + 1, 2**70 - 3
    bound = m * DEGREE * top_a * top_c
    for sign in (1, -1):
        a = [[(sign * top_a,) * DEGREE] * m]
        c = [[(top_c,) * DEGREE]] * m
        want = cyc_product(to_cyc_rows(a, 1), to_cyc_rows(c, 1))
        assert packed.matmul(a, c) == [[want[0][0].num]]
        pk = packed.for_product(m, top_a, top_c)
        assert pk.half > bound >= pk.half // 2
        dot = sum(pk.pack(u) * pk.pack(v[0]) for u, v in zip(a[0], c))
        assert pk.unpack(dot) == want[0][0].num
        narrow = packed.Packing(bound >> 1)
        assert narrow.half <= bound
        assert narrow.unpack(sum(narrow.pack(u) * narrow.pack(v[0]) for u, v in zip(a[0], c))) != want[0][0].num


def test_slice_product_past_int64_runs_in_python_ints():
    big = rational([[2**31] * 3] * 3)
    wide = packed.matmul(big, big)
    assert [[v[0] for v in row] for row in wide] == [[3 * 2**62] * 3] * 3  # past 2^63 - 1
    assert all(v[1:] == packed.ZERO[1:] for row in wide for v in row)
    ft = nonabelian_ft("s3")
    scaled = FTMatrix(ft.mdata, [[tuple(x * 2**40 for x in v) for v in row] for row in ft.num], ft.den * 2**40)
    assert scaled.is_involution()  # the same F, with den^2 and every coefficient of F^2 far past 2^63
    assert scaled.matrix == ft.matrix


def test_unpack_reads_every_degree_exactly():
    # unpack reads only the digits up to |x|.bit_length() // b; the hardest case for
    # that cut is a top coefficient of +-1 over lower ones at the bound of the other sign
    rng = random.Random(11)
    for bound in (1, 5, 2**31, 3 * 10**40):
        pk = packed.Packing(bound)
        for degree in range(2 * DEGREE - 1):
            for _ in range(6):
                poly = [rng.choice((-bound, bound, rng.randint(-bound, bound))) for _ in range(degree)]
                top = rng.choice((-1, 1, -bound, bound))
                poly.append(top)
                if rng.random() < 0.5:
                    poly[:-1] = [-bound if top > 0 else bound] * degree
                x = sum(c << (pk.bits * s) for s, c in enumerate(poly))
                want = sum((Cyc(POWERS[s]) * c for s, c in enumerate(poly)), Cyc.from_rational(0))
                assert pk.unpack(x) == want.num


def test_apply_columns_with_large_coefficients():
    ft = nonabelian_ft("s3")
    coeffs = [Fraction(10**30 + k, 7) for k in range(ft.size)]
    want = [
        sum((ft.matrix[i][j] * Cyc.from_rational(c) for j, c in enumerate(coeffs)), Cyc.from_rational(0))
        for i in range(ft.size)
    ]
    assert apply_columns(ft, coeffs) == want


@pytest.mark.parametrize("change", ["none", "huge", "scaled", "g2", "s4-unimodular"])
def test_conjugated_matrix_matches_definition(change, monkeypatch):
    # U^-1 F U, each distinct value unpacked once, against the `Cyc` reference entry for entry:
    # both embedded s3 bases, two changes of the "e" basis and a random unimodular s4 basis
    unpacked = []
    unpack = packed.Packing.unpack
    monkeypatch.setattr(packed.Packing, "unpack", lambda pk, x: unpacked.append(x) or unpack(pk, x))
    ft = nonabelian_ft("s4" if change == "s4-unimodular" else "s3")
    u = s3_new_basis("g2" if change == "g2" else "e").matrix
    if change == "huge":  # add 10^25 times column 0 to column 5: still unimodular, far beyond int64
        u = [row[:5] + [row[5] + 10**25 * row[0]] + row[6:] for row in u]
    if change == "scaled":  # double column 5: the inverse has denominator 2
        u = [row[:5] + [2 * row[5]] + row[6:] for row in u]
    if change == "s4-unimodular":
        u = unimodular(ft.size, random.Random(21))
    det, adj = adjugate(u)
    assert to_cyc_rows(*_conjugated(ft, u, det, adj)) == conjugated_reference(ft, u)
    assert len(unpacked) == len(set(unpacked))


@pytest.mark.parametrize("name", ["s3", "s5"])
def test_to_json_matches_cyc_entries(name):
    ft = nonabelian_ft(name)
    assert ft.to_json()["entries"] == [[v.to_json() for v in row] for row in ft.matrix]


def _fraction_text(num, den) -> str:
    """The `Cyc(...)` text from `fractions`, an oracle sharing no code with `packed`."""
    if not any(num[1:]):
        return f"Cyc({Fraction(num[0], den)})"
    return "Cyc(" + " + ".join(f"{Fraction(c, den)}*z^{j}" for j, c in enumerate(num) if c) + ")"


def test_renderers_agree_with_cyc():
    # every distinct entry of the three matrices and of U^-1 F U for both s3 bases, as the
    # commands render them (over the matrix's denominator, not in lowest terms), and the
    # edge values: zero, a negative denominator, a common factor and a non-rational value
    values = {(v, ft.den) for ft in map(nonabelian_ft, ("s3", "s4", "s5")) for row in ft.num for v in row}
    ft = nonabelian_ft("s3")
    for variant in ("g2", "e"):
        u = s3_new_basis(variant).matrix
        rows, den = _conjugated(ft, u, *adjugate(u))
        values |= {(v, den) for row in rows for v in row}
    one = POWERS[0]
    values |= {(packed.ZERO, 7), (packed.ZERO, -3), (tuple(-3 * a for a in one), -6),
               (tuple(4 * a - 6 * b for a, b in zip(one, POWERS[12])), 10)}
    for num, den in values:
        c = Cyc(num, den)
        assert packed.lowest_terms(num, den) == (c.num, c.den)
        low = c.num, c.den
        assert packed.cyc_text(*low) == repr(c) == _fraction_text(*low)
        assert packed.json_terms(*low) == c.to_json()
        if den > 0:  # what the commands render: the value over its matrix's denominator
            assert packed.cyc_text(num, den) == repr(c)
            assert packed.json_terms(num, den) == c.to_json()
            assert packed.scalar_text(num, den) == (str(c.to_rational()) if c.is_rational() else repr(c))


def test_cyc_renders_through_packed(monkeypatch):
    # Cyc keeps no second copy of the lowest terms or the rendering: it calls `packed`
    from trifourier import cyclotomic

    calls = []
    for name in ("lowest_terms", "cyc_text", "json_terms"):
        real = getattr(cyclotomic, name)
        monkeypatch.setattr(cyclotomic, name, lambda *a, name=name, real=real: calls.append(name) or real(*a))
    c = Cyc(POWERS[20], 4)
    assert (repr(c), c.to_json()) == (packed.cyc_text(c.num, c.den), packed.json_terms(c.num, c.den))
    assert calls == ["lowest_terms", "cyc_text", "json_terms"]
    imported = {alias.name for node in ast.walk(ast.parse(Path(cyclotomic.__file__).read_text("utf-8")))
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert not imported & {"gcd", "fraction_string"}
