"""Cross-checks of the change of basis by the recursion, the peel solve and the fast
sign transform against dense references, and of the recursion's induction, which
`verify` runs at every D, against the dense products B X = W, G G = 2^D I and
G Z = 2 Z G' (the oracles in gf2_reference)."""

import random

import pytest

import gf2_reference
from trifourier import fourier, taumaps
from trifourier.cli import run_suite
from trifourier.family import FamilyStructureError, build_family
from trifourier.fourier import (
    CobMatrix,
    _is_peel_order,
    basis_matrix,
    change_of_basis,
    expansion_rows,
    integer_inverse,
    lemma_checks,
    peel_order,
    push_up,
    phi,
    sign_transform,
    verify_change_of_basis,
    verify_involution,
    verify_z_commutation,
)
from trifourier.gf2 import SymplecticSpace, make_space, span_vectors
from trifourier.taumaps import CircularMap, push_key, tau

from gf2_reference import (
    Fields,
    change_of_basis_by_solve,
    characteristic,
    dense_checks,
    dense_involution,
    dense_z_commutation,
    peel_solve,
    perp,
    w_columns,
    z_map,
)


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
    return [[1 - 2 * space.pairings((x, y))[0] for y in range(size)] for x in range(size)]


def transform_columns(space, mat):
    """G mat, one column at a time."""
    return transpose([sign_transform(space, col) for col in transpose(mat)])


def members_of(fam):
    return [list(e.subspace.vectors()) for e in fam.entries]


@pytest.mark.parametrize("dim", [0, 2, 4, 6, 8])
def test_peel_solve_matches_certified_inverse(dim):
    fam = build_family(dim)
    old = matmul(integer_inverse(basis_matrix(fam)), closed_form_rhs(fam))
    for cob in (change_of_basis_by_solve(fam), change_of_basis(fam)):
        assert all(type(v) is int and v for row in cob.num for v in row.values())
        assert dense(cob) == transpose(old)


@pytest.mark.parametrize("dim", range(0, 11, 2))
def test_w_columns_are_the_closed_forms(dim):
    # the columns of W come from the interval structure, not from a kernel: hold them to perp
    fam = build_family(dim)
    assert [(r, sorted(vectors), weight) for r, vectors, weight in w_columns(fam)] == [
        (r, sorted(perp(fam.space, e.subspace).vectors()), 1 << e.dim) for r, e in enumerate(fam.entries)
    ]


@pytest.mark.parametrize("dim", range(0, 11, 2))
def test_recursion_rows_match_the_solve_oracle(dim):
    # the oracle solves B X = W over all 2^D columns of W; the recursion pushes the
    # rows of D - 2 up and solves for the zero member's row alone
    fam = build_family(dim)
    oracle = change_of_basis_by_solve(fam)
    cob = change_of_basis(fam)
    assert cob.den == oracle.den == 1 << fam.half
    assert cob.num == oracle.num
    # the export never walks the peel; verify derives an order as valid as the oracle's
    assert "peel" not in vars(cob)
    members = members_of(fam)
    assert _is_peel_order(cob.peel, members, 1 << dim) and _is_peel_order(oracle.peel, members, 1 << dim)


@pytest.mark.parametrize("dim", [4, 6])
def test_a_corrupted_row_below_fails_push_agreement(dim):
    below = expansion_rows(dim - 2)
    assert push_up(dim, below) == {key: row for key, row in expansion_rows(dim).items() if key}
    space = make_space(dim)
    for key in below:
        corrupted = {k: dict(row) for k, row in below.items()}
        column = next(iter(corrupted[key]))
        corrupted[key][column] += 1
        if key == 0:
            # the zero member pushes to the lines, which no other push meets: its
            # row rests on the zero-row residual one level down
            push_up(dim, corrupted)
            continue
        with pytest.raises(FamilyStructureError, match="differs from an earlier push") as err:
            push_up(dim, corrupted)
        # the named member is a push of the corrupted one
        pushes = {
            push_key(tau(space, i).key_table(), key, space.interval_keys[space.circular(i)])
            for i in range(1, dim + 2)
        }
        assert any(f"member {space.interval_span(t).rows} at D={dim}:" in str(err.value) for t in pushes)


@pytest.mark.parametrize("dim", [0, 2, 4, 6])
def test_sign_transform_matches_dense_sign_matrix(dim):
    space = make_space(dim)
    g = dense_sign_matrix(space)
    size = 1 << dim
    assert transform_columns(space, identity(size)) == g
    assert matmul(g, g) == [[size * v for v in row] for row in identity(size)]
    assert dense_involution(space) and verify_involution(space) == (True, "")
    rng = random.Random(dim)
    f = [[rng.randrange(-9, 10) for _ in range(3)] for _ in range(size)]
    assert transform_columns(space, f) == matmul(g, f)


def test_sign_transform_refuses_a_degenerate_pairing():
    # a fresh space, so that the shared one keeps its forms; zeroing one Gram row
    # makes the functional of e_1 vanish and the Gram map two-to-one
    space = SymplecticSpace(4)
    space.forms = span_vectors((0, *space.gram[1:]))
    with pytest.raises(ValueError, match=r"^the pairing of SymplecticSpace\(dim=4\) is degenerate$"):
        sign_transform(space, [1] * 16)


@pytest.mark.parametrize("dim", [2, 4, 6])
def test_z_commutation_matches_dense_sign_matrices(dim):
    v, vp = make_space(dim), make_space(dim - 2)
    g, gp = dense_sign_matrix(v), dense_sign_matrix(vp)
    for i in range(1, dim + 2):
        z = transpose([z_map(v, i, characteristic(vp, [y])) for y in range(1 << vp.dim)])
        assert transform_columns(v, z) == matmul(g, z)
        assert matmul(g, z) == [[2 * x for x in row] for row in matmul(z, gp)]
    assert dense_z_commutation(dim).ok and verify_z_commutation(dim).ok


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
    fields = Fields(bound, 3)
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
    return CobMatrix(cob.family, num, cob.den)


def _failed(rep):
    return {c.check_id for c in rep.checks if not c.ok}


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

    bad_peel = CobMatrix(cob.family, cob.num, cob.den)
    bad_peel.peel = cob.peel[::-1]
    assert _failed(verify_change_of_basis(bad_peel)) == {"basis-peelable"}


LEMMA_CHECKS = [
    "lemma:involution-from-gram", "lemma:preserves-form", "lemma:complement", "lemma:push-agreement",
    "lemma:zero-row-residual",
]


def _dense_failures(cob):
    """The failing checks of the dense B X = W oracle on a change of basis."""
    return {check for check, ok, _ in dense_checks(cob) if not ok}


@pytest.mark.parametrize("dim", [4, 6, 8])
def test_lemma_checks_pass_and_catch_corruptions(dim):
    cob = change_of_basis(build_family(dim))
    rep = verify_change_of_basis(cob)
    assert rep.ok, rep.summary()
    assert [c.check_id for c in rep.checks] == [
        "basis-peelable", *LEMMA_CHECKS, "triangular", "diagonal signs", "trace", "plus-count", "involution"
    ]

    # a pushed row off by one fails push agreement; the zero row its residual; the dense
    # residual W - B X fails on both
    r = len(cob.num) - 1
    c = next(iter(cob.num[r]))
    pushed = _corrupted(cob, r, c, cob.num[r][c] + 1)
    assert "lemma:push-agreement" in _failed(verify_change_of_basis(pushed))
    assert _dense_failures(pushed) == {"solve-residual"}
    c = max(cob.num[0])
    zero = _corrupted(cob, 0, c, cob.num[0][c] + 1)
    failed = _failed(verify_change_of_basis(zero))
    assert "lemma:zero-row-residual" in failed and "lemma:push-agreement" not in failed
    assert _dense_failures(zero) == {"solve-residual"}

    # in rows across the matrix, a flipped diagonal, the row's last nonzero off by one
    # and an entry in the zero member's column: the two certificates of B X = W give
    # one verdict
    for r in (0, 1, len(cob.num) // 2, len(cob.num) - 1):
        for c, value in [(r, -cob.num[r][r]), (max(cob.num[r]), cob.num[r][max(cob.num[r])] + 1), (0, 2)]:
            corrupted = _corrupted(cob, r, c, value)
            assert not all(ok for _, ok, _ in lemma_checks(corrupted)), (r, c)
            assert _dense_failures(corrupted) == {"solve-residual"}, (r, c)


def _lemma_failures(dim):
    """{check: details} of the failing lemma checks of the D change of basis, the lemmas
    for G G = 2^k I and G Z = 2 Z G' at every level among them."""
    return {check: details for check, ok, details in lemma_checks(change_of_basis(build_family(dim))) if not ok}


@pytest.mark.parametrize("dim", range(0, 13, 2))
def test_lemma_chain_passes_where_the_dense_products_pass(dim):
    # the verdicts on the real change of basis at every D the dense products can reach
    space = make_space(dim)
    assert dense_involution(space) and verify_involution(space) == (True, "")
    cob = change_of_basis(build_family(dim))
    assert _dense_failures(cob) == set() and all(ok for _, ok, _ in lemma_checks(cob))
    if dim >= 2:
        assert dense_z_commutation(dim).ok
    assert verify_z_commutation(dim).ok and _lemma_failures(dim) == {}

    # the fourier suite: one change of basis report, one line for each lemma
    rep = run_suite(dim, "fourier")
    assert rep.ok, rep.summary()
    prefix = f"change-of-basis D={dim}:"
    assert [c.check_id for c in rep.checks] == [
        f"{prefix}basis-peelable",
        *(prefix + check for check in LEMMA_CHECKS),
        *(prefix + check for check in ("triangular", "diagonal signs", "trace", "plus-count", "involution")),
    ]


def _dense_ok(check, *args):
    """The oracle's verdict; the transform refuses a degenerate pairing, which fails it."""
    try:
        return check(*args)
    except ValueError as err:
        assert "is degenerate" in str(err)
        return False


@pytest.mark.parametrize("dim", [4, 6, 8])
def test_lemma_chain_fails_on_a_corrupted_forms_table(dim, monkeypatch):
    space, below = make_space(dim), make_space(dim - 2)
    # the maps and rows are made, and cached, from the sound tables
    assert _lemma_failures(dim) == {}
    with monkeypatch.context() as m:
        # the table of D - 2, which G' reads: the z-commutation rests on it too
        m.setattr(below, "forms", span_vectors((0, *below.gram[1:])))
        m.delitem(vars(below), "gram_inverse", raising=False)  # the transform reads the corrupted table
        rep = verify_z_commutation(dim)
        assert not rep.ok and rep.checks[0].details == f"D={dim - 2}: forms is not the span table of the Gram rows"
        assert verify_involution(space) == (True, "")
        assert not _dense_ok(lambda: dense_z_commutation(dim).ok) and dense_involution(space)
    gram = space.gram
    # the functional of e_1 zeroed: forms is no longer the span table of the Gram rows
    monkeypatch.setattr(space, "forms", span_vectors((0, *gram[1:])))
    monkeypatch.delitem(vars(space), "gram_inverse", raising=False)
    assert _lemma_failures(dim) == {
        "lemma:preserves-form": f"tau_2 D={dim}",
        "lemma:complement": f"tau_1 D={dim}",
        "lemma:involution-from-gram": f"D={dim}: forms is not the span table of the Gram rows",
    }
    assert not _dense_ok(dense_involution, space)
    # e_1 cut out of the pairing, Gram rows and forms alike: alternating, but degenerate
    for rows, fault in [
        (tuple(row & ~1 for row in (0, *gram[1:])), "forms is not a bijection"),
        # (e_3, e_1) flipped but not (e_1, e_3): (x, x) = 1 at x = e_1 + e_3
        ((gram[0] ^ 4, *gram[1:]), "the pairing is not alternating: (x, x) = 1 at x = 5"),
    ]:
        monkeypatch.setattr(space, "gram", rows)
        monkeypatch.setattr(space, "forms", span_vectors(rows))
        monkeypatch.delitem(vars(space), "gram_inverse", raising=False)
        assert verify_involution(space) == (False, fault)
        rep = verify_z_commutation(dim)
        assert not rep.ok and rep.checks[0].details == f"D={dim}: {fault}"
        assert not _dense_ok(dense_involution, space)
        assert not _dense_ok(lambda: dense_z_commutation(dim).ok)


def test_gram_table_is_checked_at_every_level(monkeypatch):
    # Level 4's Gram table with one entry off: no map and no circular vector reads
    # forms[5] = Gram(e_1 + e_3), so only the Gram lemma at that level can see it.
    space = make_space(4)
    space.gram_inverse  # cached now, so that the patch below restores it
    forms = list(space.forms)
    forms[5] ^= 5
    monkeypatch.setattr(space, "forms", forms)
    monkeypatch.delitem(vars(space), "gram_inverse")  # the dense oracle reads the corrupted table
    rep = run_suite(8, "fourier")
    failing = [(c.check_id, c.details) for c in rep.checks if not c.ok]
    assert failing == [
        ("change-of-basis D=8:lemma:involution-from-gram", "D=4: forms is not the span table of the Gram rows")
    ]
    assert not _dense_ok(dense_involution, space)


def _fake_tau(monkeypatch, level, i, images):
    """Make taumaps.tau give, for tau_i at D = level, the map with images(tau_i's images)."""
    real = taumaps.tau
    space = make_space(level)
    fake = CircularMap(level - 2, level, tuple(images(list(real(space, i).images))))
    monkeypatch.setattr(taumaps, "tau", lambda sp, j: fake if (sp.dim, j) == (level, i) else real(sp, j))


def _dense_z_failures(level):
    return {c.check_id for c in dense_z_commutation(level).checks if not c.ok}


# At D = 2 the maps have the zero space as source: there is nothing to corrupt.
@pytest.mark.parametrize("below, dim", [(0, 4), (0, 6), (2, 6), (0, 8), (2, 8)])
def test_lemma_chain_fails_on_a_map_off_the_perp(dim, below, monkeypatch):
    level, i = dim - below, 3
    e_next = make_space(level).circular(i + 1)  # (e_(i+1), e_i) = 1

    def off_the_perp(images):
        images[0] ^= e_next
        return images

    _fake_tau(monkeypatch, level, i, off_the_perp)
    failed = _lemma_failures(dim)
    assert failed["lemma:complement"] == f"tau_{i} D={level}"
    assert "lemma:push-agreement" not in failed and "lemma:involution-from-gram" not in failed
    # the dense G Z = 2 Z G' at the level the lemma names fails at the same map
    assert _dense_z_failures(level) == {f"i={i}"}


@pytest.mark.parametrize("below, dim", [(0, 4), (0, 6), (2, 6), (0, 8), (2, 8)])
def test_lemma_chain_fails_on_a_map_that_breaks_the_form(dim, below, monkeypatch):
    # the image of e'_1 + e'_2 in place of that of e'_1: the same span, so still a
    # complement, but (e'_1, e'_3) = 0 goes to (e'_1 + e'_2, e'_3) = 1
    level, i = dim - below, 2

    def sheared(images):
        images[0] ^= images[1]
        return images

    _fake_tau(monkeypatch, level, i, sheared)
    assert _lemma_failures(dim) == {"lemma:preserves-form": f"tau_{i} D={level}"}
    if level > 4:
        assert _dense_z_failures(level) == {f"i={i}"}
    else:
        # From a plane every complement of e_i in its perp preserves the form, so the
        # sheared linear map, the coordinate table that G Z = 2 Z G' reads, is sound.
        # The shear breaks the zero sum of the circular images, which the lemma reads.
        assert _dense_z_failures(level) == set()


@pytest.mark.parametrize("dim", [4, 6, 8])
def test_lemma_chain_fails_on_a_zero_row_below_the_top(dim, monkeypatch):
    # The certificate reads level k's corrupted zero row; the recursion, whose levels are
    # all cached before the substitution, never runs again and so never sees it.
    real = fourier.expansion_rows
    level = dim - 4
    change_of_basis(build_family(dim))
    misses = real.cache_info().misses

    def off_by_one(k):
        rows = real(k)
        if k != level:
            return rows
        zero = dict(rows[0])
        zero[max(zero)] += 1
        return {**rows, 0: zero}

    monkeypatch.setattr(fourier, "expansion_rows", off_by_one)
    assert _lemma_failures(dim) == {"lemma:zero-row-residual": f"B x - 1_V is not zero at D={level}"}
    # the dense residual of level k, on the rows the certificate read, fails too
    fam = build_family(level)
    index = fam.index_of_key
    num = [{} for _ in range(len(fam))]
    for key, row in off_by_one(level).items():
        num[index[key]] = {index[c]: v for c, v in row.items()}
    assert _dense_failures(CobMatrix(fam, num, 1 << fam.half)) == {"solve-residual"}
    assert real.cache_info().misses == misses


def _unpack(fields, packed, count):
    """The `count` signed fields of one packed row, lowest first."""
    out = []
    mask = (1 << fields.bits) - 1
    for _ in range(count):
        c = packed & mask
        if c >= 1 << (fields.bits - 1):
            c -= 1 << fields.bits
        out.append(c)
        packed = (packed - c) >> fields.bits
    return out


@pytest.mark.parametrize("dim", [6, 8])
def test_involution_is_one_batch(dim, monkeypatch):
    # the dense oracle transforms I, one packed int per row, twice: G G I is 2^D I
    space = make_space(dim)
    size = 1 << dim
    calls = []

    def spy(sp, f):
        out = sign_transform(sp, f)
        calls.append(out)
        return out

    monkeypatch.setattr(gf2_reference, "sign_transform", spy)
    assert dense_involution(space)
    assert len(calls) == 2
    fields = Fields(size, size)
    rows = [_unpack(fields, x, size) for x in calls[1]]
    assert [list(col) for col in zip(*rows)] == [[size * (x == v) for x in range(size)] for v in range(size)]

    # one wrong field in the last row fails the check
    def off_by_one(sp, f):
        out = spy(sp, f)
        if len(calls) == 4:
            out[-1] += 1
        return out

    monkeypatch.setattr(gf2_reference, "sign_transform", off_by_one)
    assert not dense_involution(space)
