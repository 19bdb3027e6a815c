import pytest

from trifourier.cyclotomic import Cyc
from trifourier.groups import (
    cycle_type,
    from_cycles,
    identity_perm,
    pconj,
    perm_order,
    pinv,
    pmul,
    restrict,
    symmetric_group,
)
from trifourier.nonabelian import mdata
from trifourier.packed import POWERS, conj_coeffs

from nonabelian_reference import char_value, group_data, product_group


def test_perm_composition_convention():
    a = from_cycles(3, (0, 1))
    b = from_cycles(3, (1, 2))
    # (a*b)(x) = a(b(x)): 2 -> 1 -> 0
    assert pmul(a, b)[2] == 0
    assert pmul(a, pinv(a)) == identity_perm(3)


def test_conjugation_moves_support():
    g = from_cycles(3, (0, 1, 2))
    x = from_cycles(3, (0, 1))
    assert pconj(g, x) == from_cycles(3, (1, 2))


def test_cycle_type_and_order():
    assert cycle_type(from_cycles(5, (0, 1, 2), (3, 4))) == (3, 2)
    assert perm_order(from_cycles(5, (0, 1, 2), (3, 4))) == 6
    assert perm_order(identity_perm(4)) == 1


def test_restrict():
    g = from_cycles(5, (0, 1, 2), (3, 4))
    assert restrict(g, (0, 1, 2)) == from_cycles(3, (0, 1, 2))
    assert restrict(g, (3, 4)) == from_cycles(2, (0, 1))


def test_symmetric_group_orders():
    for n, size in ((2, 2), (3, 6), (4, 24), (5, 120)):
        assert len(symmetric_group(n).elements) == size


def test_centralizer_orders_s5():
    md = mdata("s5")
    g = md.group
    expected = {"1": 120, "g2": 12, "g2'": 8, "g3": 6, "g6": 6, "g4": 4, "g5": 5}
    for label, size in expected.items():
        assert len(g.centralizer(md.reps[label])) == size


def test_class_sizes_s5():
    md = mdata("s5")
    total = sum(len({pconj(g, md.reps[lab]) for g in md.group.elements}) for lab in md.class_labels)
    assert total == 120


def test_all_tables_validate():
    for name in ("s2", "s3", "s4", "s5", "s2xs2", "s3xs2"):
        for table in group_data(name).tables.values():
            table.validate()


def test_s5_irreducible_degrees():
    md = mdata("s5")
    table = md.tables["1"]
    degrees = sorted(int(Cyc(char_value(table, lab, identity_perm(5))).to_rational()) for lab in table.labels)
    assert degrees == [1, 1, 4, 4, 5, 5, 6]


def test_nu_convention():
    # nu is the five-dimensional character taking +1 on transpositions
    md = mdata("s5")
    table = md.tables["1"]
    transposition = from_cycles(5, (0, 1))
    assert Cyc(char_value(table, "nu", transposition)) == Cyc.one()
    assert Cyc(char_value(table, "nu'", transposition)) == Cyc.from_rational(-1)


def test_klein_convention():
    # eps' detects the class element itself, eps'' the complementary transposition
    md = mdata("s4")
    g2 = md.reps["g2"]
    table = md.tables["g2"]
    comp = next(
        g for g in table.column
        if cycle_type(g) == (2, 1, 1) and g != g2
    )
    assert Cyc(char_value(table, "eps'", g2)) == Cyc.from_rational(-1)
    assert Cyc(char_value(table, "eps'", comp)) == Cyc.one()
    assert Cyc(char_value(table, "eps''", g2)) == Cyc.one()
    assert Cyc(char_value(table, "eps''", comp)) == Cyc.from_rational(-1)
    assert Cyc(char_value(table, "eps", pmul(g2, comp))) == Cyc.one()


def test_dihedral_convention():
    md = mdata("s4")
    table = md.tables["g2'"]
    center = md.reps["g2'"]
    four_cycle = next(g for g in table.column if cycle_type(g) == (4,))
    transposition = next(g for g in table.column if cycle_type(g) == (2, 1, 1))
    assert Cyc(char_value(table, "r", center)) == Cyc.from_rational(-2)
    assert Cyc(char_value(table, "r", four_cycle)) == Cyc.from_rational(0)
    assert Cyc(char_value(table, "eps'", four_cycle)) == Cyc.from_rational(-1)
    assert Cyc(char_value(table, "eps'", transposition)) == Cyc.one()
    assert Cyc(char_value(table, "eps''", transposition)) == Cyc.from_rational(-1)
    assert Cyc(char_value(table, "eps''", four_cycle)) == Cyc.one()


def test_g6_labels_are_values_at_the_generator():
    md = mdata("s5")
    g6 = md.reps["g6"]
    table = md.tables["g6"]
    th = Cyc(POWERS[20])
    for label, want in [
        ("1", Cyc.one()), ("-1", Cyc.from_rational(-1)),
        ("theta", th), ("theta2", th * th),
        ("-theta", -th), ("-theta2", -(th * th)),
    ]:
        assert Cyc(char_value(table, label, g6)) == want


@pytest.mark.parametrize("name", ["s3", "s4", "s5"])
def test_cyclic_exponents_give_the_labelled_values(name):
    # each cyclic table is written as exponents of z; at the generator every label
    # takes the value its name says, computed here in field arithmetic
    th, i, zeta, minus = Cyc(POWERS[20]), Cyc(POWERS[15]), Cyc(POWERS[12]), Cyc.from_rational(-1)
    named = {
        "1": Cyc.one(), "-1": minus, "eps": minus, "i": i, "-i": -i,
        "theta": th, "theta2": th * th, "-theta": -th, "-theta2": -(th * th),
        "eps*theta": minus * th, "eps*theta2": minus * th * th,
        "zeta": zeta, "zeta2": zeta**2, "zeta3": zeta**3, "zeta4": zeta**4,
    }
    generator_class = {  # class -> the class of its centralizer's generator
        "s3": {"g2": "g2", "g3": "g3"},
        "s4": {"g3": "g3", "g4": "g4"},
        "s5": {"g3": "g6", "g6": "g6", "g4": "g4", "g5": "g5"},
    }[name]
    md = mdata(name)
    for lab, gen_lab in generator_class.items():
        table, gen = md.tables[lab], md.reps[gen_lab]
        for chl in table.labels:
            assert Cyc(char_value(table, chl, gen)) == named[chl], (name, lab, chl)


@pytest.mark.parametrize("label", ["g3", "g2"])
def test_s5_product_centralizers_are_products_of_their_parts(label):
    # Z(g3) = C3 x S2 and Z(g2) = S3 x S2 over the supports {0,1,2} | {3,4}: each character,
    # at every element, is a character of C3 or S3 on {0,1,2} times 1 or the sign on {3,4}
    parts = {
        "g3": ("g3", [("1", "1", 1), ("theta", "theta", 1), ("theta2", "theta2", 1),
                      ("eps", "1", -1), ("eps*theta", "theta", -1), ("eps*theta2", "theta2", -1)]),
        "g2": ("1", [("1", "1", 1), ("-1", "1", -1), ("r", "r", 1),
                     ("-r", "r", -1), ("eps", "eps", 1), ("-eps", "eps", -1)]),
    }
    part_label, characters = parts[label]
    md = mdata("s5")
    table = md.tables[label]
    part = mdata("s3").tables[part_label]  # C3 = <(0 1 2)> or S3, on the points 0, 1, 2
    assert table.column.keys() == set(md.group.centralizer(md.reps[label]))
    assert table.labels == tuple(lab for lab, _, _ in characters)
    for lab, part_lab, twist in characters:
        for g in table.column:
            sign = twist if g[3] == 4 else 1
            want = Cyc(char_value(part, part_lab, restrict(g, (0, 1, 2)))) * Cyc.from_rational(sign)
            assert Cyc(char_value(table, lab, g)) == want, (label, lab, g)


def test_column_orthogonality():
    # complement to the row check inside validate(): on class representatives
    # of each centralizer, sum over characters of chi(g) conj(chi(h)) equals
    # the centralizer-in-centralizer order on the diagonal and 0 off it
    for name in ("s3", "s4", "s5"):
        md = mdata(name)
        for lab in md.class_labels:
            table = md.tables[lab]
            elems = list(table.column)
            classes = []
            seen = set()
            for g in elems:
                if g in seen:
                    continue
                cls = {pconj(z, g) for z in elems}
                seen |= cls
                classes.append((g, len(cls)))
            assert sum(size for _, size in classes) == len(elems)
            for g, size_g in classes:
                for h, _ in classes:
                    acc = Cyc.from_rational(0)
                    for chl in table.labels:
                        acc = acc + Cyc(char_value(table, chl, g)) * Cyc(conj_coeffs(char_value(table, chl, h)))
                    want = len(elems) // size_g if g == h else 0
                    assert acc.is_rational() and acc.to_rational() == want


def test_product_group():
    prod = product_group(symmetric_group(3), symmetric_group(2))
    assert len(prod.elements) == 12 and len(prod.elements[0]) == 5


def test_mdata_rejects_unknown():
    # the products and s2 are built only by the test-side `group_data`
    for name in ("s6", "s2", "s3xs2", "s5xs5", ""):
        with pytest.raises(ValueError, match="unsupported group"):
            mdata(name)


@pytest.mark.parametrize("name", ["s3", "s4", "s5", "s3xs2"])
def test_columns_are_the_conjugacy_classes(name):
    # the Fourier matrix contracts over the classes of each table's `column`: they must be
    # the orbits of conjugation inside the centralizer, as many as its characters
    md = group_data(name)
    for lab in md.class_labels:
        table = md.tables[lab]
        by_class = {}
        for g, c in table.column.items():
            by_class.setdefault(c, set()).add(g)
        orbits = {frozenset(pconj(z, g) for z in table.column) for g in table.column}
        assert set(map(frozenset, by_class.values())) == orbits, (name, lab)
        assert len(by_class) == len(table.labels) == len(table.x[0]), (name, lab)
        assert table.weights == [len(by_class[c]) for c in range(len(by_class))]
