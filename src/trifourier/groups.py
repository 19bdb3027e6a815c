"""Small permutation groups, centralizers and hand-built character tables.

Groups are tuples-of-images permutations under composition (a*b)(x)=a(b(x)).
The character tables of the centralizers that occur in the symmetric groups
on up to five points are written out explicitly with the label scheme used
throughout the package, then validated by orthogonality.

Label conventions that are not forced by anything downstream are fixed here
and documented in the README:
  * eps is always the restriction of the ambient sign character;
  * on a Klein four-group centralizer of a transposition t, eps' is -1 on t
    itself and +1 on the complementary transposition, eps'' the other way;
  * on the order-8 dihedral centralizer of a double transposition, eps' is
    -1 exactly on the 4-cycles and the non-central double transpositions,
    eps'' is -1 exactly on the transpositions and the non-central double
    transpositions;
  * nu is the five-dimensional character of S5 with value +1 on
    transpositions; nu' is nu twisted by sign.
"""

from __future__ import annotations

from itertools import permutations
from math import lcm

from .cyclotomic import N, POWERS, Cyc
from .packed import ZERO, Vec, conj, matmul

Perm = tuple[int, ...]


def pmul(a: Perm, b: Perm) -> Perm:
    return tuple(a[b[x]] for x in range(len(a)))


def pinv(a: Perm) -> Perm:
    out = [0] * len(a)
    for x, y in enumerate(a):
        out[y] = x
    return tuple(out)


def pconj(g: Perm, x: Perm) -> Perm:
    """g x g^{-1}, which sends g(i) to g(x(i))."""
    out = [0] * len(g)
    for i, xi in enumerate(x):
        out[g[i]] = g[xi]
    return tuple(out)


def identity_perm(n: int) -> Perm:
    return tuple(range(n))


def from_cycles(n: int, *cycles: tuple[int, ...]) -> Perm:
    out = list(range(n))
    for cyc in cycles:
        for pos, pt in enumerate(cyc):
            out[pt] = cyc[(pos + 1) % len(cyc)]
    return tuple(out)


def cycle_type(p: Perm) -> tuple[int, ...]:
    seen = [False] * len(p)
    lens = []
    for start in range(len(p)):
        if seen[start]:
            continue
        length = 0
        x = start
        while not seen[x]:
            seen[x] = True
            x = p[x]
            length += 1
        lens.append(length)
    return tuple(sorted(lens, reverse=True))


def perm_order(p: Perm) -> int:
    return lcm(*cycle_type(p))


def restrict(p: Perm, support: tuple[int, ...]) -> Perm:
    """Restriction to an invariant point set, relabelled to 0..len-1."""
    pos = {pt: k for k, pt in enumerate(support)}
    return tuple(pos[p[pt]] for pt in support)


class PermGroup:
    def __init__(self, elements: tuple[Perm, ...]) -> None:
        self.elements = elements
        # one conjugation row per class representative: the table builders, the coverage
        # check and the pair counts of the Fourier matrix all read it
        self._conjugates: dict[Perm, list[Perm]] = {}

    def conjugates(self, x: Perm) -> list[Perm]:
        """g x g^-1 for every element g, in element order; computed once per x."""
        row = self._conjugates.get(x)
        if row is None:
            row = self._conjugates[x] = [pconj(g, x) for g in self.elements]
        return row

    def centralizer(self, x: Perm) -> tuple[Perm, ...]:
        return tuple(g for g, c in zip(self.elements, self.conjugates(x)) if c == x)


def symmetric_group(n: int) -> PermGroup:
    return PermGroup(tuple(permutations(range(n))))


# -- character tables --------------------------------------------------------


class CharacterTable:
    """Irreducible characters of a centralizer, as element -> value maps.

    A value is its 16 integer coefficients over the power basis z^0..z^15
    (a `packed.Vec`), with no denominator: character values are sums of
    roots of unity, so they are algebraic integers of the field.

    The elements are grouped by their column of character values: `column[k]`
    is the column of element k and `weights[c]` counts the elements of column
    c.  Every character is constant on a column, so a sum over the elements
    of a product of character values is the sum over the columns weighted by
    `weights`.  For a valid table the columns are the conjugacy classes of
    the centralizer: s5 has 7 columns for its 120 elements.
    """

    def __init__(
        self, group_elements: tuple[Perm, ...], labels: tuple[str, ...], values: dict[str, dict[Perm, Vec]]
    ) -> None:
        self.group_elements = group_elements
        self.labels = labels
        self.values = values
        rows = [values[lab] for lab in labels]
        columns: dict[tuple[Vec, ...], int] = {}
        self.column = [columns.setdefault(tuple(row[g] for row in rows), len(columns)) for g in group_elements]
        self.weights = [0] * len(columns)
        for c in self.column:
            self.weights[c] += 1
        self._column_values = list(columns)

    @property
    def order(self) -> int:
        return len(self.group_elements)

    def coefficients(self) -> list[list[Vec]]:
        """The value x[s][c] of character s on column c."""
        return [list(row) for row in zip(*self._column_values)]

    def validate(self) -> list[list[Vec]]:
        """Row orthogonality and the sum-of-squares count, from the Gram matrix of the table.

        The Gram matrix sums over the columns, each weighted by its number of
        elements.  Returns the `coefficients()` it checked, so that a caller
        needs them only once.
        """
        n = self.order
        x = self.coefficients()
        ident = self.column[self.group_elements.index(identity_perm(len(self.group_elements[0])))]
        degrees = [row[ident] for row in x]
        unit = (n,) + ZERO[1:]
        total = matmul([degrees], [[d] for d in degrees])[0][0]
        if total != unit:
            raise AssertionError(f"sum of squared degrees {Cyc(total)!r} != {n}")
        weighted = [[tuple(w * a for a in v) for w, v in zip(self.weights, row)] for row in x]
        gram = matmul(weighted, [list(col) for col in zip(*conj(x))])
        for i, row in enumerate(gram):
            for j in range(i, len(row)):
                if row[j] != (unit if i == j else ZERO):
                    acc = Cyc(row[j])
                    raise AssertionError(f"orthogonality fails for ({self.labels[i]},{self.labels[j]}): {acc!r}")
        return x


def _cyclic_table(gen: Perm, labels_and_exponents: list[tuple[str, int]]) -> CharacterTable:
    """Characters of the cyclic group generated by gen; chi(gen^j) = z^(k j) for each label's exponent k."""
    order = perm_order(gen)
    elements = []
    g = identity_perm(len(gen))
    for _ in range(order):
        elements.append(g)
        g = pmul(gen, g)
    values = {lab: {g: POWERS[k * j % N] for j, g in enumerate(elements)} for lab, k in labels_and_exponents}
    return CharacterTable(tuple(elements), tuple(lab for lab, _ in labels_and_exponents), values)


def _table_by_classifier(elements, labels, classify, rows) -> CharacterTable:
    classes = [classify(g) for g in elements]  # each element classified once, for every character
    values = {
        lab: dict(zip(elements, map(rows[lab].__getitem__, classes))) for lab in labels
    }
    return CharacterTable(tuple(elements), tuple(labels), values)


# S_n character values by cycle type: degree -> (cycle types, label -> values in that order)
_SYM_CHARACTERS = {
    3: (
        [(1, 1, 1), (2, 1), (3,)],
        {"1": (1, 1, 1), "r": (2, 0, -1), "eps": (1, -1, 1)},
    ),
    4: (
        [(1, 1, 1, 1), (2, 1, 1), (2, 2), (3, 1), (4,)],
        {
            "1": (1, 1, 1, 1, 1),
            "lambda1": (3, 1, -1, 0, -1),
            "lambda2": (3, -1, -1, 0, 1),
            "lambda3": (1, -1, 1, 1, -1),
            "sigma": (2, 0, 2, -1, 0),
        },
    ),
    5: (
        [(1, 1, 1, 1, 1), (2, 1, 1, 1), (2, 2, 1), (3, 1, 1), (3, 2), (4, 1), (5,)],
        {
            "1": (1, 1, 1, 1, 1, 1, 1),
            "lambda1": (4, 2, 0, 1, -1, 0, -1),
            "lambda2": (6, 0, -2, 0, 0, 0, 1),
            "lambda3": (4, -2, 0, 1, 1, 0, -1),
            "lambda4": (1, -1, 1, 1, -1, -1, 1),
            "nu": (5, 1, 1, -1, 1, -1, 0),
            "nu'": (5, -1, 1, -1, -1, 1, 0),
        },
    ),
}


def _sym_table(n: int, elements: tuple[Perm, ...]) -> CharacterTable:
    """Character table of a symmetric group of degree 3 to 5, by cycle type."""
    types, chars = _SYM_CHARACTERS[n]
    rows = {lab: {t: (v,) + ZERO[1:] for t, v in zip(types, vals)} for lab, vals in chars.items()}
    return _table_by_classifier(elements, list(chars), cycle_type, rows)


def _sym_by_swap_table(x: Perm, elements: tuple[Perm, ...]) -> CharacterTable:
    """Sym(fixed points of x) x <x>, the centralizer of a transposition x (of g2 in s5).

    Each character chi of the symmetric group on the fixed points gives chi,
    and -chi: chi times the sign of the swap x.
    """
    rest = tuple(p for p, q in enumerate(x) if p == q)
    moved = next(p for p, q in enumerate(x) if p != q)
    types, chars = _SYM_CHARACTERS[len(rest)]
    rows = {}
    for lab, vals in chars.items():
        for name, twist in ((lab, 1), ("-" + lab, -1)):
            rows[name] = {(t, swap): (v * twist**swap,) + ZERO[1:] for t, v in zip(types, vals) for swap in (0, 1)}

    def classify(g: Perm) -> tuple[tuple[int, ...], int]:
        return cycle_type(restrict(g, rest)), int(g[moved] != moved)

    return _table_by_classifier(elements, list(rows), classify, rows)


def _klein_table(x: Perm, elements: tuple[Perm, ...]) -> CharacterTable:
    """Z2 x Z2 centralizer of a transposition x; the complement is the other transposition."""
    ident = identity_perm(len(x))
    others = [g for g in elements if g not in (ident, x) and cycle_type(g)[0] == 2 and sum(1 for l in cycle_type(g) if l == 2) == 1]
    comp = others[0]
    both = pmul(x, comp)

    def split(g: Perm) -> tuple[int, int]:
        return (1 if g in (x, both) else 0, 1 if g in (comp, both) else 0)

    rows = {
        "1": lambda a, b: 1,
        "eps'": lambda a, b: (-1) ** a,
        "eps''": lambda a, b: (-1) ** b,
        "eps": lambda a, b: (-1) ** (a + b),
    }
    values = {lab: {(a, b): (fn(a, b),) + ZERO[1:] for a in (0, 1) for b in (0, 1)} for lab, fn in rows.items()}
    return _table_by_classifier(elements, ("1", "eps'", "eps''", "eps"), split, values)


def _dihedral8_table(x: Perm, elements: tuple[Perm, ...]) -> CharacterTable:
    """Order-8 dihedral centralizer of a double transposition x (its center)."""

    def classify(g: Perm) -> str:
        ct = cycle_type(g)
        n2 = sum(1 for l in ct if l == 2)
        if g == x:
            return "center"
        if 4 in ct:
            return "rot"          # the two 4-cycles
        if n2 == 2:
            return "refl-v"       # double transpositions other than the center
        if n2 == 1:
            return "refl-h"       # the two transpositions
        return "id"

    rows = {
        "1": {"id": 1, "center": 1, "rot": 1, "refl-h": 1, "refl-v": 1},
        "eps'": {"id": 1, "center": 1, "rot": -1, "refl-h": 1, "refl-v": -1},
        "eps''": {"id": 1, "center": 1, "rot": 1, "refl-h": -1, "refl-v": -1},
        "eps": {"id": 1, "center": 1, "rot": -1, "refl-h": -1, "refl-v": 1},
        "r": {"id": 2, "center": -2, "rot": 0, "refl-h": 0, "refl-v": 0},
    }
    values = {lab: {cls: (v,) + ZERO[1:] for cls, v in row.items()} for lab, row in rows.items()}
    return _table_by_classifier(elements, ("1", "eps'", "eps''", "eps", "r"), classify, values)
