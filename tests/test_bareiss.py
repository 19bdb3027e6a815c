"""The fraction-free elimination against Gauss-Jordan over Fractions."""

import random

import pytest

from trifourier.bareiss import adjugate

from fraction_reference import fraction_det, fraction_inverse


def random_matrix(rng, n, kind):
    if kind == "small":
        return [[rng.randrange(-3, 4) for _ in range(n)] for _ in range(n)]
    if kind == "huge":  # entries past 2^63
        return [[rng.randrange(-2**70, 2**70) for _ in range(n)] for _ in range(n)]
    if kind == "singular":  # a repeated row or a zero row
        mat = random_matrix(rng, n, "small")
        mat[rng.randrange(1, n)] = list(mat[0]) if rng.random() < 0.5 else [0] * n
        return mat
    if kind == "unimodular":  # random row operations on I keep det = 1
        mat = [[int(i == j) for j in range(n)] for i in range(n)]
        for _ in range(4 * n):
            i, j = rng.sample(range(n), 2)
            c = rng.randrange(-3, 4)
            mat[i] = [a + c * b for a, b in zip(mat[i], mat[j])]
        if rng.random() < 0.5:  # one row swap: det = -1
            mat[0], mat[1] = mat[1], mat[0]
        return mat
    raise AssertionError(kind)


def product(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


@pytest.mark.parametrize("kind", ["small", "huge", "singular", "unimodular"])
def test_adjugate_matches_fraction_reference(kind):
    rng = random.Random(kind)
    seen = set()
    for n in range(2, 9):
        for _ in range(12):
            mat = random_matrix(rng, n, kind)
            det, adj = adjugate(mat)
            assert det == fraction_det(mat)
            assert product(adj, mat) == [[det * (i == j) for j in range(n)] for i in range(n)]
            if det:
                assert adj == [[det * q for q in row] for row in fraction_inverse(mat)]
            seen.add("0" if not det else "1" if abs(det) == 1 else "big" if abs(det) > 2**63 else ">1")
    expect = {"small": {"0", "1", ">1"}, "huge": {"big"}, "singular": {"0"}, "unimodular": {"1"}}[kind]
    assert expect <= seen


def test_adjugate_edge_cases():
    assert adjugate([]) == (1, [])
    assert adjugate([[5]]) == (5, [[1]])
    assert adjugate([[0, 1], [1, 0]]) == (-1, [[0, -1], [-1, 0]])
    assert adjugate([[0, 0], [0, 0]]) == (0, [[0, 0], [0, 0]])
    with pytest.raises(ValueError):
        adjugate([[1, 2]])
