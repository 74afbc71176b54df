import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from heisencheck.mpoly import SparsePoly
from heisencheck.pfaffian import (
    ADJUGATE_SIGN,
    SkewMatrix,
    random_skew,
    sum_entries,
)
from oracles import independent_sub_pfaffians


def generic_skew(size):
    """Skew matrix whose upper entries are independent variables."""
    nvars = size * (size - 1) // 2
    upper = {}
    k = 0
    for i in range(size):
        for j in range(i + 1, size):
            upper[(i, j)] = SparsePoly.variable(nvars, k)
            k += 1
    return SkewMatrix(size, upper)


def det(rows):
    """Determinant over Q by Gaussian elimination."""
    mat = [list(map(Fraction, r)) for r in rows]
    n, out = len(mat), Fraction(1)
    for c in range(n):
        pivot = next((r for r in range(c, n) if mat[r][c]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            mat[c], mat[pivot] = mat[pivot], mat[c]
            out = -out
        out *= mat[c][c]
        for r in range(c + 1, n):
            f = mat[r][c] / mat[c][c]
            mat[r] = [x - f * y for x, y in zip(mat[r], mat[c])]
    return out


def product(a: SkewMatrix, b: SkewMatrix) -> list[list]:
    """The full product a @ b as row lists."""
    n = a.size
    return [[sum_entries(a.entry(i, k) * b.entry(k, j) for k in range(n)
                         if a.entry(i, k) and b.entry(k, j))
             for j in range(n)] for i in range(n)]


def rank2(a: list, b: list) -> SkewMatrix:
    """The skew matrix (a_i b_j - a_j b_i), of rank at most 2."""
    n = len(a)
    return SkewMatrix(n, {(i, j): a[i] * b[j] - a[j] * b[i]
                          for i in range(n) for j in range(i + 1, n)})


def test_pfaffian_base_cases():
    m = SkewMatrix(2, {(0, 1): Fraction(7)})
    assert m.pfaffian() == 7
    g = generic_skew(4)
    m01, m02, m03, m12, m13, m23 = (SparsePoly.variable(6, k) for k in range(6))
    assert g.pfaffian() == m01 * m23 - m02 * m13 + m03 * m12


@st.composite
def rational_skew(draw):
    size = draw(st.sampled_from([2, 4, 6, 8]))
    entry = st.fractions(min_value=-9, max_value=9, max_denominator=7)
    return SkewMatrix(size, {(i, j): draw(entry) for i in range(size) for j in range(i + 1, size)})


@settings(max_examples=60, deadline=None, derandomize=True)
@given(rational_skew())
def test_pfaffian_squares_to_determinant(m):
    pf = m.pfaffian()
    assert pf * pf == det(m.rows())


def test_odd_size_pfaffian_rejected():
    with pytest.raises(ValueError):
        generic_skew(5).pfaffian()
    with pytest.raises(ValueError):
        generic_skew(6).sub_pfaffian({0})


def test_sub_pfaffian_down_to_entry():
    g = generic_skew(6)
    for i in range(6):
        for j in range(i + 1, 6):
            keep = {i, j}
            assert g.sub_pfaffian(set(range(6)) - keep) == g.entry(i, j)
    # deleting the last two rows of a 6x6 leaves the classical 4x4 form
    quartic = g.sub_pfaffian({4, 5})
    closed = (g.entry(0, 1) * g.entry(2, 3)
              - g.entry(0, 2) * g.entry(1, 3)
              + g.entry(0, 3) * g.entry(1, 2))
    assert quartic == closed


@pytest.mark.parametrize("size", [4, 6, 8])
def test_shared_memo_sub_pfaffians_match_independent_ones(size):
    rng = random.Random(size)
    sizes = range(0, size + 1, 2)
    for _ in range(10):
        ints = random_skew(size, rng)
        assert all(isinstance(v, int) for v in ints.upper.values())
        fractions = SkewMatrix(size, {ij: Fraction(v, rng.randint(1, 7))
                                      for ij, v in random_skew(size, rng).upper.items()})
        for m in (ints, fractions):
            memo: dict = {}
            shared = {idx: m.sub_pfaffian(idx, memo)
                      for r in sizes for idx in combinations(range(size), r)}
            assert shared == independent_sub_pfaffians(m, sizes)
            assert shared[()] == m.pfaffian()
            # every kept index set was expanded into the one memo
            kept = {tuple(sorted(set(range(size)) - set(idx))) for idx in shared}
            assert kept - {()} <= set(memo)


def test_adjugate_identity_generic():
    for size in (4, 6):
        g = generic_skew(size)
        pf = g.pfaffian()
        prod = product(g, g.adjugate())
        for i in range(size):
            for j in range(size):
                expected = pf.scale(ADJUGATE_SIGN) if i == j else 0
                assert prod[i][j] == expected


def test_adjugate_annihilates_rank_deficient():
    rng = random.Random(9)
    a = [Fraction(rng.randint(-5, 5)) for _ in range(6)]
    b = [Fraction(rng.randint(-5, 5)) for _ in range(6)]
    c = [Fraction(rng.randint(-5, 5)) for _ in range(6)]
    d = [Fraction(rng.randint(-5, 5)) for _ in range(6)]
    m = SkewMatrix(6, {
        k: rank2(a, b).entry(*k) + rank2(c, d).entry(*k)
        for k in [(i, j) for i in range(6) for j in range(i + 1, 6)]
    })
    assert m.pfaffian() == 0
    prod = product(m, m.adjugate())
    assert all(prod[i][j] == 0 for i in range(6) for j in range(6))


def test_kernel_vector_cross_product_form():
    g = generic_skew(3)
    m01, m02, m12 = (SparsePoly.variable(3, k) for k in range(3))
    assert g.kernel_vector() == [m12, -m02, m01]


def test_kernel_vector_kills_matrix():
    rng = random.Random(12)
    for size in (3, 5, 7):
        m = random_skew(size, rng)
        v = m.kernel_vector()
        assert all(x == 0 for x in m.times_vector(v))
    with pytest.raises(ValueError):
        random_skew(4, rng).kernel_vector()


def test_kernel_vector_vanishes_exactly_on_low_rank():
    rng = random.Random(77)
    a = [Fraction(rng.randint(-5, 5)) for _ in range(5)]
    b = [Fraction(rng.randint(-5, 5)) for _ in range(5)]
    low = rank2(a, b)  # rank 2, so every 4x4 Pfaffian dies
    assert all(x == 0 for x in low.kernel_vector())
    generic = random_skew(5, rng)  # a random 5x5 has rank 4
    assert any(x != 0 for x in generic.kernel_vector())


def test_from_rows_validation():
    with pytest.raises(ValueError):
        SkewMatrix.from_rows([[Fraction(1), Fraction(0)], [Fraction(0), Fraction(0)]])
    with pytest.raises(ValueError):
        SkewMatrix.from_rows([[Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)]])
    m = SkewMatrix.from_rows([[Fraction(0), Fraction(2)], [Fraction(-2), Fraction(0)]])
    assert m.entry(1, 0) == -2
