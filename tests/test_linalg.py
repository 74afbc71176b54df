import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from heisencheck.linalg import RowBasis, _peel_singletons, rank_fraction, rank_gauss_mod, rank_mod
from oracles import (
    dense_rank_mod,
    gauss_jordan_rank,
    list_rank_mod,
    peel_dense,
    peel_row_by_row,
)

PRIMES = (2, 3, 5, 1073741789, 2147483647)  # 1073741789 is hilbert.RANK_PRIMES[0]


@st.composite
def _integer_matrices(draw):
    """(matrix, free, p): integer matrices with at most `free` independent rows.

    The base is random (from very sparse to dense) or a bidiagonal chain that
    peels one row per step; then some rows and columns are zeroed, some
    entries become nonzero multiples of p, some rows get two singleton
    columns, and the last rows are forced into the span of the others.
    """
    p = draw(st.sampled_from(PRIMES))
    rows = draw(st.integers(1, 40))
    dependent = draw(st.integers(0, rows - 1))
    free = rows - dependent
    bound = draw(st.sampled_from((1, 9, 2 ** 40)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))

    def nonzero(size, top=bound):
        return rng.integers(1, top, size=size, endpoint=True) * rng.choice((-1, 1), size=size)

    if draw(st.booleans()):
        density = draw(st.sampled_from((0.01, 0.03)) | st.floats(0.05, 1.0))
        base = rng.integers(-bound, bound, size=(free, draw(st.integers(1, 60))), endpoint=True)
        base[rng.random(base.shape) >= density] = 0
    else:
        base = np.zeros((free, free + draw(st.integers(0, 1))), dtype=np.int64)
        chain = np.arange(free)
        base[chain, chain] = nonzero(free)
        base[chain[:base.shape[1] - 1], chain[:base.shape[1] - 1] + 1] = nonzero(base.shape[1] - 1)
        base = base[rng.permutation(free)][:, rng.permutation(base.shape[1])]
    base[rng.random(free) < draw(st.sampled_from((0.0, 0.1)))] = 0
    base[:, rng.random(base.shape[1]) < draw(st.sampled_from((0.0, 0.1)))] = 0
    multiples = rng.random(base.shape) < draw(st.sampled_from((0.0, 0.1, 0.5)))
    base[multiples] = nonzero(multiples.sum(), 3) * p
    twins = rng.integers(0, free, size=draw(st.integers(0, 3)))
    pairs = np.zeros((free, 2 * twins.size), dtype=np.int64)
    pairs[np.repeat(twins, 2), np.arange(pairs.shape[1])] = nonzero(pairs.shape[1])
    base = np.hstack((base, pairs))[:, rng.permutation(base.shape[1] + pairs.shape[1])]
    mat = np.vstack((base, rng.integers(-3, 3, size=(dependent, free), endpoint=True) @ base))
    return mat, free, p


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_integer_matrices())
def test_rank_mod_matches_the_dense_kernel(case):
    mat, free, p = case
    before = mat.copy()
    rank = rank_mod(mat, p)
    assert rank == dense_rank_mod(mat, p)
    assert rank <= min(free, mat.shape[1])
    assert np.array_equal(mat, before)
    # the peel runs to its end: no column of the remainder has one nonzero
    peeled, rest = peel_dense(mat % p)
    assert not (np.count_nonzero(rest, axis=0) == 1).any()
    assert peeled + dense_rank_mod(rest, p) == rank
    # peeling in rounds drops the same rows as peeling one row at a time
    for reduced in (mat, mat % p):
        peeled, rows, cols = _peel_singletons(*np.nonzero(reduced), reduced.shape)
        assert (peeled, rows.tolist(), cols.tolist()) == peel_row_by_row(reduced)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_integer_matrices())
def test_rank_fraction_matches_the_dense_oracle(case):
    mat, free, _ = case
    rows = mat.tolist()
    rank = rank_fraction(rows)
    assert rank == gauss_jordan_rank(rows)
    assert rank <= min(free, mat.shape[1])
    assert rows == mat.tolist()


def test_row_basis_reports_independence():
    basis = RowBasis()
    assert basis.insert({0: 1, 2: 3}) and basis.insert({2: 1})
    assert not basis.insert({0: 2})
    assert not basis.insert({0: 5, 2: 7}) and basis.insert({1: 1})
    assert not basis.insert({1: 4, 2: 1})
    assert rank_fraction([]) == rank_fraction([[0, 0]]) == 0


def test_rank_mod_at_the_largest_prime():
    p = 2 ** 31 - 1
    full = np.full((5, 7), p - 1, dtype=np.int64)
    assert rank_mod(full, p) == 1
    full[np.arange(5), np.arange(5)] = 1 - 2 ** 40
    assert rank_mod(full, p) == dense_rank_mod(full, p) == 5
    stack = np.stack((np.full((5, 7), p - 1), full))
    assert rank_gauss_mod(stack, p).tolist() == [1, 5]


@pytest.mark.parametrize("shape", [(0, 0), (0, 5), (5, 0)])
def test_rank_mod_of_an_empty_matrix_is_zero(shape):
    # graded_hilbert ranks a (0, 0) remainder whenever the peel takes every row
    assert rank_mod(np.empty(shape, dtype=np.int64), 1073741789) == 0


@pytest.mark.parametrize("p", [1, 0, -7, 6, 9, 2 ** 31, 2 ** 31 + 11])
def test_rank_mod_rejects_moduli_outside_the_int64_bound(p):
    with pytest.raises(ValueError, match="2\\^31"):
        rank_mod(np.eye(3, dtype=np.int64), p)
    with pytest.raises(ValueError, match="2\\^31"):
        rank_gauss_mod(np.eye(3, dtype=np.int64)[None], p)


@st.composite
def _stacks(draw):
    """(stack, free, p): stacks of small integer matrices of rank at most free.

    Each matrix is `free` random rows (none for an all-zero matrix), some
    of their entries nonzero multiples of p, and combinations of them, in
    shuffled order.  The stack may be empty.
    """
    p = draw(st.sampled_from(PRIMES))
    n = draw(st.integers(0, 12))
    rows, cols = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    bound = draw(st.sampled_from((1, 9, 2 ** 40)))
    density = draw(st.sampled_from((0.0, 0.2, 0.6)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    stack = np.empty((n, rows, cols), dtype=np.int64)
    free = rng.integers(0, rows, size=n, endpoint=True)
    for mat, k in zip(stack, free):
        base = rng.integers(-bound, bound, size=(k, cols), endpoint=True)
        multiples = rng.random(base.shape) < density
        base[multiples] = rng.integers(1, 3, size=multiples.sum(), endpoint=True) * p
        combos = rng.integers(-3, 3, size=(rows - k, k), endpoint=True) @ base
        mat[:] = np.vstack((base, combos))[rng.permutation(rows)]
    return stack, free, p


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_stacks())
@example((np.empty((0, 6, 6), dtype=np.int64), np.empty(0, dtype=np.int64), 2))
@example((np.zeros((3, 4, 5), dtype=np.int64), np.zeros(3, dtype=np.int64), 2 ** 31 - 1))
@example((np.empty((2, 0, 5), dtype=np.int64), np.zeros(2, dtype=np.int64), 3))
@example((np.empty((2, 4, 0), dtype=np.int64), np.zeros(2, dtype=np.int64), 5))
def test_rank_gauss_mod_matches_the_list_eliminator(case):
    stack, free, p = case
    before = stack.copy()
    ranks = rank_gauss_mod(stack, p)
    assert ranks.shape == (stack.shape[0],)
    assert ranks.tolist() == [list_rank_mod(mat.tolist(), p) for mat in stack]
    assert (ranks <= free).all()
    assert np.array_equal(stack, before)

