import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from heisencheck.linalg import rank_mod
from oracles import dense_rank_mod

PRIMES = (2, 3, 5, 1073741789, 2147483647)


@st.composite
def _integer_matrices(draw):
    """Sparse-to-dense integer matrices, some rows forced into the span of others."""
    rows = draw(st.integers(1, 40))
    cols = draw(st.integers(1, 60))
    density = draw(st.floats(0.05, 1.0))
    bound = draw(st.sampled_from((1, 9, 2 ** 40)))
    dependent = draw(st.integers(0, rows - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    mat = rng.integers(-bound, bound, size=(rows, cols), endpoint=True)
    mat[rng.random((rows, cols)) >= density] = 0
    free = rows - dependent
    for r in range(free, rows):
        mat[r] = rng.integers(-3, 3, size=free, endpoint=True) @ mat[:free]
    return mat, free


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_integer_matrices(), st.sampled_from(PRIMES))
def test_rank_mod_matches_the_dense_kernel(case, p):
    mat, free = case
    before = mat.copy()
    rank = rank_mod(mat, p)
    assert rank == dense_rank_mod(mat, p)
    assert rank <= min(free, mat.shape[1])
    assert np.array_equal(mat, before)


def test_rank_mod_at_the_largest_prime():
    p = 2 ** 31 - 1
    full = np.full((5, 7), p - 1, dtype=np.int64)
    assert rank_mod(full, p) == 1
    full[np.arange(5), np.arange(5)] = 1 - 2 ** 40
    assert rank_mod(full, p) == dense_rank_mod(full, p) == 5


@pytest.mark.parametrize("p", [1, 0, -7, 2 ** 31, 2 ** 31 + 11])
def test_rank_mod_rejects_moduli_outside_the_int64_bound(p):
    with pytest.raises(ValueError, match="2\\^31"):
        rank_mod(np.eye(3, dtype=np.int64), p)
