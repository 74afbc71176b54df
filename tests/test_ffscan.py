import re
import tracemalloc
from fractions import Fraction
from itertools import combinations, islice
from math import isqrt

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import heisencheck.ffscan as ffscan
from heisencheck.ffscan import (
    _batch_ranks,
    _entry_gather,
    _first_nonzero,
    _horner,
    _leading_pfaffian_vanishes,
    _multiple_of,
    _orbit_representatives,
    _reduce,
    SCAN_BLOCK,
    check_scan_prime,
    census_csv,
    ci_curve_points_d9,
    common_zeros,
    evaluate_poly_batch,
    evaluate_skew_mod,
    find_stratum_point,
    jacobian_zero_counts,
    point_blocks,
    projective_point_count,
    rank_at_point,
    scan_strata,
    special_points_d9_mod,
)
from heisencheck.grassfano import jacobian_quadrics, klein_cubic
from heisencheck.heisenberg import s_matrix
from heisencheck.mpoly import SparsePoly, graded_monomials
from heisencheck.exactnum import is_prime
from oracles import (
    canonical_points,
    closed_form_ranks,
    evaluate_mod,
    full_scan_strata,
    scan_common_zeros,
    search_nth_root,
    whole_field_least_table,
)

# the largest q the census accepts, 2^31 - 1, and the largest q the
# closed-form oracle accepts, 5 (q-1)^2 < 2^63
LARGEST_SCAN_Q = 2 ** 31 - 1
LARGEST_CLOSED_FORM_Q = 1 + isqrt((2 ** 63 - 1) // 5)


def test_canonical_points_cover_projective_space():
    pts = canonical_points(4, 19)
    assert pts.shape == (projective_point_count(4, 19), 4)
    as_tuples = {tuple(int(c) for c in row) for row in pts}
    assert len(as_tuples) == pts.shape[0]
    # every point is canonical: first nonzero coordinate is 1
    for row in pts[:: 97]:
        nz = [c for c in row if c]
        assert nz[0] == 1


def test_scan_requires_compatible_prime():
    with pytest.raises(ValueError):
        scan_strata(9, 23)
    with pytest.raises(ValueError):
        scan_strata(11, 19)
    with pytest.raises(ValueError):
        scan_strata(7, 29)


@pytest.mark.parametrize("d,q", [(9, 10), (9, 28), (9, 1), (9, -8), (11, 12), (11, 45)])
def test_scan_rejects_composite_q(d, q):
    with pytest.raises(ValueError, match="not prime"):
        scan_strata(d, q)
    with pytest.raises(ValueError, match="not prime"):
        find_stratum_point(d, q, 2)


# 2^31 - 1 is prime and 1 mod 9 and mod 11; too_large is the smallest
# census prime above 2^31
@pytest.mark.parametrize("d,ok,too_large", [(9, 2147483647, 2147484007),
                                            (11, 2147483647, 2147483713)])
def test_scan_rejects_q_beyond_int64_kernel(d, ok, too_large):
    check_scan_prime(d, ok)
    with pytest.raises(ValueError, match="too large"):
        check_scan_prime(d, too_large)
    with pytest.raises(ValueError, match="too large"):
        scan_strata(d, too_large)
    with pytest.raises(ValueError, match="too large"):
        find_stratum_point(d, too_large, 4)


def test_census_d9_q19():
    census = scan_strata(9, 19)
    assert census.total() == 7240
    assert census.counts[0] == 0
    assert census.min_rank == 2
    rank2 = set(census.min_rank_points)
    ci = ci_curve_points_d9(19)
    special = special_points_d9_mod(19)
    assert len(special) == 4
    assert not (ci & special)
    assert rank2 == ci | special


def test_census_determinism():
    a = scan_strata(9, 19)
    b = scan_strata(9, 19)
    assert a.counts == b.counts
    assert a.min_rank_points == b.min_rank_points


def test_census_partition_invariance():
    # block boundaries never change counts, point lists, or their order
    whole = scan_strata(9, 19)
    for block_size in (1000, 777, 7240):
        split = scan_strata(9, 19, block_size=block_size)
        assert split.counts == whole.counts
        assert split.min_rank_points == whole.min_rank_points


@pytest.mark.parametrize("d,q", [(9, 19), (11, 23)])
def test_census_partition_invariance_random_blocks(d, q):
    whole = scan_strata(d, q)

    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(st.integers(256, 20000))
    def run(block_size):
        split = scan_strata(d, q, block_size=block_size)
        assert split.counts == whole.counts
        assert split.min_rank_points == whole.min_rank_points

    run()


def test_point_blocks_match_dense_enumeration():
    dense = canonical_points(4, 19)
    streamed = np.concatenate(list(point_blocks(4, 19, block_size=311)), axis=0)
    assert (dense == streamed).all()


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.integers(1, 5), st.sampled_from([2, 3, 5, 7]), st.data())
def test_point_blocks_hold_whole_runs(ncoords, q, data):
    # block sizes below q and sizes that are not multiples of q included
    block_size = data.draw(st.integers(1, 3 * q * q))
    blocks = list(point_blocks(ncoords, q, block_size))
    assert np.array_equal(np.concatenate(blocks), canonical_points(ncoords, q))
    assert all(0 < len(block) <= block_size for block in blocks)
    # the kernel block test takes its blocks at these boundaries
    assert np.diff(_block_edges(ncoords, q, block_size)).tolist() == [len(b) for b in blocks]
    # a run is the rows that share every coordinate but the last, and each
    # prefix occurs in one run only, so no run spans a block boundary; runs
    # longer than a block are split
    if block_size >= q:
        for before, after in zip(blocks, blocks[1:]):
            assert not np.array_equal(before[-1, :-1], after[0, :-1])


def test_point_blocks_split_runs_longer_than_a_block():
    assert next(point_blocks(5, 1000003)).shape[0] <= SCAN_BLOCK
    # blocks 999..1001 of 1000 rows hold the first wrap of the last coordinate
    q = 1000003
    blocks = list(islice(point_blocks(5, q, block_size=1000), 999, 1002))
    assert [len(block) for block in blocks] == [1000] * 3
    index = np.arange(999000, 1002000)
    expected = np.zeros((index.size, 5), dtype=np.int64)
    expected[:, 0] = 1
    expected[:, 3], expected[:, 4] = np.divmod(index, q)
    assert np.array_equal(np.concatenate(blocks), expected)


# digit periods q^(k+1) at, one below and one above the block size: the
# boundary between a column copied from its period and one of _fill_digit
@pytest.mark.parametrize("ncoords,q", [(4, 7), (5, 5), (3, 11)])
def test_point_blocks_at_digit_period_boundaries(ncoords, q):
    dense = canonical_points(ncoords, q)
    for k in range(ncoords - 1):
        for block_size in (q ** (k + 1) - 1, q ** (k + 1), q ** (k + 1) + 1):
            blocks = list(point_blocks(ncoords, q, block_size))
            assert np.array_equal(np.concatenate(blocks), dense)
            edges = _block_edges(ncoords, q, block_size)
            assert np.diff(edges).tolist() == [len(block) for block in blocks]
            assert {block.dtype for block in blocks} == {np.dtype(np.uint8)}


def test_first_block_allocates_no_table_of_the_field():
    # q > block_size, so no run fits a block and no q-long ramp is needed
    tracemalloc.start()
    try:
        first = next(point_blocks(5, 10000019, block_size=1000))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert first.shape == (1000, 5) and first[:, 4].tolist() == list(range(1000))
    assert peak < 2 ** 20


def test_census_blocks_take_one_byte_per_coordinate():
    # at q = 23 a coordinate is one uint8; with int64 blocks the peaks were
    # 5.4 MB and 7.9 MB, and with uint8 blocks they measure 1.0 MB and 3.0 MB
    scan_strata(11, 23)  # the symbolic tables are cached before tracing
    peaks = []
    for run in (lambda: scan_strata(11, 23), lambda: find_stratum_point(11, 23, 4)):
        tracemalloc.start()
        try:
            run()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] < 1.5 * 2 ** 20
    assert peaks[1] < 4.5 * 2 ** 20


def test_point_blocks_beyond_int64_strides():
    # at q = 2097169, the least prime above 2^21, the first free coordinate
    # changes every q^3 > 2^63 rows, a stride no (0, q^3) view can hold
    q = 2097169
    first = next(point_blocks(5, q, block_size=1000))
    expected = np.zeros((1000, 5), dtype=np.int64)
    expected[:, 0] = 1
    expected[:, 4] = np.arange(1000)
    assert np.array_equal(first, expected)
    for s in (q ** 3, q ** 4):
        column = np.empty(10, dtype=np.int64)
        ffscan._fill_digit(column, 5 * s - 3, s, q)
        assert column.tolist() == [4] * 3 + [5] * 7


# one byte per coordinate up to q = 256, two up to 65536, four above
@pytest.mark.parametrize("q,dtype", [
    (199, np.uint8), (251, np.uint8), (257, np.uint16), (271, np.uint16), (331, np.uint16),
    (65521, np.uint16), (65537, np.uint32), (65539, np.uint32)])
def test_point_blocks_hold_the_narrowest_unsigned_type(q, dtype):
    # the whole enumeration of P^2 while it is small, of P^1 beyond
    ncoords = 3 if q < 1000 else 2
    blocks = list(point_blocks(ncoords, q, block_size=5000))
    assert {block.dtype for block in blocks} == {np.dtype(dtype)}
    assert np.array_equal(np.concatenate(blocks), canonical_points(ncoords, q))
    # in P^4, blocks 12..14 of the first lead position: through the first
    # wrap of the last coordinate at the large q, whose runs are split
    step = 5000 // q * q or 5000
    first = np.concatenate(list(islice(point_blocks(5, q, block_size=5000), 12, 15)))
    assert first.dtype == dtype
    expected = np.zeros((3 * step, 5), dtype=np.int64)
    expected[:, 0] = 1
    expected[:, 2], rest = np.divmod(np.arange(12 * step, 15 * step), q * q)
    expected[:, 3], expected[:, 4] = np.divmod(rest, q)
    assert np.array_equal(first, expected)


@pytest.mark.parametrize("ncoords,q,block_size", [(3, 23, 7), (4, 19, 5), (5, 23, 7), (2, 5, 1)])
def test_split_runs_concatenate_to_the_enumeration(ncoords, q, block_size):
    blocks = list(point_blocks(ncoords, q, block_size))
    assert all(0 < len(block) <= block_size for block in blocks)
    assert np.array_equal(np.concatenate(blocks), canonical_points(ncoords, q))


# every block, every 97th block, and at q = 20719 the first 21 blocks of
# 1000 rows, which reach across the wrap of the last coordinate
@pytest.mark.parametrize("d,q,block_size,stop,step", [
    (9, 19, 5, None, 1), (11, 23, 7, None, 97), (9, 20719, 1000, 21, 1)])
def test_kernel_on_split_runs(d, q, block_size, stop, step):
    for block in islice(point_blocks((d - 1) // 2, q, block_size), 0, stop, step):
        assert (_batch_ranks(d, q, block) == closed_form_ranks(d, q, block)).all()


@pytest.mark.parametrize("d,q", [(9, 199), (11, 199), (9, 271), (11, 331), (9, 65539), (11, 65539)])
def test_kernel_widens_narrow_blocks(d, q):
    # every case against the int64 oracle on an int64 copy of the same rows
    def check(pts):
        assert pts.dtype == np.min_scalar_type(q - 1)
        assert (_batch_ranks(d, q, pts) == closed_form_ranks(d, q, pts.astype(np.int64))).all()

    ncoords = (d - 1) // 2
    blocks = list(islice(point_blocks(ncoords, q), 2))
    rng = np.random.default_rng(q)
    for block in blocks:
        # whole runs, then the same rows shuffled, then each run rotated, so
        # the prefixes still agree but the last coordinates are out of order
        check(block)
        check(block[rng.permutation(len(block))])
        check(np.roll(block.reshape(-1, q, ncoords), 1, axis=1).reshape(block.shape))
    # rows whose entries are all q-1, where a product of two entries taken
    # in the narrow type overflows: one such row, a whole run with q-1 in
    # every prefix coordinate, and the rows of the blocks below the top
    # rank scaled by q-1 (rank ignores scaling), whose entries are q minus
    # the original
    wide = np.full((q, ncoords), q - 1, dtype=blocks[0].dtype)
    wide[:, -1] = np.arange(q)
    top = s_matrix(d).size // 2 * 2
    low = np.concatenate([b[closed_form_ranks(d, q, b.astype(np.int64)) < top] for b in blocks])
    negated = (low.astype(np.int64) * (q - 1) % q).astype(low.dtype)
    assert len(negated)
    check(wide[-1:])
    check(wide)
    check(np.concatenate([negated, wide[-1:]]))


@pytest.mark.parametrize("d", [9, 11])
def test_row_0_is_the_squares_and_every_entry_a_signed_monomial(d):
    # the kernel decides rank <= 2 from the Pfaffians through index 0,
    # which needs some a_0i != 0 at every point; the gather needs every
    # upper entry to be +/-x_a x_b.  Only row 0 holds squares, so at a
    # coordinate point just one upper entry is nonzero: rank 2 occurs over
    # every F_q, which scan_strata relies on to collect the minimal stratum
    matrix = s_matrix(d)
    m = (d - 1) // 2
    assert matrix.size == m + 1
    for i in range(m):
        assert matrix.upper[0, i + 1] == SparsePoly.variable(m, i, 2)
    first, second, sign, pfaffians = _entry_gather(d)
    pairs = sorted(matrix.upper)
    assert len(pairs) == (m + 1) * m // 2
    for e, a, b, s in zip(pairs, first, second, sign):
        f = matrix.upper[e]
        assert len(f.terms) == 1 and f.degree() == 2
        assert f == SparsePoly.monomial(m, [int(a), int(b)], int(s))
        assert int(s) in (1, -1)
        assert (a == b) == (e[0] == 0)
    # C(m, 3) Pfaffians through index 0, each a_0i a_jk - a_0j a_ik + a_0k a_ij
    triples = list(combinations(range(1, m + 1), 3))
    assert len(triples) == {9: 4, 11: 10}[d]
    assert [tuple((pairs[a], pairs[b]) for a, b in pf) for pf in pfaffians] == [
        (((0, i), (j, k)), ((0, j), (i, k)), ((0, k), (i, j))) for i, j, k in triples]


@pytest.mark.parametrize("q", [67, 60013, 1358186941, LARGEST_SCAN_Q])
def test_reduce_matches_remainder_across_int64(q):
    # signed entries are reduced too, and floats would round near 2^63
    rng = np.random.default_rng(q)
    x = np.concatenate([rng.integers(-2 ** 63, 2 ** 63 - 1, 1000, endpoint=True),
                        np.arange(-3 * q, 3 * q, q // 7 + 1),
                        [2 ** 63 - 1, -2 ** 63, 2 ** 63 - 2, q - 1, q, -q, -1, 0]])
    expected = [int(v) % q for v in x]
    assert _reduce(x, q) is x
    assert x.tolist() == expected


def _test_polynomials(nvars: int, q: int):
    """Polynomials of degree 0..6 with rational coefficients; some vanish mod q."""
    rng = np.random.default_rng(q)
    polys = []
    for degree in range(7):
        terms = {}
        for _ in range(12):
            exps = [0] * nvars
            for v in rng.integers(0, nvars, degree):
                exps[v] += 1
            terms[tuple(exps)] = Fraction(int(rng.integers(-q, q)), int(rng.integers(1, 5)))
        polys.append(SparsePoly(nvars, terms))
    every = {exps: c for f in polys for exps, c in f.terms.items()}
    # 30 terms of degree 6 with coefficient q-1, and terms that vanish mod q
    wide = {exps: Fraction(q - 1) for exps in graded_monomials(nvars, 6)[:30]}
    wide[(0,) * nvars] = Fraction(q - 1)
    wide[(1,) + (0,) * (nvars - 1)] = Fraction(q)
    return polys + [SparsePoly(nvars, every), SparsePoly(nvars, wide), SparsePoly.zero(nvars)]


# at 60013 and 2360003, q^4 and q^3 land between 2^63 and 2^64
@pytest.mark.parametrize("q", [67, 60013, 2360003, 1358186941, LARGEST_SCAN_Q])
def test_evaluate_poly_batch_stays_inside_int64(q):
    nvars = 4
    rng = np.random.default_rng(q)
    X = np.vstack([np.full((3, nvars), q - 1), rng.integers(0, q, (20, nvars)),
                   np.zeros((1, nvars), dtype=np.int64)])
    for f in _test_polynomials(nvars, q):
        values = evaluate_poly_batch(f, X, q)
        assert values.dtype == np.int64
        assert values.tolist() == [evaluate_mod(f, row, q) for row in X]


# each gave a wrong answer before it was rejected: at q = 1099511627791
# x0 x1 at x0 = x1 = 2^39 + 7 overflowed int64 (1099511627735, not
# 274877906948), and mod 9 Fermat's rule inverted 2 to 4, so (1/2) x0 at 2 was 4
@pytest.mark.parametrize("f,point,q,message", [
    (SparsePoly.monomial(2, [0, 1]), [2 ** 39 + 7, 2 ** 39 + 7], 1099511627791, "too large"),
    (SparsePoly(1, {(1,): Fraction(1, 2)}), [2], 9, "not prime")])
def test_evaluate_poly_batch_rejects_unusable_moduli(f, point, q, message):
    with pytest.raises(ValueError, match=message):
        evaluate_poly_batch(f, np.array([point], dtype=np.int64), q)


# 703 = 19 * 37 is 1 mod 9, so Z/703 has roots of unity of order 9;
# 2147484007 is the smallest census prime for d = 9 above 2^31
@pytest.mark.parametrize("q,message", [(703, "not prime"), (2147484007, "too large")])
def test_special_points_d9_mod_reject_unusable_fields(q, message):
    with pytest.raises(ValueError, match=message):
        special_points_d9_mod(q)


def test_census_d9_larger_prime():
    census = scan_strata(9, 37)
    assert census.total() == projective_point_count(4, 37)
    assert census.counts[0] == 0
    rank2 = set(census.min_rank_points)
    assert rank2 == ci_curve_points_d9(37) | special_points_d9_mod(37)


class _BatchSkew:
    """Slow-path oracle: the generic memoized Pfaffian recursion, on arrays."""

    def __init__(self, size: int, entries: dict, q: int, npoints: int) -> None:
        self.size = size
        self.entries = entries  # (i, j) i<j -> int64 array
        self.q = q
        self.npoints = npoints

    def entry(self, i: int, j: int) -> np.ndarray:
        if i < j:
            return self.entries[(i, j)]
        return (-self.entries[(j, i)]) % self.q

    def pf_on(self, idx: tuple[int, ...], memo: dict) -> np.ndarray:
        if not idx:
            return np.ones(self.npoints, dtype=np.int64)
        if idx in memo:
            return memo[idx]
        i0, rest = idx[0], idx[1:]
        acc = np.zeros(self.npoints, dtype=np.int64)
        for t, j in enumerate(rest):
            term = self.entry(i0, j) * self.pf_on(rest[:t] + rest[t + 1:], memo) % self.q
            acc = acc + term if t % 2 == 0 else acc - term
        memo[idx] = acc % self.q
        return memo[idx]


def _oracle_ranks(d: int, q: int, pts: np.ndarray) -> np.ndarray:
    s = s_matrix(d)
    entries = {}
    for (i, j), f in s.upper.items():
        (exps, coeff), = f.terms.items()
        val = np.ones(pts.shape[0], dtype=np.int64)
        for v, e in enumerate(exps):
            for _ in range(e):
                val = val * pts[:, v] % q
        entries[(i, j)] = (int(coeff) * val) % q
    batch = _BatchSkew(s.size, entries, q, pts.shape[0])
    memo: dict = {}
    zero_mask = np.ones(batch.npoints, dtype=bool)
    for arr in batch.entries.values():
        zero_mask &= arr == 0
    rank2_mask = np.ones(batch.npoints, dtype=bool)
    for quad in combinations(range(s.size), 4):
        rank2_mask &= batch.pf_on(quad, memo) == 0
    ranks = np.full(batch.npoints, 4, dtype=np.int64)
    if s.size % 2 == 0:
        ranks[batch.pf_on(tuple(range(s.size)), memo) != 0] = 6
    ranks[rank2_mask] = 2
    ranks[zero_mask] = 0
    return ranks


def test_batch_ranks_agree_with_elimination():
    for d, q in ((9, 19), (9, 37), (11, 23)):
        pts = canonical_points((d - 1) // 2, q)
        # the zero vector is no projective point; it exercises rank 0
        pts = np.vstack([pts, np.zeros_like(pts[:1])])
        ranks = _batch_ranks(d, q, pts)
        assert (ranks == _oracle_ranks(d, q, pts)).all()
        assert (ranks == closed_form_ranks(d, q, pts)).all()
        assert set(np.unique(ranks)) == {0, 2, 4} | ({6} if d == 11 else set())
        sample = [*range(0, pts.shape[0], 997), pts.shape[0] - 1]
        assert (ranks[sample] == rank_at_point(d, q, pts[sample])).all()


# at 60013 and 2360003, q^4 and q^3 land between 2^63 and 2^64, where an
# unreduced step would wrap around a signed lane without changing sign
@pytest.mark.parametrize("q", [67, 60013, 2360003, 1358186941, 1358187913,
                               LARGEST_CLOSED_FORM_Q, LARGEST_SCAN_Q])
def test_horner_steps_stay_inside_int64(q, monkeypatch):
    # acc = t = c = q - 1 is the widest a step can be; from a reduced
    # accumulator it is (q-1)^2 + (q-1) < q^2 < 2^62.  The accumulator comes
    # back unreduced, in the narrowest unsigned lane that holds the step
    # bound with no reduction (uint64, reduced as needed, when that bound
    # is 2^64 or more), and congruent to the value mod q
    assert (q - 1) ** 2 + (q - 1) < q ** 2 < 2 ** 62
    reductions = []
    reduce = ffscan._reduce

    def spy(x, q):
        reductions.append(x.dtype)
        return reduce(x, q)

    monkeypatch.setattr(ffscan, "_reduce", spy)

    def lane(degree):
        bound = q - 1
        for _ in range(degree):
            bound = bound * (q - 1) + q - 1
        return bound, np.min_scalar_type(bound) if bound < 2 ** 64 else np.dtype(np.uint64)

    # one coefficient per point, then one (runs, 1) column per run against
    # (runs, L) last coordinates; t as int64 and in the block type
    for c_shape, t_shape in (((3,), (3,)), ((4, 1), (4, 1)), ((3, 1), (3, 5)), ((2, 1), (2, 67))):
        for t_type in (np.int64, np.min_scalar_type(q - 1)):
            wide = np.full(t_shape, q - 1, dtype=t_type)
            column = np.full(c_shape, q - 1, dtype=np.int64)
            for degree in range(7):
                expected = sum((q - 1) ** (j + 1) for j in range(degree + 1)) % q
                bound, dtype = lane(degree)
                reductions.clear()
                values = _horner([column] * (degree + 1), wide, q)
                assert values.shape == t_shape and values.dtype == dtype
                assert dtype.kind == "u"
                assert all(0 <= int(v) < 2 ** (8 * dtype.itemsize) for v in values.flat)
                assert all(int(v) % q == expected for v in values.flat)
                # reductions run exactly where the bound leaves uint64
                assert bool(reductions) == (bound >= 2 ** 64)
                assert set(reductions) <= {np.dtype(np.uint64)}
            assert (wide == q - 1).all() and (column == q - 1).all()
    if q in (60013, 2360003):
        assert lane(6)[1] == np.uint64 and lane(6)[0] >= 2 ** 64
    rng = np.random.default_rng(q)
    t = rng.integers(0, q, (3, 5))
    coeffs = [rng.integers(0, q, (3, 1)) for _ in range(5)]
    values = _horner(coeffs, t, q)
    assert values.dtype == lane(4)[1]
    for (i, j), x in np.ndenumerate(t):
        assert int(values[i, j]) % q == sum(int(c[i, 0]) * int(x) ** (4 - k)
                                            for k, c in enumerate(coeffs)) % q


def _multiple_of_cases(q, top):
    """Values in [0, top): the edges around q, then random ones."""
    last = (top - 1) // q * q  # the largest multiple of q below top
    edges = [0, 1, q - 1, q, q + 1, 2 * q, last - q, last - 1, last, last + 1, top - 1]
    return st.one_of(st.sampled_from([v for v in edges if 0 <= v < top]),
                     st.integers(0, top - 1),
                     st.integers(0, (top - 1) // q).map(lambda k: k * q))


# the census primes, the least prime above 2^16 and the largest census q;
# int64 in [0, 2^63), and every unsigned lane _horner returns from uint16 up
@pytest.mark.parametrize("q", [19, 23, 67, 109, 65539, LARGEST_SCAN_Q])
def test_multiple_of_decides_divisibility(q):
    for lane, top in ((np.int64, 2 ** 63), (np.uint16, 2 ** 16),
                      (np.uint32, 2 ** 32), (np.uint64, 2 ** 64)):
        @settings(max_examples=200, deadline=None, derandomize=True)
        @given(st.lists(_multiple_of_cases(q, top), min_size=1, max_size=20))
        def run(values):
            x = np.array(values, dtype=lane)
            # the reduce-and-compare the kernel used before is the oracle,
            # on a uint64 copy since q need not fit the lane
            expected = _reduce(x.astype(np.uint64), q) == 0
            assert (expected == np.array([v % q == 0 for v in values])).all()
            assert (_multiple_of(x.copy(), q) == expected).all()

        run()


def test_multiple_of_refuses_an_even_modulus():
    with pytest.raises(ValueError):
        _multiple_of(np.arange(4, dtype=np.int64), 2)


@pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.int64])
def test_first_nonzero_matches_a_row_loop(dtype):
    rng = np.random.default_rng(5)
    for width in range(4):
        # mostly zeros, so rows whose first nonzero sits in every column occur
        cols = rng.integers(0, 200, (300, width)).astype(dtype)
        cols[rng.random(cols.shape) < 0.6] = 0
        first = _first_nonzero(cols)
        assert first.dtype == dtype and first.shape == (300,)
        expected = [next((int(c) for c in row if c), 0) for row in cols]
        assert first.tolist() == expected
    # a block whose lead sits just before the last coordinate has no free
    # coordinates between them, as _orbit_representatives reads it
    block = next(b for b in point_blocks(4, 23) if b[0, 2] == 1 and not b[0, :2].any())
    first = _first_nonzero(block[::23, 3:-1])
    assert first.shape == (len(block) // 23,) and not first.any()


def test_batch_ranks_of_no_points():
    for d, ncoords in ((9, 4), (11, 5)):
        ranks = _batch_ranks(d, 67 if d == 11 else 109, np.empty((0, ncoords), dtype=np.int64))
        assert ranks.shape == (0,)


def _canonical_point(q: int, ncoords: int):
    # zeros are common so that low-rank points turn up
    coord = st.one_of(st.just(0), st.just(q - 1), st.integers(0, q - 1))
    return st.integers(0, ncoords - 1).flatmap(
        lambda lead: st.tuples(*[coord] * (ncoords - lead - 1)).map(
            lambda free: (0,) * lead + (1,) + free))


@pytest.mark.parametrize("d,q", [
    (9, 19), (9, 109), (9, 20719), (9, 20773),
    (11, 23), (11, 67), (11, 20681), (11, 20747),
    # the largest census primes the closed-form oracle accepts
    (9, 1358187913), (11, 1358186941),
])
def test_kernel_matches_elimination_on_random_points(d, q):
    check_scan_prime(d, q)
    ncoords = (d - 1) // 2

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.lists(_canonical_point(q, ncoords), min_size=1, max_size=16))
    def run(points):
        pts = np.array(points, dtype=np.int64)
        ranks = _batch_ranks(d, q, pts)
        assert (ranks == rank_at_point(d, q, pts)).all()
        assert (ranks == _oracle_ranks(d, q, pts)).all()
        assert (ranks == closed_form_ranks(d, q, pts)).all()

    run()


def _runs(q: int, ncoords: int, max_length: int):
    """Rows in runs: a prefix repeated over consecutive last coordinates.

    Prefixes come from a small pool, so equal prefixes also turn up in runs
    that are not adjacent; last coordinates wrap through q-1 -> 0.
    """
    coord = st.one_of(st.just(0), st.just(1), st.just(q - 1), st.integers(0, q - 1))
    pool = st.lists(st.tuples(*[coord] * (ncoords - 1)), min_size=1, max_size=3)
    return pool.flatmap(lambda prefixes: st.lists(
        st.tuples(st.sampled_from(prefixes), st.integers(0, q - 1),
                  st.integers(1, max_length)),
        min_size=1, max_size=6))


def _rows(q: int, runs) -> np.ndarray:
    return np.array([prefix + ((start + k) % q,)
                     for prefix, start, length in runs for k in range(length)],
                    dtype=np.int64)


@pytest.mark.parametrize("d,q", [(9, 19), (11, 23)])
def test_kernel_matches_the_oracles_on_runs(d, q):
    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(_runs(q, (d - 1) // 2, q))
    def run(runs):
        pts = _rows(q, runs)
        ranks = _batch_ranks(d, q, pts)
        assert (ranks == closed_form_ranks(d, q, pts)).all()
        assert (ranks == _oracle_ranks(d, q, pts)).all()
        assert (ranks == rank_at_point(d, q, pts)).all()

    run()


@pytest.mark.parametrize("d,q", [(9, 1358187913), (11, 1358186941),
                                 (9, LARGEST_SCAN_Q), (11, LARGEST_SCAN_Q)])
def test_kernel_on_runs_that_wrap_at_the_largest_primes(d, q):
    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(_runs(q, (d - 1) // 2, 4), st.integers(1, 31))
    def run(runs, before_wrap):
        # one run of 32 consecutive values through q-1 -> 0, among short ones
        prefix = runs[0][0]
        pts = _rows(q, [(prefix, q - before_wrap, 32)] + runs)
        assert {q - 1, 0} <= set(pts[:32, -1].tolist())
        ranks = _batch_ranks(d, q, pts)
        if q <= LARGEST_CLOSED_FORM_Q:
            assert (ranks == closed_form_ranks(d, q, pts)).all()
        assert (ranks == _oracle_ranks(d, q, pts)).all()
        assert (ranks == rank_at_point(d, q, pts)).all()

    run()


@pytest.mark.parametrize("d,q", [(9, 19), (11, 23)])
def test_kernel_commutes_with_shuffling_the_rows(d, q):
    pts = canonical_points((d - 1) // 2, q)
    ranks = _batch_ranks(d, q, pts)

    @settings(max_examples=5, deadline=None, derandomize=True)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(0, pts.shape[0]),
           st.integers(0, pts.shape[0]))
    def run(seed, a, b):
        # shuffle one window, so long runs and broken runs share the block
        a, b = min(a, b), max(a, b)
        order = np.arange(pts.shape[0])
        order[a:b] = np.random.default_rng(seed).permutation(order[a:b])
        assert (_batch_ranks(d, q, pts[order]) == ranks[order]).all()

    run()


def _assert_exact_ranks(d, q, pts):
    ranks = _batch_ranks(d, q, pts)
    assert (ranks == closed_form_ranks(d, q, pts)).all()
    # elimination at every low-rank row and at a spread of the others
    top = s_matrix(d).size // 2 * 2
    sample = np.union1d(np.flatnonzero(ranks < top), np.arange(0, pts.shape[0], 41))
    assert (ranks[sample] == rank_at_point(d, q, pts[sample])).all()


def _block_edges(ncoords, q, block_size):
    """Row of canonical_points where each block of point_blocks starts, then
    the number of points: block i is rows edges[i] to edges[i + 1]."""
    starts, offset = [], 0
    for lead in range(ncoords):
        total = q ** (ncoords - lead - 1)
        run = q if lead < ncoords - 1 else 1
        starts.append(np.arange(offset, offset + total, block_size // run * run or block_size))
        offset += total
    return np.append(np.concatenate(starts), offset)


@pytest.mark.parametrize("d,q", [(9, 19), (11, 23)])
def test_kernel_on_whole_shuffled_and_cut_blocks(d, q):
    ncoords = (d - 1) // 2
    pts = canonical_points(ncoords, q)

    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(st.integers(1, 3 * q * q), st.data())
    def run(block_size, data):
        # the drawn block of point_blocks, taken from the enumeration at its
        # boundaries (test_point_blocks_hold_whole_runs pins them) in its
        # column-major layout, so the other blocks are never built
        edges = _block_edges(ncoords, q, block_size)
        i = data.draw(st.integers(0, len(edges) - 2))
        block = np.asfortranarray(pts[edges[i]:edges[i + 1]])
        _assert_exact_ranks(d, q, block)
        seed = data.draw(st.integers(0, 2 ** 32 - 1))
        _assert_exact_ranks(d, q, block[np.random.default_rng(seed).permutation(len(block))])
        # cut inside two runs (every lead position but the last starts at a
        # multiple of q), keeping or breaking n % q == 0
        begin = q * data.draw(st.integers(0, len(pts) // q - 1)) + data.draw(st.integers(1, q - 1))
        end = begin + q * data.draw(st.integers(1, 3 * q)) - data.draw(st.integers(0, 1))
        _assert_exact_ranks(d, q, pts[begin:end])

    run()


def _blocks_mixing_one_column(q, pts, ranks, column):
    """q rows that agree in every prefix column but one: a point, then
    low-rank points that differ from it in that column only."""
    ncoords = pts.shape[1]
    others = [c for c in range(ncoords - 1) if c != column]
    low = pts[ranks < ranks.max()]
    keys, counts = np.unique(low[:, others], axis=0, return_counts=True)
    for key in keys[np.argsort(-counts, kind="stable")]:
        group = low[(low[:, others] == key).all(axis=1)]
        for lead in pts[(pts[:, others] == key).all(axis=1)
                        & (pts[:, column] != group[0, column])]:
            yield np.vstack([lead, np.resize(group, (q - 1, ncoords))])


@pytest.mark.parametrize("d,q", [(9, 19), (11, 23)])
def test_kernel_checks_every_prefix_column(d, q):
    # a kernel that took such a block for one run would give every row the
    # coefficients of the first row's prefix
    pts = canonical_points((d - 1) // 2, q)
    ranks = closed_form_ranks(d, q, pts)

    def misread(block):
        merged = block.copy()
        merged[:, :-1] = block[0, :-1]
        return closed_form_ranks(d, q, merged)

    for column in range(pts.shape[1] - 1):
        block = next(b for b in _blocks_mixing_one_column(q, pts, ranks, column)
                     if (misread(b) != closed_form_ranks(d, q, b)).any())
        assert len(set(block[:, column].tolist())) > 1
        _assert_exact_ranks(d, q, block)
        _assert_exact_ranks(d, q, np.vstack([block] * 3))


@pytest.mark.parametrize("d,q", [(9, 19), (11, 23)])
def test_coefficients_are_evaluated_once_per_run(monkeypatch, d, q):
    sizes = []
    evaluate = ffscan.evaluate_poly_batch

    def spy(f, X, q):
        sizes.append(X.shape[0])
        return evaluate(f, X, q)

    monkeypatch.setattr(ffscan, "evaluate_poly_batch", spy)
    blocks = list(point_blocks((d - 1) // 2, q, block_size=40 * q + 3))
    for block in blocks:
        sizes.clear()
        _leading_pfaffian_vanishes(d, q, block)
        assert sizes and set(sizes) == {max(1, len(block) // q)}
    # a multiple of q rows, one run broken by a row of the run before it:
    # the block is not whole runs, so every row is evaluated
    broken = blocks[0].copy()
    broken[q + 1] = broken[0]
    assert len(broken) % q == 0 and len(broken) > q
    sizes.clear()
    _leading_pfaffian_vanishes(d, q, broken)
    assert sizes and set(sizes) == {len(broken)}
    assert (_batch_ranks(d, q, broken) == closed_form_ranks(d, q, broken)).all()


def test_d11_counts_are_consistent():
    census = scan_strata(11, 23)
    assert census.total() == projective_point_count(5, 23)
    assert census.counts[0] == 0
    assert census.min_rank == 2
    # the rank-2 stratum is where every kernel-map coordinate dies
    assert census.counts[2] == len(census.min_rank_points)


def _least_coset_representatives(h: int, q: int) -> list[int]:
    """The least element of each coset of mu_h in F_q^*, by brute force."""
    roots = [pow(search_nth_root(h, q), j, q) for j in range(h)]
    return sorted({min(x * r % q for r in roots) for x in range(1, q)})


def _first_free(pts: np.ndarray) -> np.ndarray:
    """The first nonzero coordinate after the leading one of each row, or 0
    at a coordinate point."""
    lead = np.argmax(pts != 0, axis=1)
    free = (pts != 0) & (np.arange(pts.shape[1]) > lead[:, None])
    return pts[np.arange(len(pts)), np.argmax(free, axis=1)] * free.any(axis=1)


def _representatives(d: int, q: int) -> np.ndarray:
    """The canonical points the quotient census ranks, in scan order: the
    coordinate points and those whose first nonzero free coordinate is a
    least coset representative of mu_11 (all of F_q^* for d = 9)."""
    pts = canonical_points((d - 1) // 2, q)
    if d == 9:
        return pts
    keep = np.zeros(q, dtype=bool)
    keep[[0] + _least_coset_representatives(11, q)] = True
    return pts[keep[_first_free(pts)]]


def _torus_images(d: int, q: int, pts: np.ndarray, j: int) -> np.ndarray:
    """t^j x, x_k -> xi^(j k^2) x_k, xi the least element of order d."""
    xi = search_nth_root(d, q)
    return pts * np.array([pow(xi, j * k * k, q) for k in range(1, pts.shape[1] + 1)]) % q


@pytest.mark.parametrize("d,q,block_size,samples", [(9, 19, 1000, 518),
                                                     (11, 23, SCAN_BLOCK, 522)])
def test_scan_cross_checks_every_step_th_point_in_one_call(d, q, block_size, samples,
                                                          monkeypatch):
    # every step-th representative i, moved by t^(i mod h): h = 11 for
    # d = 11, and h = 1 (every point unmoved) for d = 9
    calls = []

    def spy(d, q, points):
        calls.append(points.copy())
        return rank_at_point(d, q, points)

    monkeypatch.setattr(ffscan, "rank_at_point", spy)
    scan_strata(d, q, block_size)
    reps = _representatives(d, q)
    picked = reps[::reps.shape[0] // ffscan.CROSS_CHECK_SAMPLES]
    h = {9: 1, 11: 11}[d]
    moved = [_torus_images(d, q, row[None], i % h)[0] for i, row in enumerate(picked)]
    assert len(calls) == 1
    assert np.array_equal(calls[0], moved)
    assert calls[0].shape[0] == samples


def test_cross_check_catches_a_wrong_kernel_rank(monkeypatch):
    batch_ranks = ffscan._batch_ranks
    for d, q, block_size in ((9, 19, 1000), (11, 23, SCAN_BLOCK)):
        reps = _representatives(d, q)
        bad = tuple(int(c) for c in reps[200 * (reps.shape[0] // ffscan.CROSS_CHECK_SAMPLES)])

        def broken(d, q, block, bad=bad):
            ranks = batch_ranks(d, q, block)
            hit = (block == bad).all(axis=1)
            ranks[hit] = 6 - ranks[hit]  # rank 4 reads 2 and rank 2 reads 4
            return ranks

        monkeypatch.setattr(ffscan, "_batch_ranks", broken)
        with pytest.raises(AssertionError, match=re.escape(f"at point {bad}")):
            scan_strata(d, q, block_size=block_size)


def test_census_raises_on_a_wrong_torus_weight(monkeypatch):
    # x_k -> xi^k x_k keeps the weight differences units mod 11, so the
    # representatives and the orbit size are unchanged, but rank is not
    # constant on its orbits; the moved cross-check samples catch it
    monkeypatch.setattr(ffscan, "torus_weights", lambda d: tuple(range(1, (d + 1) // 2)))
    assert ffscan.torus_order(11) == 11
    with pytest.raises(AssertionError, match="disagrees with elimination"):
        scan_strata(11, 23)


@pytest.mark.parametrize("d,q", [(9, 19), (11, 23), (9, 37), (11, 67)])
def test_quotient_census_matches_the_full_scan(d, q):
    census, full = scan_strata(d, q), full_scan_strata(d, q)
    assert census.counts == full.counts
    assert census.min_rank == full.min_rank
    assert census.min_rank_points == full.min_rank_points


def test_torus_order_is_derived_from_the_weights():
    assert ffscan.torus_weights(11) == (1, 4, 9, 5, 3)
    assert ffscan.torus_weights(9) == (1, 4, 0, 7)
    assert ffscan.torus_order(11) == 11
    # 4 - 1 = 3 is no unit mod 9, so some orbits have size 3
    assert ffscan.torus_order(9) == 1


@pytest.mark.parametrize("d", [9, 11])
def test_torus_carries_the_quadric_matrix_to_d_s_d(d):
    # x_k -> xi^(k^2) x_k scales entry (i, j), +/-x_(j-i) x_(j+i), by
    # xi^(2i^2 + 2j^2): S(t x) = D S(x) D with D = diag(xi^(2i^2))
    matrix = s_matrix(d)
    weights = [k * k for k in range(1, (d + 1) // 2)]
    for (i, j), f in matrix.upper.items():
        (exps, _), = f.terms.items()
        assert sum(e * w for e, w in zip(exps, weights)) % d == (2 * i * i + 2 * j * j) % d
    # and mod q at every census prime below 100, at random points
    for q in (p for p in range(d + 1, 100, d) if is_prime(p)):
        xi = search_nth_root(d, q)
        pts = np.random.default_rng(q).integers(0, q, (50, len(weights)))
        diag = np.array([pow(xi, 2 * i * i, q) for i in range(matrix.size)])
        moved = evaluate_skew_mod(matrix, _torus_images(d, q, pts, 1), q)
        expected = diag[:, None] * evaluate_skew_mod(matrix, pts, q) % q * diag % q
        assert np.array_equal(moved, expected)


def test_every_orbit_meets_the_representatives_once():
    # at (11, 23): of the 11 torus images of each canonical point that is
    # not a coordinate point, exactly one has its first nonzero free
    # coordinate among the least coset representatives of mu_11
    q = 23
    pts = canonical_points(5, q)
    pts = pts[np.count_nonzero(pts, axis=1) > 1]
    least = np.zeros(q, dtype=bool)
    least[_least_coset_representatives(11, q)] = True
    inverse = np.array([0] + [pow(a, q - 2, q) for a in range(1, q)])
    hits = np.zeros(len(pts), dtype=int)
    for j in range(11):
        images = _torus_images(11, q, pts, j)
        lead = images[np.arange(len(images)), np.argmax(images != 0, axis=1)]
        hits += least[_first_free(images * inverse[lead][:, None] % q)]
    assert (hits == 1).all()
    assert len(_representatives(11, q)) == 5 + len(pts) // 11


@pytest.mark.parametrize("q", [23, 67, 89, 199])
def test_coset_representatives_are_the_least_of_each_coset(q):
    units = np.flatnonzero(ffscan._least_table(11, q))
    assert units.tolist() == _least_coset_representatives(11, q)
    assert len(units) == (q - 1) // 11


@pytest.mark.parametrize("q", [23, 67, 199, 262153])
def test_least_table_matches_the_whole_field_comparison(q):
    # 262153 = 2 SCAN_BLOCK + 9: two whole slices and a short one
    assert np.array_equal(ffscan._least_table(11, q), whole_field_least_table(11, q))
    assert ffscan._least_table(1, q) is None


def test_least_table_is_built_in_block_sized_slices():
    # q = 11 * 909098 + 1: beside the q-byte table only SCAN_BLOCK-long
    # temporaries are alive, where the whole field at once peaks near 240 MB
    q = 10000079
    tracemalloc.start()
    try:
        least = ffscan._least_table(11, q)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20
    assert np.count_nonzero(least) == (q - 1) // 11 and not least[0]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.integers(1, 5), st.sampled_from([2, 3, 5, 7]), st.data())
def test_orbit_representatives_select_the_least_units(ncoords, q, data):
    units = sorted(data.draw(st.sets(st.integers(1, q - 1), min_size=1)))
    block_size = data.draw(st.integers(1, 3 * q * q))
    least = np.zeros(q, dtype=bool)
    least[units] = True
    blocks = list(point_blocks(ncoords, q, block_size))
    pieces = [piece for block in blocks for piece in _orbit_representatives(block, least, q)]
    pts = canonical_points(ncoords, q)
    keep = np.isin(_first_free(pts), [0] + units)
    assert np.array_equal(np.concatenate(pieces), pts[keep])
    # a piece without a coordinate point holds whole runs when q <= block_size
    for piece in pieces:
        if block_size >= q and (np.count_nonzero(piece, axis=1) > 1).all():
            prefix = piece[:, :-1].reshape(-1, q, ncoords - 1)
            assert (prefix == prefix[:, :1]).all()
    # without a quotient every block is ranked whole
    assert all(list(_orbit_representatives(block, None, q)) == [block] for block in blocks)


def test_find_stratum_point():
    hit = find_stratum_point(11, 23, 4)
    assert hit is not None
    assert rank_at_point(11, 23, np.array([hit])).tolist() == [4]
    assert find_stratum_point(9, 19, 0) is None
    low = find_stratum_point(9, 19, 2)
    assert low is not None
    assert low in (ci_curve_points_d9(19) | special_points_d9_mod(19))


@pytest.mark.parametrize("q", [3, 7, 13, 23, 31])
def test_jacobian_zero_scan(q):
    # the Euler relation puts every zero of the quadrics on the cubic when q
    # does not divide 3; at q = 3 (1:1:1:1:1) is a zero of the quadrics alone
    assert jacobian_zero_counts(q) == {"jacobian": int(q == 3), "system": 0}


def test_jacobian_counts_detail():
    counts3 = jacobian_zero_counts(3)
    assert counts3 == {"jacobian": 1, "system": 0}  # (1:1:1:1:1) since 1+2=0 mod 3
    counts11 = jacobian_zero_counts(11)
    assert counts11["system"] == counts11["jacobian"] == 1  # the group prime is special
    with pytest.raises(ValueError):
        jacobian_zero_counts(2)


@pytest.mark.parametrize("q", [101, 1009])
def test_jacobian_counts_at_certificate_primes(q):
    # primes where the Macaulay Hilbert function of the system reaches 0
    assert jacobian_zero_counts(q) == {"jacobian": 0, "system": 0}


def _jacobian_systems():
    quadrics = jacobian_quadrics()
    # the proper subsets keep many zeros, so the row order is exercised
    return [quadrics[:1], quadrics[:3], quadrics, quadrics + [klein_cubic()]]


@pytest.mark.parametrize("q", [3, 5, 7, 11, 13, 17, 19, 23, 29, 31])
def test_common_zeros_of_the_jacobian_system_match_the_scan(q):
    systems = _jacobian_systems()
    sieved = [common_zeros(system, 5, q) for system in systems]
    for system, pts in zip(systems, sieved):
        assert pts.shape[1] == 5
        assert pts.tolist() == scan_common_zeros(system, 5, q).tolist()
    assert jacobian_zero_counts(q) == {"jacobian": len(sieved[2]), "system": len(sieved[3])}


@pytest.mark.parametrize("q", [3, 11, 13])
def test_common_zeros_do_not_depend_on_the_block_size(q):
    for system in _jacobian_systems():
        expected = scan_common_zeros(system, 5, q).tolist()
        # block sizes below q also split the range of one coordinate
        for block_size in (1, 7, SCAN_BLOCK):
            assert common_zeros(system, 5, q, block_size=block_size).tolist() == expected


def test_common_zeros_hold_at_most_one_block_per_stage(monkeypatch):
    import heisencheck.ffscan as ffscan

    sizes = []
    evaluate = ffscan.evaluate_poly_batch

    def spy(f, X, q):
        sizes.append(X.shape[0])
        return evaluate(f, X, q)

    monkeypatch.setattr(ffscan, "evaluate_poly_batch", spy)
    pts = common_zeros(jacobian_quadrics()[:2], 5, 13, block_size=100)
    assert len(pts) == len(scan_common_zeros(jacobian_quadrics()[:2], 5, 13))
    assert max(sizes) <= 100


@st.composite
def _sparse_system(draw):
    ncoords = draw(st.integers(2, 5))
    q = draw(st.sampled_from([2, 3, 5, 7]))

    def poly():
        support = draw(st.sets(st.integers(0, ncoords - 1)))
        terms = {}
        for _ in range(draw(st.integers(0, 3))):
            exps = tuple(draw(st.integers(0, 3)) if v in support else 0 for v in range(ncoords))
            terms[exps] = draw(st.integers(-4, 4))
        return SparsePoly(ncoords, terms)

    return ncoords, q, [poly() for _ in range(draw(st.integers(0, 4)))]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_sparse_system(), st.sampled_from([1, 7, SCAN_BLOCK]))
def test_common_zeros_match_the_scan_on_random_systems(system, block_size):
    ncoords, q, polys = system
    expected = scan_common_zeros(polys, ncoords, q).tolist()
    assert common_zeros(polys, ncoords, q, block_size=block_size).tolist() == expected


@pytest.mark.parametrize("ncoords,q", [(2, 2), (3, 5), (5, 7)])
def test_common_zeros_of_constants(ncoords, q):
    every = canonical_points(ncoords, q).tolist()
    zero, one = SparsePoly.zero(ncoords), SparsePoly.constant(ncoords, 3)
    assert common_zeros([], ncoords, q).tolist() == every
    assert common_zeros([zero], ncoords, q).tolist() == every
    assert common_zeros([zero, one], ncoords, q).shape == (0, ncoords)
    # 3 vanishes mod 3, so it imposes nothing there
    assert len(common_zeros([one], ncoords, 3)) == len(canonical_points(ncoords, 3))


@pytest.mark.parametrize("q,message", [(15, "not prime"), (1, "not prime"),
                                       (2147483659, "too large")])
def test_common_zeros_reject_unusable_fields(q, message):
    with pytest.raises(ValueError, match=message):
        common_zeros(jacobian_quadrics(), 5, q)


def test_common_zeros_reject_a_wrong_arity():
    with pytest.raises(ValueError, match="variables"):
        common_zeros(jacobian_quadrics(), 4, 7)


def test_census_csv():
    census = scan_strata(9, 19)
    text = census_csv([census])
    lines = text.strip().splitlines()
    assert lines[0] == "q,d,rank,count"
    assert "19,9,2,40" in lines
    assert len(lines) == 1 + len(census.counts)
