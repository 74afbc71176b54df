import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from heisencheck.exactnum import CycloNum
from heisencheck.heisenberg import v_dot_R
from heisencheck.hilbert import (
    RANK_PRIMES,
    _macaulay_matrices,
    _macaulay_rank,
    _scatter,
    _standard_monomials,
    abelian_surface_profile,
    face_vector,
    graded_hilbert,
    squarefree_faces,
    stanley_reisner_hilbert,
)
from heisencheck.linalg import rank_fraction, rank_mod
from heisencheck.mpoly import SparsePoly, graded_monomials
from heisencheck.surface9 import (
    j1_generators,
    j2_monomials,
    j_family,
    theta9_closed_form,
)
from oracles import (
    degree_rows,
    dense_rank_mod,
    divisor_loop_hilbert,
    divisor_loop_standard,
    gauss_jordan_rank,
    peel_dense,
    project_rows,
    row_loop_macaulay_matrices,
)

TORUS_PROFILE = [1, 9, 36, 81, 144, 225]


def _dense_macaulay_matrices(gens, nvars, t_max):
    """Each degree's padded rows scattered into a dense int64 matrix."""
    for width, cols, vals in _macaulay_matrices(gens, nvars, t_max):
        assert cols.dtype == vals.dtype == np.int64 and cols.shape == vals.shape
        # padding has column width and value 0, after the row's entries
        pad = cols == width
        assert (vals[pad] == 0).all() and (vals[~pad] != 0).all()
        assert (np.diff(pad.view(np.int8), axis=1) >= 0).all()
        yield _scatter(width, cols, vals)


def _padded(mat):
    """(width, cols, vals) of a dense integer matrix, padded as
    _macaulay_matrices pads its rows."""
    width = mat.shape[1]
    span = int(np.count_nonzero(mat, axis=1).max(initial=0))
    cols = np.full((len(mat), span), width, dtype=np.int64)
    vals = np.zeros_like(cols)
    for i, row in enumerate(mat):
        j = np.flatnonzero(row)
        cols[i, :len(j)], vals[i, :len(j)] = j, row[j]
    return width, cols, vals


def test_rank_primes_are_30_bit_primes():
    def is_prime(n):
        if n % 2 == 0:
            return n == 2
        d, s = n - 1, 0
        while d % 2 == 0:
            d //= 2
            s += 1
        for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
            x = pow(a, d, n)
            if x in (1, n - 1):
                continue
            for _ in range(s - 1):
                x = x * x % n
                if x == n - 1:
                    break
            else:
                return False
        return True

    for p in RANK_PRIMES:
        assert is_prime(p)
        assert 2 ** 29 < p < 2 ** 30
        assert p not in (2, 3, 5, 11)


def test_monomial_hilbert_torus_ideal():
    assert graded_hilbert(j1_generators(), 9, 5) == TORUS_PROFILE


@pytest.mark.parametrize("gens", [
    pytest.param(j1_generators(), id="J1"),
    pytest.param(j2_monomials(), id="J2"),
])
def test_monomial_hilbert_matches_the_divisor_loop(gens):
    assert graded_hilbert(gens, 9, 6) == divisor_loop_hilbert(gens, 9, 6)


@st.composite
def _monomial_ideals(draw):
    """(generators, nvars, t_max): monomial SparsePolys with nonzero
    rational coefficients, some zero generators and some of degree 0."""
    nvars = draw(st.integers(3, 6))
    t_max = draw(st.integers(0, 5))
    coeffs = st.fractions(min_value=-20, max_value=20, max_denominator=12)
    gens = []
    for _ in range(draw(st.integers(0, 6))):
        top = 0 if draw(st.integers(0, 9)) == 0 else 3  # sometimes the unit ideal
        exps = tuple(draw(st.lists(st.integers(0, top), min_size=nvars, max_size=nvars)))
        gens.append(SparsePoly(nvars, {exps: draw(coeffs)}))
    return gens, nvars, t_max


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_monomial_ideals())
@example(([SparsePoly.zero(3)], 3, 2))
@example(([SparsePoly.variable(3, 1, 2), SparsePoly.constant(3, Fraction(-2, 3))], 3, 2))
def test_monomial_hilbert_matches_the_divisor_loop_on_drawn_ideals(case):
    gens, nvars, t_max = case
    # a zero generator adds nothing to the ideal, and the oracle divides by none
    divisors = [g for g in gens if not g.is_zero()]
    assert graded_hilbert(gens, nvars, t_max) == divisor_loop_hilbert(divisors, nvars, t_max)


def test_face_vector_torus():
    fv = face_vector(squarefree_faces(j1_generators(), 9))
    assert fv == (9, 27, 18)
    assert fv[0] - fv[1] + fv[2] == 0


def test_face_vector_solid_torus():
    faces = squarefree_faces(j2_monomials(), 9)
    fv = face_vector(faces)
    assert len(fv) == 4 and fv[0] == 9 and fv[3] == 9
    tets = {tuple(sorted(f)) for f in faces if len(f) == 4}
    expected = {tuple(sorted(((i) % 9, (i + 1) % 9, (i + 4) % 9, (i + 5) % 9))) for i in range(9)}
    assert tets == expected
    assert sum((-1) ** i * c for i, c in enumerate(fv)) == 0


def test_face_vector_rejects_non_squarefree():
    with pytest.raises(ValueError):
        squarefree_faces([SparsePoly.monomial(9, [0, 0])], 9)


def test_discrete_complex():
    gens = [SparsePoly.monomial(9, [i, j]) for i in range(9) for j in range(i + 1, 9)]
    assert face_vector(squarefree_faces(gens, 9)) == (9,)


def test_stanley_reisner_identity():
    fv = face_vector(squarefree_faces(j1_generators(), 9))
    values = graded_hilbert(j1_generators(), 9, 5)
    for t in range(1, 6):
        assert stanley_reisner_hilbert(fv, t) == values[t]
    assert stanley_reisner_hilbert(fv, 0) == 1


def test_graded_agrees_with_monomial_oracle():
    for gens in (j1_generators(), j2_monomials(), v_dot_R([0, 1, 0, 0, 0], 9)):
        assert graded_hilbert(gens, 9, 5) == divisor_loop_hilbert(gens, 9, 5)


def test_graded_hilbert_family_member():
    assert graded_hilbert(j_family(1, 1).generators(), 9, 5) == TORUS_PROFILE
    assert graded_hilbert(j_family(3, 7).generators(), 9, 4) == TORUS_PROFILE[:5]
    # the trinomial coefficients lambda, -mu, lambda are held exactly in int64
    assert graded_hilbert(j_family(2 ** 63 - 1, 1).generators(), 9, 4) == TORUS_PROFILE[:5]


def test_torus_family_reaches_9t2_at_degree_8():
    for lam, mu in ((1, 1), (2, 9), (9, 4)):
        assert graded_hilbert(j_family(lam, mu).generators(), 9, 8) == abelian_surface_profile(8)


@pytest.mark.parametrize("gens", [
    pytest.param(j_family(1, 1).generators(), id="J(1:1)"),
    pytest.param(j_family(3, 7).generators(), id="J(3:7)"),
    pytest.param(j_family(0, 1).generators(), id="J(0:1)"),
    pytest.param(j_family(Fraction(2, 3), Fraction(-5, 7)).generators(), id="J(2/3:-5/7)"),
    pytest.param(j1_generators(), id="J1"),
    pytest.param(v_dot_R([0, 1, 0, 0, 0], 9), id="monomial-fiber"),
])
def test_one_pass_rows_match_the_two_pass_oracle(gens):
    # each integer row is a nonzero rational multiple of the oracle's row, in
    # the oracle's order, so both ranks see the oracle's row space
    built = list(_dense_macaulay_matrices(gens, 9, 7))
    assert len(built) == 8
    for t, mat in enumerate(built):
        ncols, killed, poly_rows = degree_rows(gens, 9, t)
        oracle_width, oracle_rows = project_rows(killed, poly_rows, ncols)
        assert mat.dtype == np.int64
        assert mat.shape == (len(oracle_rows), oracle_width), t
        for row, entries in zip(mat.tolist(), oracle_rows):
            assert [j for j, v in enumerate(row) if v] == [j for j, _ in entries], t
            assert len({row[j] / v for j, v in entries}) == 1, t


def _pack(exps, t_max):
    return sum(e * (t_max + 1) ** i for i, e in enumerate(exps))


@pytest.mark.parametrize("nvars, t_max", [(1, 4), (3, 5), (9, 4), (62, 1)])
def test_packed_bases_are_the_graded_monomials_packed(nvars, t_max):
    # with no generators every monomial is standard
    std = _standard_monomials(nvars, t_max, [])
    assert len(std) == t_max + 1
    for k, base in enumerate(std):
        assert base.dtype == np.int64
        assert base.tolist() == [_pack(exps, t_max) for exps in graded_monomials(nvars, k)]
        assert (np.diff(base) > 0).all()  # the lookups are searchsorted


@st.composite
def _standard_cases(draw):
    """(generators, nvars, t_max): exponent tuples in 0 to 5 variables,
    some of degree 0, some above t_max, some repeated."""
    nvars = draw(st.integers(0, 5))
    t_max = draw(st.integers(0, 6 if nvars < 4 else 4))
    gens = []
    for _ in range(draw(st.integers(0, 6))):
        if gens and draw(st.integers(0, 4)) == 0:
            gens.append(draw(st.sampled_from(gens)))
            continue
        exps = st.integers(0, draw(st.sampled_from((1, 3, t_max + 2))))
        gens.append(tuple(draw(st.lists(exps, min_size=nvars, max_size=nvars))))
    return gens, nvars, t_max


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_standard_cases())
@example(([(0, 0, 0)], 3, 2))  # the unit ideal
@example(([(0, 5), (2, 0), (2, 0)], 2, 3))  # above t_max, and repeated
@example(([()], 0, 2))
@example(([], 0, 3))
def test_standard_monomials_match_the_divisor_loop(case):
    gens, nvars, t_max = case
    monomials = [(sum(e), _pack(e, t_max)) for e in gens if sum(e) <= t_max]
    std = _standard_monomials(nvars, t_max, monomials)
    want = divisor_loop_standard(gens, nvars, t_max)
    assert [s.tolist() for s in std] == [[_pack(m, t_max) for m in ms] for ms in want]
    polys = [SparsePoly(nvars, {e: 1}) for e in gens]
    assert graded_hilbert(polys, nvars, t_max) == [len(ms) for ms in want]


def test_the_ring_in_no_variables_is_the_field():
    assert graded_hilbert([], 0, 2) == [1, 0, 0]
    assert graded_hilbert([SparsePoly.constant(0, 1)], 0, 2) == [0, 0, 0]
    assert graded_hilbert([], 0, 0) == [1]


def test_generators_in_another_number_of_variables_are_rejected():
    x = SparsePoly.variable(4, 0)
    with pytest.raises(ValueError, match="in 4 variables, not 3"):
        graded_hilbert([SparsePoly.variable(3, 0), x], 3, 2)
    with pytest.raises(ValueError, match="in 4 variables, not 3"):
        graded_hilbert([x], 3, 2)


def test_a_negative_degree_is_rejected():
    with pytest.raises(ValueError, match="nonnegative, got -1"):
        graded_hilbert([SparsePoly.variable(3, 0)], 3, -1)


def test_degree_12_stays_within_the_standard_monomials():
    # the columns are the 9 t^2 standard monomials, not all C(t + 8, 8)
    gens = j_family(3, 7).generators()
    tracemalloc.start()
    try:
        profile = graded_hilbert(gens, 9, 12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert profile == abelian_surface_profile(12)
    assert peak < 16 * 2 ** 20


@pytest.mark.parametrize("nvars, t_max", [(20, 8), (9, 127), (63, 1)])
def test_monomials_that_do_not_pack_into_int64_are_rejected(nvars, t_max):
    # (t_max + 1)^nvars reaches 2^63 (for (9, 127) and (63, 1) exactly)
    message = f"{nvars} variables up to degree {t_max}"
    with pytest.raises(ValueError, match=message):
        next(_macaulay_matrices([SparsePoly.variable(nvars, 0)], nvars, t_max))
    with pytest.raises(ValueError, match=message):
        graded_hilbert([SparsePoly.variable(nvars, 0)], nvars, t_max)


def test_the_largest_packing_is_accepted():
    # 2^62 < 2^63
    assert graded_hilbert([SparsePoly.variable(62, 0)], 62, 1) == [1, 61]


def test_cleared_coefficients_outside_int64_are_rejected():
    # clearing the denominator 2^62 makes -mu = -3 * 2^62
    gens = j_family(Fraction(1, 2 ** 62), 3).generators()
    with pytest.raises(ValueError, match="do not fit in int64"):
        graded_hilbert(gens, 9, 3)
    # the int64 ends themselves are held exactly
    assert graded_hilbert(j_family(-2 ** 63, 2 ** 63 - 1).generators(), 9, 3) == TORUS_PROFILE[:4]
    # a cyclotomic coefficient has no integer clearing
    x0, x1 = SparsePoly.variable(2, 0), SparsePoly.variable(2, 1)
    with pytest.raises(ValueError, match=r"generator .* cyclotomic coefficient, not rational"):
        graded_hilbert([x0 * x0 + x1 * x1 * CycloNum.root(3)], 2, 2)


@st.composite
def _mixed_generators(draw):
    """(generators, nvars, t_max): homogeneous monomials and 2-5 term polynomials.

    Degrees run up to t_max + 1, coefficients are rational, and some
    generators repeat an earlier one, so rows are killed, cleared, padded
    and deduplicated in every combination.
    """
    nvars = draw(st.integers(3, 5))
    t_max = draw(st.integers(1, 5 if nvars < 5 else 4))
    coeffs = st.fractions(min_value=-20, max_value=20, max_denominator=12).filter(bool)
    gens = []
    for _ in range(draw(st.integers(1, 6))):
        if gens and draw(st.integers(0, 4)) == 0:
            # the same polynomial again, its terms in the same or reversed order
            again = draw(st.sampled_from(gens))
            if draw(st.booleans()):
                again = SparsePoly(nvars, reversed(list(again.terms.items())))
            gens.append(again)
            continue
        basis = graded_monomials(nvars, draw(st.integers(1, t_max + 1)))
        nterms = 1 if draw(st.integers(0, 2)) == 0 else draw(st.integers(2, min(5, len(basis))))
        support = draw(st.lists(st.sampled_from(basis), min_size=nterms, max_size=nterms,
                                unique=True))
        gens.append(SparsePoly(nvars, {e: draw(coeffs) for e in support}))
    return gens, nvars, t_max


# x1 kills the second term of both binomials, which leaves one row (x0 : 1)
_ROWS_EQUAL_AFTER_KILLING = (
    [SparsePoly.variable(3, 1),
     SparsePoly(3, {(1, 0, 0): 1, (0, 1, 0): 2}),
     SparsePoly(3, {(1, 0, 0): 1, (0, 1, 0): 3})],
    3, 2,
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_mixed_generators())
@example(_ROWS_EQUAL_AFTER_KILLING)
def test_macaulay_matrices_match_the_row_loop_oracle(case):
    gens, nvars, t_max = case
    built = list(_dense_macaulay_matrices(gens, nvars, t_max))
    oracle = list(row_loop_macaulay_matrices(gens, nvars, t_max))
    assert len(built) == len(oracle) == t_max + 1
    for t, (mat, want) in enumerate(zip(built, oracle)):
        assert mat.dtype == want.dtype == np.int64, t
        assert mat.shape == want.shape, t
        assert np.array_equal(mat, want), t


def test_macaulay_matrices_match_the_row_loop_oracle_on_the_family():
    for gens in (j_family(3, 7).generators(), j_family(Fraction(2, 3), Fraction(-5, 7)).generators(),
                 j_family(0, 1).generators(), v_dot_R([0, 1, 0, 0, 0], 9)):
        for mat, want in zip(_dense_macaulay_matrices(gens, 9, 6),
                             row_loop_macaulay_matrices(gens, 9, 6), strict=True):
            assert mat.dtype == want.dtype and mat.shape == want.shape
            assert np.array_equal(mat, want)


def test_flatness_evidence():
    for lam, mu in [(0, 1), (1, 1), (1, 2), (2, 1), (1, 0)]:
        assert graded_hilbert(j_family(lam, mu).generators(), 9, 5) == TORUS_PROFILE
    assert abelian_surface_profile(5) == TORUS_PROFILE


def test_cubic_gap_at_generic_image():
    v = [f.evaluate([Fraction(1), Fraction(2), Fraction(3), Fraction(5)])
         for f in theta9_closed_form()]
    generic = graded_hilbert(v_dot_R(v, 9), 9, 3)
    assert generic[:3] == [1, 9, 36]
    assert generic[3] - 81 == 6
    # the monomial degeneration needs all 12 extra cubic generators instead
    monomial_fiber = graded_hilbert(v_dot_R([0, 1, 0, 0, 0], 9), 9, 3)
    assert monomial_fiber[3] - 81 == 12


@pytest.mark.parametrize("lam, mu", [(1, 1), (3, 7), (Fraction(2, 3), Fraction(-5, 7))])
def test_j_family_macaulay_matrices_peel_to_nothing(lam, mu):
    # every row holds the last nonzero of some column, so no pivot is needed
    for width, cols, vals in _macaulay_matrices(j_family(lam, mu).generators(), 9, 8):
        mat = _scatter(width, cols, vals)
        for reduced in (mat, *(mat % p for p in RANK_PRIMES)):
            peeled, rest = peel_dense(reduced)
            assert (peeled, rest.size) == (len(mat), 0)
        assert _macaulay_rank(width, cols, vals) == len(mat)


def test_cubic_gap_matrix_peels_nine_rows():
    v = [f.evaluate([Fraction(1), Fraction(2), Fraction(3), Fraction(5)])
         for f in theta9_closed_form()]
    width, cols, vals = list(_macaulay_matrices(v_dot_R(v, 9), 9, 3))[3]
    mat = _scatter(width, cols, vals)
    assert mat.shape == (81, 165)
    for reduced in (mat, *(mat % p for p in RANK_PRIMES)):
        peeled, rest = peel_dense(reduced)
        assert (peeled, rest.shape) == (9, (72, 153))
    assert _macaulay_rank(width, cols, vals) == 78
    for p in RANK_PRIMES:
        assert rank_mod(mat, p) == dense_rank_mod(mat, p) == 78


def test_graded_hilbert_rejects_inhomogeneous():
    bad = SparsePoly.variable(9, 0) + SparsePoly.monomial(9, [0, 1])
    with pytest.raises(ValueError):
        graded_hilbert([bad], 9, 2)


def test_two_prime_disagreement_falls_back_to_exact_ranks():
    # the 2x2 coefficient determinant is exactly the first rank prime, so
    # the two modular ranks disagree in degree 2 and the exact path decides
    p1 = RANK_PRIMES[0]
    f = SparsePoly.monomial(3, [0, 0]) + SparsePoly.monomial(3, [1, 1])
    g = SparsePoly.monomial(3, [0, 0]) + SparsePoly.monomial(3, [1, 1], 1 + p1)
    profile = graded_hilbert([f, g], 3, 2)
    assert profile[2] == 6 - 2  # both generators count over Q


def test_a_row_whose_only_entry_vanishes_mod_both_primes_still_counts():
    # the complete intersection of p1 p2 x0^2 + x1 x2 and x1^2: in degree 3
    # the row x1 f keeps only p1 p2 x0^2 x1, zero mod both rank primes
    p1, p2 = RANK_PRIMES
    f = SparsePoly.monomial(3, [0, 0], p1 * p2) + SparsePoly.monomial(3, [1, 2])
    g = SparsePoly.monomial(3, [1, 1])
    assert graded_hilbert([f, g], 3, 3) == [1, 3, 4, 4]


_P1, _P2 = RANK_PRIMES
_RANK_ENTRIES = (0, 0, 0, 1, -1, 2, _P1, -_P1, 3 * _P1, _P2, -2 * _P2, _P1 * _P2, -_P1 * _P2)


@st.composite
def _small_integer_matrices(draw):
    rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    row = st.lists(st.sampled_from(_RANK_ENTRIES), min_size=cols, max_size=cols)
    return np.array(draw(st.lists(row, min_size=rows, max_size=rows)), dtype=np.int64)


_STAIRCASE = np.eye(6, dtype=np.int64) + np.eye(6, k=1, dtype=np.int64)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_small_integer_matrices())
# the peel leaves a 2x2 remainder of rank 1 over Q and 0 mod both primes
@example(np.array([[_P1, 0, 0], [0, _P1 * _P2, _P1 * _P2], [0, _P1 * _P2, _P1 * _P2]]))
# upper bidiagonal: only the first column is a singleton, so each round
# peels one row
@example(_STAIRCASE)
def test_the_peel_over_z_is_exact_over_q(mat):
    exact = gauss_jordan_rank(mat.tolist())
    assert rank_fraction(mat.tolist()) == exact
    peeled, rest = peel_dense(mat)
    assert peeled + gauss_jordan_rank(rest.tolist()) == exact
    if np.array_equal(mat, _STAIRCASE):
        assert (peeled, rest.size) == (6, 0)
    padded = _padded(mat)
    assert np.array_equal(_scatter(*padded), mat)
    assert _macaulay_rank(*padded) == exact


def test_monomial_generator_with_unit_coefficient_scaling():
    # a scaled monomial generates the same ideal as the monomial itself
    scaled = [SparsePoly.monomial(9, [i, (i + 2) % 9], 7) for i in range(9)]
    plain = [SparsePoly.monomial(9, [i, (i + 2) % 9]) for i in range(9)]
    assert graded_hilbert(scaled, 9, 3) == graded_hilbert(plain, 9, 3)
