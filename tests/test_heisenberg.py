import random
from fractions import Fraction

import pytest

from heisencheck import golden
from heisencheck.exactnum import CycloNum
from heisencheck.heisenberg import (
    build_R,
    build_moore,
    pminus_chart,
    row_span_is_subrep,
    s_matrix,
    sigma,
    span_is_group_invariant,
    v_dot_R,
    weight_components,
)
from heisencheck.mpoly import SparsePoly
from oracles import cyclo_span_is_group_invariant, tau


def rand_poly(rng, d):
    out = SparsePoly.zero(d)
    for _ in range(3):
        idx = [rng.randrange(d) for _ in range(2)]
        out = out + SparsePoly.monomial(d, idx, Fraction(rng.randint(-4, 4)))
    return out


@pytest.mark.parametrize("d", [9, 11])
def test_group_relations(d):
    rng = random.Random(d)
    f = rand_poly(rng, d)
    g = f
    for _ in range(d):
        g = sigma(g, d)
    assert g == f
    g = f
    for _ in range(d):
        g = tau(g, d)
    assert g == f


def test_sigma_on_squares():
    # sigma(x_1^2) = x_0^2 and the shift has order 11
    x1sq = SparsePoly.monomial(11, [1, 1])
    assert sigma(x1sq, 11) == SparsePoly.monomial(11, [0, 0])
    g = x1sq
    for _ in range(11):
        g = sigma(g, 11)
    assert g == x1sq
    assert sigma(x1sq, 11, 5) == SparsePoly.monomial(11, [7, 7])


def test_tau_scales_by_weight():
    d = 11
    for i in range(d):
        m = SparsePoly.monomial(d, [i, (i + 2) % d])
        w = (i + (i + 2) % d) % d
        expected = m.scale(CycloNum.root(d, (-w) % d))
        assert tau(m, d) == expected


@pytest.mark.parametrize("d", [9, 11])
def test_one_weight_component_is_a_tau_eigenvector(d):
    # tau scales the weight-w part by xi^(-w), distinct for w mod d
    def is_eigenvector(f):
        lead_e, lead_c = tau(f, d).leading_term()
        return tau(f, d) == f.scale(lead_c / f.terms[lead_e])

    rng = random.Random(d)
    for _ in range(40):
        f = rand_poly(rng, d)
        if f.is_zero():
            continue
        parts = weight_components(f, d)
        assert sum(len(p) for p in parts) == len(f.terms)
        assert is_eigenvector(f) == (len(parts) == 1)
        for part in parts:
            assert is_eigenvector(SparsePoly(d, part))


@pytest.mark.parametrize("d", [9, 11])
def test_commutator_is_root_of_unity(d):
    # tau(sigma(f)) = xi * sigma(tau(f)) on degree-1 polynomials
    xi = CycloNum.root(d)
    for i in range(d):
        f = SparsePoly.variable(d, i)
        assert tau(sigma(f, d), d) == sigma(tau(f, d), d).scale(xi)


def test_build_r_matches_display_d9():
    R = build_R(9)
    expected = golden.load_matrix("r_matrix_d9.txt", [f"x{i}" for i in range(9)])
    assert R == expected
    assert R[1][0] == SparsePoly.monomial(9, [1, 8])
    assert R[4][4] == SparsePoly.monomial(9, [8, 0])


def test_build_r_first_row_d11():
    R = build_R(11)
    for j in range(11):
        assert R[0][j] == SparsePoly.monomial(11, [j, j])
    assert len(R) == 6 and len(R[0]) == 11


@pytest.mark.parametrize("d", [9, 11])
def test_unit_vectors_give_subreps(d):
    h = (d + 1) // 2
    for i in range(h):
        v = [0] * h
        v[i] = 1
        assert row_span_is_subrep(v, d)


@pytest.mark.parametrize("d", [9, 11])
def test_random_rational_vector_gives_subrep(d):
    rng = random.Random(100 + d)
    v = [Fraction(rng.randint(-9, 9)) for _ in range((d + 1) // 2)]
    v[0] = v[0] or Fraction(1)
    assert row_span_is_subrep(v, d)


def test_partial_span_is_not_invariant():
    bad = [SparsePoly.monomial(11, [0, 0]), SparsePoly.monomial(11, [1, 1])]
    assert not span_is_group_invariant(bad, 11)
    with pytest.raises(ValueError):
        row_span_is_subrep([0] * 6, 11)


def orbit_sum(f: SparsePoly, d: int, coeffs=None) -> SparsePoly:
    """sum_k c_k sigma^k(f), with every c_k = 1 by default."""
    coeffs = coeffs or [1] * d
    total = SparsePoly.zero(d)
    for k, c in enumerate(coeffs):
        total = total + sigma(f, d, k).scale(c)
    return total


@pytest.mark.parametrize("d", [9, 11])
def test_orbit_sum_is_fixed_by_sigma_and_moved_by_tau(d):
    f = orbit_sum(SparsePoly.monomial(d, [0, 0]), d)
    assert sigma(f, d) == f
    assert not span_is_group_invariant([f], d)
    assert not cyclo_span_is_group_invariant([f], d)
    # with its weight components, the orbit's monomials, the span is invariant
    squares = [SparsePoly.monomial(d, [k, k]) for k in range(d)]
    assert span_is_group_invariant([f] + squares, d)
    assert cyclo_span_is_group_invariant([f] + squares, d)


def test_every_weight_component_is_tested():
    # d = 9: F's parts of weight 0, 3, 6 are the cubes x_k x_(k+3) x_(k+6),
    # which lie in the span, and come first; its parts of weight 1, 4, 7 do not
    d = 9
    cubes = [SparsePoly.monomial(d, [k, k + 3, k + 6]) for k in range(3)]
    F = cubes[0] + cubes[1] + cubes[2] + orbit_sum(SparsePoly.monomial(d, [0, 0, 1]), d)
    assert sigma(F, d) == F
    assert not span_is_group_invariant(cubes + [F], d)
    assert not cyclo_span_is_group_invariant(cubes + [F], d)


def random_span(rng, d: int, kind: int) -> list[SparsePoly]:
    h = (d + 1) // 2
    rational = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(h)]
    rational[0] = rational[0] or Fraction(1)
    if kind == 0:  # a subrepresentation over Q
        return v_dot_R(rational, d)
    if kind == 1:  # a subrepresentation over Q(xi_d)
        return v_dot_R([c * CycloNum.root(d, rng.randrange(d)) for c in rational], d)
    if kind == 2:  # some of its quadrics, so sigma moves the span unless all are kept
        rows = v_dot_R(rational, d)
        return rng.sample(rows, rng.randint(1, d))
    if kind == 3:  # quadrics with no structure
        return [rand_poly(rng, d) for _ in range(rng.randint(1, 4))]
    # combinations of the monomials of one sigma-orbit: sigma-stable, and
    # tau-stable only when they span the whole orbit
    m = SparsePoly.monomial(d, [rng.randrange(d) for _ in range(rng.randint(1, 3))])
    return [orbit_sum(m, d, [rng.randint(-2, 2) or 1 for _ in range(d)])
            for _ in range(rng.randint(1, d))]


@pytest.mark.parametrize("d", [5, 9, 11])
def test_span_test_matches_the_cyclotomic_oracle(d):
    rng = random.Random(40 + d)
    answers = set()
    for trial in range(40):
        span = random_span(rng, d, trial % 5)
        answer = span_is_group_invariant(span, d)
        assert answer == cyclo_span_is_group_invariant(span, d)
        answers.add((trial % 5, answer))
    assert {(0, True), (1, True), (2, False), (3, False), (4, False)} <= answers


@pytest.mark.parametrize("d", [9, 11])
def test_chart_calibration_sign(d):
    assert pminus_chart(d).eps == -1


def test_restricted_block_matches_displays():
    s11 = s_matrix(11)
    assert s11.entry(1, 2) == SparsePoly.monomial(5, [0, 2])   # x1*x3
    assert s11.entry(2, 4) == SparsePoly.monomial(5, [1, 4], -1)  # -x2*x5
    s9 = s_matrix(9)
    assert s9.entry(1, 3) == SparsePoly.monomial(4, [3, 1])    # x4*x2


def test_chart_point_restriction():
    chart = pminus_chart(9)
    assert chart.restrict_point([Fraction(c) for c in (0, 0, -1, -1, 0, 0, 1, 1, 0)]) == (
        Fraction(0), Fraction(-1), Fraction(-1), Fraction(0))
    with pytest.raises(ValueError):
        chart.restrict_point([Fraction(c) for c in (1, 0, 0, 0, 0, 0, 0, 0, 0)])
    with pytest.raises(ValueError):
        chart.restrict_point([Fraction(c) for c in (0, 1, 0, 0, 0, 0, 0, 0, 1)])


def test_v_dot_r_row_selection():
    rows = v_dot_R([0, 1, 0, 0, 0], 9)
    assert rows[0] == SparsePoly.monomial(9, [1, 8])
    assert rows[1] == SparsePoly.monomial(9, [2, 0])


def test_moore_matrix_at_z0():
    M = build_moore((0, 0, -1, -1, 0, 0, 1, 1, 0))
    expected = golden.load_matrix("moore_z0_d9.txt", [f"x{i}" for i in range(9)])
    assert M.rows() == expected
    assert M.entry(0, 3) == SparsePoly.variable(9, 6).scale(-1)
    assert M.entry(0, 0) == 0


def test_moore_matrix_needs_odd_parameter():
    with pytest.raises(ValueError):
        build_moore((1, 0, 0, 0, 0, 0, 0, 0, 0))
