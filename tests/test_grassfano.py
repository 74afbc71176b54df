from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from heisencheck import golden
from heisencheck.grassfano import (
    KLEIN_PF_SIGN,
    PF_SEXTIC_SIGN,
    PLUCKER_VARIABLES,
    evaluate_on_plucker,
    golden_sextic,
    jacobian_quadrics,
    jacobian_system,
    klein_cubic,
    klein_from_hyperplanes,
    theta_plucker_d11,
    v14_linear_forms,
    v14_relation_residues,
    v14_relations_hold,
)
from heisencheck.heisenberg import s_matrix, sigma
from heisencheck.linalg import rank_fraction
from heisencheck.mpoly import SparsePoly, divmod_single, parse_poly
from oracles import expanded_substitute, partial

X5 = [f"x{k}" for k in range(1, 6)]


def test_sextic_is_pfaffian_up_to_recorded_sign():
    assert s_matrix(11).pfaffian() == golden_sextic().scale(PF_SEXTIC_SIGN)
    assert PF_SEXTIC_SIGN in (1, -1)
    assert len(golden_sextic().terms) == 15


def test_five_linear_relations_are_identities():
    assert v14_relations_hold() == "identity"
    assert all(r.is_zero() for r in v14_relation_residues())


def test_three_term_combination_divisible_by_sextic():
    # the (1,2,3,4) combination of kernel-map coordinates is f6 times the
    # complementary 2x2 sub-Pfaffian
    p = theta_plucker_d11()
    s = s_matrix(11)
    combo = p.entry(0, 1) * p.entry(2, 3) - p.entry(0, 2) * p.entry(1, 3) + p.entry(0, 3) * p.entry(1, 2)
    q, r = divmod_single(combo, golden_sextic())
    assert r.is_zero()
    assert q == s.sub_pfaffian({0, 1, 2, 3}).scale(PF_SEXTIC_SIGN)


def test_all_quartic_coordinates():
    p = theta_plucker_d11()
    for i, j in combinations(range(6), 2):
        poly = p.entry(i, j)
        if poly:
            assert poly.is_homogeneous() and poly.degree() == 4


def plucker_matrices():
    return [theta_plucker_d11(), klein_from_hyperplanes()[0].adjugate()]


def plucker_oracle(form, p):
    """form with p_ij -> p.entry(i-1, j-1), by expansion."""
    pairs = combinations(range(6), 2)
    entries = [p.entry(i, j) or SparsePoly.zero(5) for i, j in pairs]
    return expanded_substitute(form, dict(enumerate(entries)), 5)


def test_evaluate_on_plucker_matches_expansion_on_golden_forms():
    for p in plucker_matrices():
        for form in v14_linear_forms():
            assert evaluate_on_plucker(form, p, 5) == plucker_oracle(form, p)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.dictionaries(st.integers(0, 14), st.builds(Fraction, st.integers(-5, 5), st.integers(1, 4)),
                       max_size=6))
def test_evaluate_on_plucker_matches_expansion_on_drawn_forms(coeffs):
    form = SparsePoly(15, {tuple(int(k == idx) for k in range(15)): c for idx, c in coeffs.items()})
    for p in plucker_matrices():
        assert evaluate_on_plucker(form, p, 5) == plucker_oracle(form, p)


@pytest.mark.parametrize("text", ["p12*p34 - p13*p24 + p14*p23", "p12 - 3*p45 + 1"])
def test_evaluate_on_plucker_rejects_nonlinear_terms(text):
    form = parse_poly(text, PLUCKER_VARIABLES)
    for p in plucker_matrices():
        with pytest.raises(ValueError, match="degree"):
            evaluate_on_plucker(form, p, 5)


def test_klein_matrix_and_cubic():
    M, B = klein_from_hyperplanes()
    expected = golden.load_matrix("klein_matrix.txt", [f"x{i}" for i in range(5)])
    assert M.rows() == expected
    assert M.entry(0, 1) == SparsePoly.variable(5, 0)
    assert M.entry(1, 5) == SparsePoly.variable(5, 2).scale(-1)
    assert B == klein_cubic().scale(KLEIN_PF_SIGN)


def test_klein_cubic_cyclic_invariance():
    K = klein_cubic()
    assert sigma(K, 5) == K
    assert sigma(K, 5, 2) == K


def test_klein_adjugate_display():
    M, _ = klein_from_hyperplanes()
    adj = M.adjugate()
    expected = golden.load_matrix("klein_adjugate.txt", [f"x{i}" for i in range(5)])
    assert adj.rows() == expected
    x = lambda i: SparsePoly.variable(5, i)
    assert adj.entry(0, 1) == x(0) * x(1)
    assert adj.entry(1, 2) == x(3) * x(3) + x(0) * x(4)
    assert adj.entry(2, 4) == x(0) * x(0) + x(1) * x(2)


def test_jacobian_system_matches_quadrics():
    matches = jacobian_system()
    assert sorted(idx for idx, _, _ in matches) == list(range(5))
    for _, scalar, _ in matches:
        assert scalar != 0


def test_euler_relation_and_partials():
    K = klein_cubic()
    euler = SparsePoly.zero(5)
    for i in range(5):
        euler = euler + SparsePoly.variable(5, i) * partial(K, i)
    assert euler == K.scale(3)
    # d/dx1 of the cubic is x0^2 + 2 x1 x2
    assert partial(K, 1) == SparsePoly.monomial(5, [0, 0]) + SparsePoly.monomial(5, [1, 2], 2)


def test_jacobian_ideal_degreewise_equals_partials():
    K = klein_cubic()
    partials = [partial(K, i) for i in range(5)]
    system = jacobian_quadrics()
    # entry i is dK/dx_(i+1) = x_i^2 + 2 x_(i+1) x_(i+2), in that order
    assert system == [partials[(i + 1) % 5] for i in range(5)]
    assert system == [SparsePoly.monomial(5, [i, i])
                      + SparsePoly.monomial(5, [(i + 1) % 5, (i + 2) % 5], 2) for i in range(5)]
    from heisencheck.mpoly import graded_monomials

    basis = {m: k for k, m in enumerate(graded_monomials(5, 2))}

    def rows(polys):
        out = []
        for f in polys:
            row = [Fraction(0)] * len(basis)
            for e, c in f.terms.items():
                row[basis[e]] = Fraction(c)
            out.append(row)
        return out

    r_part = rank_fraction(rows(partials))
    r_sys = rank_fraction(rows(system))
    r_both = rank_fraction(rows(partials + system))
    assert r_part == r_sys == r_both == 5


def test_sextic_evaluations():
    f6 = golden_sextic()
    # every term involves at least two distinct variables
    point = [Fraction(1), Fraction(0), Fraction(0), Fraction(0), Fraction(0)]
    assert f6.evaluate(point) == 0
    assert klein_cubic().evaluate(point) == 0
    x1 = SparsePoly.variable(5, 0)
    q, r = divmod_single(f6 * x1, f6)
    assert q == x1 and r.is_zero()


def test_kernel_map_at_several_rank4_points():
    # at points of the sextic hypersurface away from the curve, the
    # evaluated kernel-map matrix drops to rank 2
    from heisencheck.ffscan import evaluate_skew_mod, rank_at_point
    from oracles import canonical_points
    from heisencheck.linalg import rank_gauss_mod

    q = 23
    pts = canonical_points(5, q)[:: 831]
    rank4 = pts[rank_at_point(11, q, pts) == 4][:5]
    assert rank4.shape[0] >= 3
    ranks = rank_gauss_mod(evaluate_skew_mod(theta_plucker_d11(), rank4, q), q)
    assert (ranks == 2).all()
