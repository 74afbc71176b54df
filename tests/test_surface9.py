from fractions import Fraction

import pytest

from heisencheck import golden
from heisencheck.heisenberg import pminus_chart, s_matrix, v_dot_R
from heisencheck.mpoly import SparsePoly, render_poly
from heisencheck.surface9 import (
    BASE_POINT,
    PFAFFIAN_ROWS_A,
    PFAFFIAN_ROWS_B,
    Z0_FULL,
    base_point_check,
    degenerate_fiber_ideal,
    family_trinomial,
    i0_generators,
    j1_generators,
    j2_monomials,
    j_family,
    moore_z0,
    quadric_decomposition,
    reduce_mod_monomials,
    sigma_orbit,
    special_points_d9,
    theta9_closed_form,
)

X4 = ["x1", "x2", "x3", "x4"]


def test_closed_form_matches_display():
    theta = theta9_closed_form()
    assert render_poly(theta[1], X4) == "x1*x2^3 - x2*x3^3 + x1*x4^3"
    assert (theta[0] + theta[3]).is_zero()


def test_kernel_annihilates_matrix():
    theta = theta9_closed_form()
    product = s_matrix(9).times_vector(list(theta))
    assert all(p.is_zero() for p in product)


def test_image_of_z0():
    theta = theta9_closed_form()
    chart = pminus_chart(9).restrict_point([Fraction(c) for c in Z0_FULL])
    assert chart == (Fraction(0), Fraction(-1), Fraction(-1), Fraction(0))
    image = [v.evaluate(chart) for v in theta]
    assert [bool(v) for v in image] == [False, True, False, False, False]


def test_base_point_vanishing():
    assert base_point_check([1, 0, 0, -1, 0])
    assert base_point_check([0, 1, 0, 0, 0])
    assert not base_point_check([1, 0, 0, 0, 0])
    # structural reason: at the base point only rows 0 and 3 contribute
    point = [Fraction(c) for c in BASE_POINT]
    values = [q.evaluate(point) for q in v_dot_R([1, 0, 0, 0, 0], 9)]
    assert values.count(0) == 6 and values.count(1) == 3


def test_theta_vanishes_at_special_points():
    theta = theta9_closed_form()
    for P in special_points_d9():
        chart = pminus_chart(9).restrict_point(P)
        assert all(not v.evaluate(chart) for v in theta)


def test_moore_pfaffian_cubics_verbatim():
    fib = degenerate_fiber_ideal()
    assert render_poly(fib.pfaffian_cubics[PFAFFIAN_ROWS_A]) == \
        "-x2*x3*x4 + x4*x7^2 - x3*x7*x8 + x2*x8^2"
    assert render_poly(fib.pfaffian_cubics[PFAFFIAN_ROWS_B]) == \
        "-x0*x3*x6 + x4*x6*x8"


def test_reduction_mod_quadrics():
    fib = degenerate_fiber_ideal()
    reduced = reduce_mod_monomials(fib.pfaffian_cubics[PFAFFIAN_ROWS_A], list(fib.quadrics))
    assert render_poly(reduced) == "x4*x7^2 - x3*x7*x8 + x2*x8^2"
    reduced_b = reduce_mod_monomials(fib.pfaffian_cubics[PFAFFIAN_ROWS_B], list(fib.quadrics))
    assert render_poly(reduced_b.monic()) == "x0*x3*x6"


def test_sigma_orbits():
    mono = SparsePoly.monomial(9, [0, 3, 6])
    orbit = sigma_orbit(mono)
    assert len(orbit) == 3
    rendered = sorted(render_poly(f) for f in orbit)
    assert rendered == ["x0*x3*x6", "x1*x4*x7", "x2*x5*x8"]
    trin = family_trinomial(0, 1, 1)
    assert len(sigma_orbit(trin)) == 9


def test_fiber_generators_are_heisenberg_invariant():
    from heisencheck.heisenberg import sigma
    from oracles import tau

    fib = degenerate_fiber_ideal()
    gens = fib.generators()
    rendered = {render_poly(g) for g in gens}
    for g in gens:
        # every term of a generator has the same weight, so tau scales it
        weights = {sum(i * e for i, e in enumerate(exps)) % 9 for exps in g.terms}
        assert len(weights) == 1
        scaled = tau(g, 9)
        lead_e, lead_c = scaled.leading_term()
        assert scaled == g.scale(lead_c / g.terms[lead_e])
        assert render_poly(sigma(g, 9).monic()) in rendered


def test_fiber_ideal_generator_list():
    fib = degenerate_fiber_ideal()
    got = sorted(render_poly(g) for g in fib.generators())
    expected = sorted(render_poly(g.monic()) for g in i0_generators())
    assert got == expected
    assert len(fib.quadrics) == 9
    assert len(fib.cubic_monomials) == 3
    assert len(fib.trinomials) == 9


def test_fiber_quadrics_are_induced_by_z0_image():
    fib = degenerate_fiber_ideal()
    rendered = sorted(render_poly(q) for q in fib.quadrics)
    expected = sorted(
        render_poly(SparsePoly.monomial(9, [i, (i + 2) % 9])) for i in range(9)
    )
    assert rendered == expected


def test_moore_display_loaded_once():
    M = moore_z0()
    expected = golden.load_matrix("moore_z0_d9.txt", [f"x{i}" for i in range(9)])
    assert M.rows() == expected


def test_j_family_specializations():
    fam = j_family(0, 1)
    got = sorted(render_poly(g.monic()) for g in fam.generators())
    expected = sorted(render_poly(g.monic()) for g in j1_generators())
    assert got == expected
    assert len(j2_monomials()) == 12
    assert len(j1_generators()) == 21
    with pytest.raises(ValueError):
        j_family(0, 0)


def test_family_trinomial_pattern():
    t = family_trinomial(8, 1, 1)
    assert render_poly(t) == "x3*x6^2 - x2*x6*x7 + x1*x7^2"
    t2 = family_trinomial(0, 2, 3)
    assert render_poly(t2) == "2*x4*x7^2 - 3*x3*x7*x8 + 2*x2*x8^2"


@pytest.mark.parametrize("lam,mu", [(0, 1), (1, 1), (1, 2), (2, 1), (1, 0)])
def test_quadric_decomposition(lam, mu):
    components = quadric_decomposition(lam, mu)
    assert len(components) == 9
    killed0, q0 = components[0]
    assert killed0 == (0, 1, 4, 5, 8)
    if lam and mu:
        assert len(q0.terms) == 2


def test_i0_equals_family_at_one_one():
    fam = j_family(1, 1)
    got = sorted(render_poly(g.monic()) for g in fam.generators())
    expected = sorted(render_poly(g.monic()) for g in i0_generators())
    assert got == expected
