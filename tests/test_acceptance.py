"""Acceptance suite: one test per criterion, each at its stated tolerance
(exact equality or exhaustive enumeration) and runtime budget, printing one
pass/fail line per criterion.

The symmetric-power clauses of criterion 12 assert the exact decompositions
(sym^2(chi3) = chi2 + chi5, sym^3(chi3) = chi1 + chi5 + chi7 + chi8), each
backed by a fact computed without sym_power_character, and assert that the
checks chars.sym2 and chars.sym3 refute the recorded sums: one names the
conjugate 5-dimensional constituent, the other has degree 34 where the
symmetric cube of a 5-dimensional space has dimension 35.
"""

import dataclasses
import itertools
import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from heisencheck import golden
from heisencheck.chartab import (
    character,
    character_table,
    decompose,
    inner_product,
    sym_power_character,
)
from heisencheck.checks import (
    FAIL,
    RunConfig,
    RunContext,
    check_chars_sym2,
    check_chars_sym3,
    check_scan_d11,
)
from heisencheck.exactnum import quadratic_gauss_sum
from heisencheck.ffscan import (
    ci_curve_points_d9,
    jacobian_zero_counts,
    projective_point_count,
    scan_strata,
    special_points_d9_mod,
)
from heisencheck.grassfano import (
    KLEIN_PF_SIGN,
    PF_SEXTIC_SIGN,
    golden_sextic,
    jacobian_system,
    klein_cubic,
    klein_from_hyperplanes,
    v14_relations_hold,
)
from heisencheck.heisenberg import PminusChart, s_matrix, v_dot_R
from heisencheck.hilbert import (
    face_vector,
    graded_hilbert,
    squarefree_faces,
)
from heisencheck.mpoly import SparsePoly, render_poly
from heisencheck.pfaffian import random_skew
from heisencheck.surface9 import (
    PFAFFIAN_ROWS_A,
    PFAFFIAN_ROWS_B,
    Z0_FULL,
    base_point_check,
    degenerate_fiber_ideal,
    i0_generators,
    j1_generators,
    j_family,
    theta9_closed_form,
)


@contextmanager
def criterion(name: str, budget_s: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"FAIL {name}")
        raise
    elapsed = time.perf_counter() - start
    if elapsed >= budget_s:
        print(f"FAIL {name} (over budget: {elapsed:.2f}s >= {budget_s}s)")
        raise AssertionError(f"{name} took {elapsed:.2f}s, budget {budget_s}s")
    print(f"PASS {name} ({elapsed:.2f}s)")


def test_c01_pfaffian_is_the_sextic():
    with criterion("d11.pfaffian.f6", 1.0):
        pf = s_matrix(11).pfaffian()
        f6 = golden_sextic()
        assert len(f6.terms) == 15
        assert pf == f6.scale(PF_SEXTIC_SIGN)


def test_c02_sextic_specialization():
    with criterion("d11.f6.specialize", 1.0):
        f6 = golden_sextic()
        specialized = f6.substitute({3: SparsePoly.zero(5), 4: SparsePoly.zero(5)})
        assert specialized == SparsePoly.monomial(5, [0, 0, 1, 2, 2, 2], -1)
        assert len(specialized.terms) == 1
        (exps, coeff), = specialized.terms.items()
        assert coeff < 0 or any(e % 2 for e in exps)  # visibly not a square


def test_c03_linear_section_relations():
    with criterion("d11.v14.linear", 5.0):
        assert v14_relations_hold() == "identity"


def test_c04_plucker_three_term_identity():
    with criterion("d11.plucker.3term", 30.0):
        s = s_matrix(11)
        pf = s.pfaffian()
        for quad in itertools.combinations(range(6), 4):
            i, j, k, l = quad
            lhs = (
                s.sub_pfaffian({i, j}) * s.sub_pfaffian({k, l})
                - s.sub_pfaffian({i, k}) * s.sub_pfaffian({j, l})
                + s.sub_pfaffian({i, l}) * s.sub_pfaffian({j, k})
            )
            assert lhs == pf * s.sub_pfaffian(set(quad))
        rng = random.Random(424242)
        for _ in range(50):
            m = random_skew(6, rng)
            pfm = m.pfaffian()
            # each sub-Pfaffian once, keyed by the deleted indices
            sub = {idx: m.sub_pfaffian(idx)
                   for r in (2, 4) for idx in itertools.combinations(range(6), r)}
            for quad in itertools.combinations(range(6), 4):
                i, j, k, l = quad
                lhs = sub[i, j] * sub[k, l] - sub[i, k] * sub[j, l] + sub[i, l] * sub[j, k]
                assert lhs == pfm * sub[quad]


def test_c05_klein_pfaffian_and_adjugate():
    with criterion("klein.pfaffian + klein.adjugate", 1.0):
        M, B = klein_from_hyperplanes()
        x_names = [f"x{i}" for i in range(5)]
        assert M.rows() == golden.load_matrix("klein_matrix.txt", x_names)
        assert B == klein_cubic().scale(KLEIN_PF_SIGN)
        assert M.adjugate().rows() == golden.load_matrix("klein_adjugate.txt", x_names)


def test_c06_klein_jacobian():
    with criterion("klein.jacobian", 60.0):
        matches = jacobian_system()
        assert sorted(idx for idx, _, _ in matches) == list(range(5))
        for q in (3, 7, 13, 23, 31):
            # at q = 3, (1:1:1:1:1) zeroes the quadrics but not the cubic
            assert jacobian_zero_counts(q) == {"jacobian": int(q == 3), "system": 0}


def test_c07_theta9_closed_form():
    with criterion("d9.theta.closedform", 1.0):
        theta = theta9_closed_form()  # golden comparison happens inside
        assert (theta[0] + theta[3]).is_zero()
        assert all(p.is_zero() for p in s_matrix(9).times_vector(list(theta)))


def test_c08_theta9_z0_and_basepoint():
    with criterion("d9.theta.z0 + d9.basepoint", 1.0):
        theta = theta9_closed_form()
        chart = PminusChart(9).restrict_point([Fraction(c) for c in Z0_FULL])
        image = [v.evaluate(chart) for v in theta]
        assert [bool(v) for v in image] == [False, True, False, False, False]
        assert base_point_check([1, 0, 0, -1, 0])
        assert base_point_check([0, 1, 0, 0, 0])


def test_c09_degenerate_fiber_ideal():
    with criterion("d9.fiber.ideal", 5.0):
        fib = degenerate_fiber_ideal()
        assert render_poly(fib.pfaffian_cubics[PFAFFIAN_ROWS_A]) == \
            "-x2*x3*x4 + x4*x7^2 - x3*x7*x8 + x2*x8^2"
        assert render_poly(fib.pfaffian_cubics[PFAFFIAN_ROWS_B]) == \
            "-x0*x3*x6 + x4*x6*x8"
        got = sorted(render_poly(g) for g in fib.generators())
        expected = sorted(render_poly(g.monic()) for g in i0_generators())
        assert got == expected


def test_c10_hilbert_functions():
    with criterion("d9.hilbert.*", 180.0):
        assert graded_hilbert(j1_generators(), 9, 5) == [1, 9, 36, 81, 144, 225]
        fv = face_vector(squarefree_faces(j1_generators(), 9))
        assert fv == (9, 27, 18)
        assert fv[0] - fv[1] + fv[2] == 0

        for lam, mu in [(0, 1), (1, 1), (1, 2), (2, 1), (1, 0)]:
            assert graded_hilbert(j_family(lam, mu).generators(), 9, 5) == [1, 9, 36, 81, 144, 225]

        theta = theta9_closed_form()
        v = [f.evaluate([Fraction(1), Fraction(2), Fraction(3), Fraction(5)]) for f in theta]
        nine_quadrics = graded_hilbert(v_dot_R(v, 9), 9, 3)
        assert nine_quadrics[3] - 81 == 6


def test_c11_scan_d9_strata():
    with criterion("scan.d9.q19", 10.0):
        census = scan_strata(9, 19)
        assert census.total() == 7240
        assert census.counts[0] == 0
        rank2 = set(census.min_rank_points)
        ci = ci_curve_points_d9(19)
        special = special_points_d9_mod(19)
        assert rank2 == ci | special


def test_c12a_character_orthonormality():
    with criterion("chars.orthonormality", 30.0):
        table = character_table()
        for i in range(8):
            for j in range(8):
                assert inner_product(table.characters[i], table.characters[j]) == (
                    1 if i == j else 0
                )


def test_c12b_sym2_decomposition_as_stated():
    # recorded: sym^2(chi3) = chi3 + chi5; exact: chi2 + chi5.  The proof on
    # one class is in README, "Known-red checks": for g in class 6, g^2 lies
    # in class 7, and the symmetric square takes the value of chi2 + chi5
    recorded = (0, 0, 1, 0, 1, 0, 0, 0)
    with criterion("chars.sym2 (recorded sum refuted)", 30.0):
        chi3 = character(3)
        s2 = sym_power_character(chi3, 2)
        assert decompose(s2) == (0, 1, 0, 0, 1, 0, 0, 0)

        # the power map by hand: [[1,1],[0,1]]^2 = [[1,2],[0,1]], rep6 -> rep7
        reps = character_table().representatives
        assert reps[6] == (1, 1, 0, 1) and reps[7] == (1, 2, 0, 1)
        at_g = (chi3[6] * chi3[6] + chi3[7]) / 2
        rm11 = quadratic_gauss_sum(11, 55)
        assert at_g == (rm11 - 3) / 2
        assert at_g == character(2)[6] + character(5)[6]
        assert at_g != character(3)[6] + character(5)[6]

        # the recorded sum names chi3, but the square holds its conjugate
        assert recorded[2] == 1
        chi3_bar = tuple(v.conjugate() for v in chi3)
        assert inner_product(s2, chi3_bar) == 1
        assert inner_product(s2, chi3) == 0

        status, details = check_chars_sym2(RunContext(RunConfig()))
        assert status == FAIL
        assert details["stated"] == "chi3 + chi5"
        assert details["computed"] == "chi2 + chi5"


def test_c12c_sym3_decomposition_as_stated():
    # recorded: sym^3(chi3) = chi1 + chi5 + chi6 + chi7, of total degree 34;
    # S^3 of a 5-dimensional space is 35-dimensional, and the exact
    # computation yields chi1 + chi5 + chi7 + chi8
    recorded = (1, 0, 0, 0, 1, 1, 1, 0)
    with criterion("chars.sym3 (recorded sum refuted)", 30.0):
        computed = decompose(sym_power_character(character(3), 3))
        assert computed == (1, 0, 0, 0, 1, 0, 1, 1)

        degrees = [character(i)[0].as_rational() for i in range(1, 9)]
        assert sum(m * d for m, d in zip(computed, degrees)) == math.comb(7, 3)
        assert sum(m * d for m, d in zip(recorded, degrees)) == 34

        status, details = check_chars_sym3(RunContext(RunConfig()))
        assert status == FAIL
        assert details["stated"] == "chi1 + chi5 + chi6 + chi7"
        assert details["computed"] == "chi1 + chi5 + chi7 + chi8"
        assert details["stated_total_degree"] == 34
        assert details["computed_total_degree"] == math.comb(7, 3)


def test_c12d_invariant_multiplicities():
    with criterion("chars.sym2_no_invariant + chars.sym3_invariant", 30.0):
        assert decompose(sym_power_character(character(3), 2))[0] == 0
        assert decompose(sym_power_character(character(2), 2))[0] == 0
        assert decompose(sym_power_character(character(3), 3))[0] == 1


def test_c13_scan_d11_census_facts():
    with criterion("scan.d11.q23", 120.0):
        census = scan_strata(11, 23)
        assert census.total() == projective_point_count(5, 23) == 292561
        assert census.counts[0] == 0 and census.min_rank == 2
        rank2 = set(census.min_rank_points)
        assert len(rank2) == census.counts[2] == 60
        for k in range(5):
            assert tuple(int(i == k) for i in range(5)) in rank2
        status, details = check_scan_d11(RunContext(RunConfig()))
        assert status == "pass"
        assert details["prime"] == 23
        assert details["counts"] == {"0": 0, "2": 60, "4": 15840, "6": 276661}
        assert details["min_rank_2"] is True
        assert details["coordinate_points_rank2"] is True
        assert details["total_is_point_count"] is True


def _mutant_census(census, name):
    counts = dict(census.counts)
    if name == "rank0":
        counts[0] = 1
        return dataclasses.replace(census, counts=counts)
    if name == "total":
        counts[6] -= 1
        return dataclasses.replace(census, counts=counts)
    points = tuple(p for p in census.min_rank_points if p != (0, 0, 0, 0, 1))
    assert len(points) == len(census.min_rank_points) - 1
    return dataclasses.replace(census, min_rank_points=points)


@pytest.fixture(scope="module")
def census_d11_q23():
    return scan_strata(11, 23)


@pytest.mark.parametrize("name,fact", [
    ("rank0", "min_rank_2"),
    ("total", "total_is_point_count"),
    ("missing-e4", "coordinate_points_rank2"),
])
def test_c13_scan_d11_fails_on_a_wrong_census(census_d11_q23, name, fact):
    ctx = RunContext(RunConfig())
    # census_d11 is a cached_property, so the instance attribute overrides it
    ctx.census_d11 = _mutant_census(census_d11_q23, name)
    status, details = check_scan_d11(ctx)
    assert status == "fail"
    assert details[fact] is False
