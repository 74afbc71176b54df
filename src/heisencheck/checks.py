"""The named check suite: every claim the toolkit verifies, as a registry
of individually runnable checks producing CheckReport records.  Every
check passes or fails: its claim holds exactly, or it is a FAIL, and so is
a check that raises.

Shared constructions (the quadric matrices, the kernel maps, the Klein
matrix, the character table) are lru_cached by the modules that build
them, and checks call those constructors directly.  The run configuration
is the three primes the checks run over (jacobian_primes and the two
census primes); the Hilbert degree T_MAX, the (lambda : mu) samples and
the rank primes (hilbert.RANK_PRIMES) are fixed.  The RunContext holds
the configuration and the two censuses that depend on it.
"""

from __future__ import annotations

import itertools
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from . import golden
from .chartab import (
    GEN_S,
    GEN_T,
    IDENTITY,
    character,
    character_table,
    class_of,
    conjugacy_classes,
    element_power,
    enumerate_group,
    inner_product,
    multiplicity_names,
    multiply,
    power_map,
    sym_power_decomposition,
)
from .exactnum import CycloNum, check_modulus
from .ffscan import (
    check_scan_prime,
    ci_curve_points_d9,
    evaluate_skew_mod,
    jacobian_zero_counts,
    projective_point_count,
    scan_strata,
    special_points_d9_mod,
    find_stratum_point,
)
from .grassfano import (
    KLEIN_PF_SIGN,
    PF_SEXTIC_SIGN,
    golden_sextic,
    jacobian_system,
    klein_cubic,
    klein_from_hyperplanes,
    theta_plucker_d11,
    v14_relations_hold,
)
from .heisenberg import (
    PminusChart,
    build_R,
    row_span_is_subrep,
    s_matrix,
    sigma,
    span_is_group_invariant,
    v_dot_R,
    weight_components,
)
from .hilbert import (
    RANK_PRIMES,
    abelian_surface_profile,
    face_vector,
    graded_hilbert,
    squarefree_faces,
    stanley_reisner_hilbert,
)
from .linalg import rank_gauss_mod
from .mpoly import SparsePoly, render_poly
from .pfaffian import SkewMatrix, random_skew
from .surface9 import (
    BASE_POINT,
    PFAFFIAN_ROWS_A,
    PFAFFIAN_ROWS_B,
    THETA9_SIGN,
    Z0_FULL,
    base_point_check,
    degenerate_fiber_ideal,
    i0_generators,
    j1_generators,
    j2_monomials,
    j_family,
    moore_z0,
    quadric_decomposition,
    special_points_d9,
    theta9_closed_form,
)

PASS = "pass"
FAIL = "fail"


@dataclass(frozen=True)
class CheckReport:
    check_id: str
    status: str
    details: dict
    elapsed_ms: int


# The Hilbert checks run to degree T_MAX (the torus profile 1, 9, ..., 225), and the
# J(lambda:mu) checks take the fibers over these points of P^1, two or more of them
# distinct, so that the flatness check compares different fibers.
T_MAX = 5
LAMBDA_MU_SAMPLES = ((0, 1), (1, 1), (1, 2), (2, 1), (1, 0))


@dataclass(frozen=True)
class RunConfig:
    jacobian_primes: tuple[int, ...] = (3, 7, 13, 23, 31)
    scan_prime_d9: int = 19
    scan_prime_d11: int = 23

    def validate(self) -> None:
        for name, d in (("scan_prime_d9", 9), ("scan_prime_d11", 11)):
            try:
                check_scan_prime(d, getattr(self, name))
            except ValueError as exc:
                raise ValueError(f"{name}: {exc}") from None
        if not self.jacobian_primes:
            raise ValueError("jacobian_primes: need at least one odd prime")
        for q in self.jacobian_primes:
            try:
                check_modulus(q)  # tests the bound before the primality test
                # the factor 2 in the Jacobian quadrics vanishes over F_2
                if q == 2:
                    raise ValueError(f"q = {q} is not an odd prime")
            except ValueError as exc:
                if "not prime" in str(exc):
                    exc = f"q = {q} is not an odd prime"
                raise ValueError(f"jacobian_primes: {exc}") from None


class RunContext:
    """The configuration of one suite run and the censuses it selects."""

    def __init__(self, config: RunConfig) -> None:
        self.config = config

    @cached_property
    def census_d9(self):
        return scan_strata(9, self.config.scan_prime_d9)

    @cached_property
    def census_d11(self):
        return scan_strata(11, self.config.scan_prime_d11)


# -- d = 11 checks ---------------------------------------------------------------


def check_d11_matrix_s(ctx: RunContext):
    s = s_matrix(11)  # construction already compares against the golden display
    return PASS, {
        "entries": 15,
        "chart_sign": PminusChart.eps,
        "sample": {"(1,2)": str(s.entry(1, 2)), "(2,4)": str(s.entry(2, 4))},
    }


def check_d11_subrep_rows(ctx: RunContext):
    for d in (9, 11):
        h = (d + 1) // 2
        for i in range(h):
            v = [0] * h
            v[i] = 1
            if not row_span_is_subrep(v, d):
                return FAIL, {"unit_vector": i, "d": d}
    rng = random.Random(20260810)
    randoms = {}
    for d in (9, 11):
        v = [Fraction(rng.randint(-9, 9)) for _ in range((d + 1) // 2)]
        if not any(v):
            v[0] = Fraction(1)
        randoms[d] = [str(c) for c in v]
        if not row_span_is_subrep(v, d):
            return FAIL, {"random_vector": randoms[d], "d": d}
    # sanity: a span that is not of the form v.R is moved by sigma
    bad = [SparsePoly.monomial(11, [0, 0]), SparsePoly.monomial(11, [1, 1])]
    if span_is_group_invariant(bad, 11):
        return FAIL, {"sanity": "non-orbit span reported invariant"}
    return PASS, {"unit_vectors": "all", "random_vectors": randoms}


def check_d11_pfaffian_f6(ctx: RunContext):
    pf = s_matrix(11).pfaffian()
    expected = golden_sextic().scale(PF_SEXTIC_SIGN)
    ok = pf == expected
    return (PASS if ok else FAIL), {
        "recorded_sign": PF_SEXTIC_SIGN,
        "terms": len(pf.terms),
        "equal": ok,
    }


def check_d11_f6_specialize(ctx: RunContext):
    sub = {3: SparsePoly.zero(5), 4: SparsePoly.zero(5)}  # x4 = x5 = 0
    specialized = golden_sextic().substitute(sub)
    expected = SparsePoly.monomial(5, [0, 0, 1, 2, 2, 2], -1)  # -x1^2 x2 x3^3
    ok = specialized == expected and len(specialized.terms) == 1
    square_free = not _is_perfect_square_monomial(specialized)
    return (PASS if ok and square_free else FAIL), {
        "specialization": render_poly(specialized, ["x1", "x2", "x3", "x4", "x5"]),
        "single_term": len(specialized.terms) == 1,
        "is_square": not square_free,
    }


def _is_perfect_square_monomial(f: SparsePoly) -> bool:
    if len(f.terms) != 1:
        return False
    (exps, coeff), = f.terms.items()
    return all(e % 2 == 0 for e in exps) and coeff > 0


def check_d11_v14_linear(ctx: RunContext):
    mode = v14_relations_hold()
    return PASS, {"mode": mode, "relations": golden.data_lines("v14_relations.txt")}


def _three_term_failure(m) -> tuple[int, ...] | None:
    """First quadruple ijkl where Pf^ij Pf^kl - Pf^ik Pf^jl + Pf^il Pf^jk
    differs from Pf Pf^ijkl, or None; Pf^I deletes the rows and columns I.
    The sub-Pfaffians share one memo, so each smaller one is expanded once."""
    pf = m.pfaffian()
    memo: dict = {}
    sub = {idx: m.sub_pfaffian(idx, memo)
           for r in (2, 4) for idx in itertools.combinations(range(6), r)}
    for quad in itertools.combinations(range(6), 4):
        i, j, k, l = quad
        lhs = sub[i, j] * sub[k, l] - sub[i, k] * sub[j, l] + sub[i, l] * sub[j, k]
        if lhs != pf * sub[quad]:
            return quad
    return None


def check_d11_plucker_3term(ctx: RunContext):
    quad = _three_term_failure(s_matrix(11))
    if quad is not None:
        return FAIL, {"symbolic_quadruple": quad}
    rng = random.Random(31415)
    for trial in range(50):
        quad = _three_term_failure(random_skew(6, rng))
        if quad is not None:
            return FAIL, {"numeric_trial": trial, "quadruple": quad}
    return PASS, {"symbolic_quadruples": 15, "numeric_matrices": 50}


def check_d11_plucker_decomposable(ctx: RunContext):
    q = ctx.config.scan_prime_d11
    witness = find_stratum_point(11, q, 4)
    if witness is None:
        return FAIL, {"error": f"no rank-4 point over F_{q}"}
    point = list(witness)
    pmat = evaluate_skew_mod(theta_plucker_d11(), np.array([point]), q)
    # the evaluated Plucker matrix is a rank-2 form whose rows kill S(P)
    rank2 = bool(rank_gauss_mod(pmat, q)[0] == 2)
    pmat = pmat[0].tolist()
    values = SkewMatrix(6, {(i, j): pmat[i][j] for i, j in itertools.combinations(range(6), 2)})
    residues = [values.pf_on(quad) % q for quad in itertools.combinations(range(6), 4)]
    decomposable = all(r == 0 for r in residues)
    s_rows = evaluate_skew_mod(s_matrix(11), np.array([point]), q)[0].tolist()
    kills = all(
        sum(row[i] * s_rows[i][j] for i in range(6)) % q == 0
        for row in pmat
        for j in range(6)
    )
    ok = decomposable and rank2 and kills
    return (PASS if ok else FAIL), {
        "witness": point,
        "prime": q,
        "decomposable": decomposable,
        "plucker_rank_two": rank2,
        "rows_kill_matrix": kills,
    }


def check_klein_pfaffian(ctx: RunContext):
    M, B = klein_from_hyperplanes()
    expected = golden.load_matrix("klein_matrix.txt", [f"x{i}" for i in range(5)])
    matrix_ok = M.rows() == expected
    pf_ok = B == klein_cubic().scale(KLEIN_PF_SIGN)
    ok = matrix_ok and pf_ok
    return (PASS if ok else FAIL), {
        "matrix_matches_display": matrix_ok,
        "pfaffian_is_cubic": pf_ok,
        "recorded_sign": KLEIN_PF_SIGN,
    }


def check_klein_adjugate(ctx: RunContext):
    M, _ = klein_from_hyperplanes()
    adj = M.adjugate()
    expected = golden.load_matrix("klein_adjugate.txt", [f"x{i}" for i in range(5)])
    ok = adj.rows() == expected
    return (PASS if ok else FAIL), {"matches_display": ok}


def check_klein_jacobian(ctx: RunContext):
    matches = jacobian_system()
    permutation = [idx for idx, _, _ in matches]
    scalars = [str(c) for _, c, _ in matches]
    counts = {}
    for q in ctx.config.jacobian_primes:
        counts[str(q)] = jacobian_zero_counts(q)
    ok = all(c["system"] == 0 for c in counts.values())
    details = {
        "quadric_permutation": permutation,
        "scalars": scalars,
        "zero_counts": counts,
        "group_prime_counts": jacobian_zero_counts(11),  # reported, not asserted
    }
    return (PASS if ok else FAIL), details


# -- d = 9 checks ----------------------------------------------------------------


def check_d9_matrix_s(ctx: RunContext):
    s = s_matrix(9)
    return PASS, {
        "entries": 10,
        "chart_sign": PminusChart.eps,
        "sample": {"(1,3)": str(s.entry(1, 3))},
    }


def check_d9_matrix_r(ctx: RunContext):
    R = build_R(9)
    expected = golden.load_matrix("r_matrix_d9.txt", [f"x{i}" for i in range(9)])
    ok = R == expected
    spot = {
        "(1,0)": render_poly(R[1][0]),
        "(4,4)": render_poly(R[4][4]),
        "(0,5)": render_poly(R[0][5]),
    }
    return (PASS if ok else FAIL), {"matches_display": ok, "sample": spot}


def check_d9_moore_z0(ctx: RunContext):
    M = moore_z0()  # golden comparison and antisymmetry live in the constructor
    return PASS, {
        "sample": {"(0,3)": render_poly(M.entry(0, 3)), "(0,0)": str(M.entry(0, 0))},
    }


def check_d9_theta_closedform(ctx: RunContext):
    theta = theta9_closed_form()
    v0_plus_v3 = theta[0] + theta[3]
    product = s_matrix(9).times_vector(list(theta))
    annihilates = all(p.is_zero() for p in product)
    ok = v0_plus_v3.is_zero() and annihilates
    return (PASS if ok else FAIL), {
        "recorded_sign": THETA9_SIGN,
        "v0_plus_v3_zero": v0_plus_v3.is_zero(),
        "matrix_times_vector_zero": annihilates,
    }


def check_d9_theta_z0(ctx: RunContext):
    chart_point = PminusChart(9).restrict_point([Fraction(c) for c in Z0_FULL])
    image = [v.evaluate(chart_point) for v in theta9_closed_form()]
    nonzero = [i for i, v in enumerate(image) if v]
    ok = nonzero == [1]
    return (PASS if ok else FAIL), {
        "image": [str(v) for v in image],
        "projective": "(0:1:0:0:0)" if ok else "unexpected",
    }


def check_d9_basepoint(ctx: RunContext):
    # a spanning set of the hyperplane v0 = -v3, so linearity covers every v
    spanning = ([1, 0, 0, -1, 0], [0, 1, 0, 0, 0], [0, 0, 1, 0, 0], [0, 0, 0, 0, 1])
    good = all(base_point_check(v) for v in spanning)
    rng = random.Random(9)
    v = [Fraction(rng.randint(-9, 9)) for _ in range(5)]
    v[3] = -v[0]
    good = good and base_point_check(v)
    bad = base_point_check([1, 0, 0, 0, 0])
    ok = good and not bad
    return (PASS if ok else FAIL), {
        "base_point": list(BASE_POINT),
        "vanishes_on_hyperplane_span": good,
        "vanishes_without_constraint": bad,
    }


def check_d9_theta_fourpoints(ctx: RunContext):
    results = {}
    for idx, P in enumerate(special_points_d9(), start=1):
        chart_point = PminusChart(9).restrict_point(P)
        values = [v.evaluate(chart_point) for v in theta9_closed_form()]
        results[f"P{idx}"] = all(not v for v in values)
    ok = all(results.values())
    return (PASS if ok else FAIL), {"all_coordinates_vanish": results}


def check_d9_fiber_ideal(ctx: RunContext):
    fib = degenerate_fiber_ideal()
    pf_a = render_poly(fib.pfaffian_cubics[PFAFFIAN_ROWS_A])
    pf_b = render_poly(fib.pfaffian_cubics[PFAFFIAN_ROWS_B])
    expected_a = "-x2*x3*x4 + x4*x7^2 - x3*x7*x8 + x2*x8^2"
    expected_b = "-x0*x3*x6 + x4*x6*x8"
    got = sorted(render_poly(g) for g in fib.generators())
    expected = sorted(render_poly(g.monic()) for g in i0_generators())
    invariant = _fiber_generators_are_group_invariant(fib)
    ok = pf_a == expected_a and pf_b == expected_b and got == expected and invariant
    return (PASS if ok else FAIL), {
        "pfaffian_rows_1_2_3_5_6_7": pf_a,
        "pfaffian_rows_1_2_3_4_6_8": pf_b,
        "generators": len(got),
        "matches_recorded_list": got == expected,
        "group_invariant": invariant,
    }


def _fiber_generators_are_group_invariant(fib) -> bool:
    """Each generator is a tau eigenvector and sigma permutes the set.

    tau scales the weight-w part of g by xi^(-w), and these scalars are
    distinct for w mod 9, so g is a tau eigenvector exactly when it has
    one weight component.
    """
    gens = fib.generators()
    rendered = {render_poly(g) for g in gens}
    for g in gens:
        if len(weight_components(g, 9)) != 1:
            return False
        shifted = sigma(g, 9).monic()
        if render_poly(shifted) not in rendered:
            return False
    return True


def check_d9_jfamily_quadrics(ctx: RunContext):
    fam01 = j_family(0, 1)
    j1 = sorted(render_poly(g.monic()) for g in j1_generators())
    got = sorted(render_poly(g.monic()) for g in fam01.generators())
    if got != j1:
        return FAIL, {"error": "J(0:1) generator set is not the torus ideal"}
    checked = []
    for lam, mu in LAMBDA_MU_SAMPLES:
        quadric_decomposition(lam, mu)  # raises on any non-vanishing generator
        checked.append(f"{lam}:{mu}")
    return PASS, {"J(0:1)_is_torus_ideal": True, "components_checked": checked}


# -- Hilbert checks ---------------------------------------------------------------


def check_hilbert_monomial(ctx: RunContext):
    expected = abelian_surface_profile(T_MAX)
    profile = graded_hilbert(j1_generators(), 9, T_MAX)
    return (PASS if profile == expected else FAIL), {
        "profile": profile,
        "target": expected,
    }


def check_hilbert_faces(ctx: RunContext):
    fv1 = face_vector(squarefree_faces(j1_generators(), 9))
    euler = fv1[0] - fv1[1] + fv1[2] if len(fv1) == 3 else None
    faces2 = squarefree_faces(j2_monomials(), 9)
    fv2 = face_vector(faces2)
    tets = sorted(tuple(sorted(f)) for f in faces2 if len(f) == 4)
    sr_ok = all(
        stanley_reisner_hilbert(fv1, t) == v
        for t, v in enumerate(graded_hilbert(j1_generators(), 9, T_MAX))
        if t >= 1
    )
    ok = fv1 == (9, 27, 18) and euler == 0 and len(tets) == 9 and sr_ok
    return (PASS if ok else FAIL), {
        "torus_face_vector": list(fv1),
        "euler_characteristic": euler,
        "solid_face_vector": list(fv2),
        "solid_tetrahedra": tets,
        "face_ring_identity": sr_ok,
    }


def check_hilbert_flatness(ctx: RunContext):
    # the samples share one Hilbert function, the flatness evidence, when each has the target
    profiles = {
        f"{lam}:{mu}": graded_hilbert(j_family(lam, mu).generators(), 9, T_MAX)
        for lam, mu in LAMBDA_MU_SAMPLES
    }
    target = abelian_surface_profile(T_MAX)
    ok = all(p == target for p in profiles.values())
    return (PASS if ok else FAIL), {
        "profiles": profiles,
        "target": target,
        "rank_primes": list(RANK_PRIMES),
    }


def check_hilbert_cubicgap(ctx: RunContext):
    # a kernel-map image away from the degeneration locus
    v = [f.evaluate([Fraction(1), Fraction(2), Fraction(3), Fraction(5)])
         for f in theta9_closed_form()]
    generic = graded_hilbert(v_dot_R(v, 9), 9, 3)
    monomial_fiber = graded_hilbert(v_dot_R([0, 1, 0, 0, 0], 9), 9, 3)
    deficit = generic[3] - 81
    ok = deficit == 6
    return (PASS if ok else FAIL), {
        "generic_profile": generic,
        "degree3_deficit": deficit,
        "monomial_fiber_profile": monomial_fiber,
        "monomial_fiber_deficit": monomial_fiber[3] - 81,
    }


# -- character checks --------------------------------------------------------------


def check_chars_classes(ctx: RunContext):
    G = enumerate_group()
    relations = {
        "order": len(G) == 660,
        "T^2": element_power(GEN_T, 2) == IDENTITY,
        "(ST)^3": element_power(multiply(GEN_S, GEN_T), 3) == IDENTITY,
        "S^11": element_power(GEN_S, 11) == IDENTITY,
        "(S^2 T S^6 T)^3": element_power(
            multiply(multiply(element_power(GEN_S, 2), GEN_T),
                     multiply(element_power(GEN_S, 6), GEN_T)), 3) == IDENTITY,
    }
    sizes = [len(c) for c in conjugacy_classes()]
    power_ok = all(power_map(c, 1) == c for c in range(8))
    # power maps are class functions: random members agree with the representative
    rng = random.Random(11)
    classes = conjugacy_classes()
    member_ok = True
    for ci, cls in enumerate(classes):
        members = rng.sample(sorted(cls), min(10, len(cls)))
        for g in members:
            for k in (2, 3):
                if class_of(element_power(g, k)) != power_map(ci, k):
                    member_ok = False
    ok = all(relations.values()) and sizes == [1, 55, 110, 132, 132, 110, 60, 60] and power_ok and member_ok
    return (PASS if ok else FAIL), {
        "relations": relations,
        "class_sizes": sizes,
        "power_map_well_defined": member_ok,
    }


def check_chars_orthonormality(ctx: RunContext):
    table = character_table()
    for i in range(8):
        for j in range(8):
            expected = 1 if i == j else 0
            if inner_product(table.characters[i], table.characters[j]) != expected:
                return FAIL, {"pair": (i + 1, j + 1)}
    return PASS, {"pairs": 64}


def check_chars_columns(ctx: RunContext):
    table = character_table()
    for c, size in enumerate(table.class_sizes):
        total = CycloNum.zero(55)
        for row in table.characters:
            total = total + row[c] * row[c].conjugate()
        if total != Fraction(660, size):
            return FAIL, {"class": c, "value": repr(total)}
    return PASS, {"columns": 8}


def check_chars_sym2(ctx: RunContext):
    stated = (0, 0, 1, 0, 1, 0, 0, 0)  # chi3 + chi5
    actual = sym_power_decomposition(3, 2)
    mirror = sym_power_decomposition(2, 2)
    ok = actual == stated
    return (PASS if ok else FAIL), {
        "stated": multiplicity_names(stated),
        "computed": multiplicity_names(actual),
        "computed_for_conjugate": multiplicity_names(mirror),
        "note": "the stated sum names the conjugate 5-dimensional constituent; "
                "the symmetric square of either 5-dimensional character contains "
                "the other one, as the conjugate run shows",
    }


def _total_degree(mults) -> int:
    """Degree of the character with these multiplicities: sum of m_i chi_i(1)."""
    return sum(m * int(character(i + 1)[0].as_rational()) for i, m in enumerate(mults))


def check_chars_sym3(ctx: RunContext):
    stated = (1, 0, 0, 0, 1, 1, 1, 0)  # chi1 + chi5 + chi6 + chi7
    actual = sym_power_decomposition(3, 3)
    ok = actual == stated
    return (PASS if ok else FAIL), {
        "stated": multiplicity_names(stated),
        "stated_total_degree": _total_degree(stated),
        "computed": multiplicity_names(actual),
        "computed_total_degree": _total_degree(actual),
        "note": "S^3 of a 5-dimensional space is 35-dimensional, so the stated "
                "34-dimensional sum cannot be a symmetric-cube character",
    }


def check_chars_sym2_no_invariant(ctx: RunContext):
    m3 = sym_power_decomposition(3, 2)
    m2 = sym_power_decomposition(2, 2)
    ok = m3[0] == 0 and m2[0] == 0
    return (PASS if ok else FAIL), {
        "invariant_multiplicity_chi3_run": m3[0],
        "invariant_multiplicity_chi2_run": m2[0],
    }


def check_chars_sym3_invariant(ctx: RunContext):
    m3 = sym_power_decomposition(3, 3)
    m2 = sym_power_decomposition(2, 3)
    ok = m3[0] == 1 and m2[0] == 1
    return (PASS if ok else FAIL), {
        "invariant_multiplicity": m3[0],
        "full_decomposition": multiplicity_names(m3),
        "conjugate_run": multiplicity_names(m2),
    }


def check_chars_mirror(ctx: RunContext):
    s2_chi3 = sym_power_decomposition(3, 2)
    s2_chi2 = sym_power_decomposition(2, 2)
    swapped = list(s2_chi3)
    swapped[1], swapped[2] = swapped[2], swapped[1]
    sym2_mirror = tuple(swapped) == s2_chi2
    s3_equal = sym_power_decomposition(3, 3) == sym_power_decomposition(2, 3)
    ok = sym2_mirror and s3_equal
    return (PASS if ok else FAIL), {
        "sym2_mirror_under_conjugation": sym2_mirror,
        "sym3_equal_for_both": s3_equal,
    }


# -- scan checks --------------------------------------------------------------------


def check_scan_d9(ctx: RunContext):
    census = ctx.census_d9
    q = census.q
    ci = ci_curve_points_d9(q)
    special = special_points_d9_mod(q)
    rank2 = set(census.min_rank_points)
    ok = (
        census.counts.get(0, 0) == 0
        and census.min_rank == 2
        and rank2 == (ci | special)
        and not (ci & special)
        and census.total() == projective_point_count(4, q)
    )
    return (PASS if ok else FAIL), {
        "prime": q,
        "counts": {str(k): v for k, v in sorted(census.counts.items())},
        "curve_points": len(ci),
        "isolated_points": len(special),
        "rank2_equals_union": rank2 == (ci | special),
        "disjoint": not (ci & special),
    }


def check_scan_d11(ctx: RunContext):
    census = ctx.census_d11
    q = census.q
    # row 0 is (x_0^2, ..., x_4^2), and at e_k the only nonzero entry is x_k^2
    min_rank_2 = census.counts.get(0, 0) == 0 and census.min_rank == 2
    coordinate_points = {tuple(int(i == k) for i in range(5)) for k in range(5)}
    coordinate_points_rank2 = min_rank_2 and coordinate_points <= set(census.min_rank_points)
    # h points per torus-orbit representative, 1 per fixed point
    total_is_point_count = census.total() == projective_point_count(5, q)
    ok = min_rank_2 and coordinate_points_rank2 and total_is_point_count
    return (PASS if ok else FAIL), {
        "prime": q,
        "counts": {str(k): v for k, v in sorted(census.counts.items())},
        "min_rank_2": min_rank_2,
        "coordinate_points_rank2": coordinate_points_rank2,
        "total_is_point_count": total_is_point_count,
    }


# -- registry ------------------------------------------------------------------------


@dataclass(frozen=True)
class CheckSpec:
    check_id: str
    suites: tuple[str, ...]
    # provenance of the expected value: a recorded display from the golden
    # corpus, a recorded expectation, or a derived independent computation
    source: str
    fn: object


CHECKS: tuple[CheckSpec, ...] = (
    CheckSpec("d11.matrix.s", ("d11",), "golden-display", check_d11_matrix_s),
    CheckSpec("d11.subrep.rows", ("d11",), "derived-invariance", check_d11_subrep_rows),
    CheckSpec("d11.pfaffian.f6", ("d11",), "golden-display", check_d11_pfaffian_f6),
    CheckSpec("d11.f6.specialize", ("d11",), "golden-display", check_d11_f6_specialize),
    CheckSpec("d11.v14.linear", ("d11",), "golden-display", check_d11_v14_linear),
    CheckSpec("d11.plucker.3term", ("d11",), "derived-identity", check_d11_plucker_3term),
    CheckSpec("d11.plucker.decomposable", ("d11", "scan"), "derived-witness",
              check_d11_plucker_decomposable),
    CheckSpec("klein.pfaffian", ("d11",), "golden-display", check_klein_pfaffian),
    CheckSpec("klein.adjugate", ("d11",), "golden-display", check_klein_adjugate),
    CheckSpec("klein.jacobian", ("d11",), "derived-enumeration", check_klein_jacobian),
    CheckSpec("d9.matrix.s", ("d9",), "golden-display", check_d9_matrix_s),
    CheckSpec("d9.matrix.r", ("d9",), "golden-display", check_d9_matrix_r),
    CheckSpec("d9.moore.z0", ("d9",), "golden-display", check_d9_moore_z0),
    CheckSpec("d9.theta.closedform", ("d9",), "golden-display", check_d9_theta_closedform),
    CheckSpec("d9.theta.z0", ("d9",), "golden-display", check_d9_theta_z0),
    CheckSpec("d9.basepoint", ("d9",), "derived-evaluation", check_d9_basepoint),
    CheckSpec("d9.theta.fourpoints", ("d9",), "derived-evaluation", check_d9_theta_fourpoints),
    CheckSpec("d9.fiber.ideal", ("d9",), "golden-display", check_d9_fiber_ideal),
    CheckSpec("d9.jfamily.quadrics", ("d9",), "derived-substitution", check_d9_jfamily_quadrics),
    CheckSpec("d9.hilbert.monomial", ("hilbert", "d9"), "derived-enumeration",
              check_hilbert_monomial),
    CheckSpec("d9.hilbert.faces", ("hilbert", "d9"), "derived-enumeration", check_hilbert_faces),
    CheckSpec("d9.hilbert.flatness", ("hilbert", "d9"), "derived-rank", check_hilbert_flatness),
    CheckSpec("d9.hilbert.cubicgap", ("hilbert", "d9"), "derived-rank", check_hilbert_cubicgap),
    CheckSpec("chars.classes", ("chars",), "derived-enumeration", check_chars_classes),
    CheckSpec("chars.orthonormality", ("chars",), "derived-identity", check_chars_orthonormality),
    CheckSpec("chars.columns", ("chars",), "derived-identity", check_chars_columns),
    CheckSpec("chars.sym2", ("chars",), "recorded-expectation", check_chars_sym2),
    CheckSpec("chars.sym3", ("chars",), "recorded-expectation", check_chars_sym3),
    CheckSpec("chars.sym2_no_invariant", ("chars",), "derived-identity",
              check_chars_sym2_no_invariant),
    CheckSpec("chars.sym3_invariant", ("chars",), "derived-identity", check_chars_sym3_invariant),
    CheckSpec("chars.mirror", ("chars",), "derived-identity", check_chars_mirror),
    CheckSpec("scan.d9.q19", ("scan", "d9"), "derived-enumeration", check_scan_d9),
    CheckSpec("scan.d11.q23", ("scan", "d11"), "derived-enumeration", check_scan_d11),
)

SUITES = ("all", "d11", "d9", "chars", "hilbert", "scan")


def run_suite(suite: str, config: RunConfig | None = None) -> list[CheckReport]:
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from {SUITES}")
    config = config or RunConfig()
    config.validate()
    ctx = RunContext(config)
    reports = []
    for spec in CHECKS:
        if suite != "all" and suite not in spec.suites:
            continue
        start = time.perf_counter()
        try:
            status, details = spec.fn(ctx)
        except Exception as exc:  # a crash is a failing check, not a crashed run
            status, details = FAIL, {"error": f"{type(exc).__name__}: {exc}"}
        elapsed = int((time.perf_counter() - start) * 1000)
        details = {"source": spec.source, **details}
        reports.append(CheckReport(spec.check_id, status, details, elapsed))
    return reports


def exit_code(reports: list[CheckReport]) -> int:
    return 1 if any(r.status == FAIL for r in reports) else 0
