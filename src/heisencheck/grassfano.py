"""The d = 11 pipeline: Plucker geometry of the kernel map, the linear
section of Gr(2,6), the Klein cubic, its Jacobian quadrics (the partials
of the cubic), and its Jacobian system.

Plucker coordinates p_ij carry 1-based labels i < j in 1..2m, matching
the row labels of the 6x6 quadric matrix (row i of the matrix is label i).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from . import golden
from .heisenberg import s_matrix
from .mpoly import SparsePoly
from .pfaffian import SkewMatrix

# Pf(S) equals the golden sextic up to this recorded global sign
# (calibrated once; locked by a regression test).
PF_SEXTIC_SIGN = 1

# Pf of the Klein linear matrix equals sum x_i^2 x_(i+1) up to this sign.
KLEIN_PF_SIGN = -1


# -- the kernel map in Plucker coordinates -------------------------------------


@lru_cache(maxsize=None)
def theta_plucker_d11() -> SkewMatrix:
    """The adjugate of the 6x6 quadric matrix: entry (i-1, j-1) is the
    quartic Plucker coordinate p_ij."""
    return s_matrix(11).adjugate()


# The 1-based labels (i, j) of the Plucker coordinates p_ij, in variable order.
PLUCKER_PAIRS = [(i, j) for i in range(1, 7) for j in range(i + 1, 7)]
PLUCKER_VARIABLES = [f"p{i}{j}" for i, j in PLUCKER_PAIRS]


@lru_cache(maxsize=None)
def v14_linear_forms() -> list[SparsePoly]:
    """The five golden linear forms on the 15 Plucker coordinates."""
    return golden.load_poly_list("v14_relations.txt", PLUCKER_VARIABLES)


def evaluate_on_plucker(form: SparsePoly, p: SkewMatrix, nvars_out: int) -> SparsePoly:
    """The linear form sum c * p_ij at p_ij = p.entry(i-1, j-1), as that
    linear combination of the entries; a term of degree other than 1
    raises ValueError."""
    total = SparsePoly.zero(nvars_out)
    for exps, c in form.terms.items():
        if sum(exps) != 1:
            raise ValueError(f"term of degree {sum(exps)} in a linear form on Plucker space")
        i, j = PLUCKER_PAIRS[exps.index(1)]
        total = total + p.entry(i - 1, j - 1) * c
    return total


def v14_relation_residues() -> list[SparsePoly]:
    """The five forms evaluated on the kernel-map coordinates (quartics in x1..x5)."""
    p = theta_plucker_d11()
    return [evaluate_on_plucker(form, p, 5) for form in v14_linear_forms()]


def v14_relations_hold() -> str:
    """'identity' when the five forms vanish identically, else raises."""
    if all(r.is_zero() for r in v14_relation_residues()):
        return "identity"
    raise AssertionError("five-term linear relations are not polynomial identities")


@lru_cache(maxsize=None)
def golden_sextic() -> SparsePoly:
    return golden.load_poly("f6_d11.txt", [f"x{k}" for k in range(1, 6)])


# -- the Klein cubic construction ----------------------------------------------

# Dual coordinates x_ij on the space of hyperplane sections, restricted to
# the span of the five sections and rewritten in x0..x4:
#   x12 = x0, x13 = x2, x14 = x1, x15 = x4, x16 = x3,
#   x46 = x12, x26 = -x13, x35 = x14, x23 = x15, x45 = -x16,
#   x24 = x25 = x34 = x36 = x56 = 0.
_KLEIN_DUAL_ASSIGNMENT = {
    (1, 2): (0, 1), (1, 3): (2, 1), (1, 4): (1, 1), (1, 5): (4, 1), (1, 6): (3, 1),
    (4, 6): (0, 1), (2, 6): (2, -1), (3, 5): (1, 1), (2, 3): (4, 1), (4, 5): (3, -1),
    (2, 4): None, (2, 5): None, (3, 4): None, (3, 6): None, (5, 6): None,
}


@lru_cache(maxsize=None)
def klein_from_hyperplanes() -> tuple[SkewMatrix, SparsePoly]:
    """The 6x6 linear matrix of the restricted dual coordinates and its Pfaffian."""
    upper = {}
    for (i, j), val in _KLEIN_DUAL_ASSIGNMENT.items():
        if val is None:
            continue
        var, sign = val
        upper[(i - 1, j - 1)] = SparsePoly.variable(5, var).scale(sign)
    M = SkewMatrix(6, upper)
    B = M.pfaffian()
    return M, B


@lru_cache(maxsize=None)
def klein_cubic() -> SparsePoly:
    """sum over Z_5 of x_i^2 x_(i+1)."""
    acc = SparsePoly.zero(5)
    for i in range(5):
        acc = acc + SparsePoly.monomial(5, [i, i, (i + 1) % 5])
    return acc


def jacobian_quadrics() -> list[SparsePoly]:
    """The partials of the Klein cubic: entry i is dK/dx_(i+1), which is
    x_i^2 + 2 x_(i+1) x_(i+2)."""
    return [klein_cubic().derivative((i + 1) % 5) for i in range(5)]


def jacobian_system() -> list[tuple[int, Fraction, SparsePoly]]:
    """The five linear forms applied to the adjugate of the Klein matrix.

    Each result must be a nonzero scalar multiple of one Jacobian quadric;
    returns the matched (index, scalar, result) triples and insists the
    match is a bijection.
    """
    M, _ = klein_from_hyperplanes()
    p = M.adjugate()
    quadrics = jacobian_quadrics()
    matches = []
    used = set()
    for form in v14_linear_forms():
        result = evaluate_on_plucker(form, p, 5)
        hit = None
        for idx, qd in enumerate(quadrics):
            lead_e, lead_c = qd.leading_term()
            c = result.coefficient(lead_e)
            if c and result == qd.scale(c / lead_c):
                hit = (idx, c / lead_c, result)
                break
        if hit is None:
            raise AssertionError(f"form image {result} is not a Jacobian quadric multiple")
        if hit[0] in used:
            raise AssertionError("two forms map to the same Jacobian quadric")
        used.add(hit[0])
        matches.append(hit)
    return matches
