"""The d = 9 pipeline: the closed-form kernel map, its base point, the
degenerate fiber ideal at z0, and the flat family of torus ideals.

The kernel map is the tuple of its five quartics in x1..x4, evaluated one
coordinate at a time; a point with nine coordinates reaches x1..x4 through
the odd chart x_0 = 0, x_(9-k) = -x_k, heisenberg.PminusChart(9).restrict_point.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from . import golden
from .heisenberg import PminusChart, build_moore, s_matrix, sigma, v_dot_R
from .mpoly import SparsePoly, divmod_single, monomial_divides, monomial_exponents

# z0 is the degeneration parameter (a 9-gon secant point) and P the common
# base point of every subrepresentation of quadrics with v0 = -v3.
Z0_FULL = (0, 0, -1, -1, 0, 0, 1, 1, 0)
BASE_POINT = (1, 0, 0, 1, 0, 0, 1, 0, 0)

# kernel_vector(S_9) reproduces the golden quartics multiplied by this sign.
THETA9_SIGN = 1

X9_VARIABLES = [f"x{i}" for i in range(9)]
P3_VARIABLES = [f"x{i}" for i in range(1, 5)]


@lru_cache(maxsize=None)
def theta9_closed_form() -> tuple[SparsePoly, ...]:
    """The five quartics v0..v4 in x1..x4: the kernel vector of the 5x5
    quadric matrix, calibrated to the golden display."""
    kernel = s_matrix(9).kernel_vector()
    labeled = golden.load_labeled("theta9_map.txt")
    expected = [golden.parse_poly(labeled[f"v{i}"], P3_VARIABLES) for i in range(5)]
    calibrated = [v.scale(THETA9_SIGN) for v in kernel]
    if calibrated != expected:
        raise AssertionError("kernel vector does not match the golden quartics at the recorded sign")
    if (calibrated[0] + calibrated[3]):
        raise AssertionError("v0 + v3 must vanish identically")
    return tuple(calibrated)


def special_points_d9():
    """The four isolated rank-2 points, coordinates in Q(xi_9)."""
    from .exactnum import CycloNum

    labeled = golden.load_labeled("special_points_d9.txt")
    points = []
    for name in ("P1", "P2", "P3", "P4"):
        coords = []
        for cell in labeled[name].split(","):
            f = golden.parse_poly(cell.strip(), ["z"])
            value = f.evaluate([CycloNum.root(9)])
            if isinstance(value, Fraction):
                value = CycloNum.from_rational(9, value)
            coords.append(value)
        points.append(tuple(coords))
    return points


def base_point_check(v) -> bool:
    """Whether all nine quadrics of v . R vanish at the fixed base point."""
    point = [Fraction(c) for c in BASE_POINT]
    return all(q.evaluate(point) == 0 for q in v_dot_R(v, 9))


# -- the degenerate fiber ideal -------------------------------------------------


def moore_z0():
    """Moore matrix at z0, checked against the golden 9x9 display."""
    M = build_moore(Z0_FULL)
    expected = golden.load_matrix("moore_z0_d9.txt", X9_VARIABLES)
    if M.rows() != expected:
        raise AssertionError("Moore matrix at z0 disagrees with the golden display")
    return M


def reduce_mod_monomials(f: SparsePoly, monomials: list[SparsePoly]) -> SparsePoly:
    """Delete every term divisible by one of the given monomials."""
    divisors = [monomial_exponents(m) for m in monomials]
    kept = {}
    for exps, c in f.terms.items():
        if not any(monomial_divides(d, exps) for d in divisors):
            kept[exps] = c
    return SparsePoly(f.nvars, kept)


def sigma_orbit(f: SparsePoly) -> list[SparsePoly]:
    """Orbit of f in the 9-variable ring under the index shift, each element
    normalized monic."""
    seen = []
    g = f.monic()
    for _ in range(9):
        if g not in seen:
            seen.append(g)
        g = sigma(g, 9).monic()
    return seen


@dataclass(frozen=True)
class DegenerateFiberIdeal:
    """Generators of the fiber ideal at z0 and their provenance."""

    quadrics: tuple[SparsePoly, ...]         # 9 monomials x_i x_(i+2)
    cubic_monomials: tuple[SparsePoly, ...]  # 3 orbit members of x0 x3 x6
    trinomials: tuple[SparsePoly, ...]       # 9 orbit members of the Moore cubic
    pfaffian_cubics: dict                    # raw 6x6 sub-Pfaffians, keyed by row set

    def generators(self) -> list[SparsePoly]:
        return list(self.quadrics) + list(self.cubic_monomials) + list(self.trinomials)


# 1-based row/column sets of the two sampled 6x6 sub-Pfaffians of the Moore
# matrix at z0.
PFAFFIAN_ROWS_A = (1, 2, 3, 5, 6, 7)
PFAFFIAN_ROWS_B = (1, 2, 3, 4, 6, 8)


@lru_cache(maxsize=None)
def degenerate_fiber_ideal() -> DegenerateFiberIdeal:
    z0_chart = PminusChart(9).restrict_point([Fraction(c) for c in Z0_FULL])
    image = [v.evaluate(z0_chart) for v in theta9_closed_form()]
    # (0 : 1 : 0 : 0 : 0) projectively
    scale = next(c for c in image if c)
    v = [c / scale for c in image]
    quadrics = [q.monic() for q in v_dot_R(v, 9)]

    M = moore_z0()
    cubics = {}
    for rows in (PFAFFIAN_ROWS_A, PFAFFIAN_ROWS_B):
        keep = tuple(r - 1 for r in rows)
        cubics[rows] = M.pf_on(keep)

    reduced = [reduce_mod_monomials(c, quadrics) for c in cubics.values()]
    trinomial_seed = next(r for r in reduced if len(r.terms) > 1)
    monomial_seed = next(r for r in reduced if len(r.terms) == 1)

    cubic_monomials = sigma_orbit(monomial_seed)
    trinomials = sigma_orbit(trinomial_seed)
    return DegenerateFiberIdeal(
        quadrics=tuple(quadrics),
        cubic_monomials=tuple(cubic_monomials),
        trinomials=tuple(trinomials),
        pfaffian_cubics=cubics,
    )


# -- the flat family ------------------------------------------------------------


@dataclass(frozen=True)
class JFamilyIdeal:
    monomials: tuple[SparsePoly, ...]   # the 12 monomial generators of J_2
    trinomials: tuple[SparsePoly, ...]  # 9 trinomials, degenerate to monomials at lam*mu = 0

    def generators(self) -> list[SparsePoly]:
        gens = list(self.monomials)
        for t in self.trinomials:
            if t:
                gens.append(t)
        return gens


@lru_cache(maxsize=None)
def _j_ideal_sections() -> dict[str, tuple[SparsePoly, ...]]:
    """The generator sections of j_ideals_d9.txt, each parsed once."""
    sections = golden.load_sections("j_ideals_d9.txt")
    return {
        name: tuple(golden.parse_poly(line, X9_VARIABLES) for line in lines)
        for name, lines in sections.items()
    }


def j2_monomials() -> list[SparsePoly]:
    return list(_j_ideal_sections()["J2"])


def j1_generators() -> list[SparsePoly]:
    sections = _j_ideal_sections()
    return list(sections["J2"] + sections["J1_EXTRA"])


def i0_generators() -> list[SparsePoly]:
    sections = _j_ideal_sections()
    return list(sections["J2"] + sections["I0_TRINOMIALS"])


def family_trinomial(i: int, lam, mu) -> SparsePoly:
    """lam x_(i+4) x_(i+7)^2 - mu x_(i+3) x_(i+7) x_(i+8) + lam x_(i+2) x_(i+8)^2."""
    t = SparsePoly.monomial(9, [(i + 4) % 9, (i + 7) % 9, (i + 7) % 9], lam)
    t = t - SparsePoly.monomial(9, [(i + 3) % 9, (i + 7) % 9, (i + 8) % 9], mu)
    t = t + SparsePoly.monomial(9, [(i + 2) % 9, (i + 8) % 9, (i + 8) % 9], lam)
    return t


def j_family(lam, mu) -> JFamilyIdeal:
    lam, mu = Fraction(lam), Fraction(mu)
    if lam == 0 and mu == 0:
        raise ValueError("(lambda : mu) must be a point of P^1")
    return JFamilyIdeal(
        monomials=tuple(j2_monomials()),
        trinomials=tuple(family_trinomial(i, lam, mu) for i in range(9)),
    )


# L_0 is the linear subspace x0 = x1 = x4 = x5 = x8 = 0; the component Q_0
# is its intersection with one quadric hypersurface.
L0_VANISHING = (0, 1, 4, 5, 8)


def quadric_component(i: int, lam, mu) -> tuple[tuple[int, ...], SparsePoly]:
    """sigma^i-translate of Q_0: killed variable set and the quadric divisor."""
    killed = tuple(sorted((v - i) % 9 for v in L0_VANISHING))
    q = SparsePoly.monomial(9, [3, 6], lam) - SparsePoly.monomial(9, [2, 7], mu)
    q = sigma(q, 9, i)
    return killed, q


def vanishes_on_component(f: SparsePoly, killed: tuple[int, ...], q: SparsePoly) -> bool:
    """Whether f dies after setting the killed variables to 0 and reducing mod q."""
    sub = dict.fromkeys(killed, SparsePoly.zero(9))
    restricted = f.substitute(sub)
    if restricted.is_zero():
        return True
    if q.is_zero():
        return False
    _, r = divmod_single(restricted, q)
    return r.is_zero()


def quadric_decomposition(lam, mu) -> list[tuple[tuple[int, ...], SparsePoly]]:
    """The nine components Q_i; every family generator vanishes on each."""
    family = j_family(lam, mu)
    components = [quadric_component(i, lam, mu) for i in range(9)]
    for killed, q in components:
        for g in family.generators():
            if not vanishes_on_component(g, killed, q):
                raise AssertionError(
                    f"generator {g} does not vanish on the component with {killed} killed"
                )
    return components
