"""Heisenberg group H_d actions and the quadric matrices they generate.

The group acts on the coordinate ring of P^(d-1) through the index shift
sigma(x_i) = x_(i-1) and the scaling tau(x_i) = xi^(-i) x_i.  From the
action we build the matrix R of quadric representations, the quadric
matrix S (its square block restricted to the odd eigenspace chart
x_0 = 0, x_(d-k) = -x_k, which also drops points to chart coordinates),
and the 9x9 Moore matrix.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .linalg import RowBasis
from .mpoly import SparsePoly
from .pfaffian import SkewMatrix
from . import golden


def sigma(f: SparsePoly, d: int, k: int = 1) -> SparsePoly:
    """k-fold index shift x_i -> x_(i-k)."""
    if f.nvars != d:
        raise ValueError("polynomial does not live in the d-variable ring")
    k %= d
    out = {}
    for exps, c in f.terms.items():
        new = tuple(exps[(j + k) % d] for j in range(d))
        out[new] = c
    return SparsePoly(d, out)


def build_R(d: int) -> list[list[SparsePoly]]:
    """The (d+1)/2 x d matrix with entry (i, j) = x_(j+i) * x_(j-i)."""
    if d % 2 == 0 or d < 3:
        raise ValueError("d must be odd and >= 3")
    rows = []
    for i in range((d + 1) // 2):
        rows.append([
            SparsePoly.monomial(d, [(j + i) % d, (j - i) % d])
            for j in range(d)
        ])
    return rows


def v_dot_R(v, d: int) -> list[SparsePoly]:
    """The d quadrics of the subrepresentation selected by v in V_+."""
    R = build_R(d)
    h = (d + 1) // 2
    if len(v) != h:
        raise ValueError(f"v must have length {h}")
    out = []
    for j in range(d):
        acc = SparsePoly.zero(d)
        for i in range(h):
            if v[i]:
                acc = acc + R[i][j].scale(v[i])
        out.append(acc)
    return out


# -- span membership -------------------------------------------------------------


def weight_components(f: SparsePoly, d: int) -> list[dict]:
    """The terms of f split by the weight sum(i * e_i) mod d of their
    monomials; tau scales the component of weight w by xi^(-w)."""
    parts: dict[int, dict] = {}
    for exps, c in f.terms.items():
        w = sum(i * e for i, e in enumerate(exps)) % d
        parts.setdefault(w, {})[exps] = c
    return list(parts.values())


def span_is_group_invariant(polys: list[SparsePoly], d: int) -> bool:
    """True iff the linear span W of polys is carried to itself by sigma and tau.

    tau acts on the weight-w component of each f by the scalar xi^(-w), and
    these d scalars are distinct, so W is tau-stable exactly when every
    weight component of every spanning f lies in W, that is, when none is
    independent of a basis of W.  That is tested in the field of the
    coefficients: a rational vector lies in the Q(xi_d)-span of rational
    vectors exactly when it lies in their Q-span.
    """
    basis = RowBasis()
    for f in polys:
        basis.insert(f.terms)
    for f in polys:
        if basis.insert(sigma(f, d).terms):
            return False
        parts = weight_components(f, d)
        if len(parts) > 1 and any(basis.insert(g) for g in parts):
            return False
    return True


def row_span_is_subrep(v, d: int) -> bool:
    """Whether span(v . R) is an H_d-subrepresentation of the quadrics."""
    if not any(bool(c) for c in v):
        raise ValueError("v must be nonzero")
    return span_is_group_invariant(v_dot_R(v, d), d)


# -- restriction to the odd eigenspace ----------------------------------------


class PminusChart:
    """Chart of the odd eigenspace P(V_-): x_0 = 0 and x_(d-k) = -x_k, with
    chart coordinates x_1..x_((d-1)/2).

    The sign eps = -1 is what "odd" means, and no other sign would do:
    after restriction, entry (j, i) of R's square block is
    x_(i+j) x_(i-j) = eps * x_(i+j) x_(j-i), which is eps times entry
    (i, j), so the block is skew only for eps = -1.  SkewMatrix.from_rows
    and the golden display in s_matrix check the block.
    """

    eps = -1

    def __init__(self, d: int) -> None:
        self.d = d
        self.half = (d - 1) // 2

    def restrict(self, f: SparsePoly) -> SparsePoly:
        d, m = self.d, self.half
        sub = {0: SparsePoly.zero(m)}
        for k in range(1, m + 1):
            sub[k] = SparsePoly.variable(m, k - 1)
            sub[d - k] = sub[k].scale(self.eps)
        return f.substitute(sub, nvars_out=m)

    def restrict_point(self, coords) -> tuple:
        """Drop a point with full coordinates to chart coordinates, checking oddness."""
        d, m = self.d, self.half
        coords = list(coords)
        if len(coords) != d:
            raise ValueError(f"expected {d} coordinates")
        if coords[0] != 0 * coords[0]:
            raise ValueError("coordinate x_0 must vanish on the odd eigenspace")
        for k in range(1, m + 1):
            if coords[d - k] != self.eps * coords[k]:
                raise ValueError(f"coordinates violate the sign rule at index {k}")
        return tuple(coords[1:m + 1])


@lru_cache(maxsize=None)
def s_matrix(d: int) -> SkewMatrix:
    """The (d+1)/2-square block of R restricted to the odd chart, for d = 9
    or 11, checked against the golden display s_matrix_d{d}.txt."""
    chart = PminusChart(d)
    R = build_R(d)
    h = (d + 1) // 2
    s = SkewMatrix.from_rows([[chart.restrict(R[i][j]) for j in range(h)] for i in range(h)])
    variables = [f"x{k}" for k in range(1, chart.half + 1)]
    if s.rows() != golden.load_matrix(f"s_matrix_d{d}.txt", variables):
        raise AssertionError(f"restricted matrix disagrees with golden display for d={d}")
    return s


# -- Moore matrix (d = 9) ------------------------------------------------------


def build_moore(y) -> SkewMatrix:
    """The 9x9 matrix with entry (i, j) = x_(5(i+j)) * y_(5(i-j)).

    y must satisfy the odd sign rule (y_0 = 0, y_(9-k) = -y_k); otherwise
    the result is not antisymmetric and construction fails.
    """
    y = [Fraction(c) if isinstance(c, int) else c for c in y]
    if len(y) != 9:
        raise ValueError("y must have 9 coordinates")
    rows = []
    for i in range(9):
        row = []
        for j in range(9):
            c = y[5 * (i - j) % 9]
            if c:
                row.append(SparsePoly.variable(9, 5 * (i + j) % 9).scale(c))
            else:
                row.append(SparsePoly.zero(9))
        rows.append(row)
    return SkewMatrix.from_rows(rows)
