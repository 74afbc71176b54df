"""Hilbert functions of homogeneous ideals by degreewise linear algebra.

graded_hilbert is the one entry point; its generators are SparsePolys.
Monomials are packed into int64 in base t_max + 1, so every product is an
addition and every lookup one searchsorted.  Everything is built over the
standard monomials of the monomial generators: std[t], the degree-t
monomials outside their ideal, comes from std[t - 1] degree by degree, so
the work follows the 9 t^2 survivors of J(lambda:mu), not all
C(t + 8, 8) monomials.

The monomial generators' degree-t multiples are standard basis vectors,
so the Macaulay matrix needs only the columns std[t] and the multipliers
std[t - deg g] of each other generator; for a monomial ideal every
matrix is empty and the value is len(std[t]).  Each non-monomial
generator is cleared of denominators once, and its rows are built with
array operations as padded (column, integer) pairs, never as a dense
matrix.  The rows are very sparse (about 2.4 nonzeros per
row at t = 8 for J(lambda:mu)), so a peel of singleton columns over Z
(linalg._peel_singletons, on the nonzero pattern, in rounds) comes first:
a column whose only nonzero lies in row i makes row i independent over Q.
Only the remainder is made dense; the first of the two 30-bit primes
RANK_PRIMES at which it has full rank decides, and exact rationals decide
when neither does, so every value is exact over Q.  Every
J(lambda:mu) matrix checked (to t = 8 in the tests) peels to nothing, so
no modular elimination runs on them.

A squarefree monomial ideal's simplicial complex is the set of its faces
(squarefree_faces), counted by dimension in face_vector.
"""

from __future__ import annotations

import math
from itertools import combinations

import numpy as np

from .exactnum import CycloNum
from .linalg import _peel_singletons, rank_fraction, rank_mod
from .mpoly import SparsePoly, monomial_exponents

# Two 30-bit primes away from 2, 3, 5, 11; d9.hilbert.flatness reports them.
RANK_PRIMES = (1073741789, 1073741783)


# -- packed monomials ------------------------------------------------------------


def check_packable(nvars: int, t_max: int) -> None:
    """Reject a degree whose monomials in nvars variables do not pack into int64."""
    if (t_max + 1) ** nvars >= 2 ** 63:
        raise ValueError(f"monomials in {nvars} variables up to degree {t_max} do not pack "
                         f"into int64: (degree + 1)^{nvars} must be below 2^63")


def _check_inputs(generators, nvars: int, t_max: int) -> None:
    """Reject a negative degree and a generator in another number of variables."""
    if t_max < 0:
        raise ValueError(f"t_max must be nonnegative, got {t_max}")
    for g in generators:
        if g.nvars != nvars:
            raise ValueError(f"generator {g} is in {g.nvars} variables, not {nvars}")


def _packing_weights(nvars: int, t_max: int) -> np.ndarray:
    """(t_max + 1)^i for each variable i: x^e packs to sum(e[i] * weights[i]),
    so multiplying two monomials of total degree <= t_max is one addition."""
    check_packable(nvars, t_max)
    return (t_max + 1) ** np.arange(nvars, dtype=np.int64)


def _standard_monomials(nvars: int, t_max: int, monomials) -> list[np.ndarray]:
    """std[t], the packed degree-t monomials outside the ideal of the
    (degree, packed) monomial generators, ascending, for t = 0..t_max.

    Ascending packed order is descending grevlex order within one degree,
    so a searchsorted finds a monomial's index.  A monomial c of degree
    t >= 1 is standard exactly when c / x_j is standard for every x_j
    dividing c and c is no generator: a generator dividing c properly also
    divides one of those c / x_j.  So std[t] comes from the products x_i s,
    s in std[t - 1]; a product is reached once for each x_j with c / x_j
    standard, and it is kept when that count is the number of variables
    dividing it.  That number is carried from degree to degree: x_i s is
    divided by one more variable than s when x_i does not divide s.  The
    work follows the standard monomials (9 t^2 for J(lambda:mu)), not all
    C(t + n - 1, n - 1) of degree t.
    """
    weights = _packing_weights(nvars, t_max)
    std = [np.zeros(0 if any(dg == 0 for dg, _ in monomials) else 1, dtype=np.int64)]
    support = np.zeros(len(std[0]), dtype=np.int64)
    for t in range(1, t_max + 1):
        products, first, reached = np.unique((std[-1][:, None] + weights).ravel(),
                                             return_index=True, return_counts=True)
        s, i = np.divmod(first, max(nvars, 1))  # each product first reached as x_i s
        support = support[s] + (std[-1][s] // weights[i] % (t_max + 1) == 0)
        keep = reached == support
        generators = [e for dg, e in monomials if dg == t]
        if generators:
            keep &= ~np.isin(products, generators)
        std.append(products[keep])
        support = support[keep]
    return std


def squarefree_faces(generators, nvars: int) -> set[frozenset]:
    """The faces of the simplicial complex of a squarefree monomial ideal:
    the vertex sets in range(nvars) whose squarefree monomial lies outside it."""
    supports = []
    for g in generators:
        exps = monomial_exponents(g)
        if exps is None or any(e > 1 for e in exps):
            raise ValueError(f"generator {g} is not squarefree")
        supports.append(frozenset(i for i, e in enumerate(exps) if e))
    faces = set()
    for size in range(nvars + 1):
        for combo in combinations(range(nvars), size):
            face = frozenset(combo)
            if not any(s <= face for s in supports):
                faces.add(face)
    return faces


def face_vector(faces: set[frozenset]) -> tuple[int, ...]:
    """(f_0, f_1, ...): counts by dimension, empty face omitted."""
    top = max((len(f) for f in faces), default=0)
    counts = [0] * top
    for f in faces:
        if f:
            counts[len(f) - 1] += 1
    return tuple(counts)


def stanley_reisner_hilbert(fvec: tuple[int, ...], t: int) -> int:
    """Face-ring Hilbert function: sum_i f_(i-1) C(t-1, i-1) for t >= 1."""
    if t == 0:
        return 1
    return sum(fvec[i] * math.comb(t - 1, i) for i in range(len(fvec)))


# -- graded linear algebra -------------------------------------------------------


def _macaulay_matrices(generators: list[SparsePoly], nvars: int, t_max: int):
    """Yield the degree-t Macaulay matrix as padded rows (width, cols, vals),
    for t = 0..t_max.

    Its columns are std[t], the standard monomials of the monomial
    generators (their multiples are standard basis vectors of the ideal,
    which kill those columns).  Each non-monomial generator is multiplied
    once by the lcm of its coefficient denominators, which changes no
    rank, so a row of one of its multiples is its integer coefficients at
    the standard columns; only multipliers in std[t - deg g] can leave
    one, the others lie in the ideal with all their terms.  The rows of
    all multiples are built at once as (column, coefficient) pairs padded
    to one width: their columns come in one searchsorted, in ascending
    order (the generator's terms are sorted once), and the pairs at
    standard columns move to the front of each row.  Rows left empty are
    dropped, and repeated rows too, with the first occurrence kept in
    order.  Row i holds the integer vals[i, k] at column cols[i, k] while
    cols[i, k] < width; its padding has column width and value 0.
    """
    weights = _packing_weights(nvars, t_max)
    monomials, polys = [], []
    for g in generators:
        dg = g.degree()
        if dg > t_max or g.is_zero():
            continue
        exps = monomial_exponents(g)
        if exps is not None:
            monomials.append((dg, int(np.dot(exps, weights))))
            continue
        if any(isinstance(c, CycloNum) for c in g.terms.values()):
            raise ValueError(f"generator {g}: cyclotomic coefficient, not rational")
        scale = math.lcm(*(c.denominator for c in g.terms.values()))
        coeffs = [c.numerator * (scale // c.denominator) for c in g.terms.values()]
        if not all(-2 ** 63 <= c < 2 ** 63 for c in coeffs):
            raise ValueError(f"generator {g}: cleared coefficients do not fit in int64")
        # grevlex is a monomial order, so terms in ascending packed order
        # stay in ascending column order in every multiple
        packed = (np.array(list(g.terms), dtype=np.int64) @ weights).tolist()
        terms = sorted(zip(packed, coeffs))
        polys.append((dg, np.array([e for e, _ in terms], dtype=np.int64),
                      np.array([c for _, c in terms], dtype=np.int64)))
    std = _standard_monomials(nvars, t_max, monomials)
    for t, base in enumerate(std):
        width = len(base)
        blocks = []
        for dg, packed, coeffs in polys:
            if dg > t or not width:
                continue
            products = std[t - dg][:, None] + packed
            column = np.searchsorted(base, products)
            # a product outside std[t] is killed: its column is past the last
            standard = base[np.minimum(column, width - 1)] == products
            blocks.append((np.where(standard, column, width), coeffs))
        if not blocks:
            yield width, np.zeros((0, 0), dtype=np.int64), np.zeros((0, 0), dtype=np.int64)
            continue
        span = max(len(c) for _, c in blocks)
        cols = np.full((sum(len(j) for j, _ in blocks), span), width, dtype=np.int64)
        vals = np.zeros_like(cols)
        r = 0
        for j, c in blocks:
            cols[r:r + len(j), :len(c)] = j
            vals[r:r + len(j), :len(c)] = c
            r += len(j)
        # each row's surviving entries move to its front, still in order;
        # a killed entry's column is width, so it sorts last
        front = np.argsort(cols, axis=1, kind="stable")
        cols = np.take_along_axis(cols, front, axis=1)
        vals = np.where(cols < width, np.take_along_axis(vals, front, axis=1), 0)
        nonzero = cols[:, 0] < width
        cols, vals = cols[nonzero], vals[nonzero]
        _, first = np.unique(np.hstack([cols, vals]), axis=0, return_index=True)
        kept = np.zeros(len(cols), dtype=bool)
        kept[first] = True  # first occurrences, in their order
        yield width, cols[kept], vals[kept]


def _scatter(width: int, cols: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """The dense int64 matrix of padded rows; padding writes a 0 past column width."""
    mat = np.zeros((len(cols), width + 1), dtype=np.int64)
    mat[np.arange(len(cols))[:, None], cols] = vals
    return mat[:, :width]


def _macaulay_rank(width: int, cols: np.ndarray, vals: np.ndarray) -> int:
    """Rank over Q of an integer matrix given as padded rows: its singleton
    peel over Z, plus the remainder's rank.  Only the remainder is made
    dense.  Its rank mod p is at most its rank over Q, so full rank mod one
    of the RANK_PRIMES is exact; the second prime is tried only when the
    first falls short, and when both do, the rank over Q is computed."""
    nz_rows, slots = np.nonzero(cols < width)
    peeled, live_rows, live_cols = _peel_singletons(
        nz_rows, cols[nz_rows, slots], (len(cols), width))
    rest = _scatter(width, cols[live_rows], vals[live_rows])[:, live_cols]
    full = min(rest.shape)
    if any(rank_mod(rest, p) == full for p in RANK_PRIMES):
        return peeled + full
    return peeled + rank_fraction(rest.tolist())


def graded_hilbert(generators, nvars: int, t_max: int) -> list[int]:
    """values[t] = C(t+n-1, n-1) - dim of the degree-t piece of the ideal.

    Each degree's integer Macaulay matrix, over the standard monomials of
    the monomial generators, is peeled of its singleton columns over Z in
    rounds, and its remainder is ranked as in _macaulay_rank, so every
    value is exact over Q.  Coefficients must be rational; a cyclotomic one
    in a non-monomial generator raises ValueError.
    """
    gens = list(generators)
    _check_inputs(gens, nvars, t_max)
    for g in gens:
        if not g.is_homogeneous():
            raise ValueError(f"inhomogeneous generator {g}")
    return [width - _macaulay_rank(width, cols, vals)
            for width, cols, vals in _macaulay_matrices(gens, nvars, t_max)]


def abelian_surface_profile(t_max: int) -> list[int]:
    """1, then 9 t^2: the Hilbert polynomial of a degree-18 surface in P^8."""
    return [1] + [9 * t * t for t in range(1, t_max + 1)]
