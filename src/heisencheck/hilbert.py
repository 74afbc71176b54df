"""Hilbert functions: combinatorial for monomial ideals, degreewise linear
algebra for general homogeneous ideals, and flatness evidence for families.

Monomials are packed into int64 in base t_max + 1 (one array per degree,
in grevlex order), so every product is an addition and every lookup one
searchsorted.  A monomial ideal's Hilbert function counts the monomials
its generators' multiples miss.  For a general ideal, monomial generators
are split off first (their degree-t multiples are standard basis vectors),
which keeps the elimination small.  Each non-monomial generator is cleared
of denominators once, so every degree is one exact integer Macaulay
matrix, built with array operations at the surviving columns.  The
Macaulay matrices are very sparse (about 2.4 nonzeros per row at t = 8 for
J(lambda:mu)), so each is first peeled of its singleton columns over Z: a
column whose only nonzero integer lies in row i makes row i independent,
so that part of the rank is exact over Q.  Only the remainder is ranked
over two fixed 30-bit primes, falling back to exact rationals on the
remainder when they disagree.  Every J(lambda:mu) matrix (checked to
t = 8) peels to nothing, so those values are exact over Q and no modular
elimination runs on them.
"""

from __future__ import annotations

import math
from itertools import combinations

import numpy as np

from .linalg import _peel_singletons, rank_fraction, rank_mod
from .mpoly import SparsePoly, monomial_exponents

# Two 30-bit primes away from 2, 3, 5, 11; recorded in the run config.
RANK_PRIMES = (1073741789, 1073741783)


# -- packed monomials ------------------------------------------------------------


def check_packable(nvars: int, t_max: int) -> None:
    """Reject a degree whose monomials in nvars variables do not pack into int64."""
    if (t_max + 1) ** nvars >= 2 ** 63:
        raise ValueError(f"monomials in {nvars} variables up to degree {t_max} do not pack "
                         f"into int64: (degree + 1)^{nvars} must be below 2^63")


def _packed_bases(nvars: int, t_max: int) -> tuple[np.ndarray, list[np.ndarray]]:
    """Weights and bases[k], the degree-k monomials packed in base t_max + 1.

    A monomial x^e packs to sum(e[i] * (t_max + 1)^i), so multiplying two
    of total degree <= t_max is one integer addition.  Each bases[k] is in
    descending grevlex order, built by the recursion of
    mpoly.graded_monomials on packed integers: appending the next
    variable's exponent e adds e times its weight.  Within one degree that
    order compares the last exponent first, then the one before it, as
    the packed integers do, so each bases[k] is also ascending and a
    searchsorted finds a monomial's index.
    """
    check_packable(nvars, t_max)
    weights = (t_max + 1) ** np.arange(nvars, dtype=np.int64)
    bases = [np.array([d], dtype=np.int64) for d in range(t_max + 1)]
    for w in weights[1:]:
        bases = [np.concatenate([bases[d - e] + e * w for e in range(d + 1)])
                 for d in range(t_max + 1)]
    return weights, bases


def _killed_columns(bases, t: int, monomials) -> np.ndarray:
    """Mask of the degree-t monomials divisible by a (degree, packed) monomial."""
    killed = np.zeros(len(bases[t]), dtype=bool)
    multiples = [e + bases[t - dg] for dg, e in monomials if dg <= t]
    if multiples:
        killed[np.searchsorted(bases[t], np.concatenate(multiples))] = True
    return killed


def monomial_hilbert(generators, nvars: int, t_max: int) -> list[int]:
    """values[t] = number of degree-t monomials outside the monomial ideal.

    Generators are monomial SparsePolys or exponent tuples.
    """
    divisors = []
    for g in generators:
        exps = g if isinstance(g, tuple) else monomial_exponents(g)
        if exps is None:
            raise ValueError(f"non-monomial generator {g}")
        divisors.append(exps)
    weights, bases = _packed_bases(nvars, t_max)
    monomials = [(sum(e), int(np.dot(e, weights))) for e in divisors if sum(e) <= t_max]
    return [len(base) - int(_killed_columns(bases, t, monomials).sum())
            for t, base in enumerate(bases)]


class SimplicialComplex:
    """The complex of squarefree monomials outside a squarefree ideal."""

    def __init__(self, nvars: int, faces: set[frozenset]) -> None:
        self.nvars = nvars
        self.faces = faces

    @classmethod
    def from_squarefree_ideal(cls, generators, nvars: int) -> "SimplicialComplex":
        supports = []
        for g in generators:
            exps = g if isinstance(g, tuple) else monomial_exponents(g)
            if exps is None or any(e > 1 for e in exps):
                raise ValueError(f"generator {g} is not squarefree")
            supports.append(frozenset(i for i, e in enumerate(exps) if e))
        faces = set()
        vertices = range(nvars)
        for size in range(nvars + 1):
            for combo in combinations(vertices, size):
                face = frozenset(combo)
                if not any(s <= face for s in supports):
                    faces.add(face)
        return cls(nvars, faces)

    def face_vector(self) -> tuple[int, ...]:
        """(f_0, f_1, ...): counts by dimension, empty face omitted."""
        top = max((len(f) for f in self.faces), default=0)
        counts = [0] * top
        for f in self.faces:
            if f:
                counts[len(f) - 1] += 1
        return tuple(counts)

    def faces_of_dimension(self, dim: int) -> list[frozenset]:
        return sorted((f for f in self.faces if len(f) == dim + 1), key=sorted)


def face_vector(generators, nvars: int = 9) -> tuple[int, ...]:
    return SimplicialComplex.from_squarefree_ideal(generators, nvars).face_vector()


def stanley_reisner_hilbert(fvec: tuple[int, ...], t: int) -> int:
    """Face-ring Hilbert function: sum_i f_(i-1) C(t-1, i-1) for t >= 1."""
    if t == 0:
        return 1
    return sum(fvec[i] * math.comb(t - 1, i) for i in range(len(fvec)))


# -- graded linear algebra -------------------------------------------------------


def _macaulay_matrices(generators: list[SparsePoly], nvars: int, t_max: int):
    """Yield the degree-t Macaulay matrix, as an int64 array, for t = 0..t_max.

    Columns killed by monomial generators are found first, with one
    searchsorted of their packed multiples.  Each non-monomial generator is
    multiplied once by the lcm of its coefficient denominators, which
    changes no rank, so a row of one of its multiples is its integer
    coefficients at the surviving columns.  The rows of all multiples are
    built at once as (column, coefficient) pairs padded to one width:
    their columns come in one searchsorted, in ascending order (the
    generator's terms are sorted once), and the surviving pairs move to
    the front of each row.  Repeated rows are dropped with the first
    occurrence kept in order, and the rest are scattered into the matrix.
    """
    weights, bases = _packed_bases(nvars, t_max)
    monomials, polys = [], []
    for g in generators:
        dg = g.degree()
        if dg > t_max or g.is_zero():
            continue
        exps = monomial_exponents(g)
        if exps is not None:
            monomials.append((dg, int(np.dot(exps, weights))))
            continue
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
    for t, base in enumerate(bases):
        killed = _killed_columns(bases, t, monomials)
        width = len(base) - int(killed.sum())
        # surviving columns in order; a killed one maps past the last column
        column = np.cumsum(~killed) - 1
        column[killed] = width
        blocks = [(column[np.searchsorted(base, bases[t - dg][:, None] + packed)], coeffs)
                  for dg, packed, coeffs in polys if dg <= t]
        if not blocks:
            yield np.zeros((0, width), dtype=np.int64)
            continue
        span = max(len(c) for _, c in blocks)
        cols = np.full((sum(len(j) for j, _ in blocks), span), width, dtype=np.int64)
        vals = np.zeros_like(cols)
        r = 0
        for j, c in blocks:
            cols[r:r + len(j), :len(c)] = j
            vals[r:r + len(j), :len(c)] = c
            r += len(j)
        alive = cols < width
        # each row's surviving entries move to its front, still in order
        slot = np.where(alive, np.cumsum(alive, axis=1) - 1, span - np.cumsum(~alive, axis=1))
        front_cols, front_vals = np.empty_like(cols), np.empty_like(vals)
        np.put_along_axis(front_cols, slot, cols, axis=1)
        np.put_along_axis(front_vals, slot, np.where(alive, vals, 0), axis=1)
        cols, vals = front_cols, front_vals
        nonzero = cols[:, 0] < width
        cols, vals = cols[nonzero], vals[nonzero]
        _, first = np.unique(np.hstack([cols, vals]), axis=0, return_index=True)
        kept = np.zeros(len(cols), dtype=bool)
        kept[first] = True  # first occurrences, in their order
        cols, vals = cols[kept], vals[kept]
        # padding repeats each row's first entry, so the scatter writes it twice
        pad = cols == width
        cols = np.where(pad, cols[:, :1], cols)
        vals = np.where(pad, vals[:, :1], vals)
        mat = np.zeros((len(cols), width), dtype=np.int64)
        np.put_along_axis(mat, cols, vals, axis=1)
        yield mat


def _macaulay_rank(mat: np.ndarray, primes: tuple[int, int] = RANK_PRIMES) -> int:
    """Rank of an integer matrix: its singleton peel over Z, which is exact
    over Q, plus the remainder's common rank mod both primes, or the
    remainder's rank over Q if they disagree."""
    peeled, rest = _peel_singletons(mat)
    ranks = {rank_mod(rest, p) for p in primes}
    return peeled + (ranks.pop() if len(ranks) == 1 else rank_fraction(rest.tolist()))


def graded_hilbert(
    generators,
    nvars: int,
    t_max: int,
    primes: tuple[int, int] = RANK_PRIMES,
) -> list[int]:
    """values[t] = C(t+n-1, n-1) - dim of the degree-t piece of the ideal.

    Each degree's integer Macaulay matrix is peeled of its singleton
    columns over Z, which is exact over Q; only the remainder's rank is
    modular (the common rank mod both primes, or its rank over Q if they
    disagree).  J(lambda:mu) matrices peel to nothing, so their values are
    exact.
    """
    gens = list(generators)
    for g in gens:
        if not g.is_homogeneous():
            raise ValueError(f"inhomogeneous generator {g}")
    return [mat.shape[1] - _macaulay_rank(mat, primes)
            for mat in _macaulay_matrices(gens, nvars, t_max)]


def abelian_surface_profile(t_max: int) -> list[int]:
    """1, then 9 t^2: the Hilbert polynomial of a degree-18 surface in P^8."""
    return [1] + [9 * t * t for t in range(1, t_max + 1)]
