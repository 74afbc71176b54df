"""Hilbert functions: combinatorial for monomial ideals, degreewise linear
algebra for general homogeneous ideals, and flatness evidence for families.

Each non-monomial generator is cleared of denominators once, so every
degree is one exact integer Macaulay matrix.  Its rank is computed over two
fixed 30-bit primes; on disagreement the computation falls back to exact
rationals on the same matrix.  Monomial generators are split off first
(their degree-t multiples are standard basis vectors), which keeps the
elimination small, and each degree's rows are built in one pass at the
surviving columns.  The Macaulay matrices are very sparse (about 2.4
nonzeros per row at t = 8 for J(lambda:mu)), so the modular elimination
first peels singleton columns, which for J(lambda:mu) leaves nothing to
pivot on, and otherwise touches only the rows with a nonzero in the pivot
column.
"""

from __future__ import annotations

import math
from itertools import combinations
from operator import mul

import numpy as np

from .linalg import rank_fraction, rank_mod
from .mpoly import SparsePoly, graded_monomials, monomial_divides, monomial_exponents

# Two 30-bit primes away from 2, 3, 5, 11; recorded in the run config.
RANK_PRIMES = (1073741789, 1073741783)


def monomial_hilbert(generators, nvars: int, t_max: int) -> list[int]:
    """values[t] = number of degree-t monomials outside the monomial ideal."""
    divisors = []
    for g in generators:
        exps = g if isinstance(g, tuple) else monomial_exponents(g)
        if exps is None:
            raise ValueError(f"non-monomial generator {g}")
        divisors.append(exps)
    values = []
    for t in range(t_max + 1):
        free = 0
        for mono in graded_monomials(nvars, t):
            if not any(monomial_divides(d, mono) for d in divisors):
                free += 1
        values.append(free)
    return values


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

    Columns killed by monomial generators are collected first.  Each
    non-monomial generator is multiplied once by the lcm of its coefficient
    denominators, which changes no rank, so a row of one of its multiples is
    its integer coefficients at the surviving columns; repeated rows are
    dropped, first occurrence kept.  Monomials are packed into
    base-(t_max + 1) integers, so multiplying two of total degree <= t_max
    is one integer addition.
    """
    weights = [(t_max + 1) ** i for i in range(nvars)]

    def pack(exps):
        return sum(map(mul, exps, weights))

    bases = [[pack(m) for m in graded_monomials(nvars, k)] for k in range(t_max + 1)]
    monomials, polys = [], []
    for g in generators:
        dg = g.degree()
        if dg > t_max or g.is_zero():
            continue
        exps = monomial_exponents(g)
        if exps is not None:
            monomials.append((dg, pack(exps)))
        else:
            scale = math.lcm(*(c.denominator for c in g.terms.values()))
            polys.append((dg, [(pack(e), c.numerator * (scale // c.denominator))
                               for e, c in g.terms.items() if c]))
    for t in range(t_max + 1):
        killed = {e + m for dg, e in monomials if dg <= t for m in bases[t - dg]}
        surviving = [m for m in bases[t] if m not in killed]
        col = dict(zip(surviving, range(len(surviving))))
        rows = {}  # a dict keeps the first occurrence of each row, in order
        for dg, terms in polys:
            if dg > t:
                continue
            for m in bases[t - dg]:
                entries = []
                for e, c in terms:
                    j = col.get(e + m)
                    if j is not None:
                        entries.append((j, c))
                if entries:
                    rows[tuple(sorted(entries))] = None
        mat = np.zeros((len(rows), len(surviving)), dtype=np.int64)
        for r, entries in enumerate(rows):
            for j, c in entries:
                mat[r, j] = c
        yield mat


def graded_hilbert(
    generators,
    nvars: int,
    t_max: int,
    primes: tuple[int, int] = RANK_PRIMES,
) -> list[int]:
    """values[t] = C(t+n-1, n-1) - dim of the degree-t piece of the ideal."""
    gens = list(generators)
    for g in gens:
        if not g.is_homogeneous():
            raise ValueError(f"inhomogeneous generator {g}")
    values = []
    for mat in _macaulay_matrices(gens, nvars, t_max):
        rank = 0
        if len(mat):
            ranks = {rank_mod(mat, p) for p in primes}
            rank = ranks.pop() if len(ranks) == 1 else rank_fraction(mat.tolist())
        values.append(mat.shape[1] - rank)
    return values


def flatness_evidence(
    family_sampler,
    samples,
    t_max: int,
    primes: tuple[int, int] = RANK_PRIMES,
) -> tuple[bool, dict]:
    """Degree-by-degree Hilbert agreement across sampled family members."""
    if len(samples) < 2:
        raise ValueError("need at least two samples")
    profiles = {}
    for lam, mu in samples:
        gens = family_sampler(lam, mu)
        profiles[f"{lam}:{mu}"] = graded_hilbert(gens, 9, t_max, primes)
    reference = next(iter(profiles.values()))
    flat = all(p == reference for p in profiles.values())
    return flat, profiles


def abelian_surface_profile(t_max: int) -> list[int]:
    """1, then 9 t^2: the Hilbert polynomial of a degree-18 surface in P^8."""
    return [1] + [9 * t * t for t in range(1, t_max + 1)]
