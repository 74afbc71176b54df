"""Pfaffians, sub-Pfaffians, the signed Pfaffian adjugate, and odd kernels.

Entries may be SparsePoly, int, Fraction, or CycloNum; the only
requirements are +, *, unary -, and truthiness for zero tests.  Expansion
is along the first remaining row with memoization on index subsets, which
is fast for the sizes used here (<= 10); callers that take many
Pfaffians of one matrix pass one memo to share the smaller ones.
"""

from __future__ import annotations

from typing import Iterable

# Sign conventions, fixed once by the generic small cases and locked by
# regression tests:
#   * pfaffian() uses Pf(A) = sum_t (-1)^t a_{i0, j_t} Pf(A minus i0, j_t),
#     so the 2x2 Pfaffian is the single upper entry and the generic 4x4 is
#     a01*a23 - a02*a13 + a03*a12.
#   * adjugate() uses M*_{ij} = (-1)^(i+j) Pf^{ij}(M) for i < j, giving
#     M @ M* = ADJUGATE_SIGN * Pf(M) * Identity.
#   * kernel_vector() uses v_i = (-1)^i Pf(M minus i), giving M @ v = 0.
ADJUGATE_SIGN = 1


class SkewMatrix:
    """Antisymmetric square matrix stored as its strict upper triangle."""

    __slots__ = ("size", "upper")

    def __init__(self, size: int, upper: dict) -> None:
        if size < 2:
            raise ValueError("SkewMatrix needs size >= 2")
        entries = {}
        for (i, j), v in upper.items():
            if not (0 <= i < j < size):
                raise ValueError(f"bad upper index ({i}, {j}) for size {size}")
            if v:
                entries[(i, j)] = v
        self.size = size
        self.upper = entries

    @classmethod
    def from_rows(cls, rows: list[list]) -> "SkewMatrix":
        """Build from a full matrix, checking antisymmetry entry by entry."""
        n = len(rows)
        for i, row in enumerate(rows):
            if len(row) != n:
                raise ValueError("matrix is not square")
            if rows[i][i]:
                raise ValueError(f"nonzero diagonal entry at ({i}, {i})")
        for i in range(n):
            for j in range(i + 1, n):
                if rows[j][i] != -rows[i][j]:
                    raise ValueError(f"not antisymmetric at ({i}, {j})")
        return cls(n, {(i, j): rows[i][j] for i in range(n) for j in range(i + 1, n)})

    def entry(self, i: int, j: int):
        if i == j:
            return 0
        if i < j:
            return self.upper.get((i, j), 0)
        v = self.upper.get((j, i), 0)
        return -v if v else 0

    def rows(self) -> list[list]:
        return [[self.entry(i, j) for j in range(self.size)] for i in range(self.size)]

    # -- Pfaffians ----------------------------------------------------------

    def pf_on(self, indices: tuple[int, ...], memo: dict | None = None):
        """Pfaffian of the principal submatrix on the given sorted indices;
        memo (index tuple -> Pfaffian) may be shared across calls."""
        return self._pf(tuple(indices), {} if memo is None else memo)

    def _pf(self, idx: tuple[int, ...], memo: dict):
        if not idx:
            return 1
        if len(idx) % 2:
            raise ValueError("Pfaffian of an odd-size matrix")
        if idx in memo:
            return memo[idx]
        i0 = idx[0]
        rest = idx[1:]
        acc = 0
        for t, j in enumerate(rest):
            e = self.entry(i0, j)
            if e:
                sub = self._pf(rest[:t] + rest[t + 1:], memo)
                term = e * sub
                acc = acc + term if t % 2 == 0 else acc - term
        memo[idx] = acc
        return acc

    def pfaffian(self):
        if self.size % 2:
            raise ValueError("Pfaffian needs even size")
        return self.pf_on(tuple(range(self.size)))

    def sub_pfaffian(self, delete: Iterable[int], memo: dict | None = None):
        """Pfaffian after deleting the given rows and columns; memo is
        shared as in pf_on, so the sub-Pfaffians of one matrix can reuse
        each other's expansions."""
        dropped = set(delete)
        keep = tuple(i for i in range(self.size) if i not in dropped)
        if len(keep) % 2:
            raise ValueError("deletion leaves an odd-size matrix")
        return self.pf_on(keep, memo)

    def adjugate(self) -> "SkewMatrix":
        """Signed co-Pfaffian matrix with M @ M* = ADJUGATE_SIGN * Pf(M) * I."""
        if self.size % 2:
            raise ValueError("Pfaffian adjugate needs even size")
        memo: dict = {}
        upper = {}
        for i in range(self.size):
            for j in range(i + 1, self.size):
                v = self.sub_pfaffian((i, j), memo)
                if v:
                    upper[(i, j)] = v if (i + j) % 2 == 0 else -v
        return SkewMatrix(self.size, upper)

    def kernel_vector(self) -> list:
        """For odd size 2k+1: v with v_i = (-1)^i Pf(M minus i); M @ v = 0."""
        if self.size % 2 == 0:
            raise ValueError("kernel vector construction needs odd size")
        memo: dict = {}
        out = []
        for i in range(self.size):
            v = self.sub_pfaffian((i,), memo)
            out.append(v if i % 2 == 0 else -v)
        return out

    def times_vector(self, v: list) -> list:
        return [
            sum_entries(self.entry(i, j) * v[j] for j in range(self.size) if self.entry(i, j) and v[j])
            for i in range(self.size)
        ]


def sum_entries(items) -> object:
    total = 0
    for x in items:
        total = x + total
    return total


def random_skew(size: int, rng, bound: int = 9) -> SkewMatrix:
    """Random skew matrix with exact int entries in [-bound, bound]."""
    upper = {}
    for i in range(size):
        for j in range(i + 1, size):
            upper[(i, j)] = rng.randint(-bound, bound)
    return SkewMatrix(size, upper)
