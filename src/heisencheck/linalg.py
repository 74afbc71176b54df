"""Exact ranks, one kernel for each field and shape.

- RowBasis and rank_fraction, over Q and Q(xi_n): sparse rows reduced
  against a growing basis, in the arithmetic of their coefficients.
- rank_mod, over F_p: one (sparse, int64) matrix, such as the remainder of
  a Macaulay matrix after its singleton peel over Z (_peel_singletons,
  which removes all rows with a singleton column at once, in rounds).
- rank_gauss_mod, over F_p: a stack of small dense int64 matrices, all
  eliminated at once.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .exactnum import check_modulus


class RowBasis:
    """Incremental row reduction of sparse rows: dicts from a column (or a
    monomial) to a nonzero coefficient.

    Each basis row is monic at its largest key, and no other basis row has
    that key.  The arithmetic is that of the coefficients: over Q for
    Fractions and over Q(xi_n) for CycloNums.
    """

    def __init__(self) -> None:
        self.pivots: dict = {}  # leading key -> reduced row dict, monic

    def insert(self, row: dict) -> bool:
        """Reduce row by the basis and keep what is left, if anything;
        whether row was independent of the basis."""
        row = dict(row)
        while row:
            lead = max(row)
            pivot = self.pivots.get(lead)
            if pivot is None:
                inv = 1 / row[lead]
                self.pivots[lead] = {m: inv * c for m, c in row.items()}
                return True
            factor = row[lead]
            for m, c in pivot.items():
                v = row.get(m, 0) - factor * c
                if v:
                    row[m] = v
                else:
                    row.pop(m, None)
        return False


def rank_fraction(rows: list[list[Fraction]]) -> int:
    """Rank over Q: the number of rows independent of those before them."""
    basis = RowBasis()
    return sum(basis.insert({j: Fraction(x) for j, x in enumerate(r) if x}) for r in rows)


def _peel_singletons(nz_rows: np.ndarray, nz_cols: np.ndarray, shape: tuple[int, int]):
    """Peel the rows that hold a column's only nonzero: (peeled, live rows,
    live columns) of the matrix whose nonzeros are at (nz_rows[k],
    nz_cols[k]).

    If column j has one nonzero, in row i, no combination of the other rows
    reaches column j, so rank(A) = 1 + rank(A without row i).  Removing the
    row can leave further singleton columns; peeling repeats until none is
    left (the first step of structured Gaussian elimination, LaMacchia and
    Odlyzko, CRYPTO '90).  The remainder is the rows not peeled and the
    columns that still hold a nonzero, both ascending, so rank(A) =
    peeled + its rank.

    The peel runs in rounds of array operations: each counts the live
    nonzeros of every column, and all rows holding a singleton column leave
    at once.  Removing rows never takes a private column from a live row,
    so the rows peeled do not depend on their order.
    """
    rows, cols = shape
    live = np.ones(rows, dtype=bool)
    while True:
        count = np.bincount(nz_cols, minlength=cols)
        leaving = nz_rows[count[nz_cols] == 1]
        if not leaving.size:
            live_rows = np.flatnonzero(live)
            return rows - len(live_rows), live_rows, np.flatnonzero(count)
        live[leaving] = False
        kept = live[nz_rows]
        nz_rows, nz_cols = nz_rows[kept], nz_cols[kept]


def rank_mod(matrix: np.ndarray, p: int) -> int:
    """Rank over F_p; a p that fails exactnum.check_modulus (a prime below
    2^31) raises ValueError.

    Entries are reduced into [0, p), so every product of two of them stays
    below p^2 < 2^62 and no intermediate overflows int64.  Each pivot
    updates only the rows below it with a nonzero in the pivot column, a
    small share on sparse matrices.
    """
    check_modulus(p)
    A = np.asarray(matrix, dtype=np.int64) % p
    rows, cols = A.shape
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.flatnonzero(A[r:, c])
        if nz.size == 0:
            continue
        pivot = r + int(nz[0])
        if pivot != r:
            A[[r, pivot]] = A[[pivot, r]]
        inv = pow(int(A[r, c]), p - 2, p)
        A[r, c:] = (A[r, c:] * inv) % p
        # the swap moved a row with a zero in column c to the pivot's old
        # place, so the rows to clear are exactly the other nonzeros found
        below = r + nz[1:]
        if below.size:
            A[below, c:] = (A[below, c:] - A[below, c:c + 1] * A[r, c:]) % p
        r += 1
    return r


def rank_gauss_mod(stack: np.ndarray, p: int) -> np.ndarray:
    """Rank over F_p of each (small, dense) matrix in an (n, rows, cols) stack.

    All are eliminated at once, a column c at a time: each matrix pivots on
    its first row r not yet pivoted on with a_rc != 0, and every row i
    becomes a_rc row_i - a_ic row_r.  As in rank_mod, a p that fails
    exactnum.check_modulus raises ValueError, and entries stay in [0, p),
    so no product leaves int64.
    """
    check_modulus(p)
    A = np.asarray(stack, dtype=np.int64) % p
    n, rows, cols = A.shape
    free = np.ones((n, rows), dtype=bool)
    for c in range(cols):
        candidates = (A[:, :, c] != 0) & free
        pivoting = np.flatnonzero(candidates.any(axis=1))
        if not pivoting.size:
            continue
        pivot = candidates[pivoting].argmax(axis=1)
        sub = A[pivoting]
        row = sub[np.arange(pivoting.size), pivot][:, None, :]
        A[pivoting] = (sub * row[:, :, c:c + 1] - sub[:, :, c:c + 1] * row) % p
        free[pivoting, pivot] = False
    return rows - free.sum(axis=1)
