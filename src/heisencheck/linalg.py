"""Exact ranks, one kernel for each field.

- RowBasis and rank_fraction, over Q and Q(xi_n): sparse rows reduced
  against a growing basis, in the arithmetic of their coefficients.
- rank_gauss_mod, over F_p: a stack of int64 matrices eliminated at once,
  fraction-free; rank_mod is the same kernel on a stack of one, such as
  the remainder of a Macaulay matrix after its singleton peel over Z
  (_peel_singletons, which removes all rows with a singleton column at
  once, in rounds).
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
    """Rank over F_p of one matrix: rank_gauss_mod on a stack of one."""
    return int(rank_gauss_mod(np.asarray(matrix, dtype=np.int64)[None], p)[0])


def rank_gauss_mod(stack: np.ndarray, p: int) -> np.ndarray:
    """Rank over F_p of each matrix in an (n, rows, cols) stack; a p that
    fails exactnum.check_modulus (a prime below 2^31) raises ValueError.

    All are eliminated at once, fraction-free in the style of Bareiss
    (Math. Comp. 22, 1968), a column c at a time: each matrix pivots on its
    first free row r (not yet pivoted on) with a_rc != 0, and only its
    other free rows with a nonzero in column c are updated, from column c
    on, by row_i <- a_rc row_i - a_ic row_r.  Pivot rows stay as they are, so
    each matrix ends in row-echelon form.  Entries stay in [0, p), so each
    product is below p^2 < 2^62 and no difference leaves int64.
    """
    check_modulus(p)
    A = np.asarray(stack, dtype=np.int64) % p
    n, rows, cols = A.shape
    pivoted = np.zeros((n, rows), dtype=bool)
    pivot_of = np.zeros(n, dtype=np.intp)
    for c in range(cols):
        if pivoted.all():
            break
        candidates = (A[:, :, c] != 0) & ~pivoted
        pivoting = np.flatnonzero(candidates.any(axis=1))
        if not pivoting.size:
            continue
        pivot = candidates[pivoting].argmax(axis=1)
        pivoted[pivoting, pivot] = True
        candidates[pivoting, pivot] = False
        mats, below = np.nonzero(candidates)
        if mats.size:
            pivot_of[pivoting] = pivot
            row = A[mats, pivot_of[mats], c:]
            target = A[mats, below, c:]
            A[mats, below, c:] = (target * row[:, :1] - target[:, :1] * row) % p
    return pivoted.sum(axis=1)
