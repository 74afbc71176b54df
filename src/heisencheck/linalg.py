"""Small exact linear algebra helpers: ranks over Q and over prime fields."""

from __future__ import annotations

from fractions import Fraction

import numpy as np


def rank_fraction(rows: list[list[Fraction]]) -> int:
    """Rank over Q by Gaussian elimination on Fraction entries."""
    mat = [list(map(Fraction, r)) for r in rows]
    if not mat:
        return 0
    ncols = len(mat[0])
    rank = 0
    for col in range(ncols):
        pivot = None
        for r in range(rank, len(mat)):
            if mat[r][col]:
                pivot = r
                break
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        pv = mat[rank][col]
        mat[rank] = [x / pv for x in mat[rank]]
        for r in range(len(mat)):
            if r != rank and mat[r][col]:
                f = mat[r][col]
                mat[r] = [x - f * y for x, y in zip(mat[r], mat[rank])]
        rank += 1
        if rank == len(mat):
            break
    return rank


def rank_mod(matrix: np.ndarray, p: int) -> int:
    """Rank over F_p for a prime p with 2 <= p < 2^31.

    Entries are reduced into [0, p), so every product of two of them stays
    below p^2 < 2^62 and no intermediate overflows int64; a larger p raises
    ValueError.  Each pivot updates only the rows below it with a nonzero in
    the pivot column, which on sparse Macaulay matrices is a small share.
    """
    if not 2 <= p < 2 ** 31:
        raise ValueError(f"rank_mod needs 2 <= p < 2^31, got p = {p}")
    A = np.array(matrix, dtype=np.int64, copy=True) % p
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


def rank_gauss_mod(rows: list[list[int]], q: int) -> int:
    """Pure-Python exact elimination over F_q, for small matrices."""
    mat = [[x % q for x in r] for r in rows]
    if not mat:
        return 0
    ncols = len(mat[0])
    rank = 0
    for col in range(ncols):
        pivot = None
        for r in range(rank, len(mat)):
            if mat[r][col]:
                pivot = r
                break
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        inv = pow(mat[rank][col], q - 2, q)
        mat[rank] = [x * inv % q for x in mat[rank]]
        for r in range(rank + 1, len(mat)):
            f = mat[r][col]
            if f:
                mat[r] = [(x - f * y) % q for x, y in zip(mat[r], mat[rank])]
        rank += 1
        if rank == len(mat):
            break
    return rank
