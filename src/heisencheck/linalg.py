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
    """Rank over F_p; entries and intermediates stay below int64 overflow."""
    A = np.array(matrix, dtype=np.int64, copy=True) % p
    rows, cols = A.shape
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.nonzero(A[r:, c])[0]
        if nz.size == 0:
            continue
        pivot = r + int(nz[0])
        if pivot != r:
            A[[r, pivot]] = A[[pivot, r]]
        inv = pow(int(A[r, c]), p - 2, p)
        A[r, c:] = (A[r, c:] * inv) % p
        factors = A[r + 1:, c:c + 1]
        if factors.size:
            A[r + 1:, c:] = (A[r + 1:, c:] - factors * A[r:r + 1, c:]) % p
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
