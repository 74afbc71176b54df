"""Reference implementations that the tests check the package against."""

from fractions import Fraction

import numpy as np

from heisencheck.hilbert import _monomial_exps
from heisencheck.mpoly import SparsePoly, graded_monomials


def partial(f: SparsePoly, i: int) -> SparsePoly:
    """d f / d x_i."""
    return SparsePoly(f.nvars, {
        tuple(e - (k == i) for k, e in enumerate(exps)): c * exps[i]
        for exps, c in f.terms.items() if exps[i]
    })


# -- the slow paths behind linalg.rank_mod and hilbert._macaulay_rows ----------


def dense_rank_mod(matrix: np.ndarray, p: int) -> int:
    """Rank over F_p, updating every row below each pivot."""
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


def degree_rows(generators: list[SparsePoly], nvars: int, t: int):
    """Monomial-killed columns plus coefficient rows of non-monomial multiples."""
    basis = graded_monomials(nvars, t)
    col = {m: i for i, m in enumerate(basis)}
    killed: set[int] = set()
    poly_rows: list[dict[int, Fraction]] = []
    for g in generators:
        dg = g.degree()
        if dg > t or g.is_zero():
            continue
        exps = _monomial_exps(g)
        if exps is not None:
            for m in graded_monomials(nvars, t - dg):
                shifted = tuple(a + b for a, b in zip(exps, m))
                killed.add(col[shifted])
        else:
            for m in graded_monomials(nvars, t - dg):
                row = {}
                for e, c in g.terms.items():
                    shifted = tuple(a + b for a, b in zip(e, m))
                    row[col[shifted]] = Fraction(c)
                poly_rows.append(row)
    return len(basis), killed, poly_rows


def project_rows(killed: set[int], poly_rows, ncols: int):
    """Restrict rows to surviving columns; returns (new width, sparse rows)."""
    survivors = [c for c in range(ncols) if c not in killed]
    remap = {c: i for i, c in enumerate(survivors)}
    dense = []
    seen = set()
    for row in poly_rows:
        entries = tuple(sorted((remap[c], v) for c, v in row.items() if c not in killed and v))
        if not entries or entries in seen:
            continue
        seen.add(entries)
        dense.append(entries)
    return len(survivors), dense
