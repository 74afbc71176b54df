"""Enumeration of projective space over prime fields.

Two enumerators share the scan order of canonical points (leading
coordinate 1, the coordinates before it 0, the rest lexicographic).

The rank census ranks one point per orbit of a torus.  The element
t: x_k -> xi^(k^2) x_k of the Heisenberg normalizer (xi of order d)
carries the quadric matrix to S(t x) = D S(x) D with D = diag(xi^(2i^2)),
so rank is constant on its orbits.  For d = 11 every weight difference
k^2 - l^2 is a unit mod 11, so t moves the first nonzero free coordinate of
a canonical point through its whole coset of mu_11 and fixes only the
coordinate points: the census enumerates every point of P^4 but ranks
only those whose first nonzero free coordinate is the least element of its
coset, an eleventh of them, and counts each for 11.  For d = 9 some orbits
have 3 points, and every point is ranked.  The tests keep the full scan as
the oracle.

Strata of the skew quadric matrix are classified through Pfaffian
vanishing (for an alternating matrix, rank < 2k+2 exactly when all
(2k+2)-Pfaffians vanish), evaluated as vectorized arithmetic over a block
of points at once.  Each census keeps every step-th point it ranks,
moves point i by t^(i mod h), and re-ranks them all at the end in one call,
by exact elimination on the evaluated entries, apart from the kernel's
entry gather; so one call checks the kernel and the invariance together.
The minimal stratum is rebuilt from the orbits of its representatives,
re-ranked by the kernel and sorted into scan order.

For d = 11 the rank-4 locus is cut out by one polynomial, the sextic
Pfaffian, so the kernel decides the top rank from a single leading
Pfaffian per point: the full Pfaffian for d = 11, the principal 4x4
Pfaffian on {0, 1, 2, 3} for d = 9.  It is taken from the symbolic matrix
once per d and split into coefficient polynomials of the powers of the
last coordinate.  A run is the rows that agree in every coordinate but the
last: q rows in scan order, or the single point (0, ..., 0, 1).  The
enumerator yields cache-sized blocks (SCAN_BLOCK rows) of whole runs, or
pieces of one run when q exceeds the block size, and never divides the
point index to fill a column: a coordinate that changes every s rows
repeats with period s q, so where that period fits a block its column is
one contiguous copy out of a pattern (0, ..., q-1, each s times, tiled),
built once per enumeration; a longer period is a (rows/s, s) view assigned
its digits.  A block holds its coordinates in the narrowest unsigned type
that holds q-1 (np.min_scalar_type: one byte per coordinate up to q = 256,
two up to 65536, four above); polynomial evaluation and the 4x4 Pfaffians
widen them to int64 before they multiply, and Horner's rule casts the last
coordinate once into its own lane.  The census takes the representatives
from each block as views of its contiguous stretches of whole runs, apart
from each lead's head (the points whose only nonzero free coordinate is
the last), a partial run filtered row by row.  The kernel tests once per
call, with one compare of the prefix columns read as a (runs, q, m-1)
view, whether the rows are whole runs.  If so it evaluates the
coefficients once per run, at its first row; if not, at every row.  Either
way it finishes every point by Horner's rule, so any rows in any order get
exact values, in the narrowest unsigned lane that holds its unreduced
bound (uint32 for d = 11 at q = 67, uint16 for d = 9 at q = 109, uint64
with reductions past 2^64), and never reduces the result: q divides the
accumulator exactly where its product with q^-1 mod 2^bits (bits the
lane's width) is at most (2^bits - 1) / q (Granlund and Montgomery), one
multiply and one compare.  That needs q odd, which every census prime is
(q = 1 mod 9 or mod 11).

Only where the leading Pfaffian vanishes (about 1/q of the points) is the
rank told apart from 2.  Every upper entry of the matrix is +/-x_a x_b, so
all of them come from one gather-multiply, and row 0 is
(x_0^2, ..., x_(m-1)^2), so some a_0i is nonzero at every point.  If every
Pfaffian through index 0, Pf_0ijk = a_0i a_jk - a_0j a_ik + a_0k a_ij,
vanishes, then a_jk = (a_0j a_ik - a_0k a_ij) / a_0i and the matrix is
(r_0 ^ r_i) / a_0i, of rank 2; so those C(m, 3) Pfaffians decide rank <= 2
and rank 0 never occurs at a point.  At a coordinate point e_k the only
nonzero upper entry is a_(0,k+1) = x_k^2, so over every F_q the minimal
rank is 2 and the coordinate points lie in that stratum; the check
scan.d11.q23 asserts both facts of its census.

Every reduction mod q is x - (x // q) q, which numpy computes without a
hardware divide, and it is made only when the next multiply or add could
reach 2^63 (2^64 in Horner's uint64 lane), or where a value mod q is
returned.  Every entry point takes q through exactnum.check_modulus, a
prime below 2^31, so each product of two residues is below 2^62.

The common-zero sieve (common_zeros) finds the points where a system of
polynomials vanishes without visiting every point.  It assigns one
coordinate at a time and imposes each polynomial as soon as all of its
variables are assigned, so a partial point that a polynomial kills is
never extended.  The Jacobian quadrics x_i^2 + 2 x_(i+1) x_(i+2) involve
three consecutive coordinates each, which keeps about q partial points
alive per stage instead of q^4 points overall.  A stage holds at most
SCAN_BLOCK rows, the census block size.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

import numpy as np

from .exactnum import CycloNum, check_modulus, cyclo_mod, fraction_mod, nth_root_in_prime_field
from .heisenberg import PminusChart, s_matrix
from .linalg import rank_gauss_mod
from .mpoly import SparsePoly
from .pfaffian import SkewMatrix
from .surface9 import special_points_d9
from . import golden

CROSS_CHECK_SAMPLES = 512


@dataclass(frozen=True)
class StratumCensus:
    d: int
    q: int
    counts: dict  # rank -> number of points
    min_rank: int
    min_rank_points: tuple[tuple[int, ...], ...]

    def total(self) -> int:
        return sum(self.counts.values())


def projective_point_count(ncoords: int, q: int) -> int:
    return (q ** ncoords - 1) // (q - 1)


def check_scan_prime(d: int, q: int) -> None:
    """Reject a (d, q) that the census cannot scan exactly."""
    if d not in (9, 11):
        raise ValueError("d must be 9 or 11")
    check_modulus(q)
    if (q - 1) % d != 0:
        raise ValueError(f"{d} must divide {q}-1 so roots of unity reduce")


# rows per census block and per common-zero sieve stage; the (runs, q)
# kernel is fastest when a block's columns stay in cache
SCAN_BLOCK = 1 << 17


def point_blocks(ncoords: int, q: int, block_size: int = SCAN_BLOCK):
    """Canonical points of P^(ncoords-1)(F_q) in scan order, in blocks.

    Scan order: by position of the leading 1, then lexicographically in
    the free coordinates.  No block holds more than block_size rows, nor
    rows of two leading positions.  A run (the rows that agree in every
    coordinate but the last) is split only when q > block_size; otherwise
    every block holds whole runs.  Block boundaries never change the
    enumeration, so partitioned runs merge to identical censuses.

    Every block holds the narrowest unsigned type that holds q - 1
    (np.min_scalar_type: uint8 up to q = 256, uint16 up to 65536, uint32
    above), so a coordinate takes one byte at the census primes; the
    kernels cast the entries to a wider lane before they multiply them.

    The free coordinate that changes every s rows (s = q^k for the k-th
    from the last) holds (start + i) // s % q at row i of a block starting
    at start, a column of period s q.  Where that period fits a block,
    the column is one contiguous copy out of a pattern built once per call:
    0, ..., q-1 each repeated s times, tiled to step + s q rows (fewer if
    the enumeration is shorter), read from start mod s q.  Longer periods, and every column when
    q > block_size, are filled by _fill_digit, so no pattern is built then.
    """
    dtype = np.min_scalar_type(q - 1)
    # every lead position with a free coordinate starts its blocks at
    # multiples of step, and none has more rows than the first one's
    # q^(ncoords-1), so a block reads a pattern no further than either
    step = block_size // q * q or block_size
    longest = q ** (ncoords - 1)
    patterns = []  # patterns[k] is the column of stride q^k
    period = q
    while period <= block_size and len(patterns) < ncoords - 1:
        digits = np.repeat(np.arange(q, dtype=dtype), period // q)
        patterns.append(np.resize(digits, min(step + period, longest)))
        period *= q
    for lead in range(ncoords):
        free = ncoords - lead - 1
        total = q ** free
        for start in range(0, total, step if free else 1):
            size = min(step, total - start)
            # column-major, so each coordinate is one contiguous array
            block = np.empty((ncoords, size), dtype=dtype).T
            block[:, :lead] = 0
            block[:, lead] = 1
            for k, pattern in enumerate(patterns[:free]):
                offset = start % q ** (k + 1)
                block[:, ncoords - 1 - k] = pattern[offset:offset + size]
            for k in range(len(patterns), free):
                _fill_digit(block[:, ncoords - 1 - k], start, q ** k, q)
            yield block
            # so the caller holds the only reference while the next is built
            del block


def _fill_digit(column: np.ndarray, start: int, s: int, q: int) -> None:
    """column[i] = (start + i) // s % q, assigned one segment of s rows at a time."""
    head = min(column.shape[0], -start % s)
    column[:head] = start // s % q
    first = -(-start // s)
    segments = (column.shape[0] - head) // s
    end = head + segments * s
    if segments:  # a (0, s) view cannot be made for s beyond int64
        # digits in the column's type: a broadcast that also casts is ten times slower
        digits = ((first + np.arange(segments)) % q).astype(column.dtype)
        column[head:end].reshape(segments, s)[:] = digits[:, None]
    column[end:] = (first + segments) % q


def _reduce(x: np.ndarray, q: int) -> np.ndarray:
    """x mod q in place, into [0, q); returns x.

    numpy divides int64 or uint64 by a scalar without the hardware divide, so
    x - (x // q) q is about twice as fast as np.remainder.
    """
    x -= x // q * q
    return x


def evaluate_poly_batch(f: SparsePoly, X: np.ndarray, q: int) -> np.ndarray:
    """Values of f at each row of X, mod q; coefficients must be rational,
    and a cyclotomic one raises ValueError, as does a q that fails
    exactnum.check_modulus (a prime below 2^31).

    Entries of X must lie in (-q, q), in any integer type: the point blocks
    hold the narrowest unsigned one.  Every term is an int64 array from its
    first multiply (dtype=np.int64), so each later factor widens into it and
    no product is taken in the narrow type.  As in _horner, bounds on the
    absolute values of the term and of the running total are tracked, and each is
    reduced only when the next step could reach 2^63: a term is kept below
    2^63 - q, so it can always be added to a reduced total, and right after
    a reduction a product is below q^2 < 2^62.  So at the largest primes
    every step reduces, and at q = 67 only the total, once.
    """
    check_modulus(q)
    limit = 2 ** 63
    total = np.zeros(X.shape[0], dtype=np.int64)
    total_bound = 0
    for exps, coeff in f.terms.items():
        if isinstance(coeff, CycloNum):
            raise ValueError("cyclotomic coefficient has no reduction mod q")
        c = fraction_mod(coeff, q)
        if not c:
            continue
        factors = [X[:, i] for i, e in enumerate(exps) for _ in range(e)]
        term, bound = c, c
        if factors:
            term = np.multiply(factors[0], c, dtype=np.int64)
            bound *= q - 1
        for x in factors[1:]:
            if bound * (q - 1) + q - 1 >= limit:
                term, bound = _reduce(term, q), q - 1
            term *= x
            bound *= q - 1
        if total_bound + bound >= limit:
            total, total_bound = _reduce(total, q), q - 1
        total += term
        total_bound += bound
    return _reduce(total, q)


def common_zeros(polys: list[SparsePoly], ncoords: int, q: int,
                 block_size: int = SCAN_BLOCK) -> np.ndarray:
    """Canonical points of P^(ncoords-1)(F_q) where every polynomial vanishes.

    Rows come in scan order, the order of point_blocks.  Points are built
    one coordinate at a time, and each polynomial is imposed as soon as its
    last variable is assigned; no stage holds more than block_size rows.
    """
    check_modulus(q)
    if any(f.nvars != ncoords for f in polys):
        raise ValueError(f"every polynomial must have {ncoords} variables")
    # the last variable each polynomial involves; -1 for a constant
    last = [max((v for exps in f.terms for v, e in enumerate(exps) if e), default=-1)
            for f in polys]
    found = []
    for lead in range(ncoords):
        due = [[] for _ in range(ncoords)]
        for f, v in zip(polys, last):
            due[max(v, lead)].append(f)
        start = np.zeros((1, lead + 1), dtype=np.int64)
        start[0, lead] = 1
        found.extend(_sieve(start, due, q, block_size))
    return np.concatenate(found) if found else np.empty((0, ncoords), dtype=np.int64)


def _sieve(partial: np.ndarray, due: list[list[SparsePoly]], q: int, block_size: int):
    """Complete zeros extending the partial points, in blocks, in scan order.

    due[k] holds the polynomials to impose once coordinate k is assigned.
    """
    stage = partial.shape[1] - 1
    for f in due[stage]:
        partial = partial[evaluate_poly_batch(f, partial, q) == 0]
    if stage == len(due) - 1:
        if partial.shape[0]:
            yield partial
        return
    # candidate t is partial row t // q extended by the value t % q
    total = partial.shape[0] * q
    for begin in range(0, total, block_size):
        t = np.arange(begin, min(begin + block_size, total), dtype=np.int64)
        rows, value = np.divmod(t, q)
        # column-major, so each coordinate is one contiguous array
        extended = np.empty((stage + 2, t.size), dtype=np.int64).T
        for c in range(stage + 1):
            np.take(partial[:, c], rows, out=extended[:, c])
        extended[:, -1] = value
        yield from _sieve(extended, due, q, block_size)


@lru_cache(maxsize=None)
def _leading_pfaffian(d: int) -> tuple[SparsePoly, ...]:
    """The leading Pfaffian of s_matrix(d) as c_0 + c_1 t + ... + c_k t^k.

    t is the last coordinate and no c_j involves it.  The leading Pfaffian
    is the full Pfaffian for even size (d = 11) and the principal 4x4
    Pfaffian on {0, 1, 2, 3} for odd size (d = 9).
    """
    matrix = s_matrix(d)
    pf = matrix.pf_on(tuple(range(4 if matrix.size % 2 else matrix.size)))
    last = pf.nvars - 1
    coeffs = [{} for _ in range(1 + max(exps[last] for exps in pf.terms))]
    for exps, c in pf.terms.items():
        coeffs[exps[last]][exps[:last] + (0,)] = c
    return tuple(SparsePoly(pf.nvars, terms) for terms in coeffs)


def _horner(coeffs_from_top, t: np.ndarray, q: int) -> np.ndarray:
    """sum_j c_j t^j given c_k, ..., c_0 in [0, q), congruent to it mod q
    but not reduced, in the narrowest unsigned lane that holds it.

    Each c_j broadcasts against t, e.g. one value per run, shape (runs, 1),
    against the last coordinates, shape (runs, L), in any integer type.
    Unreduced, the value is at most q-1, (q-1)^2 + q-1, ..., one step per
    coefficient; the lane is np.min_scalar_type of that bound, as
    point_blocks picks coordinates, and the coefficients and t are cast to
    it once (a cast inside every multiply is slower).  A bound of 2^64 or
    more takes uint64, reduced where the next step could reach 2^64; right
    after a reduction a step is below q^2 < 2^62.
    """
    bound = q - 1
    for _ in coeffs_from_top[1:]:
        bound = bound * (q - 1) + q - 1
    lane = np.min_scalar_type(bound) if bound < 2 ** 64 else np.dtype(np.uint64)
    top, *rest = (c.astype(lane, copy=False) for c in coeffs_from_top)
    t = t.astype(lane, copy=False)
    acc = np.empty(np.broadcast_shapes(top.shape, t.shape), dtype=lane)
    acc[...] = top
    bound = q - 1
    for c in rest:
        if bound * (q - 1) + q - 1 >= 2 ** 64:
            _reduce(acc, q)
            bound = q - 1
        acc *= t
        acc += c
        bound = bound * (q - 1) + q - 1
    return acc


def _multiple_of(n: np.ndarray, q: int) -> np.ndarray:
    """n % q == 0 for odd q and unsigned n, or int64 n in [0, 2^63), by
    one multiply; n is overwritten.

    Granlund-Montgomery (PLDI 1994; Lemire, Kaser and Kurz 2019): with bits
    the width of n, q is a unit mod 2^bits, so n -> n q^-1 mod 2^bits
    permutes [0, 2^bits) and carries the multiples k q,
    0 <= k <= floor((2^bits - 1) / q), to k; so q divides n exactly where
    n q^-1 mod 2^bits <= floor((2^bits - 1) / q).  That is one wrapping
    multiply in the lane of n and one compare, in place of x - (x // q) q
    and a compare with 0.
    """
    lane = np.dtype(f"u{n.itemsize}")
    bits = 8 * n.itemsize
    wrapped = n.view(lane)
    wrapped *= lane.type(pow(q, -1, 2 ** bits))  # ValueError for even q
    return wrapped <= lane.type((2 ** bits - 1) // q)


def _leading_pfaffian_vanishes(d: int, q: int, pts: np.ndarray) -> np.ndarray:
    """Where the leading Pfaffian vanishes mod q, as a boolean mask over the
    rows; by Horner in the last coordinate.

    When the rows are whole runs (n a multiple of q, and each q consecutive
    rows share their prefix, decided by one compare over the whole block)
    each coefficient polynomial is evaluated once per run, at its first row.
    A block that is not whole runs is evaluated row by row, so any rows in
    any order get exact values.

    The rows may hold any integer type (point_blocks gives the narrowest
    unsigned one).  The coefficients are evaluated in int64, and _horner
    runs in its own unsigned lane; its accumulator is never reduced mod q:
    _multiple_of tests it, which needs q odd.  Every census prime is:
    check_scan_prime takes only q = 1 mod 9 or mod 11, and q = 2 is
    neither.
    """
    n, m = pts.shape
    length = 1
    if n % q == 0:
        # a view, since splitting the row axis needs no copy
        prefix = pts[:, :-1].reshape(n // q, q, m - 1)
        if (prefix == prefix[:, :1]).all():
            length = q
    first = pts[::length]
    coeffs = [evaluate_poly_batch(c, first, q)[:, None] for c in _leading_pfaffian(d)[::-1]]
    return _multiple_of(_horner(coeffs, pts[:, -1].reshape(-1, length), q), q).reshape(n)


@lru_cache(maxsize=None)
def _entry_gather(d: int):
    """The entries of s_matrix(d) as a gather table, and its Pfaffians through 0.

    Column e of the entry values is sign[e] * x_first[e] * x_second[e],
    over the upper entries in sorted (i, j) order.  Each Pfaffian
    Pf_0ijk = a_0i a_jk - a_0j a_ik + a_0k a_ij, 1 <= i < j < k, is the
    three column pairs (0i, jk), (0j, ik), (0k, ij).
    """
    matrix = s_matrix(d)
    pairs = sorted(matrix.upper)
    column = {e: c for c, e in enumerate(pairs)}
    first, second, sign = [], [], []
    for e in pairs:
        (exps, coeff), = matrix.upper[e].terms.items()
        a, b = [v for v, k in enumerate(exps) for _ in range(k)]
        first.append(a)
        second.append(b)
        sign.append(int(coeff))
    pfaffians = tuple(
        ((column[0, i], column[j, k]), (column[0, j], column[i, k]), (column[0, k], column[i, j]))
        for i, j, k in combinations(range(1, matrix.size), 3))
    table = tuple(np.array(index) for index in (first, second, sign))
    for index in table:
        index.flags.writeable = False  # the cache hands it to every caller
    return (*table, pfaffians)


def _batch_ranks(d: int, q: int, pts: np.ndarray) -> np.ndarray:
    """Rank of s_matrix(d) at every row of pts (coordinates in [0, q)).

    The leading Pfaffian decides the top rank at almost every point.  Only
    where it vanishes are the entries evaluated, by one gather-multiply,
    and the Pfaffians through index 0 computed in closed form, each only
    where all before it vanish; rank <= 2 exactly where they all vanish
    (see the module docstring).
    """
    matrix = s_matrix(d)
    # a nonzero leading Pfaffian gives the largest even rank of the matrix
    ranks = np.full(pts.shape[0], matrix.size - matrix.size % 2, dtype=np.int8)
    if not pts.shape[0]:
        return ranks
    low = np.flatnonzero(_leading_pfaffian_vanishes(d, q, pts))
    ranks[low] = 4
    first, second, sign, pfaffians = _entry_gather(d)
    sub = pts[low]
    val = np.multiply(sub[:, first], sub[:, second], dtype=np.int64)
    val *= sign
    _reduce(val, q)
    # each product of residues is below q^2 < 2^62, so pf lies in
    # [-(q-1)^2, 2 (q-1)^2]
    for (a, b), (c, e), (f, g) in pfaffians:
        pf = val[:, a] * val[:, b]
        pf -= val[:, c] * val[:, e]
        pf += val[:, f] * val[:, g]
        vanish = _reduce(pf, q) == 0
        val, low = val[vanish], low[vanish]
        if not low.size:
            break
    ranks[low] = 2
    # the zero row is no projective point; every entry vanishes there
    ranks[low[~pts[low].any(axis=1)]] = 0
    return ranks


def evaluate_skew_mod(matrix: SkewMatrix, points: np.ndarray, q: int) -> np.ndarray:
    """Values mod q of the matrix at each row of points, an (n, m, m) stack."""
    stack = np.zeros((points.shape[0], matrix.size, matrix.size), dtype=np.int64)
    for (i, j), f in matrix.upper.items():
        stack[:, i, j] = evaluate_poly_batch(f, points, q)
        stack[:, j, i] = -stack[:, i, j] % q
    return stack


def rank_at_point(d: int, q: int, points: np.ndarray) -> np.ndarray:
    """Exact elimination rank of the quadric matrix at each row of points."""
    return rank_gauss_mod(evaluate_skew_mod(s_matrix(d), points, q), q)


def torus_weights(d: int) -> tuple[int, ...]:
    """Weights of the torus element t: x_k -> xi^(k^2) x_k, k = 1..(d-1)/2.

    Entry (i, j) of s_matrix(d) is +/-x_(j-i) x_(j+i), of weight
    (j-i)^2 + (j+i)^2 = 2i^2 + 2j^2, so S(t x) = D S(x) D with
    D = diag(xi^(2i^2)) and rank is constant on the orbits of t.
    """
    return tuple(k * k % d for k in range(1, (d + 1) // 2))


def torus_order(d: int) -> int:
    """The orbit size h the census divides by: d when every weight
    difference is a unit mod d, 1 otherwise.

    For such d, xi^(j (w_k - w_l)) = 1 forces j = 0 mod d, so every point
    with two nonzero coordinates has an orbit of exactly d points; the
    coordinate points are fixed.  For d = 9 the weights 1, 4, 0, 7 differ
    by 3 and some orbits have size 3, so nothing is divided.
    """
    weights = torus_weights(d)
    free = all(math.gcd(a - b, d) == 1 for a, b in combinations(weights, 2))
    return d if free else 1


def _least_table(h: int, q: int) -> np.ndarray | None:
    """least[v] for v in F_q: v is the least element of its coset of mu_h
    in F_q^* (never v = 0; (q-1)/h entries are set), or None for h = 1.

    v is least when v < v xi^j mod q for every j = 1..h-1.  The table is
    filled SCAN_BLOCK entries at a time, so besides its q bytes only
    block-sized temporaries are alive.
    """
    if h == 1:
        return None
    xi = nth_root_in_prime_field(h, q)
    roots = [pow(xi, j, q) for j in range(1, h)]
    least = np.zeros(q, dtype=bool)
    for start in range(1, q, SCAN_BLOCK):
        x = np.arange(start, min(start + SCAN_BLOCK, q), dtype=np.int64)
        piece = least[start:start + len(x)]
        piece[:] = True
        for root in roots:
            piece &= x < x * root % q
    return least


def _first_nonzero(cols: np.ndarray) -> np.ndarray:
    """The first nonzero entry of each row, or 0 in a zero row (every row
    when cols has no columns), in the type of cols."""
    first = np.zeros(cols.shape[0], dtype=cols.dtype)
    for c in range(cols.shape[1] - 1, -1, -1):
        np.copyto(first, cols[:, c], where=cols[:, c] != 0)
    return first


def _orbit_representatives(block: np.ndarray, least: np.ndarray | None, q: int):
    """The rows of a point_blocks block that the census ranks, in pieces,
    in scan order: the whole block when least is None; otherwise the
    coordinate point and the rows whose first nonzero free coordinate v
    has least[v].

    A block of a multiple of q rows is whole runs (point_blocks splits a
    run only when q > block_size), and every run but the lead's head (the
    rows whose only nonzero free coordinate is the last, which come first)
    is taken or left by its prefix.  The head is filtered row by row into
    a piece of its own; the runs taken come as views of their contiguous
    stretches, so the kernel still evaluates once per run and nothing the
    size of the block is copied.
    """
    n, m = block.shape
    lead = int(np.argmax(block[0] != 0))
    if least is None or lead == m - 1:
        yield block
        return
    run = q if n % q == 0 else 1
    first = _first_nonzero(block[::run, lead + 1:-1])
    head = run * int(np.count_nonzero(first == 0))
    if head:
        last = block[:head, -1]
        yield block[:head][(last == 0) | least[last]]
    edges = np.flatnonzero(np.diff(least[first].view(np.int8), prepend=0, append=0))
    for start, stop in zip(edges[::2], edges[1::2]):
        yield block[start * run:stop * run]


def _torus_powers(d: int, h: int, q: int) -> np.ndarray:
    """Row j scales coordinate k by xi^(j w_k) mod q: the action of t^j."""
    xi = nth_root_in_prime_field(h, q)
    return np.array([[pow(xi, j * w, q) for w in torus_weights(d)] for j in range(h)],
                    dtype=np.int64)


def _scan_key(point: tuple[int, ...]):
    """Scan order of canonical points: leading position, then coordinates."""
    return next(i for i, c in enumerate(point) if c), point


def scan_strata(d: int, q: int, block_size: int = SCAN_BLOCK) -> StratumCensus:
    """Rank census of s_matrix(d) over P^((d-3)/2)(F_q).

    Every canonical point is enumerated, and one representative per
    orbit of the torus t (torus_order(d) points) is ranked and counted for
    its whole orbit: a coordinate point is fixed, and every other orbit
    meets the canonical points whose first nonzero free coordinate is a
    least coset representative of mu_h once.
    Every step-th representative i, moved by t^(i mod h), is re-ranked by
    elimination in one call, and the minimal stratum is rebuilt from its
    representatives' orbits, re-ranked by the kernel and sorted into scan
    order.
    """
    check_scan_prime(d, q)
    ncoords = (d - 1) // 2
    h = torus_order(d)
    powers = _torus_powers(d, h, q)
    total = ncoords + (projective_point_count(ncoords, q) - ncoords) // h
    step = max(1, total // CROSS_CHECK_SAMPLES)  # global, partition-independent

    possible = [0, 2, 4] + ([6] if d == 11 else [])
    counts = {r: 0 for r in possible}
    # the minimal stratum is tiny (the census contract reports its points);
    # higher strata grow like q^3 and only their counts are kept
    collected: dict[int, list] = {0: [], 2: []}
    # every step-th representative in scan order, its kernel rank in the
    # last column
    samples = np.empty((-(-total // step), ncoords + 1), dtype=np.int64)
    top = possible[-1]
    offset = sampled = 0
    least = _least_table(h, q)
    for block in point_blocks(ncoords, q, block_size):
        for pts in _orbit_representatives(block, least, q):
            ranks = _batch_ranks(d, q, pts)
            # counts and points come from the few rows below the top rank,
            # among them the coordinate points (rank 2), each its own orbit
            below = np.flatnonzero(ranks < top)
            low = ranks[below]
            fixed = np.count_nonzero(pts[below], axis=1) == 1
            by_rank = (h * np.bincount(low, minlength=top)
                       - (h - 1) * np.bincount(low[fixed], minlength=top))
            counts[top] += h * (pts.shape[0] - below.size)
            for r in possible[:-1]:
                counts[r] += int(by_rank[r])
            for r in collected:
                for row in pts[below[low == r]]:
                    collected[r].append(tuple(int(c) for c in row))
            picked = slice((-offset) % step, None, step)
            filled = sampled + len(ranks[picked])
            samples[sampled:filled, :-1] = pts[picked]
            samples[sampled:filled, -1] = ranks[picked]
            sampled = filled
            offset += pts.shape[0]
            del pts  # a view of the block
        # free the block before point_blocks builds the next one
        del block

    assert offset == total and sampled == samples.shape[0]
    # rank ignores scaling, so the moved samples need no normalizing
    moved = samples[:, :-1] * powers[np.arange(sampled) % h] % q
    wrong = np.flatnonzero(rank_at_point(d, q, moved) != samples[:, -1])
    if wrong.size:
        i = wrong[0]
        point = tuple(int(c) for c in samples[i, :-1])
        raise AssertionError(
            f"Pfaffian stratification disagrees with elimination at point {point} "
            f"moved by t^{i % h} to {tuple(int(c) for c in moved[i])}")
    # at a coordinate point e_k the only nonzero upper entry is
    # a_(0,k+1) = x_k^2, so rank 2 occurs over every F_q and the minimal
    # stratum is always one of the collected ranks
    min_rank = min(r for r in possible if counts[r])
    points = _orbit_points(np.array(collected[min_rank], dtype=np.int64), powers, q)
    if len(points) != counts[min_rank] or (_batch_ranks(d, q, np.array(points)) != min_rank).any():
        raise AssertionError(f"the torus orbits of the rank-{min_rank} points are not the "
                             f"{counts[min_rank]} rank-{min_rank} points")
    return StratumCensus(d=d, q=q, counts=counts, min_rank=min_rank, min_rank_points=points)


def _orbit_points(reps: np.ndarray, powers: np.ndarray, q: int) -> tuple[tuple[int, ...], ...]:
    """The canonical points of the torus orbits of canonical reps, in scan order."""
    lead = np.argmax(reps != 0, axis=1)
    # t^j moves the leading 1 to xi^(j w_lead); t^-j is row -j of powers
    inverse = powers[-np.arange(len(powers)) % len(powers)][:, lead].T
    orbit = reps[:, None, :] * powers % q * inverse[:, :, None] % q
    return tuple(sorted({tuple(int(c) for c in row) for row in orbit.reshape(-1, reps.shape[1])},
                        key=_scan_key))


def find_stratum_point(d: int, q: int, target_rank: int) -> tuple[int, ...] | None:
    """Coordinates of the first canonical point (scan order) whose matrix has
    the target rank over F_q."""
    check_scan_prime(d, q)
    for pts in point_blocks((d - 1) // 2, q):
        ranks = _batch_ranks(d, q, pts)
        hits = np.nonzero(ranks == target_rank)[0]
        if hits.size:
            return tuple(int(c) for c in pts[hits[0]])
    return None


# -- d = 9 oracle sets -----------------------------------------------------------


def ci_curve_points_d9(q: int) -> set[tuple[int, ...]]:
    """Common zeros in P^3(F_q) of the two golden complete-intersection cubics."""
    cubics = golden.load_poly_list("ci_curve_d9.txt", [f"x{i}" for i in range(1, 5)])
    return {tuple(int(c) for c in row) for row in common_zeros(cubics, 4, q)}


def special_points_d9_mod(q: int) -> set[tuple[int, ...]]:
    """Reductions of the four isolated rank-2 points, as canonical chart points."""
    check_modulus(q)
    root = nth_root_in_prime_field(9, q)
    out = set()
    for P in special_points_d9():
        coords = [cyclo_mod(c, root, q) for c in PminusChart(9).restrict_point(P)]
        lead = next(c for c in coords if c)
        inv = pow(lead, -1, q)
        out.add(tuple(c * inv % q for c in coords))
    return out


# -- smoothness scan -------------------------------------------------------------


def jacobian_zero_counts(q: int) -> dict:
    """Common projective zeros of the five quadrics x_i^2 + 2 x_(i+1) x_(i+2),
    alone ("jacobian") and together with the cubic itself ("system").

    By the Euler relation the two counts agree when q does not divide 3; at
    q = 3, where 1 + 2 = 0, (1:1:1:1:1) is a zero of the quadrics alone.
    """
    from .grassfano import jacobian_quadrics, klein_cubic

    if q == 2:
        raise ValueError("q = 2 degenerates the factor 2 in the system")
    zeros = common_zeros(jacobian_quadrics(), 5, q)
    # the cubic involves every variable, so it is imposed on complete points
    on_cubic = evaluate_poly_batch(klein_cubic(), zeros, q) == 0
    return {"jacobian": zeros.shape[0], "system": int(np.count_nonzero(on_cubic))}


# -- reporting -------------------------------------------------------------------


def census_csv(census: StratumCensus) -> str:
    buf = io.StringIO()
    buf.write("q,d,rank,count\n")
    for rank in sorted(census.counts):
        buf.write(f"{census.q},{census.d},{rank},{census.counts[rank]}\n")
    return buf.getvalue()

