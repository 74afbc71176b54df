"""Reference implementations that the tests check the package against."""

import math
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from operator import mul

import numpy as np

from heisencheck.chartab import character_table, enumerate_group, inverse, multiply
from heisencheck.exactnum import (
    CycloNum,
    cyclotomic_polynomial,
    euler_phi,
    nth_root_in_prime_field,
    prime_factors,
)
from heisencheck.ffscan import (
    SCAN_BLOCK,
    StratumCensus,
    _batch_ranks,
    check_scan_prime,
    evaluate_poly_batch,
    point_blocks,
    projective_point_count,
)
from heisencheck.heisenberg import s_matrix, sigma
from heisencheck.linalg import _peel_singletons
from heisencheck.mpoly import SparsePoly, graded_monomials, grevlex_key, monomial_exponents


def partial(f: SparsePoly, i: int) -> SparsePoly:
    """d f / d x_i."""
    return SparsePoly(f.nvars, {
        tuple(e - (k == i) for k, e in enumerate(exps)): c * exps[i]
        for exps, c in f.terms.items() if exps[i]
    })


# -- the dense path behind linalg.rank_fraction ---------------------------------


def gauss_jordan_rank(rows: list[list[Fraction]]) -> int:
    """Rank over Q by Gauss-Jordan elimination on dense Fraction rows."""
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


# -- the slow paths behind linalg.rank_gauss_mod and hilbert._macaulay_matrices


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
        exps = monomial_exponents(g)
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


def row_loop_macaulay_matrices(generators: list[SparsePoly], nvars: int, t_max: int):
    """hilbert._macaulay_matrices one row at a time, from exponent tuples.

    Monomials are packed one tuple at a time, a row is a sorted tuple of
    (column, int) pairs, and a dict drops repeated rows, first one kept.
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
        rows = {}
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


# -- the whole-matrix path behind hilbert._macaulay_rank's peel over Z --------


def peel_dense(matrix: np.ndarray) -> tuple[int, np.ndarray]:
    """linalg._peel_singletons on a dense matrix: (peeled, the remainder)."""
    peeled, rows, cols = _peel_singletons(*np.nonzero(matrix), matrix.shape)
    return peeled, matrix[np.ix_(rows, cols)]


def peel_row_by_row(matrix: np.ndarray) -> tuple[int, list[int], list[int]]:
    """linalg._peel_singletons one row at a time on a dense matrix: drop the
    first row of the first singleton column until none is left; (peeled,
    live rows, live columns)."""
    live = np.ones(len(matrix), dtype=bool)
    while True:
        nonzero = matrix[live] != 0
        singleton = np.flatnonzero(nonzero.sum(axis=0) == 1)
        if not singleton.size:
            return (len(matrix) - int(live.sum()), np.flatnonzero(live).tolist(),
                    np.flatnonzero(nonzero.any(axis=0)).tolist())
        live[np.flatnonzero(live)[nonzero[:, singleton[0]].argmax()]] = False


# -- the slow path behind hilbert._standard_monomials ---------------------------


def divisor_loop_standard(generators, nvars: int, t_max: int) -> list[list[tuple]]:
    """The degree-t monomials no divisor divides, each tested against every
    divisor, in graded_monomials order; the slow path behind
    hilbert._standard_monomials."""
    divisors = [g if isinstance(g, tuple) else monomial_exponents(g) for g in generators]
    return [[m for m in graded_monomials(nvars, t)
             if not any(all(a <= b for a, b in zip(d, m)) for d in divisors)]
            for t in range(t_max + 1)]


def divisor_loop_hilbert(generators, nvars: int, t_max: int) -> list[int]:
    """Every degree-t monomial tested against every divisor."""
    return [len(s) for s in divisor_loop_standard(generators, nvars, t_max)]


# -- the slow paths behind ffscan.point_blocks and ffscan.common_zeros ---------


def canonical_points(ncoords: int, q: int) -> np.ndarray:
    """All canonical points at once, in scan order, by base-q digits.

    The slow path behind ffscan.point_blocks: point k of a lead position
    has the base-q digits of k as its free coordinates, split off with one
    divmod pass per coordinate.
    """
    blocks = []
    for lead in range(ncoords):
        total = q ** (ncoords - lead - 1)
        block = np.zeros((total, ncoords), dtype=np.int64)
        block[:, lead] = 1
        rem = np.arange(total, dtype=np.int64)
        for pos in range(ncoords - 1, lead, -1):
            rem, block[:, pos] = np.divmod(rem, q)
        blocks.append(block)
    pts = np.concatenate(blocks)
    assert pts.shape[0] == projective_point_count(ncoords, q)
    return pts


def scan_common_zeros(polys: list[SparsePoly], ncoords: int, q: int) -> np.ndarray:
    """Every polynomial evaluated at every canonical point; the zeros in scan order."""
    pts = canonical_points(ncoords, q)
    mask = np.ones(pts.shape[0], dtype=bool)
    for f in polys:
        mask &= evaluate_poly_batch(f, pts, q) == 0
    return pts[mask]


# -- the slow path behind ffscan._least_table ----------------------------------


def whole_field_least_table(h: int, q: int) -> np.ndarray:
    """least[v]: v < v xi^j mod q for every j = 1..h-1, with every unit of
    F_q compared at once (several q-long temporaries)."""
    xi = nth_root_in_prime_field(h, q)
    x = np.arange(1, q, dtype=np.int64)
    least = np.ones(q - 1, dtype=bool)
    for j in range(1, h):
        least &= x < x * pow(xi, j, q) % q
    return np.concatenate(([False], least))


# -- the slow path behind ffscan.scan_strata: every canonical point ranked ----


def full_scan_strata(d: int, q: int, block_size: int = SCAN_BLOCK) -> StratumCensus:
    """The census without the torus quotient, the slow path behind
    ffscan.scan_strata: every block of point_blocks and the same kernel,
    every canonical point counted once and the minimal stratum collected
    in scan order."""
    check_scan_prime(d, q)
    possible = [0, 2, 4] + ([6] if d == 11 else [])
    counts = dict.fromkeys(possible, 0)
    collected: dict[int, list] = {0: [], 2: []}
    for pts in point_blocks((d - 1) // 2, q, block_size):
        ranks = _batch_ranks(d, q, pts)
        by_rank = np.bincount(ranks, minlength=possible[-1] + 1)
        for r in possible:
            counts[r] += int(by_rank[r])
        for r in collected:
            collected[r].extend(tuple(int(c) for c in row) for row in pts[ranks == r])
    min_rank = min(r for r in possible if counts[r])
    return StratumCensus(d=d, q=q, counts=counts, min_rank=min_rank,
                         min_rank_points=tuple(collected[min_rank]))


# -- the per-point paths behind ffscan.rank_at_point ----------------------------


def evaluate_mod(f: SparsePoly, point, q: int) -> int:
    """Value in F_q of a polynomial with rational coefficients, one term at a time."""
    total = 0
    for exps, coeff in f.terms.items():
        c = coeff.numerator % q * pow(coeff.denominator, -1, q) % q
        for x, e in zip(point, exps):
            if e:
                c = c * pow(int(x) % q, e, q) % q
        total = (total + c) % q
    return total


def list_rank_mod(rows: list[list[int]], q: int) -> int:
    """Rank over F_q by Gaussian elimination on Python lists, one matrix at a time."""
    mat = [[x % q for x in r] for r in rows]
    if not mat:
        return 0
    rank = 0
    for col in range(len(mat[0])):
        pivot = next((r for r in range(rank, len(mat)) if mat[r][col]), None)
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


# -- the slow path behind ffscan._batch_ranks: every Pfaffian at every point ---


def closed_form_ranks(d: int, q: int, pts: np.ndarray) -> np.ndarray:
    """Rank of s_matrix(d) at every row of pts from closed-form Pfaffians.

    Every entry value x_a * x_b % q is computed at every point with its sign
    kept symbolic, every principal 4x4 Pfaffian is
    a_ij a_kl - a_ik a_jl + a_il a_jk, and the 6x6 Pfaffian (d = 11) is the
    row-0 expansion over the 4x4 Pfaffians of {1..5}, all in int64.
    """
    # a row-0 term is a product below (q-1)^2, and five of them are summed
    assert 5 * (q - 1) ** 2 < 2 ** 63, f"q = {q} is too large for the closed form"
    matrix = s_matrix(d)
    n = matrix.size
    sign, val = {}, {}
    for (i, j), f in matrix.upper.items():
        (exps, coeff), = f.terms.items()
        a, b = [v for v, e in enumerate(exps) for _ in range(e)]
        val[i, j] = pts[:, a].astype(np.int64) * pts[:, b] % q
        sign[i, j] = int(coeff)

    def signed_sum(terms):
        (lead, x, y), *rest = terms
        acc = x * y
        for s, x, y in rest:
            acc = acc + x * y if s == lead else acc - x * y
        return lead, acc % q

    def pf4(i, j, k, l):
        terms = [(1, (i, j), (k, l)), (-1, (i, k), (j, l)), (1, (i, l), (j, k))]
        return signed_sum([(s * sign[e] * sign[f], val[e], val[f]) for s, e, f in terms])

    minors = {quad: pf4(*quad) for quad in combinations(range(n), 4)}
    ranks = np.full(pts.shape[0], 4, dtype=np.int8)
    if n == 6:
        expansion = []
        for j in range(1, 6):
            minor_sign, minor = minors[tuple(k for k in range(1, 6) if k != j)]
            expansion.append(((-1) ** (j - 1) * sign[0, j] * minor_sign, val[0, j], minor))
        ranks[signed_sum(expansion)[1] != 0] = 6
    low = np.logical_and.reduce([pf == 0 for _, pf in minors.values()])
    ranks[low] = 2
    ranks[low & np.logical_and.reduce([v == 0 for v in val.values()])] = 0
    return ranks


# -- the slow path behind exactnum.is_prime -------------------------------------


def trial_division_is_prime(n: int) -> bool:
    """Primality by trial division, through prime_factors."""
    return n >= 2 and prime_factors(n) == [n]


# -- the slow path behind exactnum.nth_root_in_prime_field ---------------------


def search_nth_root(n: int, q: int) -> int:
    """Smallest element of F_q of exact order n, testing g = 2, 3, ... in turn."""
    if n == 1:
        return 1
    if (q - 1) % n != 0:
        raise ValueError(f"{n} does not divide {q}-1")
    primes = prime_factors(n)
    for g in range(2, q):
        if pow(g, n, q) == 1 and all(pow(g, n // r, q) != 1 for r in primes):
            return g
    raise ValueError(f"no element of order {n} in F_{q}")


# -- the slow path behind mpoly.graded_monomials --------------------------------


def sorted_graded_monomials(nvars: int, degree: int) -> list[tuple[int, ...]]:
    """Every exponent vector of the degree, then a sort on the grevlex key."""
    out: list[tuple[int, ...]] = []

    def rec(prefix, remaining, slots):
        if slots == 1:
            out.append(tuple(prefix + [remaining]))
            return
        for e in range(remaining + 1):
            rec(prefix + [e], remaining - e, slots - 1)

    rec([], degree, nvars)
    out.sort(key=grevlex_key, reverse=True)
    return out


# -- the slow path behind exactnum.CycloNum: one Fraction per coefficient ------


@lru_cache(maxsize=None)
def _fraction_root_table(n: int) -> tuple[tuple[Fraction, ...], ...]:
    """xi_n^k on the power basis for k = 0 .. n-1, as Fraction rows."""
    phi = euler_phi(n)
    Phi = cyclotomic_polynomial(n)
    rows = []
    current = [Fraction(0)] * phi
    current[0] = Fraction(1)
    for _ in range(n):
        rows.append(tuple(current))
        top = current[phi - 1]
        current = [Fraction(0)] + current[:-1]
        if top:
            for j in range(phi):
                current[j] -= top * Phi[j]
    return tuple(rows)


def _fraction_reduce(n: int, coeffs: list[Fraction]) -> tuple[Fraction, ...]:
    """Fold exponents mod n, then reduce mod Phi_n, skipping zero terms."""
    phi = euler_phi(n)
    folded = list(coeffs[:n]) + [Fraction(0)] * max(0, n - len(coeffs))
    for k in range(n, len(coeffs)):
        if coeffs[k]:
            folded[k % n] += coeffs[k]
    out = folded[:phi]
    table = _fraction_root_table(n)
    for k in range(phi, n):
        c = folded[k]
        if c:
            for j, t in enumerate(table[k]):
                if t:
                    out[j] += c * t
    return tuple(out)


def _trim(poly):
    while len(poly) > 1 and not poly[-1]:
        poly = poly[:-1]
    return poly


def _poly_divmod(num, den):
    num, den = _trim(list(num)), _trim(list(den))
    if len(num) < len(den):
        return [Fraction(0)], num
    q = [Fraction(0)] * (len(num) - len(den) + 1)
    for k in range(len(q) - 1, -1, -1):
        q[k] = c = num[k + len(den) - 1] / den[-1]
        for j, d in enumerate(den):
            num[k + j] -= c * d
    return q, _trim(num)


def _poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    b_terms = [(j, bj) for j, bj in enumerate(b) if bj]
    for i, ai in enumerate(a):
        if ai:
            for j, bj in b_terms:
                out[i + j] += ai * bj
    return out


def _poly_sub(a, b):
    n = max(len(a), len(b))
    a = list(a) + [Fraction(0)] * (n - len(a))
    b = list(b) + [Fraction(0)] * (n - len(b))
    return [x - y for x, y in zip(a, b)]


class FractionCyclo:
    """An element of Q(xi_n) as one Fraction per power-basis coefficient."""

    def __init__(self, order: int, coeffs) -> None:
        phi = euler_phi(order)
        cs = [Fraction(c) for c in coeffs]
        if len(cs) > phi:
            cs = list(_fraction_reduce(order, cs))
        self.order = order
        self.coeffs = tuple(cs + [Fraction(0)] * (phi - len(cs)))

    def _coerce(self, other) -> "FractionCyclo":
        if isinstance(other, FractionCyclo):
            assert other.order == self.order
            return other
        return FractionCyclo(self.order, [Fraction(other)])

    def __add__(self, other):
        o = self._coerce(other)
        return FractionCyclo(self.order, [a + b for a, b in zip(self.coeffs, o.coeffs)])

    def __neg__(self):
        return FractionCyclo(self.order, [-a for a in self.coeffs])

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __mul__(self, other):
        o = self._coerce(other)
        return FractionCyclo(self.order, _poly_mul(self.coeffs, o.coeffs))

    def inverse(self) -> "FractionCyclo":
        """Extended Euclid in Q[t] against Phi_n."""
        if not any(self.coeffs):
            raise ZeroDivisionError("division by zero in cyclotomic field")
        r0 = [Fraction(c) for c in cyclotomic_polynomial(self.order)]
        r1 = list(self.coeffs)
        s0, s1 = [Fraction(0)], [Fraction(1)]
        while any(r1):
            q, rem = _poly_divmod(r0, r1)
            r0, r1 = r1, rem
            s0, s1 = s1, _poly_sub(s0, _poly_mul(q, s1))
        r0 = _trim(r0)
        assert len(r0) == 1
        return FractionCyclo(self.order, [c / r0[0] for c in s0])

    def __truediv__(self, other):
        return self * self._coerce(other).inverse()

    def __pow__(self, k: int) -> "FractionCyclo":
        if k < 0:
            return self.inverse() ** (-k)
        result = FractionCyclo(self.order, [1])
        for _ in range(k):
            result = result * self
        return result

    def conjugate(self) -> "FractionCyclo":
        """xi -> xi^(-1)."""
        n = self.order
        out = [Fraction(0)] * n
        for k, c in enumerate(self.coeffs):
            out[-k % n] = c
        return FractionCyclo(n, out)

    def embed(self, target_order: int) -> "FractionCyclo":
        """xi_m -> xi_n^(n/m)."""
        step = target_order // self.order
        out = [Fraction(0)] * target_order
        for k, c in enumerate(self.coeffs):
            out[k * step] = c
        return FractionCyclo(target_order, out)


# -- the slow path behind SparsePoly.substitute and evaluate_on_plucker ---------


def expanded_substitute(f: SparsePoly, mapping, nvars_out: int | None = None) -> SparsePoly:
    """x_i -> mapping[i], each term a product of the images, one factor per
    unit of exponent; images may have any number of terms.

    Unmapped variables are carried through when the ring does not change,
    and raise ValueError across a ring change.
    """
    target = f.nvars if nvars_out is None else nvars_out
    result = SparsePoly.zero(target)
    for exps, coeff in f.terms.items():
        term = SparsePoly.constant(target, coeff)
        for i, e in enumerate(exps):
            if not e:
                continue
            if i in mapping:
                image = mapping[i]
            elif target == f.nvars:
                image = SparsePoly.variable(target, i)
            else:
                raise ValueError(f"variable x_{i} unmapped across ring change")
            for _ in range(e):
                term = term * image
        result = result + term
    return result


# -- the slow path behind chartab.conjugacy_classes ------------------------------


def conjugation_classes() -> tuple[frozenset, ...]:
    """Each table representative conjugated by all 660 group elements."""
    return tuple(
        frozenset(multiply(multiply(g, rep), inverse(g)) for g in enumerate_group())
        for rep in character_table().representatives
    )


# -- the slow path behind the shared-memo sub-Pfaffians ---------------------------


def independent_sub_pfaffians(m, sizes=(2, 4)) -> dict:
    """Pf^I for every deleted set I of the given sizes, each with its own memo."""
    return {idx: m.sub_pfaffian(idx)
            for r in sizes for idx in combinations(range(m.size), r)}


# -- the slow paths behind heisenberg.weight_components and span_is_group_invariant


def tau(f: SparsePoly, d: int, k: int = 1) -> SparsePoly:
    """k-fold scaling x_i -> xi^(-k i) x_i in Q(xi_d); each monomial picks
    up xi^(-k * weight)."""
    if f.nvars != d:
        raise ValueError("polynomial does not live in the d-variable ring")
    out = {}
    for exps, c in f.terms.items():
        w = sum(i * e for i, e in enumerate(exps)) % d
        out[exps] = CycloNum.root(d, (-k * w) % d) * c
    return SparsePoly(d, out)


class CycloRowBasis:
    """Incremental row reduction with every coefficient in Q(xi_n)."""

    def __init__(self, order: int) -> None:
        self.order = order
        self.pivots: dict = {}

    def _to_row(self, f: SparsePoly) -> dict:
        return {exps: c if isinstance(c, CycloNum) else CycloNum.from_rational(self.order, c)
                for exps, c in f.terms.items()}

    def _reduce(self, row: dict) -> dict:
        while row:
            lead = max(row)
            if lead not in self.pivots:
                return row
            pivot = self.pivots[lead]
            factor = row[lead]
            for m, c in pivot.items():
                v = row.get(m, CycloNum.zero(self.order)) - factor * c
                if v:
                    row[m] = v
                else:
                    row.pop(m, None)
        return row

    def contains(self, f: SparsePoly) -> bool:
        return not self._reduce(self._to_row(f))

    def insert(self, f: SparsePoly) -> None:
        row = self._reduce(self._to_row(f))
        if row:
            lead = max(row)
            inv = row[lead].inverse()
            self.pivots[lead] = {m: inv * c for m, c in row.items()}


def cyclo_span_is_group_invariant(polys: list[SparsePoly], d: int) -> bool:
    """Whether sigma(f) and tau(f) lie in the Q(xi_d)-span for every f."""
    basis = CycloRowBasis(d)
    for f in polys:
        basis.insert(f)
    return all(basis.contains(sigma(f, d)) and basis.contains(tau(f, d)) for f in polys)
