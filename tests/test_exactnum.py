import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from heisencheck.exactnum import (
    MILLER_RABIN_BOUND,
    CycloNum,
    cyclo_mod,
    cyclotomic_polynomial,
    embed,
    euler_phi,
    fraction_mod,
    is_prime,
    legendre_symbol,
    nth_root_in_prime_field,
    quadratic_gauss_sum,
)
from heisencheck.hilbert import RANK_PRIMES
from oracles import FractionCyclo, search_nth_root, trial_division_is_prime


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(9) == (1, 0, 0, 1, 0, 0, 1)
    assert cyclotomic_polynomial(11) == (1,) * 11
    assert len(cyclotomic_polynomial(55)) == euler_phi(55) + 1
    assert euler_phi(55) == 40


def test_root_powers_sum_to_zero_order_11():
    total = CycloNum.zero(11)
    for k in range(11):
        total = total + CycloNum.root(11, k)
    assert not total


def test_root_of_unity_order_9():
    xi = CycloNum.root(9)
    assert xi ** 3 * xi ** 6 == 1
    assert xi ** 9 == 1
    assert xi ** 3 != 1


def test_gauss_sum_squares():
    g11 = quadratic_gauss_sum(11)
    assert (g11 * g11).as_rational() == -11
    g5 = quadratic_gauss_sum(5)
    assert (g5 * g5).as_rational() == 5
    # sqrt5 as the explicit combination of 5th roots
    xi = CycloNum.root(5)
    assert g5 == xi + xi ** 4 - xi ** 2 - xi ** 3


def test_beta_in_big_field():
    # beta = (-1 + sqrt(-11)) / 2 satisfies t^2 + t + 3 = 0
    rm11 = quadratic_gauss_sum(11, 55)
    beta = (rm11 - 1) / 2
    assert beta * beta + beta + 3 == 0
    assert (rm11 * rm11).as_rational() == -11


def test_embed_definition():
    assert embed(CycloNum.root(5), 55) == CycloNum.root(55, 11)
    assert embed(CycloNum.one(11), 55) == CycloNum.one(55)
    g5 = embed(quadratic_gauss_sum(5), 55)
    assert (g5 * g5).as_rational() == 5
    with pytest.raises(ValueError):
        embed(CycloNum.root(9), 55)


def test_embed_injective_and_multiplicative():
    rng = random.Random(5)
    seen = {}
    for _ in range(100):
        a = CycloNum(11, [Fraction(rng.randint(-4, 4)) for _ in range(10)])
        b = CycloNum(11, [Fraction(rng.randint(-4, 4)) for _ in range(10)])
        ea, eb = embed(a, 55), embed(b, 55)
        assert embed(a * b, 55) == ea * eb
        assert embed(a + b, 55) == ea + eb
        key = ea.coeffs
        if key in seen:
            assert seen[key] == a.coeffs
        seen[key] = a.coeffs


def test_field_axioms_random():
    rng = random.Random(17)
    for _ in range(50):
        a = CycloNum(9, [Fraction(rng.randint(-5, 5)) for _ in range(6)])
        b = CycloNum(9, [Fraction(rng.randint(-5, 5)) for _ in range(6)])
        c = CycloNum(9, [Fraction(rng.randint(-5, 5)) for _ in range(6)])
        assert (a + b) * c == a * c + b * c
        assert (a * b) * c == a * (b * c)
        if a:
            assert a * a.inverse() == 1
            assert a / a == 1


def test_field_axioms_large_order():
    rng = random.Random(19)
    for _ in range(3):
        a = CycloNum(55, [Fraction(rng.randint(-3, 3)) for _ in range(40)])
        b = CycloNum(55, [Fraction(rng.randint(-3, 3)) for _ in range(40)])
        assert (a + b) * (a - b) == a * a - b * b
        if a:
            assert a * a.inverse() == 1


def test_reduction_canonicity():
    # two routes to the same value share the coefficient vector
    xi = CycloNum.root(11)
    lhs = xi ** 10
    rhs = -sum((xi ** k for k in range(10)), CycloNum.zero(11))
    assert lhs == rhs
    assert lhs.coeffs == rhs.coeffs


def test_conjugation():
    xi = CycloNum.root(11)
    assert xi.conjugate() == xi ** 10
    g = quadratic_gauss_sum(11)
    assert g.conjugate() == -g  # purely imaginary
    a = CycloNum(9, [Fraction(1), Fraction(2), Fraction(3)])
    assert a.conjugate().conjugate() == a


def test_order_mismatch_and_zero_division():
    with pytest.raises(ValueError):
        CycloNum.root(9) + CycloNum.root(11)
    with pytest.raises(ZeroDivisionError):
        CycloNum.one(9) / CycloNum.zero(9)


def test_nth_root_in_prime_field():
    assert nth_root_in_prime_field(9, 19) == 4
    assert nth_root_in_prime_field(1, 7) == 1
    assert nth_root_in_prime_field(11, 23) == 2
    with pytest.raises(ValueError):
        nth_root_in_prime_field(9, 23)


@pytest.mark.parametrize("n,q", [(9, 19), (11, 23), (9, 37), (11, 67)])
def test_nth_root_exhaustive_oracle(n, q):
    found = nth_root_in_prime_field(n, q)
    # brute force: the smallest element whose powers cycle with length n
    def order(g):
        acc, k = g, 1
        while acc != 1:
            acc = acc * g % q
            k += 1
        return k
    brute = next(g for g in range(1, q) if order(g) == n)
    assert found == brute
    assert order(found) == n


def test_nth_root_matches_the_search_at_every_small_prime():
    # the least power xi^k, gcd(k, n) = 1, of one element of order n is the
    # least element of order n, which the search finds by testing g = 2, 3, ...
    for n in (3, 5, 9, 11, 33, 44, 59, 660):
        for q in range(n + 1, 5000, n):
            if is_prime(q):
                assert nth_root_in_prime_field(n, q) == search_nth_root(n, q), (n, q)


def test_nth_root_at_the_largest_modulus_returns_at_once():
    # the search would test about q/11 = 2e8 candidates here
    q = 2 ** 31 - 1
    assert (q - 1) % 11 == 0
    start = time.perf_counter()
    xi = nth_root_in_prime_field(11, q)
    assert time.perf_counter() - start < 1.0
    assert xi != 1 and pow(xi, 11, q) == 1
    assert xi == min(pow(xi, k, q) for k in range(1, 11))


def test_legendre_symbol():
    assert [legendre_symbol(a, 11) for a in range(1, 11)] == [1, -1, 1, 1, 1, -1, -1, -1, 1, -1]


def elements(n: int):
    # lists longer than phi(n), up to 2n + 1, exercise the fold mod n
    return st.lists(st.integers(-3, 3), max_size=2 * n + 1).map(lambda cs: CycloNum(n, cs))


@pytest.mark.parametrize("n", range(1, 61))
def test_field_axioms_every_order(n):
    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(elements(n), elements(n), elements(n),
           st.integers(0, 2 * n - 1), st.integers(0, 2 * n - 1))
    def run(a, b, c, j, k):
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        if a:
            assert a * a.inverse() == 1
        assert CycloNum.root(n, j) * CycloNum.root(n, k) == CycloNum.root(n, j + k)
        assert a.conjugate().conjugate() == a
        assert (a + b).conjugate() == a.conjugate() + b.conjugate()
        assert (a * b).conjugate() == a.conjugate() * b.conjugate()

    run()


def rational_elements(n: int):
    # the common denominator of these coefficients runs up to lcm(1..4) = 12
    coeff = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    return st.lists(coeff, max_size=2 * n + 1).map(lambda cs: CycloNum(n, cs))


def assert_normal(x: CycloNum) -> None:
    """The stored form: phi(n) integers over one positive coprime denominator."""
    assert len(x._num) == euler_phi(x.order)
    assert all(type(c) is int for c in x._num)
    assert type(x._den) is int and x._den > 0
    assert math.gcd(x._den, *x._num) == 1


def same(x: CycloNum, y: FractionCyclo) -> bool:
    assert_normal(x)
    return x.order == y.order and x.coeffs == y.coeffs


@pytest.mark.parametrize("n", range(1, 61))
def test_integer_vector_matches_the_fraction_oracle(n):
    scalars = st.fractions(min_value=-7, max_value=7, max_denominator=9)

    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(rational_elements(n), rational_elements(n), st.integers(1, 3),
           st.integers(0, 5), scalars, st.integers(-7, 7))
    def run(a, b, m, k, r, i):
        A, B = FractionCyclo(n, a.coeffs), FractionCyclo(n, b.coeffs)
        assert same(a + b, A + B)
        assert same(a - b, A - B)
        assert same(-a, -A)
        assert same(a * b, A * B)
        assert same(a.conjugate(), A.conjugate())
        assert same(embed(a, m * n), A.embed(m * n))
        assert same(a ** k, A ** k)
        if b:
            B_inv = B.inverse()
            assert same(b.inverse(), B_inv)
            assert same(a / b, A * B_inv)
            assert same(b ** -k, B_inv ** k)
            assert same(r / b, B_inv * r)
        # an int or a Fraction scales num and den directly
        for s in (r, i, Fraction(i)):
            assert same(a * s, A * s) and same(s * a, A * s)
            assert same(a + s, A + s) and same(s + a, A + s)
            assert same(a - s, A - s) and same(s - a, -(A - s))
            if s:
                assert same(a / s, A * Fraction(1, s))
            else:
                with pytest.raises(ZeroDivisionError):
                    a / s
        # a rational element equals and hashes like its Fraction
        for x in (CycloNum.from_rational(n, r), a - a + r, (a * 0 + i) * r):
            assert_normal(x)
            value = x.as_rational()
            assert x.is_rational() and x == value and value == x
            assert hash(x) == hash(value)
        assert (CycloNum.from_rational(n, r) == i) == (r == i)
        # equal values reached by different paths store the same integers
        for lhs, rhs in (((a * b) * b, a * (b * b)), (a + b - b, a),
                         (a.conjugate().conjugate(), a), ((a * r) * i, (a * i) * r)):
            assert_normal(lhs)
            assert (lhs.order, lhs._num, lhs._den) == (rhs.order, rhs._num, rhs._den)
            assert hash(lhs) == hash(rhs)
        if r:
            quotient = (a * r) / r
            assert (quotient._num, quotient._den) == (a._num, a._den)

    run()


@pytest.mark.parametrize("n,q", [(9, 19), (9, 73), (11, 23), (11, 67), (55, 331), (55, 661)])
def test_reduction_mod_q_is_a_ring_homomorphism(n, q):
    base = nth_root_in_prime_field(n, q)
    units = [k for k in range(1, n) if math.gcd(k, n) == 1]

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(rational_elements(n), rational_elements(n), st.sampled_from(units),
           st.fractions(min_value=-7, max_value=7, max_denominator=9))
    def run(a, b, k, r):
        root = pow(base, k, q)  # every root of exact order n is a unit power of one
        assert cyclo_mod(a + b, root, q) == (cyclo_mod(a, root, q) + cyclo_mod(b, root, q)) % q
        assert cyclo_mod(a * b, root, q) == cyclo_mod(a, root, q) * cyclo_mod(b, root, q) % q
        assert cyclo_mod(CycloNum.root(n), root, q) == root
        assert cyclo_mod(CycloNum.from_rational(n, r), root, q) == fraction_mod(r, q)

    run()
    with pytest.raises(ZeroDivisionError):
        cyclo_mod(CycloNum.root(n) / q, base, q)


def test_is_prime_matches_trial_division():
    miller_rabin = is_prime.__wrapped__  # uncached, so the sweep fills no cache
    for n in range(-2, 2 * 10 ** 5):
        assert miller_rabin(n) == trial_division_is_prime(n), n
    # the least strong pseudoprimes to base 2, to bases 2 and 3, and to 2, 3 and 5
    for n in (2047, 1373653, 25326001, 2 ** 31 - 1, *RANK_PRIMES):
        assert miller_rabin(n) == trial_division_is_prime(n), n


def test_is_prime_rejects_values_beyond_its_proof():
    assert is_prime(MILLER_RABIN_BOUND - 2) == trial_division_is_prime(MILLER_RABIN_BOUND - 2)
    for n in (MILLER_RABIN_BOUND, 2 ** 64):
        with pytest.raises(ValueError):
            is_prime(n)
