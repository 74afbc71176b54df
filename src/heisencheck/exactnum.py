"""Exact arithmetic in Q and in the cyclotomic fields Q(xi_n).

Elements of Q(xi_n) are integer coefficient vectors on the power basis
1, t, ..., t^(phi(n)-1) of Q[t]/(Phi_n(t)) over one common positive
denominator, with the gcd of the denominator and all numerators 1 (the
representation of Antic/FLINT).  So every value has a unique normal form,
equality is comparison of integers, and arithmetic builds no Fraction.
Orders used downstream are n in {9, 11, 55}; the code is generic in n: a
coefficient list of any length is folded mod n and then reduced mod Phi_n,
which is monic and integral, so reduction stays in the integers.

One map moves values between fields: xi -> xi^a, which puts coefficient k
at position k*a.  It gives complex conjugation (a = -1), the embedding of
Q(xi_m) into Q(xi_n) (a = n/m), and the Galois automorphisms behind the
inverse, which is the product of the conjugates over the norm.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache


@lru_cache(maxsize=None)
def euler_phi(n: int) -> int:
    if n < 1:
        raise ValueError(f"euler_phi undefined for {n}")
    result = n
    for p in prime_factors(n):
        result -= result // p
    return result


def prime_factors(n: int) -> list[int]:
    """Distinct prime factors of n, ascending."""
    out = []
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            out.append(p)
            while m % p == 0:
                m //= p
        p += 1
    if m > 1:
        out.append(m)
    return out


# Miller-Rabin on the bases 2, 3, 5, 7 is exact below this bound (the least
# strong pseudoprime to all four is 3215031751, Jaeschke 1993).
MILLER_RABIN_BOUND = 3215031751


@lru_cache(maxsize=None)
def is_prime(n: int) -> bool:
    """Primality by deterministic Miller-Rabin on the bases 2, 3, 5, 7.

    An n at or above MILLER_RABIN_BOUND, where those bases stop being a
    proof, raises ValueError; every modulus check_modulus accepts is below 2^31.
    """
    if n >= MILLER_RABIN_BOUND:
        raise ValueError(f"is_prime({n}): Miller-Rabin on bases 2, 3, 5, 7 is exact "
                         f"only below {MILLER_RABIN_BOUND}")
    if n < 2:
        return False
    for a in (2, 3, 5, 7):
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def check_modulus(q: int) -> None:
    """Reject a q that is not a prime below 2^31, the rule of every F_q kernel.

    Inversion mod q needs q prime, so that every nonzero residue is a
    unit, and with residues in [0, q) every product of two of them is
    below q^2 < 2^62, so a kernel that reduces before a multiply or add
    could reach 2^63 never leaves int64.
    The bound is tested first, so is_prime only sees q below 2^31.
    """
    if q >= 2 ** 31:
        raise ValueError(f"q = {q} is too large: q must be a prime below 2^31")
    if not is_prime(q):
        raise ValueError(f"q = {q} is not prime: q must be a prime below 2^31")


def _poly_divmod_int(num: list[int], den: list[int]) -> list[int]:
    """Quotient of exact division of integer polynomials (den monic)."""
    num = list(num)
    q = [0] * (len(num) - len(den) + 1)
    for k in range(len(q) - 1, -1, -1):
        c = num[k + len(den) - 1]
        q[k] = c
        if c:
            for j, d in enumerate(den):
                num[k + j] -= c * d
    if any(num[: len(den) - 1]):
        raise ArithmeticError("inexact polynomial division")
    return q


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients of Phi_n, lowest degree first (monic, integral)."""
    if n == 1:
        return (-1, 1)
    num = [-1] + [0] * (n - 1) + [1]  # t^n - 1
    for d in range(1, n):
        if n % d == 0:
            num = _poly_divmod_int(num, list(cyclotomic_polynomial(d)))
    return tuple(num)


@lru_cache(maxsize=None)
def _root_table(n: int) -> tuple[tuple[int, ...], ...]:
    """xi_n^k on the power basis for k = 0 .. n-1, as integer coefficient rows.

    Phi_n is monic and integral, so reducing t^k mod Phi_n never divides.
    """
    phi = euler_phi(n)
    Phi = cyclotomic_polynomial(n)
    rows = []
    current = [0] * phi
    current[0] = 1
    for _ in range(n):
        rows.append(tuple(current))
        # multiply by t, then reduce the overflow coefficient
        top = current[phi - 1]
        current = [0] + current[:-1]
        if top:
            for j in range(phi):
                current[j] -= top * Phi[j]
    return tuple(rows)


@lru_cache(maxsize=None)
def _fold_rows(n: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """The nonzero (j, c) of xi_n^k for k = phi(n) .. n-1: what _reduce adds."""
    return tuple(
        tuple((j, c) for j, c in enumerate(row) if c)
        for row in _root_table(n)[euler_phi(n):]
    )


def _reduce(n: int, coeffs: list[int]) -> list[int]:
    """Normal form of sum_k coeffs[k] t^k: fold exponents mod n, then mod Phi_n."""
    folded = list(coeffs[:n]) + [0] * max(0, n - len(coeffs))
    for k in range(n, len(coeffs)):
        if coeffs[k]:
            folded[k % n] += coeffs[k]
    phi = euler_phi(n)
    out = folded[:phi]
    for c, row in zip(folded[phi:], _fold_rows(n)):
        if c:
            for j, r in row:
                out[j] += c * r
    return out


def _make(order: int, num, den: int) -> "CycloNum":
    """The element num/den, num already reduced and gcd(den, *num) = 1."""
    x = object.__new__(CycloNum)
    object.__setattr__(x, "order", order)
    object.__setattr__(x, "_num", tuple(num))
    object.__setattr__(x, "_den", den)
    return x


def _normal(order: int, num, den: int) -> "CycloNum":
    """The element num/den for a reduced num and any nonzero den."""
    if den < 0:
        num, den = [-c for c in num], -den
    if den != 1:
        g = math.gcd(den, *num)
        if g != 1:
            num, den = [c // g for c in num], den // g
    return _make(order, num, den)


class CycloNum:
    """An element of Q(xi_n): integer coefficients on the power basis mod
    Phi_n over one positive denominator, with gcd(den, *num) = 1.

    That normal form is unique, so equal values have equal (num, den).
    """

    __slots__ = ("order", "_num", "_den")

    def __new__(cls, order: int, coeffs) -> "CycloNum":
        """The element sum_k coeffs[k] xi^k, for rational coeffs of any length."""
        cs = [c if isinstance(c, (int, Fraction)) else Fraction(c) for c in coeffs]
        den = math.lcm(*(c.denominator for c in cs))
        num = [c.numerator * (den // c.denominator) for c in cs]
        phi = euler_phi(order)
        if len(num) > phi:
            num = _reduce(order, num)
        else:
            num += [0] * (phi - len(num))
        return _normal(order, num, den)

    def __setattr__(self, *args):  # immutable
        raise AttributeError("CycloNum is immutable")

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The power-basis coefficients as Fractions."""
        return tuple(Fraction(c, self._den) for c in self._num)

    @classmethod
    def zero(cls, order: int) -> "CycloNum":
        return _make(order, [0] * euler_phi(order), 1)

    @classmethod
    def one(cls, order: int) -> "CycloNum":
        return cls.from_rational(order, 1)

    @classmethod
    def from_rational(cls, order: int, a) -> "CycloNum":
        a = Fraction(a)
        return _make(order, [a.numerator] + [0] * (euler_phi(order) - 1), a.denominator)

    @classmethod
    def root(cls, order: int, power: int = 1) -> "CycloNum":
        """xi_order ** power, reduced."""
        return _make(order, _root_table(order)[power % order], 1)

    # -- predicates -------------------------------------------------------

    def __bool__(self) -> bool:
        return any(self._num)

    def is_rational(self) -> bool:
        return not any(self._num[1:])

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self!r} is not rational")
        return Fraction(self._num[0], self._den)

    # -- arithmetic -------------------------------------------------------

    def _check(self, other: "CycloNum") -> None:
        if other.order != self.order:
            raise ValueError(f"order mismatch: {self.order} vs {other.order}")

    def _scale(self, p: int, q: int) -> "CycloNum":
        """self * p / q for integers p, q."""
        if not q:
            raise ZeroDivisionError("division by zero in cyclotomic field")
        return _normal(self.order, [c * p for c in self._num], self._den * q)

    def __add__(self, other):
        da = self._den
        if isinstance(other, CycloNum):
            self._check(other)
            db = other._den
            if da == db:
                return _normal(self.order, [a + b for a, b in zip(self._num, other._num)], da)
            num = [a * db + b * da for a, b in zip(self._num, other._num)]
            return _normal(self.order, num, da * db)
        if isinstance(other, (int, Fraction)):
            q = other.denominator
            num = [c * q for c in self._num]
            num[0] += other.numerator * da
            return _normal(self.order, num, da * q)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return _make(self.order, [-c for c in self._num], self._den)

    def __sub__(self, other):
        if isinstance(other, (CycloNum, int, Fraction)):
            return self + (-other)
        return NotImplemented

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, CycloNum):
            self._check(other)
            a = self._num
            b = [(j, c) for j, c in enumerate(other._num) if c]
            prod = [0] * (2 * len(a) - 1)
            for i, ai in enumerate(a):
                if ai:
                    for j, bj in b:
                        prod[i + j] += ai * bj
            return _normal(self.order, _reduce(self.order, prod), self._den * other._den)
        if isinstance(other, (int, Fraction)):
            return self._scale(other.numerator, other.denominator)
        return NotImplemented

    __rmul__ = __mul__

    def inverse(self) -> "CycloNum":
        """x^-1 = prod_(a != 1) sigma_a(x) / N(x), over the units a mod n;
        the norm N(x) = x * prod_(a != 1) sigma_a(x) is rational."""
        if not self:
            raise ZeroDivisionError("division by zero in cyclotomic field")
        n = self.order
        conjugates = CycloNum.one(n)
        for a in range(2, n):
            if math.gcd(a, n) == 1:
                conjugates = conjugates * _power_map(self, a, n)
        norm = self * conjugates
        if not norm.is_rational():
            raise ArithmeticError(f"the norm of {self!r} is not rational")
        return conjugates._scale(norm._den, norm._num[0])

    def __truediv__(self, other):
        if isinstance(other, CycloNum):
            return self * other.inverse()
        if isinstance(other, (int, Fraction)):
            return self._scale(other.denominator, other.numerator)
        return NotImplemented

    def __rtruediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.inverse() * other
        return NotImplemented

    def __pow__(self, k: int) -> "CycloNum":
        if k < 0:
            return self.inverse() ** (-k)
        result = CycloNum.one(self.order)
        base = self
        while k:
            if k & 1:
                result = result * base
            if k > 1:
                base = base * base
            k >>= 1
        return result

    def conjugate(self) -> "CycloNum":
        """Complex conjugation, xi -> xi^(-1)."""
        return _power_map(self, -1, self.order)

    # -- comparisons ------------------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            return (self.is_rational() and self._num[0] == other.numerator
                    and self._den == other.denominator)
        if not isinstance(other, CycloNum):
            return NotImplemented
        return (self.order == other.order and self._den == other._den
                and self._num == other._num)

    def __hash__(self) -> int:
        if self.is_rational():
            return hash(Fraction(self._num[0], self._den))
        return hash((self.order, self._num, self._den))

    def __repr__(self) -> str:
        parts = []
        for k, c in enumerate(self.coeffs):
            if not c:
                continue
            if k == 0:
                parts.append(str(c))
            elif k == 1:
                parts.append(f"{c}*z" if c != 1 else "z")
            else:
                parts.append(f"{c}*z^{k}" if c != 1 else f"z^{k}")
        body = " + ".join(parts) if parts else "0"
        return f"CycloNum({self.order}, {body})"


def _power_map(x: CycloNum, a: int, target_order: int) -> CycloNum:
    """Image of x under xi -> xi_n^a, n = target_order: coefficient k moves
    to position k*a mod n.

    Callers use only injective ring maps of Z[xi] (automorphisms, a prime
    to n, and embeddings, a = n/m), and Z[xi_n] meets the image of Q(xi_m)
    in the image of Z[xi_m], so gcd(den, *num) stays 1.
    """
    out = [0] * target_order
    for k, c in enumerate(x._num):
        out[k * a % target_order] += c
    return _make(target_order, _reduce(target_order, out), x._den)


def embed(a: CycloNum, target_order: int) -> CycloNum:
    """Image of a under xi_m -> xi_n^(n/m), n = target_order."""
    m = a.order
    if target_order % m != 0:
        raise ValueError(f"order {m} does not divide {target_order}")
    return _power_map(a, target_order // m, target_order)


def legendre_symbol(a: int, p: int) -> int:
    a %= p
    if a == 0:
        return 0
    return 1 if pow(a, (p - 1) // 2, p) == 1 else -1


def quadratic_gauss_sum(p: int, target_order: int | None = None) -> CycloNum:
    """sum_a legendre(a,p) xi_p^a; squares to p if p=1 mod 4, to -p if p=3 mod 4.

    Optionally embedded into Q(xi_target_order).
    """
    g = CycloNum(p, [legendre_symbol(a, p) for a in range(p)])
    if target_order is not None:
        g = embed(g, target_order)
    return g


def nth_root_in_prime_field(n: int, q: int) -> int:
    """Smallest element of F_q of exact multiplicative order n.

    For every g, xi = g^((q-1)/n) has order dividing n.  The first g whose
    xi has order exactly n gives all elements of order n as the powers
    xi^k with gcd(k, n) = 1, and the least of them is returned: about n
    pow calls, where testing g = 2, 3, ... in turn took about q/n.
    """
    if n == 1:
        return 1
    if (q - 1) % n != 0:
        raise ValueError(f"{n} does not divide {q}-1")
    primes = prime_factors(n)
    for g in range(2, q):
        xi = pow(g, (q - 1) // n, q)
        if pow(xi, n, q) == 1 and all(pow(xi, n // r, q) != 1 for r in primes):
            return min(pow(xi, k, q) for k in range(1, n) if math.gcd(k, n) == 1)
    raise ValueError(f"no element of order {n} in F_{q}")  # unreachable for prime q


def fraction_mod(x: Fraction, q: int) -> int:
    """Reduction of a rational with denominator prime to q into F_q."""
    num, den = x.numerator, x.denominator
    if den % q == 0:
        raise ZeroDivisionError(f"denominator of {x} vanishes mod {q}")
    return num * pow(den, -1, q) % q


def cyclo_mod(x: CycloNum, root: int, q: int) -> int:
    """Image of x in F_q under xi -> root, for a root of exact order x.order
    in F_q: (sum_k num_k root^k) / den mod q."""
    if x._den % q == 0:
        raise ZeroDivisionError(f"denominator of {x!r} vanishes mod {q}")
    acc = 0
    for c in reversed(x._num):
        acc = (acc * root + c) % q
    return acc * pow(x._den, -1, q) % q
