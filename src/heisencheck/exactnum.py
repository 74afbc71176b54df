"""Exact arithmetic in Q and in the cyclotomic fields Q(xi_n).

Elements of Q(xi_n) are stored on the power basis 1, t, ..., t^(phi(n)-1)
of Q[t]/(Phi_n(t)), so equality is coefficient-wise and every value has a
unique normal form.  Orders used downstream are n in {9, 11, 55}; the
code is generic in n: a coefficient list of any length is folded mod n and
then reduced mod Phi_n.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

# Rationals are stdlib Fractions: already normalized (gcd 1, positive
# denominator), hashable and exact.
Rational = Fraction

_ZERO = Fraction(0)
_ONE = Fraction(1)


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


def is_prime(n: int) -> bool:
    """Primality by trial division, through prime_factors."""
    return n >= 2 and prime_factors(n) == [n]


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
def _root_table(n: int) -> tuple[tuple[Fraction, ...], ...]:
    """xi_n^k on the power basis for k = 0 .. n-1, as coefficient rows."""
    phi = euler_phi(n)
    Phi = cyclotomic_polynomial(n)
    rows = []
    current = [_ZERO] * phi
    current[0] = _ONE
    for _ in range(n):
        rows.append(tuple(current))
        # multiply by t, then reduce the overflow coefficient
        top = current[phi - 1]
        current = [_ZERO] + current[:-1]
        if top:
            for j in range(phi):
                current[j] -= top * Phi[j]
    return tuple(rows)


def _reduce(n: int, coeffs: list[Fraction]) -> tuple[Fraction, ...]:
    """Normal form of sum_k coeffs[k] t^k: fold exponents mod n, then mod Phi_n."""
    phi = euler_phi(n)
    folded = list(coeffs[:n]) + [_ZERO] * max(0, n - len(coeffs))
    for k in range(n, len(coeffs)):
        if coeffs[k]:
            folded[k % n] += coeffs[k]
    out = folded[:phi]
    table = _root_table(n)
    for k in range(phi, n):
        c = folded[k]
        if c:
            row = table[k]
            for j in range(phi):
                out[j] += c * row[j]
    return tuple(out)


class CycloNum:
    """An element of Q(xi_n) on the power basis mod Phi_n."""

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs) -> None:
        phi = euler_phi(order)
        cs = [Fraction(c) for c in coeffs]
        if len(cs) > phi:
            cs = list(_reduce(order, cs))
        elif len(cs) < phi:
            cs += [_ZERO] * (phi - len(cs))
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, *args):  # immutable
        raise AttributeError("CycloNum is immutable")

    @classmethod
    def zero(cls, order: int) -> "CycloNum":
        return cls(order, ())

    @classmethod
    def one(cls, order: int) -> "CycloNum":
        return cls(order, (_ONE,))

    @classmethod
    def from_rational(cls, order: int, a) -> "CycloNum":
        return cls(order, (Fraction(a),))

    @classmethod
    def root(cls, order: int, power: int = 1) -> "CycloNum":
        """xi_order ** power, reduced."""
        return cls(order, _root_table(order)[power % order])

    # -- predicates -------------------------------------------------------

    def __bool__(self) -> bool:
        return any(self.coeffs)

    def is_rational(self) -> bool:
        return not any(self.coeffs[1:])

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self!r} is not rational")
        return self.coeffs[0]

    # -- arithmetic -------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, CycloNum):
            if other.order != self.order:
                raise ValueError(
                    f"order mismatch: {self.order} vs {other.order}"
                )
            return other
        if isinstance(other, (int, Fraction)):
            return CycloNum.from_rational(self.order, other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return CycloNum(self.order, [a + b for a, b in zip(self.coeffs, o.coeffs)])

    __radd__ = __add__

    def __neg__(self):
        return CycloNum(self.order, [-a for a in self.coeffs])

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return CycloNum(self.order, [a - b for a, b in zip(self.coeffs, o.coeffs)])

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self.coeffs, o.coeffs
        prod = [_ZERO] * (2 * len(a) - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    if bj:
                        prod[i + j] += ai * bj
        return CycloNum(self.order, prod)

    __rmul__ = __mul__

    def inverse(self) -> "CycloNum":
        if not self:
            raise ZeroDivisionError("division by zero in cyclotomic field")
        # extended Euclid in Q[t] against Phi_n
        phi_poly = [Fraction(c) for c in cyclotomic_polynomial(self.order)]
        r0, r1 = phi_poly, list(self.coeffs)
        s0, s1 = [_ZERO], [_ONE]
        while any(r1):
            q, rem = _poly_divmod_frac(r0, r1)
            r0, r1 = r1, rem
            s0, s1 = s1, _poly_sub(s0, _poly_mul(q, s1))
        # gcd is a nonzero constant since Phi_n is irreducible
        r0 = _trim(r0)
        if len(r0) != 1:
            raise ArithmeticError("gcd with the cyclotomic polynomial is not constant")
        return CycloNum(self.order, [c / r0[0] for c in s0])

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

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
        n = self.order
        out = [_ZERO] * n
        for k, c in enumerate(self.coeffs):
            out[-k % n] = c
        return CycloNum(n, out)

    # -- comparisons ------------------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            return self.is_rational() and self.coeffs[0] == other
        if not isinstance(other, CycloNum):
            return NotImplemented
        return self.order == other.order and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        if self.is_rational():
            return hash(self.coeffs[0])
        return hash((self.order, self.coeffs))

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


def _trim(poly):
    while len(poly) > 1 and not poly[-1]:
        poly = poly[:-1]
    return poly


def _poly_divmod_frac(num, den):
    num = _trim(list(num))
    den = _trim(list(den))
    if len(num) < len(den):
        return [_ZERO], num
    q = [_ZERO] * (len(num) - len(den) + 1)
    lead = den[-1]
    for k in range(len(q) - 1, -1, -1):
        c = num[k + len(den) - 1] / lead
        q[k] = c
        if c:
            for j, d in enumerate(den):
                num[k + j] -= c * d
    return q, _trim(num)


def _poly_mul(a, b):
    out = [_ZERO] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return out


def _poly_sub(a, b):
    n = max(len(a), len(b))
    a = list(a) + [_ZERO] * (n - len(a))
    b = list(b) + [_ZERO] * (n - len(b))
    return [x - y for x, y in zip(a, b)]


def embed(a: CycloNum, target_order: int) -> CycloNum:
    """Image of a under xi_m -> xi_n^(n/m), n = target_order."""
    m = a.order
    if target_order % m != 0:
        raise ValueError(f"order {m} does not divide {target_order}")
    step = target_order // m
    out = [_ZERO] * target_order
    for k, c in enumerate(a.coeffs):
        out[k * step] = c
    return CycloNum(target_order, out)


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
    """Smallest element of F_q of exact multiplicative order n."""
    if n == 1:
        return 1
    if (q - 1) % n != 0:
        raise ValueError(f"{n} does not divide {q}-1")
    primes = prime_factors(n)
    for g in range(2, q):
        if pow(g, n, q) == 1 and all(pow(g, n // r, q) != 1 for r in primes):
            return g
    raise ValueError(f"no element of order {n} in F_{q}")  # unreachable for prime q


def modular_inverse(a: int, q: int) -> int:
    return pow(a % q, q - 2, q)


def fraction_mod(x: Fraction, q: int) -> int:
    """Reduction of a rational with denominator prime to q into F_q."""
    num, den = x.numerator, x.denominator
    if den % q == 0:
        raise ZeroDivisionError(f"denominator of {x} vanishes mod {q}")
    return (num % q) * modular_inverse(den, q) % q


def cyclo_mod(a: CycloNum, q: int, xi_image: int) -> int:
    """Reduction of a into F_q via xi -> xi_image (an order-n element)."""
    acc = 0
    power = 1
    for c in a.coeffs:
        if c:
            acc = (acc + fraction_mod(c, q) * power) % q
        power = power * xi_image % q
    return acc
