"""Sparse multivariate polynomials over Q, Q(xi_n), or mixed scalars.

Terms map dense exponent tuples to nonzero coefficients.  The monomial
order is graded reverse lexicographic throughout, which fixes leading
terms, division, and the canonical text rendering.  Substitution sends
each variable to one term or zero, so it maps term to term and never
expands a product of sums; so does a partial derivative.  A polynomial is
immutable, so a cached one may be shared.
"""

from __future__ import annotations

import re
from collections.abc import Iterable, Mapping
from fractions import Fraction

from .exactnum import CycloNum


def grevlex_key(exps: tuple[int, ...]):
    """Sort key; larger key = larger monomial in grevlex."""
    return (sum(exps), tuple(-e for e in reversed(exps)))


def _normalize_coeff(c):
    if isinstance(c, int):
        return Fraction(c)
    return c


class SparsePoly:
    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms=None) -> None:
        tdict = {}
        if terms:
            items = terms.items() if isinstance(terms, Mapping) else terms
            for exps, coeff in items:
                exps = tuple(exps)
                if len(exps) != nvars:
                    raise ValueError(
                        f"exponent vector {exps} has arity {len(exps)}, expected {nvars}"
                    )
                coeff = _normalize_coeff(coeff)
                if exps in tdict:
                    coeff = tdict[exps] + coeff
                if coeff:
                    tdict[exps] = coeff
                elif exps in tdict:
                    del tdict[exps]
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "terms", tdict)

    def __setattr__(self, *args):
        raise AttributeError("SparsePoly is immutable")

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "SparsePoly":
        return cls(nvars)

    @classmethod
    def constant(cls, nvars: int, c) -> "SparsePoly":
        return cls(nvars, {(0,) * nvars: c})

    @classmethod
    def variable(cls, nvars: int, i: int, power: int = 1) -> "SparsePoly":
        exps = [0] * nvars
        exps[i] = power
        return cls(nvars, {tuple(exps): 1})

    @classmethod
    def monomial(cls, nvars: int, indices: Iterable[int], coeff=1) -> "SparsePoly":
        """Product of variables given by indices (repeats allowed)."""
        exps = [0] * nvars
        for i in indices:
            exps[i] += 1
        return cls(nvars, {tuple(exps): coeff})

    # -- structure --------------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def is_homogeneous(self) -> bool:
        degs = {sum(e) for e in self.terms}
        return len(degs) <= 1

    def sorted_terms(self) -> list[tuple[tuple[int, ...], object]]:
        """Terms in decreasing grevlex order."""
        return sorted(self.terms.items(), key=lambda kv: grevlex_key(kv[0]), reverse=True)

    def leading_term(self):
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        exps = max(self.terms, key=grevlex_key)
        return exps, self.terms[exps]

    def coefficient(self, exps) -> object:
        return self.terms.get(tuple(exps), Fraction(0))

    def monic(self) -> "SparsePoly":
        if not self.terms:
            return self
        _, lc = self.leading_term()
        return self.scale(1 / lc)

    # -- arithmetic -------------------------------------------------------

    def _check_arity(self, other: "SparsePoly"):
        if self.nvars != other.nvars:
            raise ValueError(f"arity mismatch: {self.nvars} vs {other.nvars}")

    def __add__(self, other):
        if isinstance(other, (int, Fraction, CycloNum)):
            other = SparsePoly.constant(self.nvars, other)
        if not isinstance(other, SparsePoly):
            return NotImplemented
        self._check_arity(other)
        out = dict(self.terms)
        for exps, c in other.terms.items():
            s = out.get(exps, 0) + c
            if s:
                out[exps] = s
            elif exps in out:
                del out[exps]
        return SparsePoly(self.nvars, out)

    __radd__ = __add__

    def __neg__(self):
        return SparsePoly(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction, CycloNum)):
            other = SparsePoly.constant(self.nvars, other)
        if not isinstance(other, SparsePoly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, CycloNum)):
            return self.scale(other)
        if not isinstance(other, SparsePoly):
            return NotImplemented
        self._check_arity(other)
        out: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                exps = tuple(a + b for a, b in zip(e1, e2))
                s = out.get(exps, 0) + c1 * c2
                if s:
                    out[exps] = s
                elif exps in out:
                    del out[exps]
        return SparsePoly(self.nvars, out)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, CycloNum)):
            return self.scale(other)
        return NotImplemented

    def scale(self, c) -> "SparsePoly":
        c = _normalize_coeff(c)
        if not c:
            return SparsePoly.zero(self.nvars)
        return SparsePoly(self.nvars, {e: c * v for e, v in self.terms.items()})

    def derivative(self, k: int) -> "SparsePoly":
        """The partial derivative d/dx_k."""
        if not 0 <= k < self.nvars:
            raise ValueError(f"no variable x_{k} among {self.nvars}")
        out = {}
        for exps, c in self.terms.items():
            if exps[k]:
                lowered = list(exps)
                lowered[k] -= 1
                out[tuple(lowered)] = c * exps[k]
        return SparsePoly(self.nvars, out)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction, CycloNum)):
            other = SparsePoly.constant(self.nvars, other)
        if not isinstance(other, SparsePoly):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    __hash__ = None  # mutable-dict backed; use rendered form as a key if needed

    # -- substitution and evaluation ---------------------------------------

    def substitute(
        self,
        mapping: Mapping[int, "SparsePoly"],
        nvars_out: int | None = None,
    ) -> "SparsePoly":
        """Simultaneous substitution x_i -> mapping[i], each image one term
        c_i * m_i or zero: c * prod x_i^e_i maps to c * prod c_i^e_i times
        prod m_i^e_i, or vanishes.  An image of two or more terms raises
        ValueError.

        Unmapped variables are carried through unchanged, which requires
        the target ring to be the same one; when nvars_out differs, every
        variable occurring in self must be mapped, or ValueError is raised.
        """
        target = self.nvars if nvars_out is None else nvars_out
        # per variable: None for a zero image, else (exponents, coefficient)
        single: dict[int, tuple | None] = {}
        for i, g in mapping.items():
            if g.nvars != target:
                raise ValueError(f"image of x_{i} lives in arity {g.nvars}, expected {target}")
            if len(g.terms) > 1:
                raise ValueError(f"image of x_{i} has {len(g.terms)} terms, expected one or none")
            single[i] = next(iter(g.terms.items()), None)
        same_ring = target == self.nvars
        out = []
        for exps, coeff in self.terms.items():
            new = [0] * target
            vanishes = False
            for i, e in enumerate(exps):
                if not e:
                    continue
                if i in single:
                    image = single[i]
                    if image is None:
                        vanishes = True
                    elif not vanishes:
                        m, c = image
                        coeff = coeff * c ** e
                        for j, a in enumerate(m):
                            if a:
                                new[j] += a * e
                elif same_ring:
                    new[i] += e
                else:
                    raise ValueError(f"variable x_{i} unmapped across ring change")
            if not vanishes:
                out.append((tuple(new), coeff))
        return SparsePoly(target, out)

    def evaluate(self, point) -> object:
        """Exact value at a point of field elements (Fraction or CycloNum)."""
        point = list(point)
        if len(point) != self.nvars:
            raise ValueError(f"point has {len(point)} coordinates, expected {self.nvars}")
        total = 0
        for exps, coeff in self.terms.items():
            v = coeff
            for x, e in zip(point, exps):
                if e:
                    v = v * (x ** e)
            total = v + total
        if isinstance(total, int):
            return Fraction(total)
        return total

    def __str__(self) -> str:
        return render_poly(self)

    def __repr__(self) -> str:
        return f"SparsePoly({self.nvars}, {render_poly(self)})"


# -- division ---------------------------------------------------------------


def monomial_exponents(g: SparsePoly) -> tuple[int, ...] | None:
    """The exponent vector of a single-term polynomial, else None."""
    if len(g.terms) != 1:
        return None
    (exps, _), = g.terms.items()
    return exps


def monomial_divides(d: tuple[int, ...], e: tuple[int, ...]) -> bool:
    """Whether the monomial with exponents d divides the one with exponents e."""
    return all(a <= b for a, b in zip(d, e))


def divmod_single(f: SparsePoly, d: SparsePoly) -> tuple[SparsePoly, SparsePoly]:
    """Division with remainder by a single divisor under grevlex."""
    if d.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    f._check_arity(d)
    d_exps, d_coeff = d.leading_term()
    quotient = SparsePoly.zero(f.nvars)
    remainder_terms: dict = {}
    work = f
    while work.terms:
        exps, coeff = work.leading_term()
        if monomial_divides(d_exps, exps):
            q_exps = tuple(a - b for a, b in zip(exps, d_exps))
            q_coeff = coeff / d_coeff
            t = SparsePoly(f.nvars, {q_exps: q_coeff})
            quotient = quotient + t
            work = work - t * d
        else:
            remainder_terms[exps] = coeff
            work = SparsePoly(f.nvars, {e: c for e, c in work.terms.items() if e != exps})
    return quotient, SparsePoly(f.nvars, remainder_terms)


def graded_monomials(nvars: int, degree: int) -> list[tuple[int, ...]]:
    """All exponent vectors of the given total degree, grevlex descending.

    Descending grevlex orders by the last exponent ascending, then the one
    before it, and so on; so each vector is built by appending the next
    variable's exponent in the outer loop, ascending.
    """
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    if nvars == 0:
        return [()] if degree == 0 else []
    # by_degree[d]: the vectors of degree d in the first k variables, in order
    by_degree = [[(d,)] for d in range(degree + 1)]
    for _ in range(nvars - 1):
        by_degree = [
            [m + (e,) for e in range(d + 1) for m in by_degree[d - e]]
            for d in range(degree + 1)
        ]
    return by_degree[degree]


# -- canonical text form ------------------------------------------------------


def default_variables(nvars: int, start: int = 0) -> list[str]:
    return [f"x{i}" for i in range(start, start + nvars)]


def render_poly(f: SparsePoly, variables: list[str] | None = None) -> str:
    if variables is None:
        variables = default_variables(f.nvars)
    if len(variables) != f.nvars:
        raise ValueError("variable name list has wrong length")
    if not f.terms:
        return "0"
    pieces = []
    for exps, coeff in f.sorted_terms():
        factors = []
        for name, e in zip(variables, exps):
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append(f"{name}^{e}")
        if isinstance(coeff, CycloNum):
            if coeff.is_rational():
                coeff = coeff.as_rational()
        if isinstance(coeff, CycloNum):
            coeff_str, sign = f"({coeff!r})", "+"
        else:
            sign = "-" if coeff < 0 else "+"
            mag = -coeff if coeff < 0 else coeff
            coeff_str = "" if (mag == 1 and factors) else str(mag)
        body = "*".join(([coeff_str] if coeff_str else []) + factors)
        pieces.append((sign, body))
    first_sign, first_body = pieces[0]
    text = ("-" if first_sign == "-" else "") + first_body
    for sign, body in pieces[1:]:
        text += f" {sign} {body}"
    return text


_TOKEN = re.compile(r"\s*([A-Za-z_][A-Za-z_0-9]*|\d+|\^|\*|/|\+|-)")


def parse_poly(text: str, variables: list[str], nvars: int | None = None) -> SparsePoly:
    """Parse the canonical grammar: rational coefficients, ``*`` products, ``^`` powers."""
    if nvars is None:
        nvars = len(variables)
    index = {name: i for i, name in enumerate(variables)}
    tokens: list[str | None] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip() == "":
                break
            raise ValueError(f"cannot tokenize {text[pos:]!r}")
        tokens.append(m.group(1))
        pos = m.end()
    tokens.append(None)  # sentinel

    k = 0

    def peek():
        return tokens[k]

    def take():
        nonlocal k
        t = tokens[k]
        k += 1
        return t

    def take_int() -> int:
        t = take()
        if t is None or not t.isdigit():
            raise ValueError(f"expected integer, got {t!r}")
        return int(t)

    def parse_factor() -> SparsePoly:
        t = take()
        if t is None:
            raise ValueError("unexpected end of polynomial")
        if t.isdigit():
            value = Fraction(int(t))
            if peek() == "/":
                take()
                value /= take_int()
            return SparsePoly.constant(nvars, value)
        if t in index:
            power = 1
            if peek() == "^":
                take()
                power = take_int()
            return SparsePoly.variable(nvars, index[t], power)
        raise ValueError(f"unknown symbol {t!r}")

    def parse_term() -> SparsePoly:
        result = parse_factor()
        while peek() == "*":
            take()
            result = result * parse_factor()
        return result

    total = SparsePoly.zero(nvars)
    sign = 1
    if peek() == "-":
        take()
        sign = -1
    elif peek() == "+":
        take()
    while True:
        total = total + parse_term().scale(sign)
        t = peek()
        if t is None:
            return total
        if t == "+":
            sign = 1
        elif t == "-":
            sign = -1
        else:
            raise ValueError(f"unexpected token {t!r}")
        take()
