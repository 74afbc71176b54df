import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from heisencheck.exactnum import CycloNum
from heisencheck.ffscan import evaluate_poly_batch
from heisencheck.mpoly import (
    SparsePoly,
    divmod_single,
    graded_monomials,
    grevlex_key,
    parse_poly,
    render_poly,
)
from oracles import expanded_substitute, partial, sorted_graded_monomials


def rand_poly(rng, nvars=4, terms=3, max_exp=3):
    out = SparsePoly.zero(nvars)
    for _ in range(terms):
        exps = tuple(rng.randint(0, max_exp) for _ in range(nvars))
        out = out + SparsePoly(nvars, {exps: Fraction(rng.randint(-5, 5))})
    return out


def test_basic_products():
    x1sq = SparsePoly.monomial(5, [0, 0])
    x2sq = SparsePoly.monomial(5, [1, 1])
    assert x1sq * x2sq == SparsePoly.monomial(5, [0, 0, 1, 1])
    f = SparsePoly.monomial(5, [0, 0, 1]) + SparsePoly.monomial(5, [1, 1, 2])
    assert len((f * SparsePoly.variable(5, 4)).terms) == 2
    assert (f - f).is_zero()


def test_ring_axioms_random():
    rng = random.Random(2)
    for _ in range(30):
        f, g, h = (rand_poly(rng) for _ in range(3))
        assert (f + g) * h == f * h + g * h
        assert (f * g) * h == f * (g * h)
        assert f * g == g * f


def test_grevlex_order():
    # degree dominates; ties break by the rightmost exponent difference
    x2 = (2, 0)
    xy = (1, 1)
    y2 = (0, 2)
    assert grevlex_key(x2) > grevlex_key(xy) > grevlex_key(y2)
    f = SparsePoly(2, {x2: 1, xy: 1, y2: 1})
    assert [e for e, _ in f.sorted_terms()] == [x2, xy, y2]


def test_substitute_identity_and_permutation():
    rng = random.Random(3)
    f = rand_poly(rng, nvars=5)
    identity = {i: SparsePoly.variable(5, i) for i in range(5)}
    assert f.substitute(identity) == f
    perm = [1, 2, 3, 4, 0]
    inverse = [perm.index(i) for i in range(5)]
    forward = {i: SparsePoly.variable(5, perm[i]) for i in range(5)}
    backward = {i: SparsePoly.variable(5, inverse[i]) for i in range(5)}
    assert f.substitute(forward).substitute(backward) == f


def test_substitute_ring_change_requires_total_map():
    f = SparsePoly.monomial(3, [0, 1])
    mapping = {0: SparsePoly.variable(2, 0)}
    with pytest.raises(ValueError):
        f.substitute(mapping, nvars_out=2)
    mapping[1] = SparsePoly.variable(2, 1)
    assert f.substitute(mapping, nvars_out=2) == SparsePoly.monomial(2, [0, 1])


def coefficients():
    """Nonzero Fractions and nonzero elements of Q(xi_9)."""
    rational = st.builds(Fraction, st.integers(1, 5), st.integers(1, 4))
    cyclotomic = st.builds(lambda k, c: CycloNum.root(9, k) * c, st.integers(0, 8), rational)
    return st.builds(lambda sign, c: sign * c, st.sampled_from([1, -1]), rational | cyclotomic)


def polys(nvars: int, min_size: int, max_size: int):
    return st.dictionaries(st.tuples(*[st.integers(0, 3)] * nvars), coefficients(),
                           min_size=min_size, max_size=max_size,
                           ).map(lambda terms: SparsePoly(nvars, terms))


@st.composite
def substitutions(draw):
    """(f, mapping, nvars_out): each variable of f unmapped, sent to 0, or to
    one term c * m (occasionally two terms, which substitute rejects)."""
    nvars = draw(st.integers(1, 5))
    nvars_out = draw(st.sampled_from([nvars, 1, 2, 3, 4, 5]))
    f = draw(polys(nvars, 0, 6))
    mapping = {}
    for i in range(nvars):
        size = draw(st.sampled_from([None, 0, 1, 1, 1, 2]))
        if size is not None:
            mapping[i] = draw(polys(nvars_out, size, size))
    return f, mapping, nvars_out


@settings(max_examples=150, deadline=None, derandomize=True)
@given(substitutions())
def test_substitute_matches_the_expansion_oracle(case):
    f, mapping, nvars_out = case
    wide = [i for i, g in mapping.items() if len(g.terms) > 1]
    if wide:
        # rejected whether or not x_i occurs in f
        with pytest.raises(ValueError, match=rf"image of x_{wide[0]} has \d+ terms"):
            f.substitute(mapping, nvars_out=nvars_out)
        return
    try:
        expected = expanded_substitute(f, mapping, nvars_out)
    except ValueError:
        # an unmapped variable occurs across a ring change
        with pytest.raises(ValueError, match="unmapped across ring change"):
            f.substitute(mapping, nvars_out=nvars_out)
        return
    assert f.substitute(mapping, nvars_out=nvars_out) == expected
    if nvars_out == f.nvars:
        assert f.substitute(mapping) == expected


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.integers(1, 5).flatmap(lambda n: st.tuples(polys(n, 0, 6), st.integers(0, n - 1))))
def test_derivative_matches_the_partial_oracle(case):
    f, k = case
    assert f.derivative(k) == partial(f, k)
    # a variable that f does not contain differentiates to zero
    g = SparsePoly(f.nvars + 1, {e + (0,): c for e, c in f.terms.items()})
    assert g.derivative(f.nvars) == SparsePoly.zero(f.nvars + 1)
    for bad in (-1, f.nvars):
        with pytest.raises(ValueError, match="no variable"):
            f.derivative(bad)


def test_substitute_one_term_images_cancel_and_collect():
    # x0 -> x0, x1 -> -x0, x2 -> 0: x0^2 + 2 x0 x1 + x1^2 + x2 collapses to 0
    f = parse_poly("x0^2 + 2*x0*x1 + x1^2 + x2", ["x0", "x1", "x2"])
    x0 = SparsePoly.variable(1, 0)
    mapping = {0: x0, 1: -x0, 2: SparsePoly.zero(1)}
    assert f.substitute(mapping, nvars_out=1).is_zero()
    # a killed variable does not excuse an unmapped one in the same term
    with pytest.raises(ValueError, match="x_1 unmapped"):
        SparsePoly.monomial(3, [0, 1]).substitute({0: SparsePoly.zero(2)}, nvars_out=2)


def test_evaluate_is_multiplicative():
    rng = random.Random(4)
    for _ in range(20):
        f, g = rand_poly(rng), rand_poly(rng)
        point = [Fraction(rng.randint(-3, 3)) for _ in range(4)]
        assert (f * g).evaluate(point) == f.evaluate(point) * g.evaluate(point)
        assert (f + g).evaluate(point) == f.evaluate(point) + g.evaluate(point)


def test_divide_exact_roundtrip():
    rng = random.Random(6)
    checked = 0
    for _ in range(200):
        f = rand_poly(rng, terms=3)
        d = rand_poly(rng, terms=2)
        if d.is_zero():
            continue
        q, r = divmod_single(f * d, d)
        assert q == f and r.is_zero()
        checked += 1
    assert checked > 150


def test_divide_not_divisible():
    x1sq = SparsePoly.monomial(3, [0, 0])
    x2 = SparsePoly.variable(3, 1)
    q, r = divmod_single(x1sq, x2)
    assert q.is_zero() and r == x1sq
    q, r = divmod_single(x1sq + x2, x2)
    assert q == SparsePoly.constant(3, 1)
    assert r == x1sq


def test_graded_monomials_counts():
    assert len(graded_monomials(9, 2)) == 45
    assert len(graded_monomials(5, 3)) == 35
    assert len(graded_monomials(9, 5)) == 1287
    mons = graded_monomials(3, 4)
    assert len(set(mons)) == len(mons) == math.comb(4 + 2, 2)
    assert mons == sorted(mons, key=grevlex_key, reverse=True)


def test_graded_monomials_in_no_variables():
    # the ring in no variables is the field: only the empty monomial, in degree 0
    assert graded_monomials(0, 0) == [()]
    assert graded_monomials(0, 1) == graded_monomials(0, 4) == []


def test_graded_monomials_match_the_sorting_oracle():
    for nvars in range(1, 10):
        for degree in range(9):
            assert graded_monomials(nvars, degree) == sorted_graded_monomials(nvars, degree)


def test_evaluate_mod_rejects_cyclotomic_coefficients():
    point = np.array([[1, 2]])
    f = SparsePoly(2, {(1, 0): CycloNum.root(9), (0, 1): 1})
    with pytest.raises(ValueError, match="cyclotomic"):
        evaluate_poly_batch(f, point, 19)
    half = SparsePoly(2, {(1, 0): Fraction(1, 2), (0, 1): 1})
    assert evaluate_poly_batch(half, point, 19).tolist() == [12]


NAMES = ["x0", "x1", "x2", "x3"]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.dictionaries(
    st.tuples(*[st.integers(0, 4)] * len(NAMES)),
    st.fractions(min_value=-50, max_value=50, max_denominator=30),
    max_size=6,
).map(lambda terms: SparsePoly(len(NAMES), terms)))
def test_render_and_parse_roundtrip(f):
    text = render_poly(f, NAMES)
    assert parse_poly(text, NAMES) == f
    assert (text == "0") == f.is_zero()


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        parse_poly("x0 + y9", ["x0"])
    with pytest.raises(ValueError):
        parse_poly("x0 ++ x0", ["x0"])


def test_derivative_and_homogeneous():
    f = SparsePoly.monomial(3, [0, 0, 1]) + SparsePoly.monomial(3, [2, 2, 2])
    assert f.is_homogeneous()
    df = partial(f, 0)
    assert df == SparsePoly.monomial(3, [0, 1], 2)
    assert df.is_homogeneous()
    assert not (f + SparsePoly.variable(3, 0)).is_homogeneous()
