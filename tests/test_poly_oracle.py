"""Differential tests of the polynomial kernel against sympy.

Products, substitutions and both division routines are compared with
sympy's polynomial arithmetic over Q and over F_101 on small random
polynomials.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from jumpseq.errors import DivisibilityError
from jumpseq.fields import QQ, prime_field
from jumpseq.poly import BivarPoly, divmod_in_v, exact_divide

sympy = pytest.importorskip("sympy")

F101 = prime_field(101)
U, V = sympy.symbols("u v")

exponents = st.tuples(st.integers(0, 4), st.integers(0, 4))
fields = st.sampled_from([QQ, F101])


def coeffs(fld):
    if fld is QQ:
        return st.fractions(min_value=-9, max_value=9, max_denominator=9)
    return st.integers(0, fld.characteristic - 1)


@st.composite
def polys(draw, fld, max_terms=5):
    d = draw(st.dictionaries(exponents, coeffs(fld), max_size=max_terms))
    return BivarPoly(fld, d)


@st.composite
def monic_in_v(draw, fld):
    """v^d plus lower v-degree terms with coefficients in k[u]."""
    d = draw(st.integers(1, 3))
    lower = draw(st.dictionaries(st.tuples(st.integers(0, 4), st.integers(0, d - 1)),
                                 coeffs(fld), max_size=4))
    lower[(0, d)] = 1
    return BivarPoly(fld, lower)


def to_sympy(f: BivarPoly, gens=(U, V)):
    """``f`` as a sympy Poly in ``gens``, which name (u, v) in some order."""
    order = [(U, V).index(g) for g in gens]
    if f.field is QQ:
        terms = {tuple(e[i] for i in order): sympy.Rational(c.numerator, c.denominator)
                 for e, c in f.terms.items()}
        return sympy.Poly.from_dict(terms or {(0, 0): 0}, *gens, domain="QQ")
    terms = {tuple(e[i] for i in order): c.val for e, c in f.terms.items()}
    return sympy.Poly.from_dict(terms or {(0, 0): 0}, *gens,
                                modulus=f.field.characteristic)


def from_sympy(P, fld, gens=(U, V)) -> BivarPoly:
    order = [gens.index(g) for g in (U, V)]
    terms = {}
    for mono, c in P.terms():
        if fld is QQ:
            c = Fraction(int(c.p), int(c.q))
        else:
            c = int(c) % fld.characteristic
        terms[tuple(mono[i] for i in order)] = c
    return BivarPoly(fld, terms)


@settings(max_examples=40, deadline=None)
@given(st.data(), fields)
def test_mul_matches_sympy(data, fld):
    f, g = data.draw(polys(fld)), data.draw(polys(fld))
    assert f * g == from_sympy(to_sympy(f) * to_sympy(g), fld)


@settings(max_examples=30, deadline=None)
@given(st.data(), fields)
def test_subs_matches_sympy(data, fld):
    f = data.draw(polys(fld, max_terms=4))
    first, second = data.draw(polys(fld, 3)), data.draw(polys(fld, 3))
    expr = to_sympy(f).as_expr().subs({U: to_sympy(first).as_expr(),
                                       V: to_sympy(second).as_expr()}, simultaneous=True)
    if fld is QQ:
        expected = sympy.Poly(expr, U, V, domain="QQ")
    else:
        expected = sympy.Poly(expr, U, V, modulus=fld.characteristic)
    assert f.subs(first, second) == from_sympy(expected, fld)


@settings(max_examples=40, deadline=None)
@given(st.data(), fields)
def test_divmod_in_v_matches_sympy(data, fld):
    # with v as the main variable and g monic in v, sympy's division is
    # the Euclidean division in k[u][v]
    f, g = data.draw(polys(fld, 6)), data.draw(monic_in_v(fld))
    q, r = divmod_in_v(f, g)
    sq, sr = sympy.div(to_sympy(f, (V, U)), to_sympy(g, (V, U)))
    assert q == from_sympy(sq, fld, (V, U))
    assert r == from_sympy(sr, fld, (V, U))


@settings(max_examples=40, deadline=None)
@given(st.data(), fields, st.booleans())
def test_exact_divide_matches_sympy(data, fld, divisible):
    f, g = data.draw(polys(fld)), data.draw(polys(fld, 4))
    if g.is_zero():
        return
    if divisible:
        f = f * g
    # sympy returns f = q*g + r with r == 0 exactly when g divides f
    sq, sr = sympy.div(to_sympy(f), to_sympy(g))
    if sr.is_zero:
        assert exact_divide(f, g) == from_sympy(sq, fld)
    else:
        with pytest.raises(DivisibilityError):
            exact_divide(f, g)
