"""Differential tests of the polynomial kernel against sympy.

Every ring operation (``+``, ``-``, ``*``, ``**`` and ``scale``),
substitutions and both division routines are compared with sympy's
polynomial arithmetic over Q and over F_101 on small random polynomials,
and the ring operations and substitutions again on large ones (20 to 80
terms, each operand over Q with its own denominators).  Ring operations
must also store coefficients of the field's element type.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from jumpseq.errors import DivisibilityError, ResourceLimitError
from jumpseq.fields import QQ, prime_field
from jumpseq.poly import TERM_LIMIT, BivarPoly, divmod_in_v, exact_divide

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
    if not f.field.characteristic:
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
        if not fld.characteristic:
            c = Fraction(int(c.p), int(c.q))
        else:
            c = int(c) % fld.characteristic
        terms[tuple(mono[i] for i in order)] = c
    return BivarPoly(fld, terms)


def assert_typed(f, fld):
    assert {type(c) for c in f.terms.values()} <= {fld.element_type}


def check_ring_ops(f, g, e, c):
    """``f + g``, ``f - g``, ``f ** e`` and ``f.scale(c)`` against sympy."""
    fld = f.field
    F, G = to_sympy(f), to_sympy(g)
    C = to_sympy(BivarPoly.const(fld, c))
    for ours, theirs in ((f + g, F + G), (f - g, F - G), (f ** e, F ** e),
                         (f.scale(c), F * C)):
        assert ours == from_sympy(theirs, fld)
        assert_typed(ours, fld)


@settings(max_examples=40, deadline=None)
@given(st.data(), fields)
def test_mul_matches_sympy(data, fld):
    f, g = data.draw(polys(fld)), data.draw(polys(fld))
    assert f * g == from_sympy(to_sympy(f) * to_sympy(g), fld)


@settings(max_examples=40, deadline=None)
@given(st.data(), fields, st.integers(0, 4))
def test_ring_operations_match_sympy(data, fld, e):
    f, g = data.draw(polys(fld)), data.draw(polys(fld))
    check_ring_ops(f, g, e, data.draw(coeffs(fld)))


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


# ---- the integer inner loops ---------------------------------------------


@st.composite
def large_polys(draw, fld, min_terms, max_terms, max_exp):
    """Polynomials with many terms; over Q every operand draws its own
    denominators (a base d times 1, 2 or 3) and mixed-sign numerators."""
    exps = draw(st.sets(st.tuples(st.integers(0, max_exp), st.integers(0, max_exp)),
                        min_size=min_terms, max_size=max_terms))
    if fld is QQ:
        base = draw(st.integers(2, 12))
        nums = st.integers(-60, 60).filter(bool)
        return BivarPoly(fld, {e: Fraction(draw(nums), base * draw(st.integers(1, 3)))
                               for e in exps})
    return BivarPoly(fld, {e: draw(st.integers(1, 100)) for e in exps})


def expected_subs(f, first, second):
    """f(first, second) by sympy's polynomial arithmetic."""
    P1, P2 = to_sympy(first), to_sympy(second)
    out = to_sympy(BivarPoly(f.field, {}))
    for (a, b), c in f.terms.items():
        out += to_sympy(BivarPoly(f.field, {(0, 0): c})) * P1 ** a * P2 ** b
    return from_sympy(out, f.field)


@settings(max_examples=15, deadline=None)
@given(st.data(), fields)
def test_large_mul_matches_sympy(data, fld):
    f = data.draw(large_polys(fld, 20, 80, 12))
    g = data.draw(large_polys(fld, 20, 80, 12))
    product = f * g
    assert product == from_sympy(to_sympy(f) * to_sympy(g), fld)
    assert_typed(product, fld)


@settings(max_examples=10, deadline=None)
@given(st.data(), fields, st.integers(0, 4))
def test_large_ring_operations_match_sympy(data, fld, e):
    f = data.draw(large_polys(fld, 20, 80, 12))
    g = data.draw(large_polys(fld, 20, 80, 12))
    check_ring_ops(f, g, e, data.draw(coeffs(fld)))


@settings(max_examples=10, deadline=None)
@given(st.data(), fields)
def test_large_subs_matches_sympy(data, fld):
    f = data.draw(large_polys(fld, 20, 30, 5))
    first = data.draw(large_polys(fld, 2, 5, 2))
    second = data.draw(large_polys(fld, 2, 5, 2))
    assert f.subs(first, second) == expected_subs(f, first, second)


@settings(max_examples=40, deadline=None)
@given(st.data(), fields, st.integers(2, 6), st.integers(2, 6))
def test_products_of_4_to_36_term_pairs_match_sympy(data, fld, n, m):
    """Most products the library forms are this small; they agree with
    sympy and store coefficients of the field's element type."""
    f = data.draw(large_polys(fld, n, n, 4))
    g = data.draw(large_polys(fld, m, m, 4))
    product = f * g
    assert product == from_sympy(to_sympy(f) * to_sympy(g), fld)
    assert_typed(product, fld)


def test_subs_checks_term_limit_on_intermediate_powers():
    """u^6 and v with first = sum of x^(7^i) + y^(7^i) for i < 6: the
    exponent sums in first^k are all distinct, so first^6 has C(17, 6) =
    12376 terms while the inputs and first^3 (364 terms) are small."""
    Y = BivarPoly.monomial(QQ, 0, 1, vars=("x", "y"))
    first = BivarPoly(QQ, {e: 1 for i in range(6) for e in ((7 ** i, 0), (0, 7 ** i))},
                      ("x", "y"))
    f = BivarPoly(QQ, {(6, 0): 1, (0, 1): 1})
    assert 12376 > TERM_LIMIT
    with pytest.raises(ResourceLimitError, match="polynomial with 12376 terms exceeds"):
        f.subs(first, Y)
