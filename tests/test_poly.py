from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from jumpseq.errors import DivisibilityError, ResourceLimitError
from jumpseq.fields import QQ, Fp, prime_field
from jumpseq.poly import TERM_LIMIT, BivarPoly, RatExpr, divmod_in_v, eval_rat, exact_divide

F101 = prime_field(101)


def P(terms, fld=QQ, vars=("u", "v")):
    return BivarPoly(fld, {e: fld(c) for e, c in terms.items()}, vars)


coeffs = st.fractions(min_value=-9, max_value=9, max_denominator=9)
exponents = st.tuples(st.integers(0, 6), st.integers(0, 6))
poly_dicts = st.dictionaries(exponents, coeffs, min_size=0, max_size=6)


def from_dict(d, fld=QQ):
    return BivarPoly(fld, {e: fld(c) for e, c in d.items()}, ("u", "v"))


# ---------------------------------------------------------------------------
# ring axioms and basic queries
# ---------------------------------------------------------------------------


@given(poly_dicts, poly_dicts)
def test_addition_commutes(d1, d2):
    f, g = from_dict(d1), from_dict(d2)
    assert f + g == g + f


@given(poly_dicts, poly_dicts)
def test_multiplication_commutes(d1, d2):
    f, g = from_dict(d1), from_dict(d2)
    assert f * g == g * f


@settings(max_examples=40)
@given(poly_dicts, poly_dicts, poly_dicts)
def test_distributivity(d1, d2, d3):
    f, g, h = from_dict(d1), from_dict(d2), from_dict(d3)
    assert f * (g + h) == f * g + f * h


@given(poly_dicts)
def test_subtraction_gives_zero(d):
    f = from_dict(d)
    assert (f - f).is_zero()


@given(poly_dicts, st.integers(0, 4))
def test_pow_matches_repeated_product(d, e):
    f = from_dict(d)
    expected = BivarPoly.const(QQ, 1)
    for _ in range(e):
        expected = expected * f
    assert f ** e == expected


def test_queries():
    f = P({(0, 0): 1, (2, 1): 3, (0, 3): Fraction(1, 2)})
    assert f.deg_u() == 2 and f.deg_v() == 3
    assert f.constant_term() == 1
    assert f.v_coefficient(1) == P({(2, 0): 3}, vars=("u", "v"))


def test_product_over_term_limit_raises():
    f = P({(a, 0): 1 for a in range(101)})
    g = P({(0, b): 1 for b in range(101)})
    assert 101 * 101 > TERM_LIMIT
    with pytest.raises(ResourceLimitError):
        f * g


def test_element_of_another_prime_field_is_rejected():
    with pytest.raises(ValueError):
        BivarPoly(F101, {(0, 0): Fp(3, 7)})
    with pytest.raises(ValueError):
        P({(0, 1): 1}, fld=F101) + Fp(3, 7)


def test_equality_reads_scalars_as_arithmetic_does():
    """A polynomial equals a scalar exactly when it is that constant, with
    the scalar coerced as + and * coerce it; a scalar the field cannot hold
    compares unequal instead of raising."""
    F5 = prime_field(5)
    one = BivarPoly.const(F5, 1)
    assert one == Fp(1, 5) and one == 6 and one != Fp(2, 5)
    assert one != Fraction(1, 2) and one != Fp(1, 7)
    assert BivarPoly.const(QQ, 1) != Fp(1, 5)


def test_constant_hashes_as_the_scalar_it_equals():
    """A polynomial of at most a constant term hashes as its coefficient,
    the zero polynomial as the field's zero, so sets and dict keys agree
    with ``==``."""
    for c in (0, 1, Fraction(3, 2)):
        const = BivarPoly.const(QQ, c)
        assert const == c and hash(const) == hash(c)
        assert len({const, c}) == 1 and {c: "scalar"}[const] == "scalar"
    assert hash(P({})) == hash(QQ.zero)
    F5 = prime_field(5)
    assert hash(BivarPoly.const(F5, 1)) == hash(Fp(1, 5))
    assert len({BivarPoly.const(F5, 1), Fp(1, 5)}) == 1
    assert hash(BivarPoly.const(F5, 0)) == hash(F5.zero)
    u, v = BivarPoly.gens(QQ)
    assert len({u + 1, u + 1, 1 + u, v}) == 2


def test_equality_reads_variable_names():
    """u and x are different polynomials, as u + x refuses to mix them;
    the same names compare equal."""
    u, _ = BivarPoly.gens(QQ)
    x, _ = BivarPoly.gens(QQ, ("x", "y"))
    assert u != x and not u == x
    assert BivarPoly.const(QQ, 1) != BivarPoly.const(QQ, 1, ("x", "y"))
    assert x == BivarPoly.gens(QQ, ("x", "y"))[0]


def test_mixed_variables_are_rejected():
    """(u, v) and (x, y) polynomials do not add, multiply or divide, while
    subs maps (u, v) onto (x, y) by design."""
    f = P({(1, 0): 1, (0, 2): 1})
    x, y = BivarPoly.gens(QQ, ("x", "y"))
    for op in (lambda: f + x, lambda: f - x, lambda: f * y, lambda: divmod_in_v(f, y)):
        with pytest.raises(ValueError, match="mixed variables"):
            op()
    with pytest.raises(ValueError, match="mixed variables"):
        f.subs(x, P({(0, 1): 1}))
    assert f.subs(x, y) == P({(1, 0): 1, (0, 2): 1}, vars=("x", "y"))
    assert f.subs(x, y).vars == ("x", "y")


def test_constructor_coerces_plain_inputs():
    f = BivarPoly(F101, {(0, 0): 205, (1, 0): "3", (2, 0): 101})
    assert f.terms == {(0, 0): Fp(3, 101), (1, 0): Fp(3, 101)}
    g = BivarPoly(QQ, {(0, 0): 2, (0, 1): "1/2", (1, 1): Fraction(0)})
    assert g.terms == {(0, 0): Fraction(2), (0, 1): Fraction(1, 2)}
    assert all(type(c) is Fraction for c in g.terms.values())


# ---------------------------------------------------------------------------
# substitution
# ---------------------------------------------------------------------------


@given(poly_dicts)
def test_identity_substitution(d):
    f = from_dict(d)
    u, v = BivarPoly.gens(QQ, ("u", "v"))
    assert f.subs(u, v) == f


@settings(max_examples=30)
@given(poly_dicts)
def test_substitution_is_ring_map(d):
    f = from_dict(d)
    u, v = BivarPoly.gens(QQ, ("u", "v"))
    su = u * v
    sv = v + u ** 2
    g = P({(1, 1): 1, (0, 2): -2})
    assert (f * g).subs(su, sv) == f.subs(su, sv) * g.subs(su, sv)
    assert (f + g).subs(su, sv) == f.subs(su, sv) + g.subs(su, sv)


# ---------------------------------------------------------------------------
# division
# ---------------------------------------------------------------------------


def test_divmod_in_v_euclidean_property():
    g = P({(0, 2): 1, (3, 0): -1})  # v^2 - u^3, monic in v
    f = P({(0, 5): 1, (2, 2): 4, (1, 0): 7})
    q, r = divmod_in_v(f, g)
    assert q * g + r == f
    assert r.deg_v() < g.deg_v()


def test_divmod_in_v_requires_monic_divisor():
    with pytest.raises(ValueError):
        divmod_in_v(P({(0, 3): 1}), P({(0, 2): 2, (1, 0): 1}))
    with pytest.raises(ValueError):
        divmod_in_v(P({(0, 3): 1}), P({(1, 2): 1}))


@settings(max_examples=40)
@given(poly_dicts, poly_dicts)
def test_exact_divide_roundtrip(d1, d2):
    f, g = from_dict(d1), from_dict(d2)
    if g.is_zero():
        return
    assert exact_divide(f * g, g) == f


def test_exact_divide_failure_carries_remainder():
    f = P({(0, 1): 1, (0, 0): 1})  # v + 1
    g = P({(1, 0): 1})             # u
    with pytest.raises(DivisibilityError):
        exact_divide(f, g)


def test_prime_field_polynomials():
    f = P({(0, 1): 1, (1, 0): 100}, fld=F101)
    g = P({(0, 1): 1, (1, 0): 1}, fld=F101)
    assert f + g == P({(0, 1): 2}, fld=F101)
    assert exact_divide(f * g, g) == f


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


@given(poly_dicts)
def test_json_roundtrip(d):
    f = from_dict(d)
    assert BivarPoly.from_json(QQ, f.to_json()) == f


def test_constant_string_parses():
    assert BivarPoly.from_json(QQ, "1", vars=("x", "y")) == BivarPoly.const(QQ, 1, ("x", "y"))


# ---------------------------------------------------------------------------
# rational expressions
# ---------------------------------------------------------------------------


def test_ratexpr_monomial_reduction():
    u, v = BivarPoly.gens(QQ, ("u", "v"))
    r = RatExpr(u ** 3 * v, u ** 2)
    assert r.num == u * v and r.den == BivarPoly.const(QQ, 1)


def test_ratexpr_arithmetic():
    u, v = BivarPoly.gens(QQ, ("u", "v"))
    r = RatExpr.from_poly(v) / RatExpr.from_poly(u)
    s = r * r
    assert s.num == v ** 2 and s.den == u ** 2
    t = r ** -1
    assert t.num == u and t.den == v
    w = r.sub_scalar(Fraction(1))
    assert w.num == v - u and w.den == u


def test_eval_rat():
    u, v = BivarPoly.gens(QQ, ("u", "v"))
    f = v ** 2 - u ** 3
    ru = RatExpr.from_poly(u)
    rv = RatExpr(v, u)  # v/u
    r = eval_rat(f, ru, rv)
    # f(u, v/u) = v^2/u^2 - u^3
    assert r.num == v ** 2 - u ** 5 and r.den == u ** 2
