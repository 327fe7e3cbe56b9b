"""An expansion is its integer form: differential tests against elements.

A ``TExpansion`` holds one (exponent vector, numerator) pair per term over
one denominator, and its reports render each coefficient straight from
its numerator (``fields.render``, which ``GroundField.render`` calls as
well).  Here that rendering is compared with ``str`` of the ``Fraction``
n/den and of the residue n mod p, on negative numerators and numerators
that share a factor with the denominator, and past the digits ``str()``
may print with ``str()`` allowed more.  Reports are compared with
``GroundField.render`` of the ``Fraction`` or ``Fp`` each numerator
stands for: on the Q-frac tower of ``test_expand``, whose digits have
denominators 7 to 686, and over F_2, F_3, F_5 and F_101.  An expansion rebuilt by the public
constructor from the field elements of ``expand``'s must equal it in
every way the library reads one.
"""

import sys
from contextlib import contextmanager
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from jumpseq.engine import TExpansion, expand, verify_generating_sequence
from jumpseq.fields import QQ, render
from jumpseq.poly import BivarPoly

from conftest import FIELDS
from test_expand import SEQUENCES, polys_for


@contextmanager
def unlimited_str_digits():
    """``str()`` of an int of any length, for the oracle only."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


@pytest.mark.parametrize("fld", FIELDS, ids=lambda f: "F%d" % f.characteristic if f.characteristic else "QQ")
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_render_matches_the_element_path(fld, data):
    """Over F_p the residue in [0, p), over Q the ``Fraction`` n/den in
    lowest terms with the sign on the numerator."""
    p = fld.characteristic
    n = data.draw(st.integers(-10 ** 40, 10 ** 40) | st.integers(-3 * (p or 9), 3 * (p or 9)))
    den = 1 if p else data.draw(st.integers(1, 10 ** 12) | st.sampled_from([1, 2, 7, 686]))
    assert render(n, den, p) == (str(n % p) if p else str(Fraction(n, den)))


def test_render_past_the_digit_limit():
    """Over Q, a numerator or a denominator longer than 4 300 digits, which
    ``str()`` refuses, is rendered in lowest terms as ``str()`` writes it
    when it may make any number of digits."""
    big = 10 ** 4400 + 3
    with pytest.raises(ValueError):
        str(big)
    for n, den in ((-6 * big, 4), (3, 2 * big), (2 * big, 2)):
        out = render(n, den, 0)
        with unlimited_str_digits():
            assert out == str(Fraction(n, den))
        assert out == QQ.render(Fraction(n, den))
        assert len(out) > 4300
    assert render(-35 * big, 14 * big, 0) == QQ.render(Fraction(-35 * big, 14 * big)) == "-5/2"


def test_fractional_tower_has_unreduced_numerators():
    """v^7 on the Q-frac tower gives numerators over 686 that are negative
    or share a factor with it, and each renders as its element does."""
    js = SEQUENCES["Q-frac"]
    exp = expand(BivarPoly.monomial(QQ, 0, 7), js)
    assert exp.den == 686
    assert any(n < 0 for _, n in exp.pairs)
    assert any(gcd(n, exp.den) > 1 for _, n in exp.pairs)
    assert exp.to_json()["terms"] == [{"c": QQ.render(c), "e": list(e)} for c, e in exp.terms]


def _checked(js, f):
    """``expand(f, js)`` checked against the expansion the public
    constructor makes from its field elements."""
    exp = expand(f, js)
    fld = js.field
    assert all(type(c) is fld.element_type and c for c, _ in exp.terms)
    made = TExpansion(js, exp.terms)
    assert made == exp and hash(made) == hash(exp)
    assert made.nums == exp.nums
    assert made.to_json() == exp.to_json() == {
        "terms": [{"c": fld.render(c), "e": list(e)} for c, e in exp.terms]}
    assert made.resubstitute() == exp.resubstitute() == f
    return exp


@pytest.mark.parametrize("name", list(SEQUENCES))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_constructor_agrees_with_expand(name, data):
    js = SEQUENCES[name]
    f = data.draw(polys_for(js))
    if not f.is_zero():
        _checked(js, f)


def test_long_coefficient_through_an_expansion():
    """A coefficient of more than 4 300 digits survives the expansion, the
    constructor and the report."""
    js = SEQUENCES["Q-frac"]
    u, v = BivarPoly.gens(QQ)
    exp = _checked(js, (v ** 3 + u).scale(Fraction(-(10 ** 4400 + 1), 3)) + js.T[3])
    assert max(len(t["c"]) for t in exp.to_json()["terms"]) > 4300


@pytest.mark.parametrize("name", ["Q-frac", "F2", "F3", "F101"])
def test_verify_witnesses_render_as_elements(name):
    """Each witness of ``verify_generating_sequence`` is v^b's expansion
    shifted by u^a, its coefficients rendered as their elements are."""
    js = SEQUENCES[name]
    fld = js.field
    records = [r for r in verify_generating_sequence(js, Fraction(6), 4) if r["pass"] is not None]
    assert records
    for record in records:
        a, b = (int(s[2:]) for s in record["inputs"].split())
        witness = expand(BivarPoly.monomial(fld, 0, b), js)
        assert record["witness"]["terms"] == [
            {"c": fld.render(c), "e": [e[0] + a, *e[1:]]} for c, e in witness.terms]


def test_constructor_drops_zero_coefficients(js_a):
    """A zero coefficient is no term, as in a polynomial: the public
    constructor drops it, so the expansion equals one made without it."""
    e1, e2 = (1, 0, 0, 0), (0, 1, 0, 0)
    with_zero = TExpansion(js_a, ((QQ(0), e1), (QQ(2), e2)))
    assert with_zero == TExpansion(js_a, ((QQ(2), e2),))
    assert with_zero.terms == ((QQ(2), e2),)
