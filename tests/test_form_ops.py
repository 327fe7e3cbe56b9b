"""The form operations of :mod:`jumpseq.poly` against polynomial arithmetic.

Over Q, F_2, F_3 and F_101, on random polynomials f with integer form x:

* ``_translate(x, c, p)``, the closing step of a blow-up chain, is the
  form of f(X, X*(Y + c)) made by ``BivarPoly.subs``, for c fractional
  over Q and for v-degrees at and past p^2 over F_2 and F_3, where
  comb(b, k) vanishes mod p in the patterns of Lucas' theorem, and past p
  over F_101; at v-degrees p^2 and p^2 + 1 over F_101, where ``subs``
  takes seconds, it is checked against a closed form instead;
* ``_map`` by the matrix of a word of A and B steps is the substitution
  u -> u^xa v^ya, v -> u^xb v^yb, and the inverse matrix maps it back;
* ``_shift`` is the product with u^a v^b and the opposite shift undoes it,
  and ``_strip`` returns a quotient with no monomial factor that shifts
  back to x.
"""

import pytest
from hypothesis import given, settings, strategies as st

from jumpseq.fields import QQ, prime_field
from jumpseq.poly import BivarPoly, _map, _shift, _strip, _translate

FIELDS = [QQ, prime_field(2), prime_field(3), prime_field(101)]
#: v-degrees past the small ones: at and past p^2 for p = 2, 3, past p = 101
HIGH_DEGREES = {0: (9, 10), 2: (4, 5, 8), 3: (9, 10, 27), 101: (101, 102)}


def elements(fld):
    if fld is QQ:
        return st.fractions(min_value=-9, max_value=9, max_denominator=9)
    return st.integers(0, fld.characteristic - 1).map(fld)


@st.composite
def polys(draw, fld):
    p = fld.characteristic
    b = st.integers(0, 6) | st.sampled_from(HIGH_DEGREES[p])
    terms = draw(st.dictionaries(st.tuples(st.integers(0, 3), b), elements(fld),
                                 min_size=1, max_size=4))
    f = BivarPoly(fld, terms)
    return f if not f.is_zero() else BivarPoly.monomial(fld, 0, draw(b))


@st.composite
def field_and_poly(draw):
    fld = draw(st.sampled_from(FIELDS))
    return fld, draw(polys(fld))


@settings(max_examples=120, deadline=None)
@given(field_and_poly(), st.data())
def test_translate_is_the_closing_substitution(fp, data):
    fld, f = fp
    c = data.draw(elements(fld))
    X, Y = BivarPoly.gens(fld)
    assert _translate(f.form, c, fld.characteristic) == f.subs(X, X * (Y + c)).form


@pytest.mark.parametrize("c", [0, 1, 7, 100])
def test_translate_at_v_degree_p_squared(c):
    """Over F_101, v^10201 + u*v^10202 goes to
    u^10201*(v^10201 + c) + u^10203*(v^10201 + c)*(v + c), because
    (v + c)^(101^2) = v^(101^2) + c^(101^2) and c^(101^2) = c."""
    p, q = 101, 101 ** 2
    expected = BivarPoly(prime_field(p), {(q, q): 1, (q, 0): c, (q + 2, q + 1): 1,
                                          (q + 2, q): c, (q + 2, 1): c, (q + 2, 0): c * c})
    x = ({(0, q): 1, (1, q + 1): 1}, 1)
    assert _translate(x, prime_field(p)(c), p) == expected.form


@settings(max_examples=80, deadline=None)
@given(field_and_poly(), st.lists(st.sampled_from("AB"), max_size=6))
def test_map_is_the_monomial_substitution_and_inverts(fp, word):
    fld, f = fp
    rx, ry = (1, 0), (0, 1)
    for kind in word:  # A adds the second row to the first, B the first to the second
        both = (rx[0] + ry[0], rx[1] + ry[1])
        rx, ry = (both, ry) if kind == "A" else (rx, both)
    (xa, xb), (ya, yb) = rx, ry
    mapped = _map(f.form, rx, ry)
    image = (BivarPoly.monomial(fld, xa, ya), BivarPoly.monomial(fld, xb, yb))
    assert mapped == f.subs(*image).form
    assert _map(mapped, (yb, -xb), (-ya, xa)) == f.form


@settings(max_examples=80, deadline=None)
@given(field_and_poly(), st.integers(0, 5), st.integers(0, 5))
def test_shift_and_strip_invert(fp, a, b):
    fld, f = fp
    shifted = _shift(f.form, a, b)
    assert shifted == (f * BivarPoly.monomial(fld, a, b)).form
    assert _shift(shifted, -a, -b) == f.form
    quotient, sa, sb = _strip(shifted)
    assert (sa, sb) == (a + min(i for i, _ in f.form[0]), b + min(j for _, j in f.form[0]))
    assert min(i for i, _ in quotient[0]) == min(j for _, j in quotient[0]) == 0
    assert _shift(quotient, sa, sb) == shifted
