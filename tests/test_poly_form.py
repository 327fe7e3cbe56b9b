"""The canonical integer form that equality and hashing read.

A polynomial stores one integer form: residues in [0, p) over den = 1 over
F_p, numerators over the lcm of the denominators over Q, and ``({}, 1)`` for
zero.  Here a polynomial made by ``BivarPoly(field, terms)`` from field
elements, its terms computed by element arithmetic, is compared with the
same polynomial reached by the ring operations, ``subs``, ``divmod_in_v``
and ``resubstitute``, over Q, F_2, F_3 and F_101: the two must have equal
forms, compare equal and hash alike, and their ``terms`` views must hold
only field elements.  A constant, zero included, hashes as its
coefficient.
"""

from fractions import Fraction
from math import gcd

from hypothesis import given, settings, strategies as st

from jumpseq.engine import ValuationSpec, build_jumping_sequence, expand
from jumpseq.fields import QQ, prime_field
from jumpseq.poly import BivarPoly, divmod_in_v

FIELDS = [QQ, prime_field(2), prime_field(3), prime_field(101)]
fields = st.sampled_from(FIELDS)
exponents = st.tuples(st.integers(0, 4), st.integers(0, 4))


def elements(fld):
    if fld is QQ:
        return st.fractions(min_value=-9, max_value=9, max_denominator=9)
    return st.integers(0, fld.characteristic - 1).map(fld)


def element_dicts(fld, max_size=5):
    return st.dictionaries(exponents, elements(fld), max_size=max_size)


# element arithmetic on {(a, b): coefficient} dicts, zeros kept


def e_add(x, y):
    out = dict(x)
    for e, c in y.items():
        out[e] = out[e] + c if e in out else c
    return out


def e_mul(x, y):
    out = {}
    for (a1, b1), c1 in x.items():
        for (a2, b2), c2 in y.items():
            e = (a1 + a2, b1 + b2)
            out[e] = out[e] + c1 * c2 if e in out else c1 * c2
    return out


def e_scale(x, c):
    return {e: c * d for e, d in x.items()}


def e_pow(x, n, one):
    out = {(0, 0): one}
    for _ in range(n):
        out = e_mul(out, x)
    return out


def assert_canonical(computed, fld, terms):
    """``computed`` equals ``BivarPoly(fld, terms)`` form for form, by
    ``==`` and by hash, and its view holds only elements of ``fld``."""
    made = BivarPoly(fld, terms, computed.vars)
    assert computed.form == made.form
    assert computed == made and made == computed
    assert hash(computed) == hash(made)
    assert {type(c) for c in computed.terms.values()} <= {fld.element_type}
    assert dict(computed.terms) == dict(made.terms)
    terms_, den = computed.form
    assert den > 0
    if fld.characteristic:
        assert den == 1 and all(0 < c < fld.characteristic for c in terms_.values())
    else:
        assert all(terms_.values()) and gcd(den, *terms_.values()) == 1
    if terms_.keys() <= {(0, 0)}:
        assert hash(computed) == hash(computed.constant_term())


@settings(max_examples=60, deadline=None)
@given(st.data(), fields)
def test_ring_operations_reach_the_canonical_form(data, fld):
    x = data.draw(element_dicts(fld))
    y = data.draw(element_dicts(fld))
    c = data.draw(elements(fld))
    n = data.draw(st.integers(0, 3))
    f, g = BivarPoly(fld, x), BivarPoly(fld, y)
    minus_one = fld(-1)
    assert_canonical(f + g, fld, e_add(x, y))
    assert_canonical(f - g, fld, e_add(x, e_scale(y, minus_one)))
    assert_canonical(-f, fld, e_scale(x, minus_one))
    assert_canonical(f * g, fld, e_mul(x, y))
    assert_canonical(f ** n, fld, e_pow(x, n, fld.one))
    assert_canonical(f.scale(c), fld, e_scale(x, c))
    assert_canonical(f - f, fld, {})
    assert_canonical(f * 0, fld, {})
    assert_canonical((f + c) - f, fld, {(0, 0): c})
    assert_canonical(f.v_coefficient(1), fld,
                     {(a, 0): d for (a, b), d in x.items() if b == 1})


@settings(max_examples=60, deadline=None)
@given(st.data(), fields)
def test_subs_reaches_the_canonical_form(data, fld):
    x = data.draw(element_dicts(fld, max_size=4))
    s = data.draw(element_dicts(fld, max_size=3))
    t = data.draw(element_dicts(fld, max_size=3))
    f = BivarPoly(fld, x)
    first, second = BivarPoly(fld, s, ("x", "y")), BivarPoly(fld, t, ("x", "y"))
    expected = {}
    for (a, b), c in x.items():
        mono = e_mul(e_pow(s, a, fld.one), e_pow(t, b, fld.one))
        expected = e_add(expected, e_scale(mono, c))
    assert_canonical(f.subs(first, second), fld, expected)


@settings(max_examples=60, deadline=None)
@given(st.data(), fields)
def test_divmod_in_v_reaches_the_canonical_form(data, fld):
    """The quotient and remainder of a division by a divisor monic in v
    (over Q with denominators in its other terms) are canonical, and
    recombine to the dividend."""
    x = data.draw(element_dicts(fld, max_size=6))
    m = data.draw(st.integers(1, 3))
    lower = data.draw(st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, m - 1)),
                                      elements(fld), max_size=3))
    f, g = BivarPoly(fld, x), BivarPoly(fld, {**lower, (0, m): fld.one})
    q, r = divmod_in_v(f, g)
    assert_canonical(q, fld, dict(q.terms))
    assert_canonical(r, fld, dict(r.terms))
    assert r.deg_v() < m
    assert_canonical(q * g + r, fld, x)


@settings(max_examples=40, deadline=None)
@given(st.data(), fields)
def test_resubstitute_reaches_the_canonical_form(data, fld):
    """Over Q the constants and the unit carry denominators, so the
    round trip's running sum is normalised at the end."""
    lams = [data.draw(elements(fld).filter(bool)) for _ in range(2)]
    unit = {(0, 0): fld.one, (1, 0): data.draw(elements(fld))}
    spec = ValuationSpec(fld, ((3, 2), (5, 3)), tuple(lams),
                         (BivarPoly(fld, unit), BivarPoly.const(fld, 1)))
    js = build_jumping_sequence(spec)
    x = data.draw(element_dicts(fld))
    if not BivarPoly(fld, x).is_zero():
        assert_canonical(expand(BivarPoly(fld, x), js).resubstitute(), fld, x)


def test_constants_hash_as_their_coefficient():
    for fld in FIELDS:
        for c in (fld.zero, fld.one, fld(2), fld(Fraction(-3, 4)) if fld is QQ else fld(5)):
            const = BivarPoly.const(fld, c)
            assert const.form == (({(0, 0): c.val} if fld.characteristic else
                                   {(0, 0): c.numerator}) if c else {},
                                  1 if fld.characteristic else c.denominator)
            assert hash(const) == hash(c) and const == c
    assert BivarPoly.zero(QQ).form == ({}, 1)
    assert (BivarPoly.const(QQ, Fraction(1, 6)) * 6).form == ({(0, 0): 1}, 1)
