"""T-adic expansion on integer rows: standard form, round trip, limits.

``expand`` divides on integer forms, so these tests run it where that
representation has the most to get wrong: over Q with jumping
polynomials whose integer forms have denominators above 1, and over
small prime fields.  Each expansion must be in standard form (every
interior exponent a_i below q_i) and must give back f through
``TExpansion.resubstitute``, which sympy checks on its own in
``test_resubstitute_oracle.py``.  It must also equal, term for term and
in order, the expansion that sympy's ``div`` takes level by level, down
to the division by T_1 = v that ``expand`` replaces by reading the
v-degree rows.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from jumpseq import poly
from jumpseq.engine import ValuationSpec, build_jumping_sequence, expand
from jumpseq.errors import ResourceLimitError
from jumpseq.fields import QQ, prime_field
from jumpseq.poly import BivarPoly

from test_poly_oracle import U, V, sympy, to_sympy


def _sequence(fld, pairs, lambdas, delta_1="1"):
    units = [delta_1] + ["1"] * (len(pairs) - 1)
    return build_jumping_sequence(ValuationSpec.from_json({
        "field": fld.to_json(), "pairs": [list(pq) for pq in pairs],
        "lambdas": list(lambdas), "units": units}))


#: delta_1 = 1 + (2/3)u, or 1 + u over a prime field
def _delta(c):
    return {"vars": ["u", "v"], "terms": [{"e": [0, 0], "c": "1"}, {"e": [1, 0], "c": c}]}


SEQUENCES = {
    "Q-frac": _sequence(QQ, ((3, 2), (5, 3)), ("3/7", "-5/2"), _delta("2/3")),
    "F2": _sequence(prime_field(2), ((3, 2), (5, 3)), ("1", "1"), _delta("1")),
    "F3": _sequence(prime_field(3), ((3, 2), (4, 1), (5, 3)), ("2", "1", "2")),
    "F5": _sequence(prime_field(5), ((2, 3), (3, 2)), ("2", "3"), _delta("1")),
    "F101": _sequence(prime_field(101), ((3, 2), (5, 3), (5, 2), (2, 3)), ("3", "7", "5", "2")),
}


def test_fractional_tower_has_denominators():
    """The Q tower divides by T_2 and T_3 whose integer forms have
    denominators 7 and 686, so the scaled division path runs."""
    js = SEQUENCES["Q-frac"]
    assert [t.form[1] for t in js.T] == [1, 1, 7, 686]


#: depth 0 (M = 1): T_1 = v is the last level, so the expansion of f is
#: read off its terms
DEPTH0 = build_jumping_sequence(ValuationSpec(QQ, (), (), ()))


@st.composite
def cases(draw):
    """A sequence and a polynomial drawn by :func:`polys_for`."""
    js = draw(st.sampled_from(list(SEQUENCES.values())))
    return js, draw(polys_for(js))


@st.composite
def polys_for(draw, js):
    """f = u^s * (small polynomial) + c * (product of up to three T_j), so
    that expansions reach every level and cancel terms."""
    fld, M = js.field, js.depth + 1
    if not fld.characteristic:
        coeffs = st.fractions(min_value=-4, max_value=4, max_denominator=5).filter(bool).map(QQ)
    else:
        coeffs = st.integers(1, fld.characteristic - 1)
    exps = st.tuples(st.integers(0, 7), st.integers(0, 6))
    s = draw(st.integers(0, 12))
    f = BivarPoly(fld, {(a + s, b): c for (a, b), c in
                        draw(st.dictionaries(exps, coeffs, max_size=5)).items()})
    factors = draw(st.lists(st.integers(0, M), max_size=3))
    if factors:
        mono = BivarPoly.const(fld, draw(coeffs))
        for j in factors:
            mono = mono * js.T[j]
        f = f + mono
    return f


@settings(max_examples=120, deadline=None)
@given(cases())
def test_expansion_is_standard_and_round_trips(case):
    js, f = case
    if f.is_zero():
        return
    exp = expand(f, js)
    etype = js.field.element_type
    for c, e in exp.terms:
        assert type(c) is etype and c
        assert len(e) == js.depth + 2
        assert all(e[i] < js.q(i) for i in range(1, js.depth + 1)), e
    vectors = [e for _, e in exp.terms]
    assert vectors == sorted(set(vectors))
    assert exp.resubstitute() == f


def sympy_expand(f, js):
    """The T-adic expansion of f by sympy alone: at each level from M down
    to 1, ``sympy.div`` by T_level (in k[u][v], so gens (v, u)) until the
    quotient is zero, each nonzero remainder expanded at the level below,
    and the level-0 digits, which lie in k[u], split into u-monomials.
    Returns (coefficient, exponent vector) sorted by exponent vector, with
    coefficients as ``Fraction`` over Q and residues in [0, p) over F_p."""
    p = js.field.characteristic
    T = [to_sympy(t, (V, U)) for t in js.T]
    terms = []

    def rec(x, level, suffix):
        if level == 0:
            for (b, a), c in x.terms():
                assert b == 0, "a level-0 digit involves v"
                terms.append((int(c) % p if p else Fraction(int(c.p), int(c.q)), (a,) + suffix))
            return
        k = 0
        while not x.is_zero:
            x, r = sympy.div(x, T[level])
            if not r.is_zero:
                rec(r, level - 1, (k,) + suffix)
            k += 1

    rec(to_sympy(f, (V, U)), js.depth + 1, ())
    return sorted(terms, key=lambda t: t[1])


@pytest.mark.parametrize("js", [*SEQUENCES.values(), DEPTH0], ids=[*SEQUENCES, "Q-depth0"])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_expand_matches_sympy_div(js, data):
    f = data.draw(polys_for(js))
    if f.is_zero():
        return
    p = js.field.characteristic
    got = [(c.val if p else c, e) for c, e in expand(f, js).terms]
    assert got == sympy_expand(f, js)


F101 = prime_field(101)


def _limit_tower(name, fld):
    """The towers of the TERM_LIMIT test: spec-a's pairs with lambda = 1
    and every unit 1, and the Q-frac pairs and a 3-level tower with
    fractional lambdas and delta_1 = 1 + (2/3)u, read over ``fld``."""
    if name == "spec-a":
        return _sequence(fld, ((3, 2), (5, 3)), ("1", "1"))
    if name == "Q-frac":
        return _sequence(fld, ((3, 2), (5, 3)), ("3/7", "-5/2"), _delta("2/3"))
    return _sequence(fld, ((3, 2), (4, 1), (5, 3)), ("3/7", "-5/2", "2/5"), _delta("2/3"))


@pytest.mark.parametrize("tower, fld, tops, limit, level, terms", [
    ("spec-a", QQ, False, 20, 3, 59), ("spec-a", prime_field(3), False, 20, 3, 40),
    ("Q-frac", QQ, False, 20, 3, 70), ("Q-frac", F101, False, 20, 3, 70),
    ("3-level", QQ, False, 20, 4, 91), ("3-level", F101, False, 20, 4, 90),
    ("3-level", QQ, True, 21, 3, 23), ("3-level", F101, True, 21, 3, 22),
], ids=["QQ", "F3", "Q-frac-QQ", "Q-frac-F101", "3-level-QQ", "3-level-F101",
        "3-level-QQ-inner", "3-level-F101-inner"])
def test_expand_checks_term_limit(monkeypatch, tower, fld, tops, limit, level, terms):
    """Every quotient and remainder of the expansion is checked against
    TERM_LIMIT: lowering the limit makes expand raise the usual message,
    naming the first division result that passes it, during the division
    by T_level.  f is (u + v + 1)^8, or with ``tops`` T_M * (u + v + 1)^3
    + (u + v + 1)^5, whose first oversized result comes one level down;
    the sizes and levels are those of the expansion that regathered and
    normalised every remainder, so the rows change no check."""
    js = _limit_tower(tower, fld)
    u, v = BivarPoly.gens(fld)
    f = js.T[-1] * (u + v + 1) ** 3 + (u + v + 1) ** 5 if tops else (u + v + 1) ** 8
    expand(f, js)
    divisors = []
    divide = poly._idivisions_v
    monkeypatch.setattr(poly, "_idivisions_v", lambda *a: divisors.append(a[-2]) or divide(*a))
    monkeypatch.setattr(poly, "TERM_LIMIT", limit)
    with pytest.raises(ResourceLimitError,
                       match=r"^polynomial with %d terms exceeds TERM_LIMIT=%d$" % (terms, limit)):
        expand(f, js)
    assert [g is divisors[-1] for g in js.T_rows].index(True) + 2 == level
