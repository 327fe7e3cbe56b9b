"""Differential test of ``TExpansion.resubstitute`` against sympy.

``resubstitute`` gathers the terms c * prod_j T_j^{a_j} of an expansion by
their T-exponents past T_1 and folds them back level by level, by Horner
in each T_j.  Here sympy's sparse polynomial ring forms the plain sum of
products from the jumping polynomials, on random term lists over the
towers of ``test_expand``: over Q with T_2 and T_3 of denominators 7 and
686, so that digits of different denominators meet, and over F_2, F_3,
F_5 and F_101, where every sum is taken mod p.  The exponent vectors
need not be standard: an interior a_i may pass q_i, and the digits of a
level, T_M's included, may be more than one apart, so the fold raises
T_j to gaps over 1.  The term lists cancel: some terms come back
negated, and some groups are the chunk relation

    T_{i+1} - T_i^{q_i} + lambda_i * delta_i * prod_j T_j^{n_{i,j}} = 0

times a random T-monomial, whose partial sums pass through other
polynomials before they vanish.

The term lists stay inside ``TERM_LIMIT`` by construction: every term's
weight a + b + sum_j a_j * deg T_j (deg the total degree, a and b the
exponents of u and v) is at most :data:`WEIGHT`.  Each digit, power,
Horner product and sum of the fold is then a polynomial of total degree
at most that weight, and so has at most 140 * 141 / 2 = 9 870 terms.  A
term list past that bound may raise ``ResourceLimitError``, which is the
documented behaviour; one that does is pinned on its own.
"""

from fractions import Fraction
from operator import mul

import pytest
from hypothesis import given, settings, strategies as st

from jumpseq.engine import TExpansion
from jumpseq.errors import ResourceLimitError
from jumpseq.poly import TERM_LIMIT, BivarPoly

from test_expand import SEQUENCES
from test_poly_oracle import assert_typed

sympy = pytest.importorskip("sympy")


def coeffs(fld):
    if not fld.characteristic:
        return st.fractions(min_value=-9, max_value=9, max_denominator=9).filter(bool).map(fld)
    return st.integers(1, fld.characteristic - 1).map(fld)


#: the largest weight of a drawn term: a polynomial of total degree
#: <= 139 has at most 9 870 < TERM_LIMIT terms
WEIGHT = 139
assert (WEIGHT + 1) * (WEIGHT + 2) // 2 < TERM_LIMIT


def weights(js):
    """The weight of each exponent: the total degree of T_0 .. T_M."""
    return [max(a + b for a, b in t.terms) for t in js.T]


@st.composite
def exponents(draw, js, last=3, budget=WEIGHT):
    """Exponent vectors with a_i <= q_i + 1 inside, a_M <= last and weight
    at most ``budget``, drawn from T_M down: standard ones (a_i < q_i) and
    others, so that the fold meets digits past q_i and gaps over 1 between
    the digits of a level, T_M's included."""
    caps = [6, *(js.q(i) + 1 for i in range(1, js.depth + 1)), last]
    out = [0] * len(caps)
    for j, w in reversed(list(enumerate(weights(js)))):
        out[j] = draw(st.integers(0, min(caps[j], budget // w)))
        budget -= out[j] * w
    return tuple(out)


def relation(js, i, c, shift):
    """c * T-monomial ``shift`` times the chunk relation of level i, as
    terms that sum to zero."""

    def term(coeff, *pairs):
        e = list(shift)
        for j, k in pairs:
            e[j] += k
        return coeff, tuple(e)

    lam, delta = js.spec.lambdas[i - 1], js.spec.units[i - 1]
    out = [term(c, (i + 1, 1)), term(-c, (i, js.q(i)))]
    for (a, b), d in delta.terms.items():
        assert b == 0, "the towers' units lie in k[u]"
        out.append(term(c * lam * d, (0, a), *[(j, n) for j, n in enumerate(js.n[i]) if n]))
    return out


@st.composite
def term_lists(draw, js):
    fld = js.field
    terms = draw(st.lists(st.tuples(coeffs(fld), exponents(js)), max_size=6))
    negated = draw(st.lists(st.sampled_from(terms), max_size=3)) if terms else []
    terms += [(-c, e) for c, e in negated]
    w = weights(js)
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(1, js.depth))
        # the relation's heaviest term leaves the rest of the budget to the shift
        own = max(sum(map(mul, e, w)) for _, e in relation(js, i, fld.one, (0,) * len(w)))
        terms += relation(js, i, draw(coeffs(fld)), draw(exponents(js, 0, WEIGHT - own)))
    return draw(st.permutations(terms))


def sympy_sum(js, terms):
    """The sum of the terms' products in sympy's sparse ring over QQ, or
    over ZZ reduced mod p after each product: sympy multiplies sparse
    polynomials over ZZ many times faster than over GF(p) or as dense
    ``Poly`` objects, and reducing a sum of products mod p as it goes
    gives the same sum over F_p."""
    fld = js.field
    p = fld.characteristic
    R = sympy.polys.rings.ring("u,v", sympy.ZZ if p else sympy.QQ)[0]

    def lift(terms):
        if p:
            return R.from_dict({e: c.val for e, c in terms.items()})
        return R.from_dict({e: R.domain(c.numerator, c.denominator) for e, c in terms.items()})

    mod = (lambda P: P.trunc_ground(p)) if p else (lambda P: P)
    T = [lift(t.terms) for t in js.T]
    powers = {}
    total = R.zero
    for c, exps in terms:
        mono = lift({(0, 0): fld(c)})
        for j, e in enumerate(exps):
            if (j, e) not in powers:
                powers[(j, e)] = mod(T[j] ** e)
            mono = mod(mono * powers[(j, e)])
        total += mono
    if p:
        return {e: fld(int(c)) for e, c in mod(total).items() if int(c) % p}
    return {e: Fraction(int(c.numerator), int(c.denominator)) for e, c in total.items()}


@pytest.mark.parametrize("name", list(SEQUENCES))
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_resubstitute_matches_sympy(name, data):
    js = SEQUENCES[name]
    terms = data.draw(term_lists(js))
    out = TExpansion(js, tuple(terms)).resubstitute()
    assert out == BivarPoly(js.field, sympy_sum(js, terms))
    assert out.vars == ("u", "v")
    assert_typed(out, js.field)


def test_resubstitute_past_term_limit_raises():
    """Six terms over F_101 whose weights run from 210 to 335, past
    :data:`WEIGHT`: their fold passes ``TERM_LIMIT`` and raises
    ``ResourceLimitError``, as the documented limit says."""
    js = SEQUENCES["F101"]
    terms = [(69, (0, 0, 0, 0, 0, 3)), (21, (0, 0, 0, 1, 3, 2)), (78, (2, 3, 3, 1, 1, 3)),
             (15, (0, 0, 0, 0, 3, 3)), (1, (0, 0, 0, 0, 4, 3)), (1, (0, 0, 0, 3, 4, 3))]
    exp = TExpansion(js, tuple((js.field(c), e) for c, e in terms))
    with pytest.raises(ResourceLimitError, match="polynomial with 10234 terms"):
        exp.resubstitute()


@pytest.mark.parametrize("name", list(SEQUENCES))
def test_chunk_relations_resubstitute_to_zero(name):
    """Every chunk relation, times a fixed T-monomial, sums to zero."""
    js = SEQUENCES[name]
    one = js.field.one
    shift = (2,) + (1,) * js.depth + (0,)
    terms = [t for i in range(1, js.depth + 1) for t in relation(js, i, one, shift)]
    assert TExpansion(js, tuple(terms)).resubstitute().is_zero()
