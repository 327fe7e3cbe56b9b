"""Differential test of ``TExpansion.resubstitute`` against sympy.

``resubstitute`` adds the terms c * prod_j T_j^{a_j} of an expansion on
integer forms.  Here sympy forms the same sum from the jumping
polynomials, on random term lists over the towers of ``test_expand``:
over Q with T_2 and T_3 of denominators 7 and 686, so that the running
sum is rescaled to a new common denominator, and over F_2, F_3, F_5 and
F_101, where the running sum is taken mod p.  The term lists cancel: some
terms come back negated, and some groups are the chunk relation

    T_{i+1} - T_i^{q_i} + lambda_i * delta_i * prod_j T_j^{n_{i,j}} = 0

times a random T-monomial, whose partial sums pass through other
polynomials before they vanish.
"""

import pytest
from hypothesis import given, settings, strategies as st

from jumpseq.engine import TExpansion
from jumpseq.poly import BivarPoly

from test_expand import SEQUENCES
from test_poly_oracle import U, V, assert_typed, from_sympy, to_sympy

sympy = pytest.importorskip("sympy")


def coeffs(fld):
    if not fld.characteristic:
        return st.fractions(min_value=-9, max_value=9, max_denominator=9).filter(bool).map(fld)
    return st.integers(1, fld.characteristic - 1).map(fld)


def exponents(js, last=1):
    """Standard-form exponent vectors: a_i < q_i inside, a_M <= last."""
    inner = [st.integers(0, js.q(i) - 1) for i in range(1, js.depth + 1)]
    return st.tuples(st.integers(0, 6), *inner, st.integers(0, last))


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
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(1, js.depth))
        terms += relation(js, i, draw(coeffs(fld)), draw(exponents(js, last=0)))
    return draw(st.permutations(terms))


def lift(f):
    """``f`` as a sympy Poly over QQ, or over ZZ from its residues mod p:
    reducing a sum of products over ZZ mod p gives the same sum over F_p,
    and sympy multiplies over ZZ many times faster than over GF(p)."""
    if not f.field.characteristic:
        return to_sympy(f)
    return sympy.Poly.from_dict({e: c.val for e, c in f.terms.items()} or {(0, 0): 0},
                                U, V, domain="ZZ")


def sympy_sum(js, terms):
    T = [lift(t) for t in js.T]
    powers = {}
    total = lift(BivarPoly.zero(js.field))
    for c, exps in terms:
        mono = lift(BivarPoly.const(js.field, c))
        for j, e in enumerate(exps):
            if (j, e) not in powers:
                powers[(j, e)] = T[j] ** e
            mono *= powers[(j, e)]
        total += mono
    return from_sympy(total, js.field)


@pytest.mark.parametrize("name", list(SEQUENCES))
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_resubstitute_matches_sympy(name, data):
    js = SEQUENCES[name]
    terms = data.draw(term_lists(js))
    out = TExpansion(js, tuple(terms)).resubstitute()
    assert out == sympy_sum(js, terms)
    assert out.vars == ("u", "v")
    assert_typed(out, js.field)


@pytest.mark.parametrize("name", list(SEQUENCES))
def test_chunk_relations_resubstitute_to_zero(name):
    """Every chunk relation, times a fixed T-monomial, sums to zero."""
    js = SEQUENCES[name]
    one = js.field.one
    shift = (2,) + (1,) * js.depth + (0,)
    terms = [t for i in range(1, js.depth + 1) for t in relation(js, i, one, shift)]
    assert TExpansion(js, tuple(terms)).resubstitute().is_zero()
