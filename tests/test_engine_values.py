"""Integer value bookkeeping against the plain ``Fraction`` formulas.

The engine keeps each term's value (pure term) or strict lower bound
(term involving T_M) as an integer over Q_N.  These tests recompute both
from beta with ``Fraction`` arithmetic, term by term, and recompute
``value``'s outcome (a value or InsufficientDepthError) from them.
"""

import os
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from jumpseq.engine import TExpansion, build_jumping_sequence, expand, value
from jumpseq.errors import InsufficientDepthError, ResourceLimitError
from jumpseq.fields import QQ, prime_field
from jumpseq.poly import TERM_LIMIT, BivarPoly

from conftest import ROOT, make_spec

F101 = prime_field(101)

TOWERS = [
    (QQ, ((3, 2), (5, 3))),
    (QQ, ((3, 2), (4, 1), (5, 3))),
    (QQ, ((3, 2), (5, 3), (5, 2), (2, 3))),
    (QQ, ((2, 1), (3, 1))),
    (F101, ((3, 2), (4, 1), (5, 3))),
    (F101, ((3, 2), (5, 3), (5, 2), (2, 3))),
    (F101, ((2, 3), (3, 2))),
]


def _sequence(fld, pairs):
    mode = "discrete" if all(q == 1 for _, q in pairs) else "nondiscrete"
    lambdas = tuple(fld(c) for c in (2, 3, 5, 7)[:len(pairs)])
    return build_jumping_sequence(make_spec(fld, pairs, mode=mode, lambdas=lambdas))


SEQUENCES = [_sequence(fld, pairs) for fld, pairs in TOWERS]


def fraction_bound(js, exps) -> Fraction:
    """sum_{j<M} e_j beta_j + e_M q_N beta_N: the exact value of a pure
    term and the strict lower bound of one involving T_M."""
    N, M = js.depth, js.depth + 1
    lb = sum((e * js.beta[j] for j, e in enumerate(exps[:M])), Fraction(0))
    if N >= 1:
        lb += exps[M] * js.q(N) * js.beta[N]
    return lb


def fraction_value(exp):
    """value() from the Fraction bounds: the least pure value, or
    InsufficientDepthError when there is no pure term or a mixed bound
    lies below it."""
    js, M = exp.js, exp.js.depth + 1
    pure = [fraction_bound(js, e) for _, e in exp.terms if not e[M]]
    if not pure:
        return InsufficientDepthError
    sigma = min(pure)
    if any(fraction_bound(js, e) < sigma for _, e in exp.terms if e[M]):
        return InsufficientDepthError
    return sigma


@st.composite
def polys(draw):
    """A sequence and f = u^s * (small polynomial) + c * (product of up to
    three T_j, T_M in about half of them), so that expansions carry terms
    in T_M, some of them below the least pure value, and cancellations."""
    js = draw(st.sampled_from(SEQUENCES))
    fld, M = js.field, js.depth + 1
    exps = st.tuples(st.integers(0, 7), st.integers(0, 5))
    coeffs = st.integers(-4, 4).filter(bool)
    s = draw(st.integers(0, 24))
    f = BivarPoly(fld, {(a + s, b): c for (a, b), c in
                        draw(st.dictionaries(exps, coeffs, max_size=4)).items()})
    factors = draw(st.lists(st.integers(0, M - 1), max_size=2))
    if draw(st.booleans()):
        factors.append(M)
    if factors:
        mono = BivarPoly.const(fld, draw(coeffs))
        for j in factors:
            mono = mono * js.T[j]
        f = f + mono
    return js, f


@settings(max_examples=150, deadline=None)
@given(polys())
def test_integer_bounds_match_fraction_formula(case):
    js, f = case
    if f.is_zero():
        return
    exp = expand(f, js)
    QN = js.Q[-1]
    assert len(exp.nums) == len(exp.terms)
    for (_, e), n in zip(exp.terms, exp.nums):
        assert Fraction(n, QN) == fraction_bound(js, e)
    try:
        got = value(f, js)
    except InsufficientDepthError:
        got = InsufficientDepthError
    assert got == fraction_value(exp)


@pytest.mark.parametrize("js", SEQUENCES, ids=["%s-%s" % (fld.kind, pairs) for fld, pairs in TOWERS])
def test_weights_are_beta_over_Q_N(js):
    N, QN = js.depth, js.Q[-1]
    assert js.weights[:N + 1] == tuple(int(b * QN) for b in js.beta)
    assert js.weights[N + 1] == js.q(N) * js.weights[N]


def test_non_integral_weight_raises(js_a):
    """A beta whose denominator does not divide Q_N is rejected by an
    explicit check, also under python -O."""
    bad = type(js_a)(js_a.spec, js_a.T, js_a.beta[:-1] + (Fraction(1, 7),), js_a.Q, js_a.n)
    with pytest.raises(ArithmeticError, match="not an integer"):
        bad.weights


def test_resubstitute_checks_the_running_sum(js_a):
    """Each term u^a v^b is one monomial, but their sum passes TERM_LIMIT:
    resubstitute raises when the running sum does, as a chain of
    polynomial additions would."""
    side = 101
    assert side * side > TERM_LIMIT
    terms = tuple((QQ(1), (a, b, 0, 0)) for a in range(side) for b in range(side))
    with pytest.raises(ResourceLimitError, match="polynomial with %d terms" % (TERM_LIMIT + 1)):
        TExpansion(js_a, terms).resubstitute()
    assert len(TExpansion(js_a, terms[:TERM_LIMIT]).resubstitute().terms) == TERM_LIMIT


def test_resubstitute_checks_the_running_sum_mod_p(spec_a):
    """Over F_3 the running sum is taken mod p: 1 + 2 on u^0 v^0 cancels
    only mod 3, so the term count drops back below TERM_LIMIT and one
    more monomial fits before the sum passes it."""
    F3 = prime_field(3)
    js = build_jumping_sequence(make_spec(F3, spec_a.pairs))
    side = 101
    cells = [(F3(1), (a, b, 0, 0)) for a in range(side) for b in range(side)]
    terms = (*cells[:TERM_LIMIT], (F3(2), (0, 0, 0, 0)), *cells[TERM_LIMIT:TERM_LIMIT + 2])
    out = TExpansion(js, terms[:-1]).resubstitute()
    assert len(out.terms) == TERM_LIMIT and (0, 0) not in out.terms
    with pytest.raises(ResourceLimitError, match="polynomial with %d terms" % (TERM_LIMIT + 1)):
        TExpansion(js, terms).resubstitute()


def test_resubstitute_drops_cancelled_terms(js_a):
    # u^3 + T_2 - v^2 = u^3 + (v^2 - u^3) - v^2 = 0 on spec-a
    terms = ((QQ(1), (3, 0, 0, 0)), (QQ(1), (0, 0, 1, 0)), (QQ(-1), (0, 2, 0, 0)))
    out = TExpansion(js_a, terms).resubstitute()
    assert out.is_zero() and out.vars == ("u", "v")


WRONG_LENGTHS = ((1, 0, 0), (1, 0, 0, 0, 0), (1, 2))


@pytest.mark.parametrize("c", [1, 0])
@pytest.mark.parametrize("exps", WRONG_LENGTHS)
def test_expansion_refuses_a_wrong_length_vector(js_a, exps, c):
    """On spec-a (M = 3) an exponent vector of length other than 4 raises
    ``ValueError`` when the expansion is built, with a zero coefficient
    too: a short vector is not read as padded with zeros by ``nums`` or
    ``resubstitute``, nor a long one as if its extra entries were absent."""
    with pytest.raises(ValueError, match="has %d entries, not M \\+ 1 = 4" % len(exps)):
        TExpansion(js_a, ((QQ(c), exps),))


@pytest.mark.parametrize("exps", [(-1, 0, 0, 0), (0, -1, 0, 0), (0, 0, -1, 0), (0, 0, 0, -1)])
def test_expansion_refuses_a_negative_exponent(js_a, exps):
    """A negative entry raises ``ValueError`` when the expansion is built,
    so ``nums`` never values a u^-1 and the round trip's fold never meets
    a negative power of T_j."""
    with pytest.raises(ValueError, match="has a negative entry"):
        TExpansion(js_a, ((QQ(1), exps),))


def test_expansion_takes_a_one_shot_iterable(js_a):
    """The constructor reads its terms twice, to check the vectors and to
    convert the coefficients, so an iterator of terms gives the expansion
    a tuple of the same terms gives, not an empty one."""
    terms = ((QQ(1), (3, 0, 0, 0)), (QQ(2), (0, 1, 0, 0)))
    exp = TExpansion(js_a, iter(terms))
    assert exp == TExpansion(js_a, terms) and len(exp.pairs) == 2


def test_expansion_refuses_a_wrong_length_vector_under_O():
    """The length and sign checks are explicit code, so python -O keeps
    them."""
    code = ("from jumpseq.engine import TExpansion, build_jumping_sequence\n"
            "from jumpseq.fields import QQ\n"
            "from conftest import load_spec\n"
            "js = build_jumping_sequence(load_spec('spec-a.json'))\n"
            "try:\n"
            "    TExpansion(js, ((QQ(1), (0, 0, -1, 0)),))\n"
            "except ValueError as e:\n"
            "    print(e)\n"
            "TExpansion(js, ((QQ(1), (1, 0, 0, 0, 0)),))\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), str(ROOT / "tests"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True,
                          env=env, timeout=300)
    assert proc.returncode == 1
    assert proc.stdout == "exponent vector (0, 0, -1, 0) has a negative entry\n"
    assert proc.stderr.rstrip().endswith("ValueError: exponent vector (1, 0, 0, 0, 0) "
                                         "has 5 entries, not M + 1 = 4"), proc.stderr
