"""The jumping tower against an independent sympy rebuild.

For each spec the oracle recomputes beta from the pairs, finds every row
n_i by a brute-force search over 0 <= n_{i,j} < q_j (j >= 1) for which
q_i*beta_i - sum_j n_{i,j}*beta_j is a nonnegative integer n_{i,0}, and
rebuilds T_0 .. T_{N+1} with sympy's polynomial arithmetic:
T_{i+1} = T_i^{q_i} - lambda_i * delta_i * prod_j T_j^{n_{i,j}}.  The
search must find exactly one row, equal to ``exponent_solve``'s, and every
T_i must equal ``build_jumping_sequence``'s term for term.  The specs are
drawn over Q, F_2, F_3, F_5 and F_101 with random lambdas and units in u
and in v, and the upstairs specs of ``build_dual_sequences`` on such
downstairs units (units delta^{n_{i,0}} * delta_i(x^t * delta, y) in x
and y) are checked the same way.
"""

import itertools
import random
from fractions import Fraction
from math import gcd

import pytest

from jumpseq.engine import ValuationSpec, build_jumping_sequence, exponent_solve
from jumpseq.extension import MonomialExtension, build_dual_sequences
from jumpseq.poly import BivarPoly

from conftest import FIELDS, make_spec, random_unit

sympy = pytest.importorskip("sympy")

PAIRS = [(p, q) for p in range(1, 6) for q in range(1, 4) if gcd(p, q) == 1]
FIELD_IDS = ["F%d" % f.characteristic if f.characteristic else "QQ" for f in FIELDS]


def oracle_rows(pairs):
    """beta_0 .. beta_N from the pairs, and each row n_i found by searching
    every n_{i,1} .. n_{i,i-1} in its range: the list of all solutions."""
    beta, Q = [Fraction(1)], [1]
    for i, (p, q) in enumerate(pairs, start=1):
        prev = (pairs[i - 2][1] * beta[-1]) if i > 1 else 0
        beta.append(prev + Fraction(p, q * Q[-1]))
        Q.append(Q[-1] * q)
    rows = []
    for i, (_, qi) in enumerate(pairs, start=1):
        found = []
        for tail in itertools.product(*(range(pairs[j - 1][1]) for j in range(1, i))):
            rest = qi * beta[i] - sum(n * beta[j] for j, n in enumerate(tail, start=1))
            if rest.denominator == 1 and rest >= 0:
                found.append((int(rest),) + tail)
        rows.append(found)
    return beta, Q, rows


def sympy_poly(f: BivarPoly, gens):
    p = f.field.characteristic
    if p:
        terms = {e: c.val for e, c in f.terms.items()}
        return sympy.Poly.from_dict(terms, *gens, modulus=p)
    terms = {e: sympy.Rational(c.numerator, c.denominator) for e, c in f.terms.items()}
    return sympy.Poly.from_dict(terms, *gens, domain="QQ")


def terms_of(P, p):
    """{exponent pair: coefficient} of a sympy Poly, residues in [0, p) over F_p."""
    if p:
        return {e: int(c) % p for e, c in P.terms() if int(c) % p}
    return {e: Fraction(int(c.p), int(c.q)) for e, c in P.terms() if c}


def check_tower(spec: ValuationSpec, js):
    """``js`` (built from ``spec``) against the oracle, term for term."""
    fld = spec.field
    p = fld.characteristic
    gens = sympy.symbols(" ".join(js.T[0].vars))
    beta, Q, rows = oracle_rows(spec.pairs)
    assert js.beta == tuple(beta) and js.Q == tuple(Q)
    T = [sympy_poly(BivarPoly.gens(fld, js.T[0].vars)[k], gens) for k in (0, 1)]
    for i, found in enumerate(rows, start=1):
        assert len(found) == 1, (spec.pairs, i, found)
        q = [0] + [q for _, q in spec.pairs]
        assert js.n[i] == found[0] == exponent_solve(i, list(js.beta), q, list(js.Q))
        lam = fld(spec.lambdas[i - 1])
        lam = lam.val if p else sympy.Rational(lam.numerator, lam.denominator)
        rel = sympy_poly(spec.units[i - 1], gens) * lam
        for j, e in enumerate(found[0]):
            rel = rel * T[j] ** e
        T.append(T[i] ** spec.pairs[i - 1][1] - rel)
    assert len(js.T) == len(T)
    for i, (mine, ref) in enumerate(zip(js.T, T)):
        got = {e: (c.val if p else c) for e, c in mine.terms.items()}
        assert got == terms_of(ref, p), (spec.pairs, i)


def random_lambda(rng, fld):
    if fld.characteristic:
        return fld(rng.randint(1, fld.characteristic - 1))
    return fld(Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3)))


@pytest.mark.parametrize("fld", FIELDS, ids=FIELD_IDS)
def test_tower_matches_sympy_rebuild(fld):
    rng = random.Random("tower-%d" % fld.characteristic)
    specs = [make_spec(fld, [(3, 2), (4, 1), (5, 3)]), make_spec(fld, [(3, 2), (5, 3), (5, 2)]),
             make_spec(fld, [])]
    for _ in range(25):
        pairs = [rng.choice(PAIRS) for _ in range(rng.randint(1, 3))]
        specs.append(ValuationSpec(fld, tuple(pairs),
                                   tuple(random_lambda(rng, fld) for _ in pairs),
                                   tuple(random_unit(rng, fld) for _ in pairs)))
    for spec in specs:
        check_tower(spec, build_jumping_sequence(spec))


def sympy_subs(f: BivarPoly, first, second, gens):
    """f(first, second) for sympy Polys ``first`` and ``second`` in ``gens``,
    summed term by term with sympy's arithmetic."""
    p = f.field.characteristic
    out = sympy_poly(BivarPoly.const(f.field, 0, ("x", "y")), gens)
    for (a, b), c in f.terms.items():
        c = c.val if p else sympy.Rational(c.numerator, c.denominator)
        out = out + first ** a * second ** b * c
    return out


@pytest.mark.parametrize("fld", FIELDS, ids=FIELD_IDS)
def test_upstairs_tower_matches_sympy_rebuild(fld):
    """The upstairs sequence of ``build_dual_sequences`` on random
    downstairs units in u and v: its spec has pairs (t*p_i, q_i) and units
    delta^{n_{i,0}} * delta_i(x^t * delta, y) in (x, y), here recomputed
    with sympy."""
    rng = random.Random("upstairs-%d" % fld.characteristic)
    gens = sympy.symbols("x y")
    for _ in range(12):
        pairs = [rng.choice(PAIRS) for _ in range(rng.randint(1, 3))]
        t = rng.choice([t for t in range(1, 8) if all(gcd(t, q) == 1 for _, q in pairs)])
        base = ValuationSpec(fld, tuple(pairs),
                             tuple(random_lambda(rng, fld) for _ in pairs),
                             tuple(random_unit(rng, fld) for _ in pairs))
        delta = random_unit(rng, fld, ("x", "y"))
        ext = MonomialExtension(t, delta, base)
        up = build_dual_sequences(ext).up
        D = sympy_poly(delta, gens)
        first = sympy_poly(BivarPoly.monomial(fld, t, 0, 1, ("x", "y")), gens) * D
        y = sympy_poly(BivarPoly.gens(fld, ("x", "y"))[1], gens)
        for unit, mine, n in zip(base.units, up.spec.units, ext.down.n[1:]):
            ref = D ** n[0] * sympy_subs(unit, first, y, gens)
            got = {e: (c.val if fld.characteristic else c) for e, c in mine.terms.items()}
            assert got == terms_of(ref, fld.characteristic), (pairs, t)
        check_tower(up.spec, up)
