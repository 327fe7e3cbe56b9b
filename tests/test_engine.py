import itertools
from fractions import Fraction
from math import gcd
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

import jumpseq.engine as engine
from jumpseq.engine import (
    TExpansion,
    ValuationSpec,
    build_jumping_sequence,
    expand,
    exponent_solve,
    extract_independent,
    residue,
    semigroup_below,
    semigroup_member,
    value,
    verify_generating_sequence,
    verify_minimality,
)
from jumpseq.errors import InsufficientDepthError, InvalidSpecError
from jumpseq.fields import QQ, prime_field
from jumpseq.poly import BivarPoly

from conftest import make_spec


def U_V(fld=QQ):
    return BivarPoly.gens(fld, ("u", "v"))


# ---------------------------------------------------------------------------
# spec validation
# ---------------------------------------------------------------------------


def test_spec_rejects_non_coprime():
    with pytest.raises(InvalidSpecError):
        make_spec(QQ, [(4, 2)])


def test_spec_rejects_zero_lambda():
    with pytest.raises(InvalidSpecError):
        make_spec(QQ, [(3, 2)], lambdas=(QQ(0),))


def test_spec_discrete_requires_q_one():
    with pytest.raises(InvalidSpecError):
        make_spec(QQ, [(3, 2)], mode="discrete")


def test_spec_json_roundtrip(spec_a):
    assert ValuationSpec.from_json(spec_a.to_json()) == spec_a


# ---------------------------------------------------------------------------
# construction oracles
# ---------------------------------------------------------------------------


def test_spec_a_sequence(js_a):
    u, v = U_V()
    assert js_a.T[0] == u and js_a.T[1] == v
    assert js_a.T[2] == v ** 2 - u ** 3
    assert js_a.T[3] == (v ** 2 - u ** 3) ** 3 - u ** 10 * v
    assert js_a.beta == (Fraction(1), Fraction(3, 2), Fraction(23, 6))
    assert js_a.Q == (1, 2, 6)
    assert js_a.n[1] == (3,)
    assert js_a.n[2] == (10, 1)
    assert js_a.vdeg()[:4] == [0, 1, 2, 6]


def test_spec_b_sequence(js_b):
    u, v = U_V()
    assert js_b.T[2] == v - u ** 2
    assert js_b.T[3] == v - u ** 2 - u ** 5
    assert js_b.beta == (Fraction(1), Fraction(2), Fraction(5))
    assert js_b.n[1] == (2,)
    assert js_b.n[2] == (5, 0)


def test_exponent_solve_oracles(js_a):
    beta = [Fraction(1), Fraction(3, 2), Fraction(23, 6)]
    q = [0, 2, 3]
    Q = [1, 2, 6]
    assert exponent_solve(1, beta, q, Q) == (3,)
    assert exponent_solve(2, beta, q, Q) == (10, 1)


@pytest.mark.parametrize("i, beta, q, Q, message", [
    (2, ["1", "3/2", "23/5"], [0, 2, 3], [1, 2, 6],
     "no exponent n_{2,1} in [0, 2) satisfies the value relation"),
    (2, ["1", "3/2", "1/6"], [0, 2, 3], [1, 2, 6],
     "value relation at level 2 leaves n_{2,0} = -1, not a nonnegative integer"),
    (1, ["1", "1/2"], [0, 3], [1, 3],
     "value relation at level 1 leaves n_{1,0} = 3/2, not a nonnegative integer"),
])
def test_exponent_solve_refuses_unsolvable_relations(i, beta, q, Q, message):
    """Values no spec gives: a denominator outside Q_i, a remainder below
    zero and one that is not an integer each raise with their message."""
    with pytest.raises(InvalidSpecError) as err:
        exponent_solve(i, [Fraction(b) for b in beta], q, Q)
    assert str(err.value) == message


def test_tower_sequence():
    js = build_jumping_sequence(make_spec(QQ, [(3, 2), (4, 1), (5, 3)]))
    # beta_2 = 2*(3/2) + (1/2)(4/1) = 5; beta_3 = 1*5 + (1/2)(5/3) = 35/6
    assert js.beta == (Fraction(1), Fraction(3, 2), Fraction(5), Fraction(35, 6))
    assert js.Q == (1, 2, 2, 6)


def test_monic_in_v(battery):
    for _, spec in battery:
        js = build_jumping_sequence(spec)
        for i in range(1, spec.depth + 2):
            T = js.T[i]
            d = T.deg_v()
            lead = T.v_coefficient(d)
            assert lead == BivarPoly.const(spec.field, 1, T.vars), \
                "T_%d of %s not monic in v" % (i, spec.pairs)


# ---------------------------------------------------------------------------
# independent data
# ---------------------------------------------------------------------------


def test_spec_a_independent(ind_a):
    assert ind_a.indices == (1, 2)
    assert ind_a.pbar == (3, 5)
    assert ind_a.qbar == (2, 3)
    assert ind_a.Qbar == (1, 2, 6)
    assert ind_a.betabar == (Fraction(1), Fraction(3, 2), Fraction(23, 6))
    assert ind_a.k == (0, 3, 7)
    assert ind_a.kbar == (0, 3, 7)


def test_tower_independent():
    js = build_jumping_sequence(make_spec(QQ, [(3, 2), (4, 1), (5, 3)]))
    ind = extract_independent(js)
    assert ind.indices == (1, 3)
    # pbar_2 = (p_2) * qbar_2 + p_3 = 4*3 + 5 = 17
    assert ind.pbar == (3, 17)
    assert ind.qbar == (2, 3)


# ---------------------------------------------------------------------------
# expansion, value, residue
# ---------------------------------------------------------------------------


def test_expansion_roundtrip_simple(js_a):
    u, v = U_V()
    f = v ** 4 + u * v ** 2 + u ** 7
    exp = expand(f, js_a)
    assert exp.resubstitute() == f
    for _, e in exp.terms:
        # interior digits stay below the defining denominators
        assert e[1] < 2 and e[2] < 3


def test_values(js_a):
    u, v = U_V()
    assert value(u, js_a) == 1
    assert value(v, js_a) == Fraction(3, 2)
    assert value(v ** 2 - u ** 3, js_a) == Fraction(23, 6)
    assert value(u * v, js_a) == Fraction(5, 2)
    assert value(v ** 2, js_a) == 3


def test_value_additivity_sample(js_a):
    u, v = U_V()
    f = v ** 2 + u ** 2
    g = v - u
    assert value(f * g, js_a) == value(f, js_a) + value(g, js_a)


def test_value_insufficient_depth(js_a):
    # the value of T_3 needs the (unspecified) next defining pair
    with pytest.raises(InsufficientDepthError) as ei:
        value(js_a.T[3], js_a)
    assert ei.value.extra_depth == 1


def test_residue(js_a):
    u, v = U_V()
    assert residue(v ** 2, u ** 3, js_a) == QQ(1)
    assert residue(u ** 2 * v ** 2, u ** 5, js_a) == QQ(1)
    assert residue(v ** 2 + v ** 3, u ** 3, js_a) == QQ(1)


def test_residue_requires_equal_values(js_a):
    u, v = U_V()
    with pytest.raises(ValueError):
        residue(v, u, js_a)


# The checks below guard invariants that valid input always meets; each
# test breaks one by hand.  They are explicit code, so they also hold
# under python -O.


def test_expand_rejects_t1_other_than_v(js_a):
    """Expansion reads level 1 off the v-degree rows, which is the
    v-adic expansion only when T_1 = v: a hand-built sequence whose T_1 is
    v + u, still monic in v, is refused before any division."""
    u, v = U_V()
    bad = type(js_a)(js_a.spec, (u, v + u) + js_a.T[2:], js_a.beta, js_a.Q, js_a.n)
    with pytest.raises(ArithmeticError, match="T_1 = u \\+ v is not the second variable"):
        expand(v, bad)


def test_min_pure_term_rejects_equal_pure_values(js_a):
    # u^3 and T_1^2 both have value 3; the second is not in standard form
    exp = TExpansion(js_a, ((QQ(1), (3, 0, 0, 0)), (QQ(1), (0, 2, 0, 0))))
    with pytest.raises(ArithmeticError):
        engine._min_pure_term(exp)


def test_residue_rejects_different_minimal_monomials(js_a, monkeypatch):
    u, v = U_V()
    fake = {u: TExpansion(js_a, ((QQ(1), (3, 0, 0, 0)),)),
            v: TExpansion(js_a, ((QQ(1), (0, 2, 0, 0)),))}
    monkeypatch.setattr(engine, "expand", lambda f, js: fake[f])
    with pytest.raises(ArithmeticError):
        residue(u, v, js_a)


def test_reduced_exponent_uniqueness(js_a):
    """No nontrivial bounded integer relation among the j-values."""
    beta = js_a.beta
    qs = [js_a.q(i) for i in range(1, js_a.depth + 1)]
    for cs in itertools.product(*[range(-(q - 1), q) for q in qs]):
        if all(c == 0 for c in cs):
            continue
        s = sum(c * b for c, b in zip(cs, beta[1:]))
        assert s.denominator != 1, "relation %s" % (cs,)


# ---------------------------------------------------------------------------
# semigroup and minimality
# ---------------------------------------------------------------------------


def _brute_semigroup(gens, bound):
    """Every sum of the positive gens up to bound, by growing a set."""
    reached, frontier = {Fraction(0)}, {Fraction(0)}
    while frontier:
        frontier = {x + g for x in frontier for g in gens if 0 < g and x + g <= bound} - reached
        reached |= frontier
    return reached


SMALL_GENERATORS = [[Fraction(1), Fraction(3, 2)], [Fraction(2, 3), Fraction(5, 4)],
                    [Fraction(3, 5), Fraction(1, 2), Fraction(7, 3)], [Fraction(4), Fraction(6)],
                    [Fraction(0), Fraction(5, 6), Fraction(5, 6)], []]


def _independent_from_pairs(pairs):
    """extract_independent on the values of ``pairs`` alone, with no tower:
    beta_1 = p_1/q_1, beta_{i+1} = q_i * beta_i + p_{i+1} / (q_{i+1} * Q_i)."""
    beta, Q = [Fraction(1)], [1]
    for i, (p, q) in enumerate(pairs):
        beta.append(Fraction(p, q) if i == 0
                    else pairs[i - 1][1] * beta[-1] + Fraction(p, q * Q[-1]))
        Q.append(Q[-1] * q)
    stub = SimpleNamespace(depth=len(pairs), beta=tuple(beta),
                           p=lambda i: pairs[i - 1][0], q=lambda i: pairs[i - 1][1])
    return extract_independent(stub)


def test_semigroup_below():
    vals = semigroup_below([Fraction(1), Fraction(3, 2)], Fraction(3))
    assert vals == [Fraction(0), Fraction(1), Fraction(3, 2), Fraction(2),
                    Fraction(5, 2), Fraction(3)]
    for gens in SMALL_GENERATORS:
        for bound in (Fraction(0), Fraction(7, 4), Fraction(5), Fraction(-1)):
            assert semigroup_below(gens, bound) == sorted(_brute_semigroup(gens, bound))


def test_semigroup_member(monkeypatch):
    rep = semigroup_member(Fraction(7, 2), [Fraction(1), Fraction(3, 2)])
    assert rep is not None
    assert sum(c * g for g, c in zip([Fraction(1), Fraction(3, 2)],
                                     [rep.get(0, 0), rep.get(1, 0)])) == Fraction(7, 2)
    assert semigroup_member(Fraction(1, 2), [Fraction(1), Fraction(3, 2)]) is None
    for gens in SMALL_GENERATORS:
        reached = _brute_semigroup(gens, Fraction(6))
        for target in {Fraction(n, d) for d in range(1, 7) for n in range(-1, 6 * d + 1)}:
            rep = semigroup_member(target, gens)
            assert (rep is not None) == (target in reached), (gens, target)
            if rep is not None:
                assert all(c > 0 for c in rep.values())
                assert sum(c * gens[j] for j, c in rep.items()) == target
    # a target that is not a multiple of 1/den is refused before a table of
    # its size is built
    monkeypatch.setattr(engine, "_semigroup", None)
    assert semigroup_member(Fraction(10 ** 12 + 1, 3), [Fraction(1), Fraction(5, 2)]) is None


def test_minimality_spec_a(ind_a, spec_a):
    assert _independent_from_pairs(spec_a.pairs) == ind_a  # the stub reads the tower's values
    out = verify_minimality(ind_a)
    assert [r["index"] for r in out] == [0, 1, 2]
    assert all(r["minimal"] and r["witness"] is None for r in out)


def test_minimality_redundant_h0():
    js = build_jumping_sequence(make_spec(QQ, [(1, 2)]))
    ind = extract_independent(js)
    assert ind.pbar == (1,)
    out = verify_minimality(ind)
    assert not out[0]["minimal"]
    assert out[0]["witness"] == {1: 2}  # betabar_0 = 1 = 2 * betabar_1 = 2 * (1/2)
    assert out[1] == {"index": 1, "minimal": True, "witness": None}


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(1, 7), st.integers(1, 7)).filter(lambda pq: gcd(*pq) == 1),
                min_size=1, max_size=7))
def test_minimality_is_the_rule_pbar_1(pairs):
    """Computed minimality of {H_l} is the rule pbar_1 != 1, and its only
    witness is betabar_0 = qbar_1 * betabar_1 at index 0."""
    ind = _independent_from_pairs(pairs)
    out = verify_minimality(ind)
    if not ind.levels:
        assert out == []
        return
    assert all(r["minimal"] for r in out) == (ind.pbar[0] != 1)
    witnesses = [(r["index"], r["witness"]) for r in out if not r["minimal"]]
    assert witnesses == ([] if ind.pbar[0] != 1 else [(0, {1: ind.qbar[0]})])


# ---------------------------------------------------------------------------
# generating-sequence verification (small smoke; the full run is in
# test_acceptance)
# ---------------------------------------------------------------------------


def test_verify_generating_smoke(js_a):
    report = verify_generating_sequence(js_a, Fraction(3), 4)
    assert report
    assert [r for r in report if r["pass"] is False] == []
    assert [r for r in report if r["pass"] is None] == []
    labels = [r["inputs"] for r in report]
    assert len(set(labels)) == len(labels), "one record per polynomial"
    for r in report:
        assert r["gammas"] == sorted(r["gammas"]) and 0 < r["gammas"][0]
        assert r["gammas"][-1] <= min(Fraction(3), value(_monomial(r["inputs"]), js_a))


def _monomial(label, fld=QQ):
    """The monomial of a ``verify`` record labelled "u^a v^b"."""
    a, b = (int(part.split("^")[1]) for part in label.split())
    return BivarPoly.monomial(fld, a, b, 1, ("u", "v"))


@pytest.mark.parametrize("fld, pairs, gamma_max, deg_bound", [
    (QQ, [(3, 2), (5, 3)], "5", 8),
    (QQ, [(3, 2), (4, 1), (5, 3)], "100", 6),
    (prime_field(2), [(1, 2), (3, 2)], "5", 7),
    (prime_field(3), [(1, 2), (3, 2)], "1/2", 5),
    (prime_field(3), [(2, 3), (3, 2)], "7/3", 6),
    (prime_field(101), [(2, 3), (3, 2)], "5", 8),
    # no pairs: every v^b with b > 0 involves T_M = T_1, so only u^a is certified
    (prime_field(2), [], "5", 4),
])
def test_verify_derived_records_match_expansions(fld, pairs, gamma_max, deg_bound):
    """Every monomial record, derived from its v-power's expansion, holds
    the witness, gammas and pass that expanding and valuing the monomial
    itself gives, in the (a, b) order of the monomials."""
    js = build_jumping_sequence(make_spec(fld, pairs))
    gamma_max = Fraction(gamma_max)
    report = verify_generating_sequence(js, gamma_max, deg_bound)
    expected = []
    for a in range(deg_bound + 1):
        for b in range(deg_bound + 1 - a):
            if not (a or b):
                continue
            label = "u^%d v^%d" % (a, b)
            f = _monomial(label, fld)
            try:
                sigma = value(f, js)
            except InsufficientDepthError:
                expected.append({"check": "membership", "inputs": label, "pass": None,
                                 "witness": "value not certified at this depth"})
                continue
            gammas = [g for g in semigroup_below(list(js.beta), min(gamma_max, sigma)) if g > 0]
            if gammas:
                exp = expand(f, js)
                low = Fraction(min(exp.nums), js.Q[-1])
                expected.append({"check": "membership", "inputs": label, "gammas": gammas,
                                 "witness": exp.to_json(), "pass": low >= gammas[-1]})
    assert report == expected
    assert report
    if not pairs:
        assert any(r["pass"] is None for r in report)
        assert any(r["pass"] is True for r in report)


def test_verify_uncertified_is_not_pass():
    """A sample with no certified value (over F_3 on the pair (3, 2) the
    expansion of seed 16's sample 0 has a term in T_2 = T_M that may fall
    below its least pure term) is recorded with ``"pass": None``, not
    ``True``."""
    js = build_jumping_sequence(make_spec(prime_field(3), [(3, 2)]))
    report = verify_generating_sequence(js, Fraction(5), 2, samples=5, seed=16)
    uncertified = [r for r in report if r["pass"] is None]
    assert [r["inputs"] for r in uncertified] == ["sample 0"]
    assert uncertified[0]["witness"] == "value not certified at this depth"
    assert all(r["pass"] is True for r in report if r not in uncertified)


def test_verify_enumerates_gamma_up_to_largest_value(js_a, monkeypatch):
    """The semigroup is enumerated only up to the largest value compared,
    so a huge ``gamma_max`` costs nothing and changes no record."""
    bounds = []
    below = engine.semigroup_below
    monkeypatch.setattr(engine, "semigroup_below",
                        lambda gens, bound: bounds.append(bound) or below(gens, bound))
    small = verify_generating_sequence(js_a, Fraction(200), 8)
    big = verify_generating_sequence(js_a, Fraction(20000), 8)
    largest = max(value(_monomial(r["inputs"]), js_a) for r in small)
    assert bounds == [largest, largest] and largest < 200
    assert big == small
