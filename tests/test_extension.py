import random
from dataclasses import replace
from fractions import Fraction
from math import gcd
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

from jumpseq import extension
from jumpseq.blowup import Factor, initial_chart
from jumpseq.errors import DivisibilityError, InvalidSpecError, ResourceLimitError
from jumpseq.extension import (
    MonomialExtension,
    build_dual_sequences,
    classify_toroidal_form,
    first_gcd_failure,
    ladder,
)
from jumpseq.fields import QQ, prime_field
from jumpseq.euclid import euclid_data
from jumpseq.engine import ValuationSpec, residue
from jumpseq.poly import BivarPoly, RatExpr, exact_divide

from conftest import FIELDS, backward, chart_forward, make_spec, random_spec, random_unit


def XY(fld=QQ):
    return BivarPoly.gens(fld, ("x", "y"))


def mk_ext(spec, t, delta=None):
    if delta is None:
        delta = BivarPoly.const(spec.field, 1, ("x", "y"))
    return MonomialExtension(t=t, delta=delta, base_spec=spec)


def one_plus_x(fld=QQ):
    x, _ = XY(fld)
    return BivarPoly.const(fld, 1, ("x", "y")) + x


# ---------------------------------------------------------------------------
# construction and validation
# ---------------------------------------------------------------------------


def test_extension_validation(spec_a):
    x, _ = XY()
    with pytest.raises(InvalidSpecError):
        MonomialExtension(t=0, delta=one_plus_x(), base_spec=spec_a)
    with pytest.raises(InvalidSpecError):
        MonomialExtension(t=2, delta=x, base_spec=spec_a)


def test_extension_json_roundtrip(spec_a):
    ext = mk_ext(spec_a, 5, one_plus_x())
    back = MonomialExtension.from_json(ext.to_json())
    assert back.t == 5 and back.delta == ext.delta and back.base_spec == spec_a


def test_first_gcd_failure():
    pairs = [(3, 2), (5, 3)]
    assert first_gcd_failure(5, pairs) is None
    assert first_gcd_failure(2, pairs) == 1
    assert first_gcd_failure(3, pairs) == 2
    assert first_gcd_failure(6, pairs) == 1


@pytest.mark.parametrize("t,kind", [(5, "toroidal"), (3, "contradiction")])
def test_ladder_decides_the_gcd_condition_once(spec_a, t, kind):
    """One ladder runs ``first_gcd_failure`` once, inside its one
    ``build_dual_sequences`` call, on the pairs of its depth."""
    calls = []
    real = extension.first_gcd_failure
    with mock.patch.object(extension, "first_gcd_failure",
                           lambda t, pairs: calls.append(tuple(pairs)) or real(t, pairs)):
        cert = ladder(mk_ext(spec_a, t))
    assert cert.outcome["kind"] == kind
    assert calls == [spec_a.pairs]


# ---------------------------------------------------------------------------
# dual sequences
# ---------------------------------------------------------------------------


def test_duals_spec_a_t5(spec_a):
    ext = mk_ext(spec_a, 5, one_plus_x())
    duals = build_dual_sequences(ext)
    assert duals.ok and duals.failing_index is None
    up = duals.up
    assert up.spec.pairs == ((15, 2), (25, 3))
    assert up.beta == (Fraction(1), Fraction(15, 2), Fraction(115, 6))
    assert up.n[1] == (15,) and up.n[2] == (50, 1)
    x, y = XY()
    assert up.T[2] == y ** 2 - x ** 15 * one_plus_x() ** 3


def test_duals_substitution_identity(spec_a):
    """T'_i = T_i(x^t * delta, y) at every level, and the identities of
    the upstairs data that imply it (p'_i = t * p_i, q'_i = q_i,
    beta'_i = t * beta_i, n'_{i,0} = t * n_{i,0} and n'_{i,j} = n_{i,j}
    for j >= 1), which the dual table holds by construction: on spec-a
    with t = 5 and delta = 1 + x, and on random specs over every field of
    ``FIELDS`` with random downstairs units in u and v and random upstairs
    units."""
    exts = [mk_ext(spec_a, 5, one_plus_x())]
    for fld in FIELDS:
        rng = random.Random("duals-%d" % fld.characteristic)
        top = fld.characteristic - 1 if fld.characteristic else 4
        for _ in range(6):
            pairs = [rng.choice([(1, 1), (2, 1), (1, 2), (3, 2), (2, 3), (1, 3)])
                     for _ in range(rng.randint(1, 3))]
            t = rng.choice([t for t in range(1, 8) if all(gcd(t, q) == 1 for _, q in pairs)])
            spec = ValuationSpec(fld, tuple(pairs),
                                 tuple(fld(rng.randint(1, top)) for _ in pairs),
                                 tuple(random_unit(rng, fld) for _ in pairs))
            exts.append(mk_ext(spec, t, random_unit(rng, fld, ("x", "y"))))
    for ext in exts:
        duals = build_dual_sequences(ext)
        assert duals.ok
        up, down, t = duals.up, ext.down, ext.t
        for i in range(1, ext.base_spec.depth + 2):
            assert down.T[i].subs(*ext.substitution) == up.T[i], (ext.base_spec.pairs, i)
        for i in range(1, ext.base_spec.depth + 1):
            assert (up.p(i), up.q(i)) == (t * down.p(i), down.q(i))
            assert up.beta[i] == t * down.beta[i]
            assert up.n[i] == (t * down.n[i][0],) + down.n[i][1:]


def test_duals_gcd_failure(spec_a):
    ext = mk_ext(spec_a, 2)
    duals = build_dual_sequences(ext)
    assert not duals.ok and duals.up is None and duals.failing_index == 1


def test_dual_table_is_read_off_up(spec_a):
    """A row (i, p'_i, q'_i) per upstairs pair at the requested depth, and
    none when the gcd condition fails within it: with t = 3 it fails at
    index 2, so depth 1 still has an upstairs sequence."""
    ext = mk_ext(spec_a, 5, one_plus_x())
    duals = build_dual_sequences(ext)
    assert duals.table == ({"i": 1, "p_prime": 15, "q_prime": 2},
                           {"i": 2, "p_prime": 25, "q_prime": 3})
    assert build_dual_sequences(ext, 1).table == duals.table[:1]
    assert build_dual_sequences(ext, 0).table == ()
    short = build_dual_sequences(mk_ext(spec_a, 3), 1)
    assert short.ok and short.table == ({"i": 1, "p_prime": 9, "q_prime": 2},)
    failed = build_dual_sequences(mk_ext(spec_a, 3))
    assert failed.failing_index == 2 and failed.table == () and failed.to_json()["table"] == []


def test_duals_take_downstairs_units():
    """delta_1 = 1 + u on (3,2) with t = 5 and delta = 1 + x: the dual
    table is ok and the upstairs unit is delta^{n_{1,0}} * (1 + x^5 * delta),
    with n_{1,0} = 3; the ladder is ok as well."""
    u, _ = BivarPoly.gens(QQ, ("u", "v"))
    x, _ = XY()
    one = BivarPoly.const(QQ, 1, ("x", "y"))
    spec = make_spec(QQ, [(3, 2)])
    spec = replace(spec, units=(BivarPoly.const(QQ, 1) + u,))
    delta = one_plus_x()
    ext = mk_ext(spec, 5, delta)
    duals = build_dual_sequences(ext)
    assert duals.ok and ext.down.n[1] == (3,)
    assert duals.up.spec.units == (delta ** 3 * (one + x ** 5 * delta),)
    assert ladder(ext).ok


# ---------------------------------------------------------------------------
# the ladder
# ---------------------------------------------------------------------------


def test_ladder_spec_a_t5(spec_a):
    ext = mk_ext(spec_a, 5, one_plus_x())
    cert = ladder(ext)
    assert cert.outcome == {"kind": "toroidal"} and cert.ok
    assert [r["value_ratio"] for r in cert.rungs] == [[15, 2], [25, 3]]
    assert all(r["delta_unit"] for r in cert.rungs)
    assert all(r["second_param"]["pass"] for r in cert.rungs)
    assert all(r["residue_match"] for r in cert.rungs)


def test_ladder_contradiction(spec_a):
    cert = ladder(mk_ext(spec_a, 2))
    assert cert.outcome["kind"] == "contradiction"
    assert (cert.outcome["M"], cert.outcome["l"], cert.outcome["g"]) == (1, 1, 1)
    assert cert.outcome["pbar_prime"] == 3
    assert not cert.ok and cert.rungs == ()


def test_ladder_t1_trivial(spec_a):
    cert = ladder(mk_ext(spec_a, 1))
    assert cert.ok and cert.outcome == {"kind": "toroidal"}
    assert [r["value_ratio"] for r in cert.rungs] == [[3, 2], [5, 3]]


def test_ladder_depth_check(spec_a):
    with pytest.raises(InvalidSpecError):
        ladder(mk_ext(spec_a, 5), depth=3)


def test_ladders_share_the_downstairs_sequence(spec_a, monkeypatch):
    """An extension builds its downstairs sequence once: two ladders on
    one extension build it once and the upstairs sequence twice."""
    calls = []
    build = extension.build_jumping_sequence
    monkeypatch.setattr(extension, "build_jumping_sequence",
                        lambda *a, **k: calls.append(a) or build(*a, **k))
    ext = mk_ext(spec_a, 5, one_plus_x())
    assert ladder(ext).ok and ladder(ext).ok
    assert len(calls) == 3


#: ladders whose residue law needs the unit constant: (field, pairs, lambdas,
#: t), with delta = 1; the tower fails rung 2 without it, where
#: c = Delta_1(0) = 4, and the two F_101 ladders fail rung 3, where
#: Delta_2(0) is 32 and 24
UNIT_CONSTANT_LADDERS = [
    (QQ, [(3, 2), (4, 1), (5, 3)], (2, 1, 1), 5),
    (prime_field(101), [(3, 2), (4, 1), (5, 3)], (2, 1, 1), 5),
    (prime_field(101), [(2, 1), (3, 4), (3, 1), (5, 4)], (3, 2, 2, 2), 7),
    (prime_field(101), [(3, 1), (7, 2), (5, 3), (1, 3)], (2, 5, 1, 2), 7),
]


@pytest.mark.parametrize("fld, pairs, lambdas, t", UNIT_CONSTANT_LADDERS,
                         ids=["tower-QQ", "tower-F101", "rung3-a-F101", "rung3-b-F101"])
def test_ladder_residue_law_carries_the_unit_constant(fld, pairs, lambdas, t):
    """c' = c * Delta_{i-1}(0)^{p_i}: each of these ladders is toroidal and
    ok, and some rung's previous unit constant is not 1, so the plain
    c = c' would fail it."""
    spec = make_spec(fld, pairs, lambdas=[fld(l) for l in lambdas])
    cert = ladder(mk_ext(spec, t))
    assert cert.outcome == {"kind": "toroidal"} and cert.ok
    assert any(r["delta_constant"] != "1" for r in cert.rungs[:-1])


def test_ladder_residue_without_previous_unit(monkeypatch):
    """When rung i - 1 certifies no unit, rung i has no constant for the
    residue law and reports ``residue_match`` false, with no TypeError.
    Here rung 1's unit is withheld on the tower (3,2),(4,1),(5,3)."""
    ext = mk_ext(make_spec(QQ, [(3, 2), (4, 1), (5, 3)]), 5)
    stable = extension._stable_unit
    calls = []

    def stable_unit(*a):
        calls.append(a)
        return None if len(calls) == 1 else stable(*a)

    monkeypatch.setattr(extension, "_stable_unit", stable_unit)
    cert = ladder(ext)
    assert cert.rungs[1]["delta_unit"] is False
    assert cert.rungs[2]["residue_match"] is False and not cert.ok


def test_ladder_rung_without_unit(spec_a, monkeypatch):
    """A rung whose Delta is not a unit reports ``delta_unit`` false and
    ``delta_constant`` null, and fails.  Here Delta is read in the S-chart
    one step short of the rung, where u_i / X^t is not a unit."""
    ext = mk_ext(spec_a, 5, one_plus_x())
    pulled = extension._pulled_factors
    monkeypatch.setattr(extension, "_pulled_factors",
                        lambda ext, chart_R, chart_S: pulled(ext, chart_R, chart_S.previous))
    cert = ladder(ext)
    assert not cert.ok and cert.outcome == {"kind": "toroidal"}
    rung = cert.rungs[1]
    assert rung["delta_unit"] is False and rung["delta_constant"] is None
    assert not rung["pass"]
    assert cert.rungs[0]["pass"]


def test_ladder_resource_limit_propagates(spec_a, monkeypatch):
    """A kernel fault inside the rung certificates is not read as "no
    unit": ResourceLimitError from the stepwise pull-back propagates."""
    def pull_back(f, chart):
        raise ResourceLimitError("too big")

    monkeypatch.setattr(extension, "pull_back", pull_back)
    with pytest.raises(ResourceLimitError):
        ladder(mk_ext(spec_a, 5, one_plus_x()))


def test_stable_unit_needs_equal_Y_exponents(spec_a):
    """u_i = x * y upstairs with t = 1 pulls back to X * Y in the initial
    S-chart: the X-exponents differ by t, but Delta = Y is not a unit."""
    ext = mk_ext(spec_a, 1)
    duals = build_dual_sequences(ext)
    u, v = ext.down.T[:2]
    chart_S = initial_chart(duals.up)

    def stable_unit(u_i):
        chart_R = replace(initial_chart(ext.down),
                          factors=(Factor(u_i, None), Factor(v, None)))
        pulled = extension._pulled_factors(ext, chart_R, chart_S)
        return extension._stable_unit(ext, chart_R.params[0], pulled)

    assert stable_unit(u * v) is None
    assert stable_unit(u * (u + 2)) == 2


def expanded_rung(ext, chart_R, forward_S):
    """``delta_unit``, ``delta_constant`` and ``second_param`` of a rung
    through the expanded forward map ``forward_S`` of the S-chart, the
    oracle for the stepwise certificates.

    Delta is the exact quotient u_i(forward) / X^t when there is one, as
    the ladder computed it before; when the quotient is not a polynomial,
    Delta is a unit when, after cancelling the common monomial,
    num = X^t * A and den = B with A and B local units."""
    fld = ext.field
    sub = ext.substitution

    def in_chart(r):
        up = RatExpr(r.num.subs(*sub), r.den.subs(*sub))
        return RatExpr(up.num.subs(*forward_S), up.den.subs(*forward_S))

    bu, bv = backward(chart_R)
    u = in_chart(bu)
    try:
        delta = exact_divide(u.num, u.den * BivarPoly.monomial(fld, ext.t, 0, 1, u.den.vars))
        const = delta.constant_term()
        unit = bool(const)
    except DivisibilityError:
        unit = (bool(u.den.constant_term()) and (ext.t, 0) in u.num.terms
                and min(a for a, _ in u.num.terms) == ext.t)
        const = u.num.terms[(ext.t, 0)] / u.den.constant_term() if unit else None
    W = in_chart(bv)
    restricted = {b for (a, b) in W.num.terms if a == 0}
    second = {"den_unit": bool(W.den.constant_term()),
              "vanishes_at_origin": W.num.constant_term() == fld.zero,
              "exceptional_order_one": bool(restricted) and min(restricted) == 1}
    second["pass"] = all(second.values())
    return unit, fld.render(const) if unit else None, second


def expanded_rung_residue(js, i, chart):
    """The engine residue of v^{q_i} / u^{p_i} for the pair entering chunk
    i, u the first backward parameter of ``chart`` as a rational
    expression and v = T_i / prod_j T_j^{n_{i-1,j}}: the oracle for the
    rung residues."""
    v = RatExpr.from_poly(js.T[i])
    for j, e in enumerate(js.n[i - 1]):
        if e:
            v = v / RatExpr.from_poly(js.T[j]) ** e
    r = v ** js.q(i) / backward(chart)[0] ** js.p(i)
    return residue(r.num, r.den, js)


def rungs_with_charts(ext, depth=None):
    """The ladder's rungs after rung 0 with the (R, S) charts they were
    certified on."""
    calls = []
    pulled = extension._pulled_factors
    with mock.patch.object(extension, "_pulled_factors",
                           lambda *a: calls.append(a) or pulled(*a)):
        cert = ladder(ext, depth)
    assert len(calls) == len(cert.rungs) - 1
    return cert, list(zip(cert.rungs[1:], calls))


def rung_fields(rung):
    return rung["delta_unit"], rung["delta_constant"], rung["second_param"]


def chart_at(chart, step):
    """The chart of ``chart``'s chain at ``step``."""
    while chart.step_index > step:
        chart = chart.previous
    return chart


def rung_residues(ext, cert, rungs):
    """Per rung after rung 0, its ``c`` and ``residue_match`` as the
    engine gives them on the charts entering the chunk, the match by the
    law c' = c * Delta(0)^{p_i} with Delta(0) the previous rung's
    ``delta_constant``."""
    duals = build_dual_sequences(ext)
    out = []
    for prev, (rung, (_, chart_R, chart_S)) in zip(cert.rungs, rungs):
        i = rung["i"]
        c = expanded_rung_residue(ext.down, i, chart_at(chart_R, prev["step_R"]))
        c_prime = expanded_rung_residue(duals.up, i, chart_at(chart_S, prev["step_S"]))
        const = prev["delta_constant"]
        match = const is not None and c_prime == c * ext.field.parse(const) ** ext.down.p(i)
        out.append((ext.field.render(c), match))
    return out


@pytest.mark.parametrize("fld", [QQ, prime_field(101)], ids=["QQ", "F101"])
@pytest.mark.parametrize("t", [5, 7])
def test_rungs_match_expanded_forward(spec_a, fld, t):
    """On spec-a every rung's stable unit is the exact quotient
    u_i(forward) / X^t, and the stepwise certificates equal the ones read
    from the expanded forward map."""
    spec = replace(spec_a, field=fld, lambdas=(fld(1), fld(1)),
                   units=tuple(BivarPoly.const(fld, 1) for _ in spec_a.units))
    cert, rungs = rungs_with_charts(mk_ext(spec, t, one_plus_x(fld)))
    assert cert.ok and rungs
    for rung, (ext, chart_R, chart_S) in rungs:
        assert rung_fields(rung) == expanded_rung(ext, chart_R, chart_forward(chart_S))
    assert [(r["c"], r["residue_match"]) for r, _ in rungs] == \
        rung_residues(rungs[0][1][0], cert, rungs)


#: ladders with p | t over F_p (ROADMAP item 7): (p, pairs, t, whether
#: delta = 1 + x); the result is characteristic-free, and each is toroidal
#: and ok
P_DIVIDES_T = [
    (3, [(5, 4), (3, 2)], 3, False),
    (5, [(3, 2), (5, 3)], 5, False),
    (5, [(3, 2), (5, 3)], 5, True),
    (5, [(3, 2), (4, 1), (5, 3)], 5, False),
    (5, [(3, 2), (4, 1), (5, 3)], 5, True),
    (7, [(3, 2), (5, 3)], 7, False),
    (7, [(3, 2), (4, 1), (5, 3)], 7, False),
]


@pytest.mark.parametrize("p, pairs, t, unit", P_DIVIDES_T,
                         ids=["F%d-%s-t%d%s" % (p, "".join("%d%d" % pq for pq in pairs), t,
                                                "-delta" if unit else "")
                              for p, pairs, t, unit in P_DIVIDES_T])
def test_ladder_with_p_dividing_t(p, pairs, t, unit):
    """A ladder whose t is a multiple of the characteristic is toroidal and
    ok, rung i has the value ratio t * p_i / q_i, and every rung's stable
    unit, second parameter and residue equal the ones read from the
    expanded forward map."""
    fld = prime_field(p)
    ext = mk_ext(make_spec(fld, pairs), t, one_plus_x(fld) if unit else None)
    cert, rungs = rungs_with_charts(ext)
    assert cert.outcome == {"kind": "toroidal"} and cert.ok
    assert [r["value_ratio"] for r in cert.rungs] == [[t * a, b] for a, b in pairs]
    for rung, (_, chart_R, chart_S) in rungs:
        assert rung_fields(rung) == expanded_rung(ext, chart_R, chart_forward(chart_S))
    assert [(r["c"], r["residue_match"]) for r, _ in rungs] == rung_residues(ext, cert, rungs)


@pytest.mark.parametrize("unit", [False, True], ids=["delta=1", "delta=1+x"])
def test_ladder_contradiction_with_p_dividing_t(unit):
    """(3,2),(5,3) over F_5 with t = 10: gcd(t, q_1) = 2, so the ladder
    ends at M = 1 with pbar'_1 = 15 and g = gcd(15, 10) = 5."""
    fld = prime_field(5)
    cert = ladder(mk_ext(make_spec(fld, [(3, 2), (5, 3)]), 10, one_plus_x(fld) if unit else None))
    assert cert.outcome == {"kind": "contradiction", "M": 1, "l": 1, "g": 5, "pbar_prime": 15}
    assert not cert.ok and cert.rungs == ()


def test_stable_unit_beyond_exact_division():
    """(2,7),(5,2),(3,4) over F_2 with t = 3 and delta = 1 + x: at rung 2
    u_i(forward) / X^t is not a polynomial, but it is a ratio of local
    units, so Delta is a unit and the ladder is toroidal and ok (the exact
    division read it as no unit)."""
    fld = prime_field(2)
    cert, rungs = rungs_with_charts(mk_ext(make_spec(fld, [(2, 7), (5, 2), (3, 4)]), 3,
                                           one_plus_x(fld)))
    assert cert.ok
    rung, (ext, chart_R, chart_S) = rungs[-1]
    forward_S = chart_forward(chart_S)
    assert rung["delta_unit"] and rung_fields(rung) == expanded_rung(ext, chart_R, forward_S)
    u_i = backward(chart_R)[0]
    num, den = (f.subs(*ext.substitution).subs(*forward_S) for f in (u_i.num, u_i.den))
    with pytest.raises(DivisibilityError):
        exact_divide(num, den * BivarPoly.monomial(fld, 3, 0, 1, den.vars))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10 ** 6), st.sampled_from(FIELDS), st.sampled_from([2, 3, 5, 7]))
def test_ladder_rungs_match_expanded_forward(seed, fld, t):
    """On random specs every rung's ``delta_unit``, ``delta_constant`` and
    ``second_param`` equal the ones read from the expanded forward map.

    Both the ladder's backward expressions and the oracle's pull-back get
    slow on long chains, so the upstairs chain is kept to 20 steps and a
    rung is compared while deg(forward) * t * deg(backward) <= 3000 and
    the oracle stays within TERM_LIMIT.  A resource-limited ladder has no
    certificate to compare.  The rung residues are compared with the
    engine's on the same rungs."""
    spec = random_spec(random.Random(seed), fld)
    assume(first_gcd_failure(t, spec.pairs) is None)
    ratios = [Fraction(t * p, q) for p, q in spec.pairs]
    assume(sum(euclid_data(r.numerator, r.denominator).epsilon for r in ratios) <= 20)
    try:
        cert, rungs = rungs_with_charts(mk_ext(spec, t, one_plus_x(fld)))
    except ResourceLimitError:
        assume(False)
    for n, (rung, (ext, chart_R, chart_S)) in enumerate(rungs):
        forward_S = chart_forward(chart_S)
        deg = max(f.deg_u() + f.deg_v() for f in forward_S)
        if deg * t * max(r.num.deg_u() + r.num.deg_v() for r in backward(chart_R)) > 3000:
            break
        try:
            expected = expanded_rung(ext, chart_R, forward_S)
            residues = rung_residues(ext, cert, rungs[:n + 1])[-1]
        except ResourceLimitError:  # the stepwise rung got past the oracle's limit
            break
        assert rung_fields(rung) == expected, "%s t=%d rung %d" % (spec.pairs, t, rung["i"])
        assert (rung["c"], rung["residue_match"]) == residues


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------


def test_classify_discrete(spec_b):
    form = classify_toroidal_form(mk_ext(spec_b, 3))
    assert form.case == 5 and form.minimal is False


def test_classify_without_independent_index():
    """A nondiscrete spec whose q_i are all 1 has no pbar_1 to decide
    minimality by, so there is no case-4 form to give."""
    ext = mk_ext(make_spec(QQ, [(2, 1), (3, 1)]), 5)
    for decide in (extension.check_classifiable, classify_toroidal_form):
        with pytest.raises(InvalidSpecError, match="classify needs an independent index"):
            decide(ext)
    assert "down" not in vars(ext)  # refused from the spec, with no sequence built
    assert classify_toroidal_form(mk_ext(make_spec(QQ, [(2, 1), (3, 1)], "discrete"), 5)).case == 5


def test_classify_toroidal(spec_a):
    form = classify_toroidal_form(mk_ext(spec_a, 5, one_plus_x()))
    assert form.case == 4 and form.minimal is True
    # pbar_1 = 1: betabar_0 = 2 * betabar_1, so {H_l} is not minimal
    form = classify_toroidal_form(mk_ext(make_spec(QQ, [(1, 2), (3, 2)]), 3))
    assert form.case == 4 and form.minimal is False
    assert form.notes == "minimal iff pbar_1 != 1"
