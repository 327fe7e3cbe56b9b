import random
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from jumpseq.blowup import (
    Factor,
    _runs,
    initial_chart,
    monoidal_sequence,
    pull_back,
    single_quadratic_transform,
    strict_transform,
    value_in_original,
)
from jumpseq.engine import (build_jumping_sequence, extract_independent, graded_residue,
                            initial_form, residue, value)
from jumpseq.errors import InsufficientDepthError, InvalidSpecError, ResourceLimitError
from jumpseq.euclid import euclid_data
from jumpseq.extension import MonomialExtension, build_dual_sequences
from jumpseq.fields import Fp, QQ, prime_field
from jumpseq.poly import BivarPoly, _at_origin, _map, _strip, _translate, eval_rat

from conftest import (FIELDS, backward, chart_forward, charts_inverse, chunk_transform,
                      closing_factor, compose_step, expanded_strict_transform, load_spec,
                      make_spec, maps_inverse, random_poly, random_spec, rat_value)


def random_lambdas(rng, spec):
    """``spec`` with random lambdas, fractional over Q, so that the
    closings' residues vary."""
    fld = spec.field
    return replace(spec, lambdas=tuple(
        fld(Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 4)) if fld == QQ
            else rng.randint(1, fld.characteristic - 1)) for _ in spec.pairs))


def test_initial_chart(js_a):
    ch = initial_chart(js_a)
    assert ch.step_index == 0 and ch.free
    assert ch.values == (Fraction(1), Fraction(3, 2))
    assert ch.steps == []  # the first chunk traverses the ratio 3/2


def with_units(spec, lambdas):
    """``spec`` with the nonzero ``lambdas`` (1 where the field makes one
    zero) and every unit 1 + u, so that lambda_i * delta_i(0) and the
    higher terms of delta_i enter the tower."""
    fld = spec.field
    u, _ = BivarPoly.gens(fld)
    return replace(spec, lambdas=tuple(fld(c) or fld.one for c in lambdas[:spec.depth]),
                   units=tuple(u + 1 for _ in spec.pairs))


#: towers whose sequence elements the chain takes as known: spec-b's pairs
#: and the golden q1 spec's (2,1),(1,2),(3,2) have q_1 = 1, the tower has
#: q_2 = 1, spec-a has none, and with no pairs T_1 = T_M has no value
KNOWN_FORM_PAIRS = [((2, 1), (3, 1)), ((2, 1), (1, 2), (3, 2)), ((3, 2), (4, 1), (5, 3)),
                    ((3, 2), (5, 3)), ()]


@pytest.mark.parametrize("pairs", KNOWN_FORM_PAIRS, ids=str)
@pytest.mark.parametrize("fld", [QQ, prime_field(2), prime_field(3), prime_field(101)],
                         ids=["QQ", "F2", "F3", "F101"])
def test_sequence_elements_have_known_initial_forms(fld, pairs):
    """The chain reads the value and initial form of a sequence element
    T_j, j <= N, instead of expanding it: value(T_j) = beta_j, and the
    engine's initial form agrees with (beta_j, 1, e_j) in the graded
    algebra, the graded residue of their quotient being 1 (the forms
    differ where q_j = 1).  ``initial_chart`` gives T_0 and T_1 exactly
    those forms, with the value as its numerator w_j = Q_N * beta_j over
    Q_N, and T_1 none at depth 0, where the engine cannot value it
    either."""
    mode = "discrete" if pairs and all(q == 1 for _, q in pairs) else "nondiscrete"
    js = build_jumping_sequence(with_units(make_spec(fld, pairs, mode), (2, 3, 5)))
    chart = initial_chart(js)
    N = js.depth
    for j in range(N + 1):
        e = tuple(int(k == j) for k in range(N + 2))
        num, coeff, exps = initial_form(js.T[j], js)
        assert Fraction(num, js.Q[-1]) == value(js.T[j], js) == js.beta[j]
        assert graded_residue(fld.one / coeff, [a - b for a, b in zip(e, exps)], js) == fld.one
        if j < 2:
            assert chart.factors[j].form == (js.weights[j], fld.one, e)
            assert js.weights[j] == js.beta[j] * js.Q[-1]
    if N == 0:
        assert chart.factors[1].form is None and chart.values[1] is None
        with pytest.raises(InsufficientDepthError):
            initial_form(js.T[1], js)


def test_single_steps_spec_a(js_a):
    ch = initial_chart(js_a)
    ch = single_quadratic_transform(ch)
    assert ch.values == (Fraction(1), Fraction(1, 2))
    assert ch.free  # position 1 <= f_1 = 1
    ch = single_quadratic_transform(ch)
    assert ch.values == (Fraction(1, 2), Fraction(1, 2))
    assert not ch.free  # interior of the chunk
    ch = single_quadratic_transform(ch)
    # the chunk closes: residue 1, new ratio 5/3
    assert ch.free  # a closing starts the next chunk
    assert ch.values == (Fraction(1, 2), Fraction(5, 6))
    assert ch.values[1] / ch.values[0] == Fraction(5, 3)
    assert ch.step == ("C", QQ(1))
    assert ch.steps == [("A", None), ("B", None), ("C", QQ(1))]


def test_chunk_closed_form_matches_steps(js_a):
    ch0 = initial_chart(js_a)
    closed = chunk_transform(3, 2, 1, ch0)
    stepped = ch0
    for _ in range(euclid_data(3, 2).epsilon):
        stepped = single_quadratic_transform(stepped)
    assert maps_inverse(closed.forward, closed.backward) and charts_inverse(stepped)
    assert closed.forward == chart_forward(stepped)
    assert closed.values == stepped.values
    assert closed.step_index == stepped.step_index
    assert stepped.free  # a closed chunk ends at a free ring
    # closed form: u = X^2 (Y+1), v = X^3 (Y+1)^2 with bezout(3,2) = (2,1)
    X, Y = BivarPoly.gens(QQ, ("x", "y"))
    shift = Y + BivarPoly.const(QQ, 1, ("x", "y"))
    assert closed.forward[0] == X ** 2 * shift
    assert closed.forward[1] == X ** 3 * shift ** 2
    assert (closed.a, closed.b) == (2, 1)
    # value of the exceptional parameter drops by the factor q
    assert closed.values[0] == Fraction(1, 2)


def test_chunk_validates_ratio(js_a):
    ch0 = initial_chart(js_a)
    with pytest.raises(ValueError):
        chunk_transform(5, 3, 1, ch0)


def test_freeness_pattern_3_2(js_a):
    """free at positions 1..f_1 and at epsilon, not free in between."""
    ed = euclid_data(3, 2)
    ch = initial_chart(js_a)
    flags = []
    for _ in range(ed.epsilon):
        ch = single_quadratic_transform(ch)
        flags.append(ch.free)
    expected = [pos <= ed.f[0] or pos == ed.epsilon for pos in range(1, ed.epsilon + 1)]
    assert flags == expected


def test_last_chunk_value_unknown(js_a):
    """After the final certifiable chunk the new second value is unknown
    rather than guessed."""
    ch = initial_chart(js_a)
    for _ in range(7):  # epsilon(3,2) + epsilon(5,3)
        ch = single_quadratic_transform(ch)
    assert ch.values[0] == Fraction(1, 6)
    assert ch.values[1] is None and ch.free and ch.steps[-1][0] == "C"
    with pytest.raises(InsufficientDepthError):
        single_quadratic_transform(ch)


def test_strict_transform(js_a):
    ch = initial_chart(js_a)
    for _ in range(euclid_data(3, 2).epsilon):
        ch = single_quadratic_transform(ch)
    m, c = strict_transform(js_a.T[2], ch)
    # T_2 = v^2 - u^3 pulls back to X^6 ((Y+1)^4 - (Y+1)^3)
    assert m == 6
    assert c == 0  # not a local unit
    assert value_in_original(js_a.T[2], m, ch) == Fraction(23, 6) - 6 * Fraction(1, 2)


def test_monoidal_spec_a(js_a, ind_a):
    reports = monoidal_sequence(js_a, ind_a, 2)
    assert [r["pass"] for r in reports] == [True, True]
    assert [r["step"] for r in reports] == [3, 7]
    assert [r["u_value"] for r in reports] == [Fraction(1, 2), Fraction(1, 6)]
    lvl2 = reports[1]
    exps = [f["exponent"] for f in lvl2["H_factorizations"]]
    # Qbar_2 * betabar_j for j = 0, 1, 2
    assert exps == [6, 9, 23]
    assert lvl2["residue_check"]["pass"]


def test_monoidal_level_one_v_strict(js_a, ind_a):
    rec = monoidal_sequence(js_a, ind_a, 1)[0]
    vs = rec["v_strict"]
    assert vs["pass"]
    assert vs["exceptional_exponent"] == 6  # Qbar_1 * qbar_1 * betabar_1
    assert vs["value"] == Fraction(5, 6)    # (1/Qbar_1)(pbar_2/qbar_2)


def test_monoidal_depth_limited(js_a, ind_a):
    with pytest.raises(InvalidSpecError):
        monoidal_sequence(js_a, ind_a, 3)


def test_monoidal_refuses_what_it_cannot_certify(js_a, ind_a):
    """Zero levels and levels past the independent ones are refused with
    the range the spec provides, and so is a spec whose q_i are all 1: it
    has no level to certify, which used to come back as an empty report."""
    for L in (0, ind_a.levels + 1):
        with pytest.raises(InvalidSpecError, match="monoidal depth %d: the spec provides "
                                                   "independent levels 1 to 2" % L):
            monoidal_sequence(js_a, ind_a, L)
    js = build_jumping_sequence(make_spec(QQ, [(2, 1), (3, 1)]))
    ind = extract_independent(js)
    assert ind.levels == 0
    for L in (0, 1):
        with pytest.raises(InvalidSpecError, match="independent index"):
            monoidal_sequence(js, ind, L)


def test_monoidal_tower():
    js = build_jumping_sequence(make_spec(QQ, [(3, 2), (4, 1), (5, 3)]))
    ind = extract_independent(js)
    reports = monoidal_sequence(js, ind, 2)
    assert all(r["pass"] for r in reports)


@pytest.mark.parametrize("fld", [QQ, prime_field(101)], ids=["QQ", "F101"])
@pytest.mark.parametrize("pairs", [[(3, 2), (4, 1), (5, 3)], [(3, 2), (1, 1), (5, 3)]])
def test_monoidal_residue_check_with_lambda(fld, pairs):
    """Level 2 checks lambda against the closing at kbar_2, not against the
    closing of the q = 1 chunk in between."""
    lambdas = tuple(fld(c) for c in (2, 3, 2))
    js = build_jumping_sequence(make_spec(fld, pairs, lambdas=lambdas))
    ind = extract_independent(js)
    reports = monoidal_sequence(js, ind, ind.levels)
    assert [r["residue_check"]["pass"] for r in reports] == [True] * ind.levels
    assert all(r["pass"] for r in reports)


#: the specs of the p | t ladders (ROADMAP item 7) over their fields: (p, pairs)
P_DIVIDES_T_SPECS = [(3, [(5, 4), (3, 2)]), (5, [(3, 2), (5, 3)]), (5, [(3, 2), (4, 1), (5, 3)]),
                     (7, [(3, 2), (5, 3)]), (7, [(3, 2), (4, 1), (5, 3)])]


@pytest.mark.parametrize("p, pairs", P_DIVIDES_T_SPECS,
                         ids=["F%d-%s" % (p, "".join("%d%d" % pq for pq in pairs))
                              for p, pairs in P_DIVIDES_T_SPECS])
def test_monoidal_over_the_p_dividing_t_specs(p, pairs):
    """Every level passes over F_p on the specs whose ladders take t = p:
    level l ends at step kbar_l with u_l of value 1/Qbar_l, and H_j
    factors as u_l^{Qbar_l betabar_j} times a unit."""
    js = build_jumping_sequence(make_spec(prime_field(p), pairs))
    ind = extract_independent(js)
    reports = monoidal_sequence(js, ind, ind.levels)
    assert all(r["pass"] for r in reports)
    assert [r["step"] for r in reports] == list(ind.kbar[1:])
    assert [r["u_value"] for r in reports] == [Fraction(1, Q) for Q in ind.Qbar[1:]]
    for l, r in enumerate(reports, start=1):
        assert [h["exponent"] for h in r["H_factorizations"]] == \
            [ind.Qbar[l] * b for b in ind.betabar[:l + 1]]


#: monoidal specs whose residue law needs a_l past level 2: (field, pairs,
#: lambdas, whether delta_3 = 1 + u, {level: t_l}); without a_l, t_l is
#: 1/8 and 1/256 at levels 3 and 4 of the first, 1/6561 at level 4 of the
#: second and 95 at level 3 of the third, and each of those levels fails
MONOIDAL_PAST_LEVEL_2 = [
    (QQ, [(2, 3), (1, 3), (5, 2), (3, 2)], (2, 1, 1, 1), False, {3: "1/32", 4: "1/262144"}),
    (QQ, [(2, 3), (1, 3), (5, 2), (3, 2)], (1, 3, 3, 2), False, {4: "1/43046721"}),
    (prime_field(101), [(1, 2), (1, 3), (5, 2)], (2, 3, 1), True, {3: "49"}),
]


@pytest.mark.parametrize("fld, pairs, lambdas, unit, expected", MONOIDAL_PAST_LEVEL_2,
                         ids=["QQ-2111", "QQ-1332", "F101-231"])
def test_monoidal_residue_law_past_level_2(fld, pairs, lambdas, unit, expected):
    """lambda_{i_l} = c_l * t_l with t_l = a_l^{qbar_l} / prod_j kappa_j^{nbar(l,j)}
    holds at every level, a_l the coefficient of H_l's pull-back at level
    l - 1."""
    spec = make_spec(fld, pairs, lambdas=tuple(fld(c) for c in lambdas))
    if unit:
        u, _ = BivarPoly.gens(fld)
        spec = replace(spec, units=spec.units[:2] + (u + 1,))
    js = build_jumping_sequence(spec)
    ind = extract_independent(js)
    reports = monoidal_sequence(js, ind, ind.levels)
    assert {l: reports[l - 1]["residue_check"]["t"] for l in expected} == expected
    assert all(r["pass"] for r in reports)


def test_monoidal_residue_law_without_a_coefficient(monkeypatch):
    """When H_l's pull-back at level l - 1 is not transversal to the
    exceptional locus (e_Y + k != 1) there is no a_l: level l reports the
    law false with t null, and the other levels are unchanged.  Here
    H_2's pull-back at level 1 of spec-a is given order 2."""
    from jumpseq import blowup
    js = build_jumping_sequence(load_spec("spec-a.json"))
    ind = extract_independent(js)
    real = blowup.pull_back

    def pull_back_order_2(f, chart):
        e_x, e_y, c, k = real(f, chart)
        return e_x, e_y, c, k + (f is js.T[2] and chart.step_index == ind.kbar[1])

    monkeypatch.setattr(blowup, "pull_back", pull_back_order_2)
    level1, level2 = monoidal_sequence(js, ind, 2)
    assert level1["pass"] and level2["residue_check"]["t"] is None
    assert level2["residue_check"]["pass"] is False and not level2["pass"]


def _chain(name):
    """A jumping sequence and the start of one of the chains the
    certifiers walk: spec-a downstairs (the ladder's R chain), the tower
    (3,2),(4,1),(5,3) (the plain chain) and spec-a's t=5 upstairs
    sequence (the ladder's S chain)."""
    if name == "spec-a-R":
        js = build_jumping_sequence(load_spec("spec-a.json"))
    elif name == "tower":
        js = build_jumping_sequence(make_spec(QQ, [(3, 2), (4, 1), (5, 3)]))
    else:
        one = BivarPoly.const(QQ, 1, ("x", "y"))
        js = build_dual_sequences(MonomialExtension(5, one, load_spec("spec-a.json"))).up
    return js, initial_chart(js)


# spec-a's R chain is walked to its end; the tower and the S chain stop
# before their last closing, whose pull-back passes TERM_LIMIT.  Evaluating
# a strict transform at the backward expressions passes TERM_LIMIT at
# earlier steps, so values are compared up to step ``compared``.
@pytest.mark.parametrize("name, steps, compared",
                         [("spec-a-R", 7, 6), ("tower", 10, 8), ("spec-a-S-t5", 19, 17)])
def test_chain_charts_inverse_and_values(name, steps, compared):
    """Along each chain the forward and backward maps are inverse, and the
    value of a strict transform from its original polynomial agrees with
    evaluating the strict transform at the backward expressions."""
    js, chart = _chain(name)
    forward = chart_forward(chart)
    for _ in range(steps):
        chart = single_quadratic_transform(chart)
        forward = compose_step(forward, chart.step)
        assert maps_inverse(forward, backward(chart)), "step %d" % chart.step_index
        if chart.step_index > compared:
            continue
        for f in js.T[1:js.depth + 1]:
            g, m = expanded_strict_transform(f, forward)
            assert strict_transform(f, chart) == (m, g.constant_term())
            r = eval_rat(g, *backward(chart))
            assert value_in_original(f, m, chart) == rat_value(r, js), \
                "step %d" % chart.step_index


def test_charts_inverse_detects_mutated_closing(js_a):
    """A closing whose new factor uses a residue other than the one in the
    forward map fails the inverse check."""
    ch = initial_chart(js_a)
    for _ in range(2):
        ch = single_quadratic_transform(ch)
    closed = single_quadratic_transform(ch)
    c = closed.step[1]
    bu, bv = backward(ch)
    ratio = bv / bu

    def closing(c):
        # V/U - c as the quotient of two new factors
        factors = closed.factors[:-1] + (Factor(ratio.num - ratio.den.scale(c), None),
                                         Factor(ratio.den, None))
        zeros = (0,) * (len(factors) - 2)
        return replace(closed, factors=factors,
                       params=(closed.params[0] + (0,), zeros + (1, -1)))

    assert charts_inverse(closed) and charts_inverse(closing(c))
    assert not charts_inverse(closing(c + 1))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10 ** 6), st.sampled_from(FIELDS))
def test_closings_match_engine_on_backward_parameters(seed, fld):
    """Along a random chain with random lambdas, every closing's residue
    is the engine residue of V/U materialised as a rational expression,
    and both chart values are the engine values of the materialised
    parameters; a second value the chart leaves unknown is one the
    engine cannot certify either.

    The materialised products grow along the chain, so the walk stops
    once one has more than 200 terms, or at a TERM_LIMIT error of the walk
    or of the oracle."""
    rng = random.Random(seed)
    js = build_jumping_sequence(random_lambdas(rng, random_spec(rng, fld)))
    chart = initial_chart(js)
    while chart.values[1] is not None:
        try:
            prev, chart = chart, single_quadratic_transform(chart)
        except ResourceLimitError as e:
            assert "TERM_LIMIT" in str(e)
            break
        try:
            bu, bv = backward(chart)
            if max(len(f.terms) for r in (bu, bv) for f in (r.num, r.den)) > 200:
                break
            kind, c = chart.step
            if kind == "C":
                pu, pv = backward(prev)
                ratio = pv / pu
                assert c == residue(ratio.num, ratio.den, js), \
                    "%s step %d" % (js.spec.pairs, chart.step_index)
            assert chart.values[0] == rat_value(bu, js)
            if chart.values[1] is None:
                with pytest.raises(InsufficientDepthError):
                    rat_value(bv, js)
            else:
                assert chart.values[1] == rat_value(bv, js)
        except ResourceLimitError:  # the oracle's expansions passed TERM_LIMIT
            break


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10 ** 6), st.sampled_from(FIELDS))
def test_closing_factors_match_polynomial_products(seed, fld):
    """Along a random chain with random lambdas and every unit 1 + u, each
    closing's new factor equals N = P - c*Q rebuilt with polynomial
    powers, products and ``scale`` (:func:`conftest.closing_factor`), and
    carries the engine's initial form of N, None where the engine cannot
    value it.  Expanding a factor gets slow with its size, so the walk
    stops at a factor of more than 100 terms, before its form is
    compared, or at a TERM_LIMIT error."""
    rng = random.Random(seed)
    spec = random_lambdas(rng, random_spec(rng, fld))
    js = build_jumping_sequence(with_units(spec, spec.lambdas))
    chart = initial_chart(js)
    while chart.values[1] is not None:
        try:
            chart = single_quadratic_transform(chart)
            if chart.step[0] != "C":
                continue
            new = chart.factors[-1]
            assert new.poly == closing_factor(chart), "%s step %d" % (spec.pairs, chart.step_index)
            if len(new.poly.form[0]) > 100:
                break
            try:
                form = initial_form(new.poly, js)
            except InsufficientDepthError:
                form = None
            assert new.form == form
        except ResourceLimitError as e:
            assert "TERM_LIMIT" in str(e)
            break


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_step_rows_mod_p_match_integer_rows(p):
    """A closing step over F_p makes its rows of (Y + c)^b reduced mod p;
    they agree with the rows over Z reduced mod p, for exponents with
    several base-p digits."""
    rng = random.Random(p)
    for _ in range(20):
        terms = {(rng.randint(0, 5), rng.randint(0, 3 * p * p)): rng.randint(1, p - 1)
                 for _ in range(rng.randint(1, 6))}
        c = rng.randint(1, p - 1)
        got = _translate((terms, 1), Fp(c, p), p)
        over_z, den = _translate((terms, 1), Fraction(c), 0)
        assert den == 1
        assert got == ({e: r for e, v in over_z.items() if (r := v % p)}, 1)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 6), st.sampled_from(FIELDS))
@example(13952, QQ)
@example(91133, prime_field(2))
@example(4280, QQ)
def test_stepwise_strict_transform_matches_expanded_forward(seed, fld):
    """At every chart of a random chain, the stepwise strict transform
    has the exceptional exponent and the constant term (nonzero exactly
    for a local unit) that the expanded forward map gives.  The lambdas are
    random (:func:`random_lambdas`).

    The oracle's pull-back gets slow with the degree of the result, so a
    polynomial is compared while deg(f) * deg(forward) <= 300, and the
    walk stops once a forward map has more than 100 terms.  It also stops,
    as at an unknown second value, where a closing's own polynomials pass
    TERM_LIMIT (seeds 13952 and 91133) or where one step takes the
    oracle's forward map past it (seed 4280), after comparing every chart
    reached."""
    rng = random.Random(seed)
    _check_stepwise_strict_transforms(random_lambdas(rng, random_spec(rng, fld)), rng)


#: pairs whose chunks are long runs of A or of B steps: epsilon(1, 7) = 7
#: is six B steps and a closing, epsilon(7, 2) = 5 three A steps, one B
#: and a closing
LONG_RUN_PAIRS = [((1, 7), (7, 2)), ((7, 2), (1, 7)), ((1, 7), (5, 3)), ((7, 2), (2, 7))]


@pytest.mark.parametrize("pairs", LONG_RUN_PAIRS, ids=str)
@pytest.mark.parametrize("fld", [QQ, prime_field(3), prime_field(101)], ids=["QQ", "F3", "F101"])
def test_stepwise_strict_transform_matches_expanded_forward_on_long_runs(fld, pairs):
    """:func:`test_stepwise_strict_transform_matches_expanded_forward` on
    chains whose A and B steps come in long runs, each pulled back as one
    exponent map, with lambda = 2, 3 and every unit 1 + u."""
    spec = with_units(make_spec(fld, pairs), (2, 3))
    _check_stepwise_strict_transforms(spec, random.Random(str(pairs)))


def _check_stepwise_strict_transforms(spec, rng):
    """Walk the chain of ``spec`` and compare, at every chart, the
    stepwise strict transforms of T_1 .. T_N and of one random polynomial
    drawn from ``rng`` with the expanded forward map's, within the limits
    the hypothesis test above describes."""
    fld = spec.field
    js = build_jumping_sequence(spec)
    fs = list(js.T[1:js.depth + 1]) + [random_poly(rng, fld, max_deg=6, max_terms=3)]
    chart = initial_chart(js)
    forward = chart_forward(chart)
    while chart.values[1] is not None and max(len(g.terms) for g in forward) <= 100:
        try:
            chart = single_quadratic_transform(chart)
        except ResourceLimitError as e:
            assert "exceeds TERM_LIMIT" in str(e)
            break
        try:
            forward = compose_step(forward, chart.step)
        except ResourceLimitError as e:  # the oracle's composed map (seed 4280)
            assert "exceeds TERM_LIMIT" in str(e)
            break
        deg = max(g.deg_u() + g.deg_v() for g in forward)
        for h in fs:
            if h.is_zero() or deg * max(a + b for a, b in h.terms) > 300:
                continue
            g, m = expanded_strict_transform(h, forward)
            assert strict_transform(h, chart) == (m, g.constant_term()), \
                "%s step %d: %s" % (spec.pairs, chart.step_index, h)


def _full_pull_back(f, chart):
    """:func:`pull_back` with every step transforming g, also once g is a
    unit: the oracle for its stop at g(0, 0) != 0."""
    p = chart.field.characteristic
    g, e_x, e_y = _strip(f.form)
    unit = chart.field.one
    for kind, x in _runs(chart.steps):
        if kind == "C":
            unit = unit * x ** e_y
            e_x, e_y = e_x + e_y, 0
            g, a, b = _strip(_translate(g, x, p))
        else:
            (xa, xb), (ya, yb) = x
            e_x, e_y = xa * e_x + xb * e_y, ya * e_x + yb * e_y
            g, a, b = _strip(_map(g, *x))
        e_x += a
        e_y += b
    g0, k = _at_origin(g, p)
    return e_x, e_y, unit * g0, k


#: (field, pairs) of the pull-back test: four short chains over each
#: field, and over F_2 and F_3 a chain that runs past 35 steps (over Q
#: and F_101 its closings take minutes before they pass TERM_LIMIT)
PULL_BACK_CHAINS = [(fld, pairs) for fld in (QQ, prime_field(2), prime_field(3), prime_field(101))
                    for pairs in (((3, 2), (5, 3), (5, 2)), ((2, 1), (1, 2), (3, 2)),
                                  ((1, 7), (7, 2)), ((3, 2), (4, 1), (5, 3)))]
PULL_BACK_CHAINS += [(prime_field(p), ((1, 19), (19, 2), (3, 19))) for p in (2, 3)]


@pytest.mark.parametrize("fld, pairs", PULL_BACK_CHAINS,
                         ids=["F%d-%s" % (f.characteristic, pq) if f.characteristic
                              else "QQ-%s" % (pq,) for f, pq in PULL_BACK_CHAINS])
def test_pull_back_stops_at_a_unit_like_the_full_walk(fld, pairs):
    """At every chart of the first 40 steps, every T_j and every closing
    factor pulls back to the same (e_X, e_Y, c, k) as the walk that keeps
    transforming g after g(0, 0) != 0, with lambda = 2, 3, 5 and every
    unit 1 + u; a pull-back the full walk cannot finish within TERM_LIMIT
    is not compared."""
    js = build_jumping_sequence(with_units(make_spec(fld, pairs), (2, 3, 5)))
    chart = initial_chart(js)
    compared = 0
    while chart.step_index < 40:
        try:
            chart = single_quadratic_transform(chart)
        except (InsufficientDepthError, ResourceLimitError):
            break
        for f in js.T + tuple(factor.poly for factor in chart.factors[2:]):
            try:
                want = _full_pull_back(f, chart)
            except ResourceLimitError:
                continue
            assert pull_back(f, chart) == want, "%s step %d: %s" % (pairs, chart.step_index, f)
            compared += 1
    assert compared > 40
