"""Acceptance battery: ten exact, zero-tolerance property suites.

Every assertion here is an exact arithmetic identity; there are no
tolerances anywhere.  Each suite completes well under a minute.
"""

import json
import pathlib
import random
from fractions import Fraction
from math import gcd

import pytest

from jumpseq.blowup import initial_chart, monoidal_sequence, single_quadratic_transform
from jumpseq.cli import main
from jumpseq.engine import build_jumping_sequence, expand, extract_independent, \
    value, verify_generating_sequence, verify_minimality
from jumpseq.errors import InsufficientDepthError
from jumpseq.euclid import euclid_data
from jumpseq.extension import MonomialExtension, build_dual_sequences, \
    classify_toroidal_form, first_gcd_failure, ladder
from jumpseq.fields import QQ
from jumpseq.poly import BivarPoly

from conftest import (chart_forward, charts_inverse, chunk_transform, make_spec, maps_inverse,
                      random_poly)

SPECS = pathlib.Path(__file__).resolve().parent.parent / "specs"


# ---------------------------------------------------------------------------
# 1. inequality/integrality suite
# ---------------------------------------------------------------------------


def _check_sequence_items(js):
    """The four identities/inequalities of the defining recursion."""
    d = js.depth
    assert js.beta[0] == 1
    if d >= 1:
        assert js.beta[1] == Fraction(js.p(1), js.q(1))
    # (1) the value recursion
    for i in range(1, d):
        assert js.beta[i + 1] == js.q(i) * js.beta[i] + \
            Fraction(js.p(i + 1), js.q(i + 1)) / js.Q[i]
    # (2) denominator filtration
    for i in range(1, d + 1):
        for j in range(i + 1):
            assert (js.Q[i] * js.beta[j]).denominator == 1
    # (3) strict growth
    for i in range(1, d):
        assert js.q(i + 1) * js.beta[i + 1] >= js.beta[i + 1]
        assert js.beta[i + 1] > js.q(i) * js.beta[i]
        assert js.q(i) * js.beta[i] >= js.beta[i]
    # (4) the exponent relation
    for i in range(1, d + 1):
        assert js.q(i) * js.beta[i] == \
            sum(n * js.beta[j] for j, n in enumerate(js.n[i]))


def _check_independent_items(js, ind):
    """The four identities/inequalities of the independent subsequence."""
    L = ind.levels
    if L >= 1:
        assert ind.betabar[1] == Fraction(ind.pbar[0], ind.qbar[0])
    # (1) the independent value recursion
    for l in range(1, L):
        assert ind.betabar[l + 1] == ind.qbar[l - 1] * ind.betabar[l] + \
            Fraction(ind.pbar[l], ind.qbar[l]) / ind.Qbar[l]
    # (2) integrality below the next independent index
    for l in range(1, L + 1):
        bound = ind.indices[l] if l < L else js.depth + 1
        for ip in range(bound):
            assert (ind.Qbar[l] * js.beta[ip]).denominator == 1
    # (3) strict growth
    for l in range(1, L):
        assert ind.qbar[l] * ind.betabar[l + 1] > ind.betabar[l + 1]
        assert ind.betabar[l + 1] > ind.qbar[l - 1] * ind.betabar[l]
        assert ind.qbar[l - 1] * ind.betabar[l] > ind.betabar[l]
    # (4) coprimality
    for pb, qb in zip(ind.pbar, ind.qbar):
        assert gcd(pb, qb) == 1
    # chunk bookkeeping
    assert ind.kbar[0] == 0
    for l in range(1, L + 1):
        assert ind.kbar[l] == ind.k[ind.indices[l - 1]]


def test_criterion_1_inequality_suite(battery):
    assert len(battery) >= 10
    for name, spec in battery:
        js = build_jumping_sequence(spec)
        ind = extract_independent(js)
        _check_sequence_items(js)
        _check_independent_items(js, ind)


# ---------------------------------------------------------------------------
# 2. expansion oracle
# ---------------------------------------------------------------------------


def test_criterion_2_expansion_oracle(battery):
    for name, spec in battery:
        js = build_jumping_sequence(spec)
        rng = random.Random(sum(map(ord, name)))
        polys = []
        for _ in range(200):
            f = random_poly(rng, spec.field, max_deg=12, max_terms=4)
            if f.is_zero():
                continue
            exp = expand(f, js)
            assert exp.resubstitute() == f, "round-trip failed on %s" % name
            polys.append(f)
        # valuation additivity on certified pairs
        checked = 0
        for f, g in zip(polys[0::2], polys[1::2]):
            try:
                vf, vg = value(f, js), value(g, js)
                vfg = value(f * g, js)
            except InsufficientDepthError:
                continue
            assert vfg == vf + vg, "additivity failed on %s" % name
            checked += 1
        assert checked > 0, "no certified pairs at all for %s" % name


def test_criterion_2_pure_terms_distinct(js_a):
    rng = random.Random(7)
    for _ in range(50):
        f = random_poly(rng, QQ, max_deg=12, max_terms=4)
        if f.is_zero():
            continue
        exp = expand(f, js_a)
        M = js_a.depth + 1
        pure = [n for (_, e), n in zip(exp.terms, exp.nums) if not e[M]]
        assert len(set(pure)) == len(pure)


# ---------------------------------------------------------------------------
# 3. generating-sequence check
# ---------------------------------------------------------------------------


def test_criterion_3_generating_sequence(js_a):
    report = verify_generating_sequence(js_a, Fraction(5), 8)
    assert report, "empty verification report"
    failures = [r for r in report if r["pass"] is False]
    uncertified = [r for r in report if r["pass"] is None]
    assert failures == [] and uncertified == []


# ---------------------------------------------------------------------------
# 4. chunk equivalence
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("p,q", [(3, 2), (5, 3), (7, 2), (5, 1), (1, 1)])
def test_criterion_4_chunk_equivalence(p, q):
    spec = make_spec(QQ, [(p, q)], mode="discrete" if q == 1 else "nondiscrete")
    js = build_jumping_sequence(spec)
    ed = euclid_data(p, q)
    ch0 = initial_chart(js)
    res = chunk_transform(p, q, 1, ch0)
    stepped = ch0
    flags = []
    for _ in range(ed.epsilon):
        stepped = single_quadratic_transform(stepped)
        flags.append(stepped.free)
    assert maps_inverse(res.forward, res.backward) and charts_inverse(stepped)
    assert res.forward == chart_forward(stepped)
    assert res.values == stepped.values
    assert res.step_index == stepped.step_index == ed.epsilon
    # value of the exceptional coordinate drops by exactly q
    assert res.values[0] == Fraction(1, q)
    # freeness pattern: free at 1..f_1 and at epsilon, not free in between
    expected = [pos <= ed.f[0] or pos == ed.epsilon
                for pos in range(1, ed.epsilon + 1)]
    assert flags == expected
    # the Bezout exponents of the closed form
    assert res.a * q - res.b * p == 1


# ---------------------------------------------------------------------------
# 5. chunk-boundary monomial certificates
# ---------------------------------------------------------------------------


def test_criterion_5_monoidal_suite(js_a, ind_a):
    reports = monoidal_sequence(js_a, ind_a, 2)
    for l, rec in enumerate(reports, start=1):
        assert rec["pass"], "level %d failed: %s" % (l, rec)
        assert rec["u_value"] == Fraction(1, ind_a.Qbar[l])
        for f in rec["H_factorizations"]:
            assert f["pass"]
            assert Fraction(f["exponent"]) == ind_a.Qbar[l] * ind_a.betabar[f["j"]]
        if "v_strict" in rec:
            assert rec["v_strict"]["pass"]
        assert rec["residue_check"]["pass"]


# ---------------------------------------------------------------------------
# 6. dual-sequence identities
# ---------------------------------------------------------------------------


def _deltas():
    x, y = BivarPoly.gens(QQ, ("x", "y"))
    one = BivarPoly.const(QQ, 1, ("x", "y"))
    return [one, one + x, one + x + x ** 2 * y]


@pytest.mark.parametrize("t", [1, 5, 7])
def test_criterion_6_relationship(spec_a, t):
    for delta in _deltas():
        ext = MonomialExtension(t=t, delta=delta, base_spec=spec_a)
        duals = build_dual_sequences(ext)
        assert duals.ok, "t=%d delta=%s" % (t, delta)
        sub = ext.substitution
        up, down = duals.up, ext.down
        for i in range(1, spec_a.depth + 2):
            assert down.T[i].subs(*sub) == up.T[i]
        for i in range(1, spec_a.depth + 1):
            assert up.p(i) == t * down.p(i)
            assert up.q(i) == down.q(i)
            assert up.beta[i] == t * down.beta[i]
            assert up.n[i][0] == t * down.n[i][0]
            assert up.n[i][1:] == down.n[i][1:]


# ---------------------------------------------------------------------------
# 7. the dichotomy
# ---------------------------------------------------------------------------


def _ladder_battery(spec_a, spec_b):
    tower = make_spec(QQ, [(3, 2), (4, 1), (5, 3)])
    pairs = [(spec_a, t) for t in (1, 2, 3, 5)]
    pairs += [(spec_b, t) for t in (1, 2, 3)]
    pairs += [(tower, 5), (tower, 2)]
    pairs += [(make_spec(QQ, [(2, 3), (3, 2)]), 5),
              (make_spec(QQ, [(2, 3), (3, 2)]), 3)]
    return pairs


def test_criterion_7_dichotomy(spec_a, spec_b):
    for spec, t in _ladder_battery(spec_a, spec_b):
        ext = MonomialExtension(t=t, delta=BivarPoly.const(QQ, 1, ("x", "y")),
                                base_spec=spec)
        M = first_gcd_failure(t, spec.pairs)
        cert = ladder(ext)
        if M is None:
            assert cert.outcome == {"kind": "toroidal"}
            assert cert.ok, "pairs=%s t=%d rungs=%s" % (spec.pairs, t, cert.rungs)
            assert len(cert.rungs) == spec.depth
        else:
            assert cert.outcome["kind"] == "contradiction"
            assert cert.outcome["M"] == M
            assert cert.outcome["g"] < t


def test_criterion_7_oracles(spec_a):
    one = BivarPoly.const(QQ, 1, ("x", "y"))
    x, _ = BivarPoly.gens(QQ, ("x", "y"))
    cert2 = ladder(MonomialExtension(t=2, delta=one, base_spec=spec_a))
    assert (cert2.outcome["M"], cert2.outcome["l"], cert2.outcome["g"]) == (1, 1, 1)
    cert5 = ladder(MonomialExtension(t=5, delta=one + x, base_spec=spec_a))
    assert cert5.ok
    assert [r["value_ratio"] for r in cert5.rungs] == [[15, 2], [25, 3]]


# ---------------------------------------------------------------------------
# 8. discrete branch
# ---------------------------------------------------------------------------


def test_criterion_8_discrete_branch(spec_b):
    one = BivarPoly.const(QQ, 1, ("x", "y"))
    ext = MonomialExtension(t=3, delta=one, base_spec=spec_b)
    form = classify_toroidal_form(ext)
    assert form.case == 5 and form.minimal is False
    # 1/t generates the upstairs value group: x has value 1/t, and every
    # beta'_i / t is an integer
    beta = build_dual_sequences(ext).up.beta
    assert beta[0] / 3 == Fraction(1, 3)
    assert all((b / 3).denominator == 1 for b in beta[1:])


# ---------------------------------------------------------------------------
# 9. minimality
# ---------------------------------------------------------------------------


def test_criterion_9_minimality(ind_a):
    assert ind_a.pbar[0] == 3
    out = verify_minimality(ind_a)[0]
    assert out["minimal"], "H_0 must be required when pbar_1 != 1"
    # a spec with pbar_1 = 1: the value 1 of u is reachable from beta_1 = 1/2
    js = build_jumping_sequence(make_spec(QQ, [(1, 2)]))
    ind = extract_independent(js)
    assert ind.pbar[0] == 1
    out = verify_minimality(ind)[0]
    assert not out["minimal"] and out["witness"] == {1: 2}


# ---------------------------------------------------------------------------
# 10. CLI determinism
# ---------------------------------------------------------------------------


def _run_cli(tmp_path, tag, *argv):
    out = tmp_path / ("%s.json" % tag)
    code = main(list(argv) + ["--out", str(out)])
    return code, out.read_bytes()


def test_criterion_10_determinism(tmp_path):
    spec_a = str(SPECS / "spec-a.json")
    with open(spec_a) as fh:
        spec_json = json.load(fh)
    ext_path = tmp_path / "ext.json"
    ext_path.write_text(json.dumps({"t": 5, "delta": "1", "spec": spec_json}))

    runs = [
        ("genseq", ["genseq", spec_a, "--seed", "0"]),
        ("verify", ["verify", spec_a, "--gamma-max", "3", "--deg-bound", "5",
                    "--samples", "5", "--seed", "0"]),
        ("ladder", ["ladder", str(ext_path), "--seed", "0"]),
    ]
    for tag, argv in runs:
        code1, blob1 = _run_cli(tmp_path, tag + "-1", *argv)
        code2, blob2 = _run_cli(tmp_path, tag + "-2", *argv)
        assert code1 == code2 == 0
        assert blob1 == blob2, "report %s is not byte-stable" % tag
        assert blob1, "empty report for %s" % tag
