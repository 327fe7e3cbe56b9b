from dataclasses import replace
from fractions import Fraction

import pytest

from jumpseq import extension
from jumpseq.errors import DivisibilityError, InvalidSpecError, ResourceLimitError
from jumpseq.extension import (
    MonomialExtension,
    build_dual_sequences,
    chunk_descend,
    classify_toroidal_form,
    discrete_branch_report,
    first_gcd_failure,
    ladder,
)
from jumpseq.fields import QQ, prime_field
from jumpseq.poly import BivarPoly, exact_divide

from conftest import make_spec


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
    ext = mk_ext(spec_a, 5, one_plus_x())
    duals = build_dual_sequences(ext)
    sub = ext.substitution()
    for i in range(1, spec_a.depth + 2):
        assert duals.down.T[i].subs(*sub) == duals.up.T[i]


def test_duals_gcd_failure(spec_a):
    ext = mk_ext(spec_a, 2)
    duals = build_dual_sequences(ext)
    assert not duals.ok and duals.up is None and duals.failing_index == 1


def test_duals_require_trivial_downstairs_units():
    u, _ = BivarPoly.gens(QQ, ("u", "v"))
    unit = BivarPoly.const(QQ, 1) + u
    spec = make_spec(QQ, [(3, 2)])
    spec = type(spec)(QQ, spec.pairs, spec.lambdas, (unit,), spec.mode)
    with pytest.raises(InvalidSpecError):
        build_dual_sequences(mk_ext(spec, 5))


# ---------------------------------------------------------------------------
# chunk descent arithmetic
# ---------------------------------------------------------------------------


def test_chunk_descend_stable():
    out = chunk_descend(5, 15, 2, 0, c_prime=2, fld=QQ)
    assert out["g"] == 5 and out["t_tilde"] == 1
    assert (out["p"], out["q"]) == (3, 2)
    assert out["stable"]
    assert out["c"] == "2"  # c = (c')^1


def test_chunk_descend_partial():
    out = chunk_descend(4, 2, 1, 2, c_prime=3, fld=prime_field(7))
    assert out["g"] == 2 and out["t_tilde"] == 2
    assert (out["p"], out["q"]) == (1, 2)
    assert (out["n"], out["t_prime"]) == (1, 1)
    assert not out["stable"]
    assert out["c"] == "2"  # 3^2 = 9 = 2 mod 7


def test_chunk_descend_bezout_identity():
    for t, pp, qq in [(5, 15, 2), (3, 9, 4), (7, 5, 3), (2, 6, 5)]:
        out = chunk_descend(t, pp, qq, 0)
        assert qq * t * out["a"] - pp * out["b"] == out["g"]


def test_chunk_descend_rejects_wrong_bezout_pair(monkeypatch):
    monkeypatch.setattr(extension, "bezout", lambda p, q: (1, 1))
    with pytest.raises(ArithmeticError):
        chunk_descend(5, 15, 2, 0)


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


def test_ladder_fails_with_dual_sequences(spec_a, monkeypatch):
    """A dual-sequence table that does not check out fails the ladder even
    when every rung passes."""
    build = extension.build_dual_sequences
    monkeypatch.setattr(extension, "build_dual_sequences",
                        lambda ext, k=None, down=None: replace(build(ext, k, down), ok=False))
    cert = ladder(mk_ext(spec_a, 5), depth=1)
    assert all(r["pass"] for r in cert.rungs)
    assert cert.outcome == {"kind": "toroidal"} and not cert.ok


def test_ladder_only_divisibility_means_no_unit(spec_a, monkeypatch):
    """An inexact division of the stable unit fails the rung with no unit;
    any other fault in the kernel propagates."""
    ext = mk_ext(spec_a, 5, one_plus_x())

    def raising(exc):
        def exact_divide(f, g):
            raise exc
        return exact_divide

    monkeypatch.setattr(extension, "exact_divide", raising(DivisibilityError("inexact")))
    cert = ladder(ext)
    assert not cert.ok and cert.outcome == {"kind": "toroidal"}
    rung = cert.rungs[1]
    assert rung["delta_unit"] is False and rung["delta_constant"] is None
    assert not rung["pass"]
    monkeypatch.setattr(extension, "exact_divide", raising(ResourceLimitError("too big")))
    with pytest.raises(ResourceLimitError):
        ladder(ext)


@pytest.mark.parametrize("fld", [QQ, prime_field(101)], ids=["QQ", "F101"])
@pytest.mark.parametrize("t", [5, 7])
def test_stable_unit_is_u_over_x_to_the_t(spec_a, monkeypatch, fld, t):
    """On every rung the stable unit Delta satisfies u_i = X^t * Delta in
    the S-chart, and equals the quotient obtained by pulling x_i^t back
    through the forward map instead of writing it as X^t."""
    spec = replace(spec_a, field=fld, lambdas=(fld(1), fld(1)),
                   units=tuple(BivarPoly.const(fld, 1) for _ in spec_a.units))
    stable_unit = extension._stable_unit
    calls = []
    monkeypatch.setattr(extension, "_stable_unit", lambda *a: calls.append(a) or stable_unit(*a))
    assert ladder(mk_ext(spec, t, one_plus_x(fld))).ok
    assert len(calls) == 1
    for ext, chart_R, chart_S in calls:
        unit = stable_unit(ext, chart_R, chart_S)
        u_i = extension._pull_back(chart_R.backward[0], ext.substitution())
        pulled = extension._pull_back(u_i, chart_S.forward)
        X, _ = BivarPoly.gens(fld, chart_S.forward[0].vars)
        assert unit * X ** t * pulled.den == pulled.num
        via_forward = extension._pull_back(u_i / chart_S.backward[0] ** t, chart_S.forward)
        assert unit == exact_divide(via_forward.num, via_forward.den)


# ---------------------------------------------------------------------------
# discrete branch and classification
# ---------------------------------------------------------------------------


def test_discrete_branch(spec_b):
    out = discrete_branch_report(mk_ext(spec_b, 3, one_plus_x()))
    assert out["pass"]
    assert out["values"] == ["1/3", "2", "5"]


def test_discrete_branch_requires_upstairs_sequence(spec_a):
    # gcd(2, q_1) = 2 leaves no upstairs sequence to read values from
    with pytest.raises(InvalidSpecError):
        discrete_branch_report(mk_ext(spec_a, 2))


def test_classify_declarative_cases():
    assert classify_toroidal_form({"divisorial": True}).case == 1
    assert classify_toroidal_form({"rank": 2}).case == 2
    assert classify_toroidal_form({"rational_rank": 2}).case == 3


def test_classify_discrete():
    form = classify_toroidal_form({"discrete": True})
    assert form.case == 5 and form.minimal is False


def test_classify_toroidal(spec_a):
    cert = ladder(mk_ext(spec_a, 5, one_plus_x()))
    form = classify_toroidal_form({}, cert.outcome, minimality=True)
    assert form.case == 4 and form.minimal


def test_classify_rejects_contradiction(spec_a):
    cert = ladder(mk_ext(spec_a, 2))
    with pytest.raises(InvalidSpecError):
        classify_toroidal_form({}, cert.outcome, minimality=True)
