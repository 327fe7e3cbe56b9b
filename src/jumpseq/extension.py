"""The extension side: dual jumping sequences under u = x^t * delta, v = y,
the stable-form ladder and the toroidal classifier.

The downstairs spec may carry any units delta_i; the upstairs spec takes
delta^{n_{i,0}} * delta_i(x^t * delta, y), so that its tower is the
downstairs one under the substitution (see :func:`build_dual_sequences`).

The ladder is the certificate of the stable form: rung by rung it checks
u_i = x_i^t * delta_i along the R- and S-chains.  The R-side parameters
are monomials in the R-chain's factors (see :mod:`jumpseq.blowup`), so a
rung pulls each factor with a nonzero exponent upstairs and then into
the S-chart step by step, once, and combines the results: coordinate
exponents and orders along the exceptional locus add up with the
exponents, and unit constants multiply.  It never composes a chart's
forward map.  The rung residues c and c' are read off initial forms in
the graded algebras of the two sequences, like the closings' residues.

Everything here treats the stable monomial form as an *input assumption*:
when the gcd conditions it implies fail, the contradiction witness is
emitted as a certificate, with no attempt to re-derive the stable form
itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd
from typing import Optional, Tuple

from .blowup import (
    Chart,
    initial_chart,
    monomial_form,
    pull_back,
    single_quadratic_transform,
    strict_transform,
)
from .engine import (
    JumpingSequence,
    ValuationSpec,
    _json_int,
    build_jumping_sequence,
    extract_independent,
    graded_residue,
    verify_minimality,
)
from .errors import InvalidSpecError
from .fields import GroundField
from .poly import BivarPoly


@dataclass(frozen=True)
class MonomialExtension:
    """The stable monomial inclusion u = x^t * delta, v = y.

    ``delta`` is a polynomial unit in (x, y) with constant term 1 and
    ``base_spec`` defines the downstairs valuation on (u, v).  The
    upstairs value group is normalized by the factor t, so the upstairs
    engine computes t times the genuine upstairs values.
    """

    t: int
    delta: BivarPoly
    base_spec: ValuationSpec

    def __post_init__(self):
        if self.t < 1:
            raise InvalidSpecError("extension exponent t must be positive")
        if self.delta.constant_term() != self.base_spec.field.one:
            raise InvalidSpecError("delta must have constant term 1")

    @property
    def field(self) -> GroundField:
        return self.base_spec.field

    @cached_property
    def down(self) -> JumpingSequence:
        """The downstairs jumping sequence of ``base_spec``, built once per
        extension: the dual sequences and every ladder read it."""
        return build_jumping_sequence(self.base_spec)

    @cached_property
    def substitution(self) -> Tuple[BivarPoly, BivarPoly]:
        """(x^t * delta, y): the images of u and v in the upstairs ring,
        formed once per extension, since every ladder rung pulls factors
        through it."""
        x, y = BivarPoly.gens(self.field, ("x", "y"))
        return (x ** self.t * self.delta, y)

    def to_json(self):
        return {"t": self.t, "delta": self.delta.to_json(), "spec": self.base_spec.to_json()}

    @classmethod
    def from_json(cls, obj) -> "MonomialExtension":
        """An extension from input data; a top level that is not an object
        or a ``t`` that is not a JSON integer raises :class:`InvalidSpecError`."""
        if not isinstance(obj, dict):
            raise InvalidSpecError("extension %r is not an object" % (obj,))
        spec = ValuationSpec.from_json(obj["spec"])
        delta = BivarPoly.from_json(spec.field, obj.get("delta", "1"), vars=("x", "y"))
        return cls(_json_int(obj["t"], "extension exponent t"), delta, spec)


# ---------------------------------------------------------------------------
# dual sequences
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DualSequences:
    """The upstairs jumping sequence of an extension, or, when some
    gcd(t, q_M) != 1, the first such index M instead (exactly one of the
    two is None).  The table is read off ``up``."""

    up: Optional[JumpingSequence]
    failing_index: Optional[int]

    @property
    def ok(self) -> bool:
        return self.failing_index is None

    @property
    def table(self) -> Tuple[dict, ...]:
        """One row (i, p'_i, q'_i) per upstairs pair, none when not ok."""
        up = self.up
        return () if up is None else tuple(
            {"i": i, "p_prime": up.p(i), "q_prime": up.q(i)} for i in range(1, up.depth + 1))

    def to_json(self):
        return {
            "ok": self.ok,
            "failing_index": self.failing_index,
            "table": list(self.table),
        }


def first_gcd_failure(t: int, pairs) -> Optional[int]:
    """The minimal index M with gcd(t, q_M) != 1, or None.  A caller that
    asks about the first k pairs passes ``pairs[:k]``; the library decides
    it in :func:`build_dual_sequences` alone."""
    for i, (_, q) in enumerate(pairs, start=1):
        if gcd(t, q) != 1:
            return i
    return None


def build_dual_sequences(ext: MonomialExtension, k: Optional[int] = None) -> DualSequences:
    """Build the upstairs jumping sequence up to depth ``k`` (0 to the
    spec depth; default the spec depth): a table row i <= k reports p'_i
    and q'_i.  This is where the gcd condition of the first k pairs is
    decided: :func:`ladder` reads its ``failing_index``.

    The upstairs spec has pairs (t * p_i, q_i), the downstairs lambdas
    and units delta'_i = delta^{n_{i,0}} * delta_i(x^t * delta, y).  Its
    data agree with the downstairs data by construction, so nothing is
    compared: the pairs are built as (t * p_i, q_i), beta'_i = t * beta_i
    comes from the same recurrence on them, and once gcd(t, Q_k) = 1 the
    exponents n'_i solve the same congruences, so n'_{i,0} = t * n_{i,0}
    and n'_{i,j} = n_{i,j} for j >= 1.

    Hence T'_i = T_i(x^t * delta, y) for every i >= 1, with no T_i
    substituted.  Under u = x^t * delta, v = y the downstairs relation
    T_{i+1} = T_i^{q_i} - lambda_i * delta_i * u^{n_{i,0}} * prod_{j>=1} T_j^{n_{i,j}}
    goes to T_i(x^t * delta, y)^{q_i} - lambda_i * delta'_i * x^{t * n_{i,0}}
    * prod_{j>=1} T_j(x^t * delta, y)^{n_{i,j}}: the power delta^{n_{i,0}}
    of u^{n_{i,0}}'s image is in delta'_i.  That is the upstairs relation
    of level i, and T'_1 = y = T_1(x^t * delta, y), so the identity
    follows by induction on i.

    When gcd(t, Q_k) != 1 the result carries the first failing index
    instead of an upstairs sequence, and is not ok.  The downstairs
    sequence is the extension's own (:attr:`MonomialExtension.down`).
    """
    spec = ext.base_spec
    if k is None:
        k = spec.depth
    if not 0 <= k <= spec.depth:
        raise InvalidSpecError("requested depth %d: the spec provides depths 0 to %d"
                               % (k, spec.depth))
    down = ext.down
    M = first_gcd_failure(ext.t, spec.pairs[:k])
    if M is not None:
        return DualSequences(None, M)

    sub = ext.substitution
    up_pairs = tuple((ext.t * p, q) for p, q in spec.pairs[:k])
    up_units = tuple(ext.delta ** down.n[i][0] * spec.units[i - 1].subs(*sub)
                     for i in range(1, k + 1))
    up_spec = ValuationSpec(ext.field, up_pairs, spec.lambdas[:k], up_units, spec.mode)
    return DualSequences(build_jumping_sequence(up_spec, vars=("x", "y")), None)


# ---------------------------------------------------------------------------
# rung certificates
# ---------------------------------------------------------------------------


def _pulled_factors(ext: MonomialExtension, chart_R: Chart, chart_S: Chart) -> dict:
    """Each factor of the R-chart with a nonzero exponent in either
    parameter, pulled upstairs through u = x^t * delta, v = y and then
    into the S-chart step by step: {k: (a, b, c, order)} as
    :func:`~jumpseq.blowup.pull_back` gives it for factor k."""
    sub = ext.substitution
    eU, eV = chart_R.params
    return {k: pull_back(f.poly.subs(*sub), chart_S)
            for k, f in enumerate(chart_R.factors) if eU[k] or eV[k]}


def _split(exps, pulled, fld):
    """A parameter prod_k F_k^{e_k} pulled back factor by factor, as
    num / den with num the factors of positive exponent and den those of
    negative exponent.  Returns (a, b, c, order) for num and for den: with
    num = X^a Y^b U g, order is that of g(0, Y), zero exactly when g is a
    local unit, and c = U(0, 0) * [Y^order] g(0, Y).  The exponents and
    orders add up and the constants multiply, since pull_back of a product
    is the product of the pull-backs."""
    out = []
    for sign in (1, -1):
        a = b = order = 0
        const = fld.one
        for k, e in enumerate(exps):
            e *= sign
            if e > 0:
                ak, bk, ck, ok = pulled[k]
                a += e * ak
                b += e * bk
                const = const * ck ** e
                order += e * ok
        out.append((a, b, const, order))
    return out


def _stable_unit(ext: MonomialExtension, exps, pulled: dict):
    """The constant Delta(0, 0) of the unit Delta with u_i = x_i^t * Delta
    in the S-chart, or None when Delta is not certified as a unit.

    ``exps`` are u_i's exponents over the R-side factors and ``pulled``
    their pull-backs (:func:`_pulled_factors`).  x_i pulls back to the
    S-chart coordinate X, and u_i to X^a Y^b U g / (X^a' Y^b' U' g').
    Delta = u_i / X^t is certified as a ratio of local units: a - a' = t,
    b = b', and g and g' have nonzero constant terms (order 0).  Its
    constant is then the ratio of theirs."""
    (a, b, c, order), (a2, b2, c2, order2) = _split(exps, pulled, ext.field)
    if a - a2 != ext.t or b != b2 or order or order2:
        return None
    return c / c2


def _second_param_certificate(exps, pulled: dict, fld: GroundField) -> dict:
    """Certify that the R-side second parameter pulls back to a regular
    parameter completing the S-chart exceptional coordinate.

    ``exps`` are its exponents over the R-side factors and ``pulled``
    their pull-backs (:func:`_pulled_factors`).  The pullback is
    W = num/den, with the common coordinate monomial cancelled and den a
    unit; the certificate is: den has nonzero constant term, W vanishes at
    the origin, and the restriction of num to the exceptional locus (first
    coordinate = 0) has order exactly 1 in the second coordinate.  With
    num = X^a Y^b U g and den = X^a' Y^b' U' g', the cancelled monomial is
    X^min(a, a') Y^min(b, b'); on X = 0 the unit U has order 0, so num
    has order b + order(g(0, Y)) there.
    """
    (a, b, _, order), (a2, b2, _, order2) = _split(exps, pulled, fld)
    da, db = a - min(a, a2), b - min(b, b2)  # num's monomial after cancelling
    den_unit = a2 <= a and b2 <= b and not order2
    vanishes = da > 0 or db > 0 or order > 0
    order_one = da == 0 and db + order == 1
    return {
        "den_unit": den_unit,
        "vanishes_at_origin": vanishes,
        "exceptional_order_one": order_one,
        "pass": den_unit and vanishes and order_one,
    }


def _rung_residue(i: int, chart: Chart):
    """The residue of v^{q_i} / u^{p_i} for the admissible pair entering
    chunk i of the chart's sequence: u the first parameter of ``chart``
    and v = T_i / prod_j T_j^{n_{i-1,j}}, read off the initial forms
    (:func:`~jumpseq.engine.graded_residue`)."""
    js = chart.js
    q, p = js.q(i), js.p(i)
    coeff, exps = monomial_form(chart, [-p * e for e in chart.params[0]])
    exps[i] += q
    for j, n in enumerate(js.n[i - 1]):
        exps[j] -= q * n
    return graded_residue(coeff, exps, js)


# ---------------------------------------------------------------------------
# the ladder
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LadderCertificate:
    rungs: Tuple[dict, ...]
    outcome: dict           # {"kind": "toroidal"} or {"kind": "contradiction", ...}
    ok: bool

    def to_json(self):
        return {"rungs": list(self.rungs), "outcome": self.outcome, "ok": self.ok}


def ladder(ext: MonomialExtension, depth: Optional[int] = None) -> LadderCertificate:
    """Walk the chunk-wise ladder of the stable form.

    Rung i (0-based) certifies the stable relation u_i = x_i^t * delta_i,
    the regular-parameter property of v_i = y_i on the S side, the
    residue law c'_i = c_i * Delta_{i-1}(0)^{p_i}, and the value ratio
    p'_{i+1}/q'_{i+1}.

    The residue law: c_i is the residue of v^{q_i} / u^{p_i} on the
    R-chart of rung i - 1 and c'_i that of v'^{q_i} / x^{t * p_i} on its
    S-chart, with u and x the charts' first parameters and
    v = T_i / prod_j T_j^{n_{i-1,j}}, v' = T'_i / prod_j T'_j^{n'_{i-1,j}}
    the second parameters entering chunk i.  There u pulls back to
    x^t * Delta_{i-1}, where Delta_{i-1}(0) is rung i - 1's
    ``delta_constant`` (Delta_0(0) = delta(0) = 1), and v to
    v' * delta^{-n_{i-1,0}}, since T'_j = T_j(x^t * delta, y)
    (:func:`build_dual_sequences`) and delta is 1 at the origin.  So
    c_i = c'_i / Delta_{i-1}(0)^{p_i}.
    A rung whose previous unit is not certified has no constant to
    compare with, and reports ``residue_match`` false.

    The certificate is ok when every rung passes.  On the first index M
    with gcd(t, q_M) != 1 the walk stops with the contradiction witness
    (M, l, g); M is the ``failing_index`` of the one
    :func:`build_dual_sequences` call, which otherwise gives the upstairs
    sequence.  Rung i advances each chain to the end of chunk i, step k_i
    of its sequence's :class:`~jumpseq.engine.IndependentData`.
    ``depth`` (1 to the spec depth; default the spec depth) is the number
    of rungs, so a spec with no pairs is refused.  The downstairs sequence
    is the extension's own (:attr:`MonomialExtension.down`), built once
    however many ladders and dual sequences read it.
    """
    spec = ext.base_spec
    if not spec.depth:
        raise InvalidSpecError("the ladder needs a spec with at least one pair")
    if depth is None:
        depth = spec.depth
    if not 1 <= depth <= spec.depth:
        raise InvalidSpecError("ladder depth %d: the spec provides depths 1 to %d"
                               % (depth, spec.depth))
    t = ext.t
    down = ext.down
    ind = extract_independent(down)

    duals = build_dual_sequences(ext, depth)
    M = duals.failing_index
    if M is not None:
        # the contradiction witness of the stable-form argument
        l = list(ind.indices).index(M) + 1
        pbar = ind.pbar[l - 1]
        qbar = ind.qbar[l - 1]
        pbar_prime = t * pbar // gcd(t * pbar, qbar)
        g = gcd(pbar_prime, t)
        outcome = {"kind": "contradiction", "M": M, "l": l, "g": g,
                   "pbar_prime": pbar_prime}
        return LadderCertificate((), outcome, False)

    up = duals.up
    k_R, k_S = ind.k, extract_independent(up).k

    fld = ext.field
    QN = up.Q[-1]
    chart_R = initial_chart(down)
    chart_S = initial_chart(up)

    rungs = []
    for i in range(depth):
        prev_R, prev_S = chart_R, chart_S
        # advance both chains to the end k_i of chunk i; the upstairs chain
        # may traverse it in several short permissible sub-chunks, but the
        # ring sequence (one blow-up per step) is intrinsic
        while chart_R.step_index < k_R[i]:
            chart_R = single_quadratic_transform(chart_R)
        while chart_S.step_index < k_S[i]:
            chart_S = single_quadratic_transform(chart_S)
        rec = {"i": i, "t": t,
               "step_R": chart_R.step_index, "step_S": chart_S.step_index}
        if i == 0:
            const = ext.delta.constant_term()
        else:
            pulled = _pulled_factors(ext, chart_R, chart_S)
            const = _stable_unit(ext, chart_R.params[0], pulled)
        rec["delta_unit"] = const is not None
        rec["delta_constant"] = fld.render(const) if const is not None else None
        if i == 0:
            rec["second_param"] = {"pass": True}
            rec["residue_match"] = True
        else:
            rec["second_param"] = _second_param_certificate(chart_R.params[1], pulled, fld)
            c = _rung_residue(i, prev_R)
            c_prime = _rung_residue(i, prev_S)
            rec["residue_match"] = (prev_const is not None
                                    and c_prime == c * prev_const ** down.p(i))
            rec["c"] = fld.render(c)
        prev_const = const
        # the rung value ratio belongs to the admissible pair
        # (x_i, y_i = v_i): the exceptional chain parameter and the strict
        # transform of T'_{i+1}, whose value is beta'_{i+1} - m * value(x_i)
        m, _ = strict_transform(up.T[i + 1], chart_S)
        nx = chart_S.nums[0]  # value numerators over Q'_N, as up.weights
        ratio = Fraction(up.weights[i + 1] - m * nx, nx)
        rec["x_value_ok"] = nx * up.Q[i] == QN
        rec["exceptional_exponent"] = m
        rec["value_ratio"] = [ratio.numerator, ratio.denominator]
        rec["ratio_ok"] = (ratio.numerator, ratio.denominator) == (up.p(i + 1), up.q(i + 1))
        rec["pass"] = (rec["delta_unit"] and rec["second_param"]["pass"]
                       and rec["residue_match"] and rec["ratio_ok"]
                       and rec["x_value_ok"])
        rungs.append(rec)
    return LadderCertificate(tuple(rungs), {"kind": "toroidal"}, all(r["pass"] for r in rungs))


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ToroidalForm:
    case: int
    shape: str
    minimal: bool
    notes: str = ""

    def to_json(self):
        return {"case": self.case, "shape": self.shape,
                "minimal": self.minimal, "notes": self.notes}


def check_classifiable(ext: MonomialExtension) -> None:
    """Refuse an extension whose toroidal form cannot be decided: a
    nondiscrete spec with no independent index (every q_i = 1) has no
    pbar_1 to decide minimality by, and raises :class:`InvalidSpecError`.
    Reads only the spec's pairs, so it builds no sequence, walks no chain
    and computes no minimality; ``classify`` calls it before its ladder."""
    spec = ext.base_spec
    if spec.mode != "discrete" and all(q == 1 for _, q in spec.pairs):
        raise InvalidSpecError("classify needs an independent index (some q_i > 1); "
                               "the spec has none")


def classify_toroidal_form(ext: MonomialExtension) -> ToroidalForm:
    """The toroidal shape of the extension's stable form, GHK's case 4 or 5.

    A discrete spec is case 5, whose sequences are non-minimal by
    construction.  Its upstairs value group is generated by 1/t with no
    report to compute: x has value 1/t, and every q_i = 1, so each
    beta'_i / t = beta_i is an integer.  Any other is case 4, where ``minimal`` says whether
    {H_l} is a minimal generating sequence: every betabar_k of the
    downstairs sequence is outside the semigroup of the others, as
    :func:`jumpseq.engine.verify_minimality` computes it.  That agrees
    with the rule pbar_1 != 1 in the notes.  A nondiscrete spec with no
    independent index (every q_i = 1) has no pbar_1 to decide by and is
    refused by :func:`check_classifiable`.  Cases 1-3 (divisorial, rank 2,
    rational rank 2) have no computed certificate and are not reported.
    """
    check_classifiable(ext)
    if ext.base_spec.mode == "discrete":
        return ToroidalForm(5, "u = x^t * unit; sequences {u,{T_i}} and {x,{T_i}}",
                            False, "discrete non-divisorial: non-minimal by construction")
    minimal = all(r["minimal"] for r in verify_minimality(extract_independent(ext.down)))
    return ToroidalForm(4, "H_0 = x^a * unit, H_1 = y; sequences {H_l} and {x,{H_l}}",
                        minimal, "minimal iff pbar_1 != 1")
