"""Quadratic transforms along a valuation: charts, chunks, strict transforms.

A :class:`Chart` records one local model in the blow-up chain.  The
forward map (original parameters as polynomials in the current ones) is
the source of truth; backward rational expressions exist only so that
values and residues of the current parameters can be computed through
the valuation engine.

Conventions for a single transform of parameters (U, V):

* value(U) < value(V): new parameters (U, V/U), substitution
  U -> X, V -> X*Y;
* value(U) > value(V): new parameters (U/V, V), substitution
  U -> X*Y, V -> Y;
* equal values: the chunk closes; with c the residue of V/U the new
  parameters are (U, V/U - c) and the substitution is U -> X,
  V -> X*(Y + c).

Composing epsilon(p, q) such steps reproduces the closed-form chunk
chart x = X^q (Y+c)^b, y = X^p (Y+c)^a exactly.

A strict transform (g, m) of f satisfies f(forward) = X^m * g exactly,
so the value of g is value(f) - m * value(X): both values are computed
by the engine in the original ring, X's through its backward expression.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from math import gcd
from typing import List, Optional, Tuple

from .errors import InsufficientDepthError, InvalidSpecError
from .euclid import bezout, epsilon, euclid_data
from .engine import IndependentData, JumpingSequence, residue, value
from .fields import GroundField
from .poly import BivarPoly, RatExpr


@dataclass(frozen=True)
class Chart:
    """A local chart after ``step_index`` quadratic transforms.

    ``forward`` expresses the original parameters as polynomials in the
    current parameters; ``backward`` the current parameters as rational
    expressions in the original ones.  The first current parameter is
    the exceptional one at every free ring.  ``chunk_pos`` counts steps
    inside the current Euclidean chunk and ``chunk_pq`` is the value
    ratio that chunk traverses; ``residues`` collects the constants c
    used at the chunk closings passed so far.
    """

    field: GroundField
    forward: Tuple[BivarPoly, BivarPoly]
    backward: Tuple[RatExpr, RatExpr]
    values: Tuple[Fraction, Optional[Fraction]]
    free: bool
    step_index: int
    chunk_pos: int
    chunk_pq: Optional[Tuple[int, int]]
    residues: tuple = ()

    def ratio(self) -> Tuple[int, int]:
        """The value ratio value(V)/value(U) = p/q in lowest terms."""
        r = Fraction(self.values[1]) / Fraction(self.values[0])
        return (r.numerator, r.denominator)

    def to_json(self):
        return {
            "forward": [f.to_json() for f in self.forward],
            "values": [str(v) if v is not None else None for v in self.values],
            "free": self.free,
            "step": self.step_index,
        }


def initial_chart(field: GroundField, values: Tuple[Fraction, Fraction],
                  forward: Optional[Tuple[BivarPoly, BivarPoly]] = None,
                  backward: Optional[Tuple[RatExpr, RatExpr]] = None) -> Chart:
    if forward is None:
        forward = BivarPoly.gens(field, ("x", "y"))
    if backward is None:
        u, v = BivarPoly.gens(field, ("u", "v"))
        backward = (RatExpr.from_poly(u), RatExpr.from_poly(v))
    values = (Fraction(values[0]), Fraction(values[1]) if values[1] is not None else None)
    r = Fraction(values[1]) / values[0]
    return Chart(field, forward, backward, values, True, 0, 0,
                 (r.numerator, r.denominator), ())


def _chunk_flags(chunk_pq: Tuple[int, int], pos: int) -> bool:
    """Freeness from chunk position: free at steps 0..f_1 and at epsilon."""
    p, q = chunk_pq
    ed = euclid_data(p, q)
    return pos <= ed.f[0] or pos == ed.epsilon


def _rat_value(r: RatExpr, js: JumpingSequence) -> Fraction:
    """The value of a backward expression: value(num) - value(den)."""
    return value(r.num, js) - value(r.den, js)


def _after_closing(new_y: RatExpr, vU: Fraction, js: JumpingSequence):
    """The value of the new second parameter ``new_y`` after a chunk
    closing and the value ratio (p, q) of the next chunk, with vU the
    value of the first parameter.  Both are None when the value needs the
    next defining pair, which at the last certifiable chunk lies beyond
    the spec depth."""
    try:
        vY = _rat_value(new_y, js)
    except InsufficientDepthError:
        return None, None
    r = Fraction(vY) / vU
    return vY, (r.numerator, r.denominator)


def single_quadratic_transform(chart: Chart, js: JumpingSequence) -> Chart:
    """One quadratic transform along the valuation.

    At a chunk-closing (equal values) step the residue constant and the
    new second value are computed through the engine from ``js``.
    Raises :class:`InsufficientDepthError` when the second value is
    unknown, i.e. after the last chunk the spec certifies, and
    :class:`InvalidSpecError` when the values meet before epsilon steps.
    """
    vU, vV = chart.values
    if vV is None:
        raise InsufficientDepthError(
            "step %d: the value of the second parameter lies beyond the spec depth"
            % (chart.step_index + 1))
    fu, fv = chart.forward
    bu, bv = chart.backward
    fld = chart.field
    X, Y = BivarPoly.gens(fld, fu.vars)
    pos = chart.chunk_pos + 1

    if vU != vV:
        if vU < vV:  # new parameters (U, V/U)
            sub = (X, X * Y)
            new_backward = (bu, bv / bu)
            new_values = (vU, vV - vU)
        else:  # new parameters (U/V, V)
            sub = (X * Y, Y)
            new_backward = (bu / bv, bv)
            new_values = (vU - vV, vV)
        return replace(chart, forward=(fu.subs(*sub), fv.subs(*sub)),
                       backward=new_backward, values=new_values,
                       free=_chunk_flags(chart.chunk_pq, pos),
                       step_index=chart.step_index + 1, chunk_pos=pos)

    # equal values: the chunk closes with a residue translation
    eps = epsilon(*chart.chunk_pq)
    if pos != eps:
        raise InvalidSpecError("chunk %s closed at step %d, expected epsilon = %d"
                               % (chart.chunk_pq, pos, eps))
    ratio = bv / bu
    c = residue(ratio.num, ratio.den, js)
    new_y = ratio.sub_scalar(c)
    shift = BivarPoly(fld, {(0, 0): fld(c), (0, 1): fld.one}, X.vars)  # Y + c
    new_forward = (fu.subs(X, X * shift), fv.subs(X, X * shift))
    new_backward = (bu, new_y)
    vY, new_pq = _after_closing(new_y, vU, js)
    return replace(chart, forward=new_forward, backward=new_backward,
                   values=(vU, vY), free=True,
                   step_index=chart.step_index + 1, chunk_pos=0,
                   chunk_pq=new_pq, residues=chart.residues + (c,))


@dataclass(frozen=True)
class ChunkResult:
    chart: Chart
    a: int
    b: int
    c: object


def chunk_transform(p: int, q: int, c, chart: Chart, js: JumpingSequence) -> ChunkResult:
    """The closed-form chart after one full Euclidean chunk.

    From permissible parameters (x, y) with value ratio p/q the chunk
    ends in parameters (X, Y) with x = X^q (Y+c)^b, y = X^p (Y+c)^a
    where a*q - b*p = 1, a <= p, b < q.
    """
    if gcd(p, q) != 1:
        raise ValueError("chunk_transform requires coprime (p, q)")
    rp, rq = chart.ratio()
    if (rp, rq) != (p, q):
        raise ValueError("chart value ratio is %s, expected (%d, %d)" % ((rp, rq), p, q))
    fld = chart.field
    a, b = bezout(p, q)
    fu, fv = chart.forward
    bu, bv = chart.backward
    X, Y = BivarPoly.gens(fld, fu.vars)
    shift = BivarPoly(fld, {(0, 0): fld(c), (0, 1): fld.one}, X.vars)  # Y + c
    sub_x = X ** q * shift ** b
    sub_y = X ** p * shift ** a
    new_forward = (fu.subs(sub_x, sub_y), fv.subs(sub_x, sub_y))
    new_backward = (bu ** a / bv ** b, (bv ** q / bu ** p).sub_scalar(c))
    vU = chart.values[0] / q
    vY, new_pq = _after_closing(new_backward[1], vU, js)
    closed = Chart(fld, new_forward, new_backward, (vU, vY), True,
                   chart.step_index + epsilon(p, q), 0, new_pq,
                   chart.residues + (fld(c),))
    return ChunkResult(closed, a, b, fld(c))


def strict_transform(f: BivarPoly, chart: Chart) -> Tuple[BivarPoly, int]:
    """Pull f back through the chart and strip the exceptional factor.

    Returns (g, m) with f(forward) = X^m * g and g not divisible by the
    exceptional coordinate X (the first current parameter).
    """
    if f.is_zero():
        raise ValueError("strict transform of the zero polynomial")
    pulled = f.subs(*chart.forward)
    m = pulled.min_exp_first()
    g = BivarPoly(pulled.field,
                  {(a - m, b): cc for (a, b), cc in pulled.terms.items()},
                  pulled.vars)
    return g, m


def value_in_original(f: BivarPoly, m: int, chart: Chart, js: JumpingSequence) -> Fraction:
    """The value of the strict transform g of f, where f(forward) = X^m * g.

    ``f`` lies in the original ring, so value(g) = value(f) - m * value(X)
    with value(X) taken through the engine from X's backward expression,
    independently of the ``values`` the chart carries.
    """
    return value(f, js) - m * _rat_value(chart.backward[0], js)


def monoidal_sequence(js: JumpingSequence, ind: IndependentData, L: int) -> List[dict]:
    """Advance to the chunk boundaries kbar_1, ..., kbar_L and certify
    the monomial structure of the independent polynomials there.

    At each level l the report records: the chart, the value of the
    exceptional parameter (expected 1/Qbar_l), the factorizations
    H_j = u_l^{Qbar_l betabar_j} * unit for j <= l (unit certified by a
    nonzero constant term after exact exponent stripping), the strict
    transform of H_{l+1} with its value value(H_{l+1}) - m * value(u_l),
    and the residue cross-check lambda_{i_l} = c_l * t_l, where t_l comes
    from the unit constants of the factorizations at level l-1.
    """
    if L > ind.levels:
        raise ValueError("spec depth provides only %d independent levels" % ind.levels)
    fld = js.field
    H = [js.T[0]] + [js.T[il] for il in ind.indices]

    # the starting system of parameters is (u, H_1); this chart is
    # polynomial only when H_1 - v depends on u alone
    if ind.levels == 0:
        raise ValueError("monoidal sequence requires at least one independent index")
    corr = js.T[1] - H[1]  # v - H_1
    if any(b != 0 for (_, b) in corr.terms):
        raise InvalidSpecError(
            "initial parameter H_1 requires corrections depending on u alone"
        )
    x, y = BivarPoly.gens(fld, ("x", "y"))
    u, v = BivarPoly.gens(fld, ("u", "v"))
    fwd = (x, y + corr.subs(x, y))
    bwd = (RatExpr.from_poly(u), RatExpr.from_poly(H[1]))
    chart = initial_chart(fld, (Fraction(1), ind.betabar[1]), fwd, bwd)

    def nbar(m: int, j: int) -> int:
        # n_{i_m, i_j} with i_0 = 0
        row = js.n[ind.indices[m - 1]]
        pos = 0 if j == 0 else ind.indices[j - 1]
        return row[pos] if pos < len(row) else 0

    reports = []
    # unit constants of H_0, ..., H_{l-1} at level l-1; at level 0 the
    # only one is H_0 = u, which pulls back to x
    consts = [fld.one]
    for l in range(1, L + 1):
        while chart.step_index < ind.kbar[l]:
            chart = single_quadratic_transform(chart, js=js)
        rec = {"level": l, "step": chart.step_index}
        rec["u_value"] = chart.values[0]
        rec["u_value_ok"] = chart.values[0] == Fraction(1, ind.Qbar[l])

        # conclusion 3): H_j = u_l^{Qbar_l betabar_j} * unit
        factorizations = []
        level_consts = []
        factor_ok = True
        for j in range(0, l + 1):
            g, m = strict_transform(H[j], chart)
            expected = ind.Qbar[l] * ind.betabar[j]
            ok = (Fraction(m) == expected) and g.is_local_unit()
            factor_ok = factor_ok and ok
            const = g.constant_term()
            factorizations.append({"j": j, "exponent": m, "expected": expected,
                                   "unit_constant": fld.render(const), "pass": ok})
            level_consts.append(const)
        rec["H_factorizations"] = factorizations
        rec["H_factorizations_ok"] = factor_ok

        # conclusion 2): the strict transform of H_{l+1} carries the value
        # (1/Qbar_l)(pbar_{l+1}/qbar_{l+1}) and the exceptional exponent
        # matches the denominator monomial of v_l
        if l < ind.levels:
            g, m = strict_transform(H[l + 1], chart)
            expected_m = ind.Qbar[l] * ind.qbar[l - 1] * ind.betabar[l]
            mono_exp = sum(nbar(l, j) * ind.Qbar[l] * ind.betabar[j] for j in range(l))
            vg = value_in_original(H[l + 1], m, chart, js)
            expected_v = Fraction(ind.pbar[l], ind.qbar[l]) / ind.Qbar[l]
            rec["v_strict"] = {
                "exceptional_exponent": m,
                "expected_exponent": expected_m,
                "denominator_exponent": mono_exp,
                "value": vg,
                "expected_value": expected_v,
                "pass": Fraction(m) == expected_m == mono_exp and vg == expected_v
                and not g.is_local_unit(),
            }

        # residue cross-check lambda_{i_l} = c_l * t_l, with t_l computed
        # from the unit constant terms at level l-1; c_l is the residue of
        # the closing at step kbar_l (chunks of q = 1 pairs close too, so
        # residues holds more entries than levels)
        c_l = chart.residues[-1]
        tau = fld.one
        for j in range(0, l - 1):
            tau = tau * consts[j] ** nbar(l - 1, j)
        tau = tau ** js.q(ind.indices[l - 1])
        tau_den = fld.one
        for j in range(0, l):
            tau_den = tau_den * consts[j] ** nbar(l, j)
        t_l = tau / tau_den
        lam = fld(js.spec.lambdas[ind.indices[l - 1] - 1])
        rec["residue_check"] = {
            "c": fld.render(c_l),
            "t": fld.render(t_l),
            "lambda": fld.render(lam),
            "pass": c_l * t_l == lam,
        }
        rec["chart"] = chart
        rec["pass"] = (rec["u_value_ok"] and factor_ok
                       and rec.get("v_strict", {"pass": True})["pass"]
                       and rec["residue_check"]["pass"])
        reports.append(rec)
        consts = level_consts
    return reports
