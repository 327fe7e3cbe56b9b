"""Quadratic transforms along a valuation: charts, chunks, strict transforms.

Every chain starts at :func:`initial_chart`, whose coordinates (x, y) are
the original parameters (u, v), and a :class:`Chart` is the chart before
it and one elementary step.  In the current parameters (U, V) a step is:

* A, when value(U) < value(V): new parameters (U, V/U), substitution
  U -> X, V -> X*Y;
* B, when value(U) > value(V): new parameters (U/V, V), substitution
  U -> X*Y, V -> Y;
* C(c), when the values are equal: the chunk closes; with c the residue
  of V/U the new parameters are (U, V/U - c) and the substitution is
  U -> X, V -> X*(Y + c).

Composed, the substitutions give the forward map, the original parameters
as polynomials in the chart coordinates.  Nothing here forms it: a chart
is written as its steps and the exponent vectors below.

Backward, the current parameters are monomials in the factors of their
chain: u, v and, from each closing, one factor N = P - c*Q, where
V/U = P/Q with P and Q products of earlier factors (Spivakovsky's
monomial form of the chart parameters).  A chart keeps U and V as integer
exponent vectors over that tuple of factors, so A and B subtract one
vector from the other and form no polynomial.  Each factor carries its
value and its initial form in the graded algebra of the valuation
(:class:`Factor`): those of u = T_0 and v = T_1 are read off the
sequence, and the engine expands each closing factor once, when it is
made.  Values are kept as the engine keeps them, as integer numerators
over Q_N = q_1...q_N (:attr:`jumpseq.engine.JumpingSequence.weights`),
so a chart's two values are ints that A and B compare and subtract, and
:attr:`Chart.values` is a ``Fraction`` view for reports.  Values of
monomials in the factors add up (:func:`monomial_value`), and their
initial forms multiply (:func:`monomial_form`), so a closing takes its
residue c from the initial forms
(:func:`jumpseq.engine.graded_residue`) and forms the new factor
N = P - c*Q as one two-term :func:`jumpseq.poly._fold`, keyed by the
positive and the negative part of the exponent vector of V/U, with the
closing factors as its bases: the powers of u and v are exponents only,
and only the closing factors are raised and multiplied.  The new second
value is value(N) - value(Q).

A strict transform is pulled back along the chart's steps.  Each maximal
run of A and B steps is one unimodular exponent map,
(a, b) -> (a + b, b) for A and (a, b) -> (a, a + b) for B composed, and
C is the only real substitution (:func:`jumpseq.poly._translate`).  A
chart computes this run decomposition once, at its first pull-back
(:attr:`Chart.runs`).
After each run and each C the monomial X^a Y^b is stripped, which
commutes with monomial maps, so f(forward) = X^e_X Y^e_Y U g with g
divisible by neither coordinate and U a product of pulled-back factors
(Y + c)^e, a unit.  A run maps (e_X, e_Y) as it maps exponents, and C(c)
maps it to (e_X + e_Y, 0) while U(0, 0) gains the factor c^e_Y (a
residue is never zero).  Once g(0, 0) is nonzero no later step changes
it, so the walk stops transforming g there (:func:`pull_back`).  The
strict transform f(forward) / X^e_X is a local unit exactly when
e_Y = 0 and g(0, 0) is nonzero.  Its value is
value(f) - e_X * value(X), with value(X) the chart's first value; the
certificates transform only sequence elements T_j, whose value is
beta_j.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from fractions import Fraction
from typing import List, Optional, Tuple

from .errors import InsufficientDepthError, InvalidSpecError
from .engine import IndependentData, JumpingSequence, graded_residue, initial_form, value
from .fields import GroundField
from .poly import BivarPoly, _at_origin, _fold, _map, _ratio, _strip, _translate, _wrap


class Factor:
    """A polynomial factor of the chart parameters of one chain.

    ``form`` is its value and initial form, (value numerator, coefficient,
    exponent vector over T_0 .. T_M) in the graded algebra of the sequence
    the chain is walked along, or None when the value lies beyond the spec
    depth.  The value is an integer numerator over Q_N, the denominator of
    the sequence's :attr:`~jumpseq.engine.JumpingSequence.weights`.  The
    maker supplies the form: :func:`initial_chart` reads those of T_0 and
    T_1 off the sequence, and a closing takes its new factor's from
    :func:`jumpseq.engine.initial_form`.
    """

    __slots__ = ("poly", "form")

    def __init__(self, poly: BivarPoly, form):
        self.poly = poly
        self.form = form

    @property
    def num(self) -> Optional[int]:
        """The value as an integer numerator over Q_N, None beyond the
        spec depth."""
        return None if self.form is None else self.form[0]


def monomial_value(chart: Chart, exps) -> int:
    """The value of prod_k F_k^exps[k] over the factors F_k of ``chart``,
    as an integer numerator over Q_N: values add up."""
    return sum(n * f.form[0] for f, n in zip(chart.factors, exps) if n)


def monomial_form(chart: Chart, exps):
    """The initial form (coefficient, exponent vector over T_0 .. T_M) of
    prod_k F_k^exps[k] over the factors F_k of ``chart``, in the sequence
    its chain is walked along: initial forms multiply.  Its value is
    :func:`monomial_value`."""
    js = chart.js
    coeff = js.field.one
    out = [0] * (js.depth + 2)
    for f, n in zip(chart.factors, exps):
        if n:
            _, c, a = f.form
            coeff = coeff * c ** n
            for j, x in enumerate(a):
                out[j] += n * x
    return coeff, out


@dataclass(slots=True)
class Chart:
    """A local chart after ``step_index`` quadratic transforms along ``js``.

    Past :func:`initial_chart` a chart is ``step`` (``("A", None)``,
    ``("B", None)`` or ``("C", c)``) taken from ``previous``; :attr:`steps`
    lists the steps since the start.  The current parameters are the monomials
    prod_k factors[k]^e_k for the two exponent vectors ``params``; the
    factors are u, v and one new factor per closing, and every chart of a
    chain shares their :class:`Factor` objects.  The first current parameter is the exceptional one at every
    free ring.  ``nums`` are the values of the two parameters as integer
    numerators over Q_N, the second None beyond the spec depth;
    :attr:`values` is their ``Fraction`` view.  Whether the chart is free
    is read off its step word (:attr:`free`), so a chart keeps no chunk
    counter.  The walk makes a new chart per step and changes none once
    made; a chart's run decomposition (:attr:`runs`) is computed at its
    first read.
    """

    js: JumpingSequence = dataclass_field(repr=False, compare=False)
    factors: Tuple[Factor, ...]
    params: Tuple[Tuple[int, ...], Tuple[int, ...]]
    nums: Tuple[int, Optional[int]]
    step_index: int
    step: Optional[tuple] = None
    previous: Optional["Chart"] = dataclass_field(default=None, repr=False, compare=False)
    _run_list: Optional[list] = dataclass_field(default=None, init=False, repr=False,
                                                compare=False)

    @property
    def field(self) -> GroundField:
        return self.js.field

    @property
    def values(self) -> Tuple[Fraction, Optional[Fraction]]:
        """The values of the two parameters, the second None beyond the
        spec depth: a view of :attr:`nums` for reports and certificates."""
        QN = self.js.Q[-1]
        return tuple(None if n is None else Fraction(n, QN) for n in self.nums)

    @property
    def runs(self) -> list:
        """The steps since the start with each maximal run of A and B steps
        composed into one exponent map (:func:`_runs`), computed at the
        first read; every :func:`pull_back` to the chart reads it."""
        if self._run_list is None:
            self._run_list = _runs(self.steps)
        return self._run_list

    @property
    def free(self) -> bool:
        """Free at a chunk's start and at its steps 1 .. f_1, with f_1 the
        first Euclidean quotient of the chunk's value ratio.  Those are the
        A steps the chunk opens with, and a chunk starts at the initial
        chart or after a closing, so the chart is free exactly when the
        walk back over its trailing A steps reaches a C step or the
        initial chart."""
        chart = self
        while chart.step is not None and chart.step[0] == "A":
            chart = chart.previous
        return chart.step is None or chart.step[0] == "C"

    @property
    def steps(self) -> list:
        """The elementary steps from the initial chart to this one."""
        steps = []
        chart = self
        while chart.previous is not None:
            steps.append(chart.step)
            chart = chart.previous
        return steps[::-1]

    def to_json(self):
        """The chart as it is held: its step word since :func:`initial_chart`
        ("A", "B", "C(<c>)"), the exponent vectors of its parameters over the
        chain's factors (which a report writes once, not per chart), its
        values, whether it is free and its step index."""
        render = self.field.render
        return {
            "steps": [kind if c is None else "C(%s)" % render(c) for kind, c in self.steps],
            "params": [list(e) for e in self.params],
            "values": [str(v) if v is not None else None for v in self.values],
            "free": self.free,
            "step": self.step_index,
        }


def initial_chart(js: JumpingSequence) -> Chart:
    """The chart every chain walked along ``js`` starts at: its coordinates
    (x, y) are the original parameters (u, v), and T_0 = u and T_1 = v are
    the chain's first two factors, which give the chart its values.

    Their initial forms are read off the sequence, not expanded:
    (w_0, 1, e_0) for u and (w_1, 1, e_1) for v, with w_j = Q_N * beta_j
    the sequence's :attr:`~jumpseq.engine.JumpingSequence.weights`, None
    for v at depth 0, where
    T_1 = T_M has no certified value.  When q_1 = 1, e_1 is not a standard
    exponent vector (the engine's initial form of v is then
    lambda_1 * delta_1(0) * in(u)^p_1), but
    :func:`jumpseq.engine.graded_residue` reduces it through that defining
    relation, so every residue comes out the same.  A
    sequence that the closings could not expand in (some T_i not monic in
    the second variable) is refused here, as at any expansion
    (:attr:`JumpingSequence.T_rows`).
    """
    js.T_rows  # raises for a sequence the closings could not expand in
    one = js.field.one
    e = [tuple(int(k == j) for k in range(js.depth + 2)) for j in (0, 1)]
    w = js.weights
    forms = ((w[0], one, e[0]), (w[1], one, e[1]) if js.depth else None)
    factors = tuple(Factor(T, form) for T, form in zip(js.T, forms))
    return Chart(js, factors, ((1, 0), (0, 1)), tuple(f.num for f in factors), 0)


def single_quadratic_transform(chart: Chart) -> Chart:
    """One quadratic transform along the valuation of the chart's sequence.

    At a chunk-closing (equal values) step the residue constant comes
    from the initial forms of the chart's factors, and the new second
    value from the engine's expansion of the new factor.  Raises
    :class:`InsufficientDepthError` when the second value is unknown,
    i.e. after the last chunk the spec certifies.
    """
    vU, vV = chart.nums
    if vV is None:
        raise InsufficientDepthError(
            "step %d: the value of the second parameter lies beyond the spec depth"
            % (chart.step_index + 1))
    eU, eV = chart.params
    js = chart.js
    index = chart.step_index + 1

    if vU != vV:
        if vU < vV:  # new parameters (U, V/U)
            step = ("A", None)
            params = (eU, tuple(b - a for a, b in zip(eU, eV)))
            values = (vU, vV - vU)
        else:  # new parameters (U/V, V)
            step = ("B", None)
            params = (tuple(a - b for a, b in zip(eU, eV)), eV)
            values = (vU - vV, vV)
        return Chart(js, chart.factors, params, values, index, step, chart)

    # equal values: the chunk closes with a residue translation, at step
    # epsilon(p, q) of its value ratio p/q by construction (subtractive
    # Euclid on the values)
    ratio = tuple(b - a for a, b in zip(eU, eV))  # V/U = P/Q
    coeff, exps = monomial_form(chart, ratio)
    c = graded_residue(coeff, exps, js)
    p = js.field.characteristic
    n, d = _ratio(-c, p)
    P = tuple(max(e, 0) for e in ratio)
    Q = tuple(max(-e, 0) for e in ratio)
    N = _wrap(js.field, _fold([(P, d), (Q, n)], d, [f.poly.form for f in chart.factors[2:]], p),
              js.T[0].vars)
    try:
        new = Factor(N, initial_form(N, js))
    except InsufficientDepthError:  # the value needs the pair beyond the spec depth
        new = Factor(N, None)
    den = tuple(min(n, 0) for n in ratio)  # 1/Q
    vY = None if new.num is None else new.num + monomial_value(chart, den)
    return Chart(js, chart.factors + (new,), (eU + (0,), den + (1,)), (vU, vY), index,
                 ("C", c), chart)


def _runs(steps):
    """The ``steps`` with each maximal run of A and B steps composed into
    one unimodular exponent map: ``("C", c)`` for a closing and
    ``("map", (rx, ry))`` for a run, which sends the exponents (a, b) to
    (rx . (a, b), ry . (a, b)).  A adds the second row to the first and B
    the first to the second."""
    out = []
    for kind, c in steps:
        if kind == "C":
            out.append((kind, c))
            continue
        if not out or out[-1][0] == "C":
            out.append(("map", ((1, 0), (0, 1))))
        rx, ry = out[-1][1]
        both = (rx[0] + ry[0], rx[1] + ry[1])
        out[-1] = ("map", (both, ry) if kind == "A" else (rx, both))
    return out


def pull_back(f: BivarPoly, chart: Chart):
    """Pull f back from (u, v) to the chart: each run of A and B steps is
    one exponent map (:func:`jumpseq.poly._map`) and each C one
    substitution (:func:`jumpseq.poly._translate`), and the coordinate
    monomial is stripped after each (:func:`jumpseq.poly._strip`).

    Once g(0, 0) != 0, g is a unit and stays one, and the walk stops
    transforming it.  An exponent map is unimodular with entries >= 0, so
    it sends the constant term to itself and every other monomial to one
    that is not constant; a closing x(u, u*(v + c)) keeps the constant
    term and sends every other u^a v^b to u^(a+b) (v + c)^b with a + b >=
    1.  Either way the strip then removes nothing, g(0, 0) is unchanged
    and the order of g(0, Y) stays 0, so the remaining steps only update
    e_X, e_Y and the unit's constant.  This also spares those steps the
    growth of g, and the :class:`jumpseq.errors.ResourceLimitError` it
    could raise.

    The runs are the chart's own (:attr:`Chart.runs`), computed once per
    chart however many polynomials are pulled back to it.

    Returns (e_X, e_Y, c, k) with f(forward) = X^e_X * Y^e_Y * U * g,
    where U is a polynomial unit, g is divisible by neither X nor Y, k is
    the order of g(0, Y) and c = U(0, 0) * [Y^k] g(0, Y), never zero.  g
    is a local unit exactly when k = 0, and then c = U(0, 0) * g(0, 0).
    """
    if f.is_zero():
        raise ValueError("strict transform of the zero polynomial")
    fld = chart.field
    p = fld.characteristic
    g, e_x, e_y = _strip(f.form)
    unit = fld.one
    for kind, x in chart.runs:
        if kind == "C":
            if e_y:
                unit = unit * x ** e_y
                e_x, e_y = e_x + e_y, 0
        else:
            (xa, xb), (ya, yb) = x
            e_x, e_y = xa * e_x + xb * e_y, ya * e_x + yb * e_y
        if (0, 0) not in g[0]:  # once g(0, 0) != 0 no step changes g(0, 0), a or b
            g, a, b = _strip(_translate(g, x, p) if kind == "C" else _map(g, *x))
            e_x += a
            e_y += b
    g0, k = _at_origin(g, p)
    return e_x, e_y, unit * g0, k


def strict_transform(f: BivarPoly, chart: Chart):
    """The exceptional exponent and the constant term of the strict
    transform of f.

    Returns (m, c) with f(forward) = X^m * g, g not divisible by the
    exceptional coordinate X (the first current parameter), and
    c = g(0, 0), which is nonzero exactly when g is a local unit.
    """
    e_x, e_y, c, k = pull_back(f, chart)
    return e_x, (c if e_y == k == 0 else chart.field.zero)


def value_in_original(f: BivarPoly, m: int, chart: Chart) -> Fraction:
    """The value of the strict transform g of f, where f(forward) = X^m * g.

    ``f`` lies in the original ring, so value(g) = value(f) - m * value(X),
    with value(f) from the engine and value(X) the chart's first value.
    The certificates do not call it: they transform only sequence
    elements T_j, whose value is beta_j by construction.  It stays as the
    tests' oracle for that shortcut.
    """
    return value(f, chart.js) - m * chart.values[0]


def monoidal_sequence(js: JumpingSequence, ind: IndependentData, L: int) -> List[dict]:
    """Advance to the chunk boundaries kbar_1, ..., kbar_L and certify
    the monomial structure of the independent polynomials there.

    ``L`` is the number of levels, 1 to ``ind.levels``.  A spec with no
    independent index (every q_i = 1) has no level to certify, and it and
    an ``L`` outside that range raise :class:`InvalidSpecError`, before
    any chart is made.

    At each level l the report records: the chart, the value of the
    exceptional parameter (expected 1/Qbar_l), the factorizations
    H_j = u_l^{Qbar_l betabar_j} * unit for j <= l (unit certified by a
    nonzero constant term after exact exponent stripping), the strict
    transform of H_{l+1} with its value betabar_{l+1} - m * value(u_l),
    and the residue law lambda_{i_l} = c_l * t_l.

    The residue law: at level l - 1, with chart coordinates (x, y), each
    H_j with j < l is x^{e_j} times a unit with constant kappa_j, and H_l
    pulls back to x^m Y^e_Y U g (:func:`pull_back`), k the order of
    g(0, Y).  When e_Y + k = 1, H_l / x^m = a_l * y modulo (x, y^2), with
    a_l = U(0, 0) * [Y^k] g(0, Y); its value is that of y (the level's
    ``v_strict``), so no power of x alone enters its initial form, which
    is a_l times that of y.  The defining relation of T_{i_l + 1} gives
    lambda_{i_l} as the residue of H_l^{qbar_l} / prod_{j<l} H_j^{nbar(l,j)}
    (n_{i,j} = 0 wherever q_j = 1, and delta_{i_l}(0) = 1), which is
    c_l * t_l with t_l = a_l^{qbar_l} / prod_{j<l} kappa_j^{nbar(l,j)} and
    c_l the residue of y^{qbar_l} / x^{pbar_l}, that of the closing at
    kbar_l.  At level 0 the chart is (u, v), kappa_0 = 1 and
    H_1 = v - h(u), so a_1 = 1.  When e_Y + k != 1 at level l - 1 there is
    no a_l, and level l reports the law false with t null.

    The chain starts at (u, v); the ring sequence is intrinsic, so the
    chunks of the pairs with q = 1 before i_1 reach (u, H_1 / u^k), the
    second coordinate shifted by h(X) with h(0) = 0 where some
    delta_j(u) != 1, which moves no exponent, order or constant term.

    The exceptional exponent of H_{l+1} is not compared with the
    denominator monomial of v_l, sum_j nbar(l,j) * Qbar_l * betabar_j:
    that sum is Qbar_l * qbar_l * betabar_l by the value relation the
    exponents n solve, so it equals ``expected_exponent`` by construction.
    """
    if not ind.levels:
        raise InvalidSpecError("monoidal needs an independent index (some q_i > 1); "
                               "the spec has none")
    if not 1 <= L <= ind.levels:
        raise InvalidSpecError("monoidal depth %d: the spec provides independent levels 1 to %d"
                               % (L, ind.levels))
    fld = js.field
    QN = js.Q[-1]
    H = [js.T[0]] + [js.T[il] for il in ind.indices]
    chart = initial_chart(js)

    def nbar(m: int, j: int) -> int:
        # n_{i_m, i_j} with i_0 = 0
        row = js.n[ind.indices[m - 1]]
        pos = 0 if j == 0 else ind.indices[j - 1]
        return row[pos] if pos < len(row) else 0

    reports = []
    # the unit constants kappa_j of H_0, ..., H_{l-1} and the coefficient
    # a_l of H_l at level l-1; at level 0, H_0 = u pulls back to x
    consts = [fld.one]
    a_l = fld.one
    for l in range(1, L + 1):
        while chart.step_index < ind.kbar[l]:
            chart = single_quadratic_transform(chart)
        rec = {"level": l, "step": chart.step_index}
        nU = chart.nums[0]
        rec["u_value"] = Fraction(nU, QN)
        rec["u_value_ok"] = nU * ind.Qbar[l] == QN

        # conclusion 3): H_j = u_l^{Qbar_l betabar_j} * unit
        factorizations = []
        level_consts = []
        factor_ok = True
        for j in range(0, l + 1):
            m, const = strict_transform(H[j], chart)
            expected = ind.Qbar[l] * ind.betabar[j]
            ok = m == expected and bool(const)
            factor_ok = factor_ok and ok
            factorizations.append({"j": j, "exponent": m, "expected": expected,
                                   "unit_constant": fld.render(const), "pass": ok})
            level_consts.append(const)
        rec["H_factorizations"] = factorizations
        rec["H_factorizations_ok"] = factor_ok

        # the residue law; c_l is the residue of the closing at step
        # kbar_l, the last step taken
        c_l = chart.step[1]
        t_l = None
        if a_l is not None:
            t_l = a_l ** ind.qbar[l - 1]
            for j in range(l):
                t_l = t_l / consts[j] ** nbar(l, j)
        lam = fld(js.spec.lambdas[ind.indices[l - 1] - 1])
        rec["residue_check"] = {
            "c": fld.render(c_l),
            "t": None if t_l is None else fld.render(t_l),
            "lambda": fld.render(lam),
            "pass": t_l is not None and c_l * t_l == lam,
        }

        # conclusion 2): the strict transform of H_{l+1} carries the value
        # (1/Qbar_l)(pbar_{l+1}/qbar_{l+1}) and is not a unit; its
        # coefficient a_{l+1} serves the next level's residue law
        if l < ind.levels:
            m, e_y, a, k = pull_back(H[l + 1], chart)
            expected_m = ind.Qbar[l] * ind.qbar[l - 1] * ind.betabar[l]
            # betabar_{l+1} = value(H_{l+1}), weight w_{i_{l+1}} over Q_N
            vg = Fraction(js.weights[ind.indices[l]] - m * nU, QN)
            expected_v = Fraction(ind.pbar[l], ind.qbar[l] * ind.Qbar[l])
            rec["v_strict"] = {
                "exceptional_exponent": m,
                "expected_exponent": expected_m,
                "value": vg,
                "expected_value": expected_v,
                "pass": m == expected_m and vg == expected_v and e_y + k > 0,
            }
            a_l = a if e_y + k == 1 else None
        rec["chart"] = chart
        rec["pass"] = (rec["u_value_ok"] and factor_ok
                       and rec.get("v_strict", {"pass": True})["pass"]
                       and rec["residue_check"]["pass"])
        reports.append(rec)
        consts = level_consts
    return reports
