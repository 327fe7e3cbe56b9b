"""Shared fixtures: the two reference specs, a deterministic spec battery,
small polynomial helpers, and the chart oracles: the expanded forward
map, composed from a chart's steps by substitution (the library holds
no forward map), the backward parameters as rational expressions, a
closing's new factor rebuilt with polynomial arithmetic and the closed
form of a chunk.

The random specs and polynomials come from ``scripts/run_battery.py``, so
the tests and the battery draw from one generator."""

import json
import pathlib
import random
import sys

from dataclasses import dataclass
from math import gcd

import pytest

from jumpseq.engine import ValuationSpec, build_jumping_sequence, extract_independent, value
from jumpseq.errors import InsufficientDepthError
from jumpseq.euclid import bezout, euclid_data
from jumpseq.fields import QQ, prime_field
from jumpseq.poly import BivarPoly, RatExpr

ROOT = pathlib.Path(__file__).resolve().parent.parent
SPECS_DIR = ROOT / "specs"

sys.path.insert(0, str(ROOT / "scripts"))
from run_battery import random_poly, random_spec  # noqa: E402


#: the fields of the differential tests: Q and prime fields of small and
#: large characteristic
FIELDS = [QQ, prime_field(2), prime_field(3), prime_field(5), prime_field(101)]


def load_spec(name: str) -> ValuationSpec:
    with open(SPECS_DIR / name) as fh:
        return ValuationSpec.from_json(json.load(fh))


@pytest.fixture(scope="session")
def spec_a() -> ValuationSpec:
    return load_spec("spec-a.json")


@pytest.fixture(scope="session")
def spec_b() -> ValuationSpec:
    return load_spec("spec-b.json")


@pytest.fixture(scope="session")
def js_a(spec_a):
    return build_jumping_sequence(spec_a)


@pytest.fixture(scope="session")
def js_b(spec_b):
    return build_jumping_sequence(spec_b)


@pytest.fixture(scope="session")
def ind_a(js_a):
    return extract_independent(js_a)


def make_spec(field, pairs, mode="nondiscrete", lambdas=None) -> ValuationSpec:
    n = len(pairs)
    if lambdas is None:
        lambdas = tuple(field(1) for _ in range(n))
    units = tuple(BivarPoly.const(field, 1) for _ in range(n))
    return ValuationSpec(field, tuple(pairs), tuple(lambdas), units, mode)


def random_unit(rng, fld, vars=("u", "v")):
    """1, or 1 plus one or two terms in the first variable, in the second
    or in both."""
    terms = {(0, 0): 1}
    for _ in range(rng.randint(0, 2)):
        e = rng.choice([(1, 0), (2, 0), (0, 1), (1, 1), (0, 2)])
        terms[e] = rng.randint(1, 4)
    return BivarPoly(fld, terms, vars)


@pytest.fixture(scope="session")
def battery(spec_a, spec_b):
    """At least 10 specs: the references, a three-pair tower, and random
    coprime-pair specs over the rationals and over F_101."""
    specs = [
        ("SPEC-A", spec_a),
        ("SPEC-B", spec_b),
        ("tower-324153", make_spec(QQ, [(3, 2), (4, 1), (5, 3)])),
    ]
    f101 = prime_field(101)
    rng = random.Random(0)
    for i in range(5):
        specs.append(("random-QQ-%d" % i, random_spec(rng, QQ)))
    for i in range(4):
        specs.append(("random-F101-%d" % i, random_spec(rng, f101)))
    return specs


def compose_step(forward, step):
    """A forward map (a pair of polynomials in x, y) composed with one
    elementary step by substitution: (x, xy) for A, (xy, y) for B and
    (x, x(y + c)) for C(c)."""
    X, Y = BivarPoly.gens(forward[0].field, forward[0].vars)
    kind, c = step
    sub = {"A": (X, X * Y), "B": (X * Y, Y)}.get(kind) or (X, X * (Y + c))
    return tuple(g.subs(*sub) for g in forward)


def forward_map(field, steps):
    """The forward map of a chain after ``steps``: the original parameters
    as polynomials in the chart coordinates (x, y), composed from (x, y)
    one step at a time by :func:`compose_step`."""
    forward = BivarPoly.gens(field, ("x", "y"))
    for step in steps:
        forward = compose_step(forward, step)
    return forward


def chart_forward(chart):
    """:func:`forward_map` of a chart's steps."""
    return forward_map(chart.field, chart.steps)


def expanded_strict_transform(f, forward):
    """The strict transform through the expanded forward map, the oracle
    for the stepwise pull-back: (g, m) with f(forward) = X^m * g and g not
    divisible by X."""
    pulled = f.subs(*forward)
    m = min(a for a, _ in pulled.terms)
    g = BivarPoly(pulled.field, {(a - m, b): c for (a, b), c in pulled.terms.items()},
                  pulled.vars)
    return g, m


def backward(chart):
    """The chart parameters as rational expressions in the original ring,
    materialised from the chart's factors and exponent vectors: the
    backward oracle of the tests."""
    one = RatExpr.from_poly(BivarPoly.const(chart.field, 1, chart.factors[0].poly.vars))
    out = []
    for exps in chart.params:
        r = one
        for f, e in zip(chart.factors, exps):
            if e:
                r = r * RatExpr.from_poly(f.poly) ** e
        out.append(r)
    return tuple(out)


def closing_factor(chart):
    """The new factor N = P - c*Q of the closing that made ``chart``,
    rebuilt with ``BivarPoly`` powers, products and ``scale`` over the
    factor polynomials of the chart before it, where V/U = P/Q there: the
    oracle for the closing's integer-form product."""
    prev = chart.previous
    _, c = chart.step
    P = Q = BivarPoly.const(chart.field, 1, prev.factors[0].poly.vars)
    for f, a, b in zip(prev.factors, *prev.params):
        if b > a:
            P = P * f.poly ** (b - a)
        elif a > b:
            Q = Q * f.poly ** (a - b)
    return P - Q.scale(c)


def maps_inverse(forward, back) -> bool:
    """Whether the backward parameters ``back`` pull back through the
    forward map to the chart coordinates: b.num(forward) == C * b.den(forward)
    for each backward parameter b and coordinate C."""
    coords = BivarPoly.gens(forward[0].field, forward[0].vars)
    return all(b.num.subs(*forward) == C * b.den.subs(*forward)
               for b, C in zip(back, coords))


def charts_inverse(chart) -> bool:
    """:func:`maps_inverse` for the oracle forward map of a chart and its
    backward parameters."""
    return maps_inverse(chart_forward(chart), backward(chart))


def rat_value(r, js):
    """The engine value of a rational expression: value(num) - value(den)."""
    return value(r.num, js) - value(r.den, js)


@dataclass(frozen=True)
class ChunkResult:
    """The closed form of one chunk: the forward map, the backward
    parameters as rational expressions, their values (the second None
    beyond the spec depth), the step index and the Bezout exponents."""
    forward: tuple
    backward: tuple
    values: tuple
    step_index: int
    a: int
    b: int
    c: object


def chunk_transform(p: int, q: int, c, chart) -> ChunkResult:
    """The closed form after one full Euclidean chunk from ``chart``, the
    independent oracle for the stepwise walk.

    From permissible parameters (x, y) with value ratio p/q the chunk
    ends in parameters (X, Y) with x = X^q (Y+c)^b, y = X^p (Y+c)^a
    where a*q - b*p = 1, a <= p, b < q.  The new parameters are
    U^a / V^b and V^q / U^p - c as rational expressions.
    """
    if gcd(p, q) != 1:
        raise ValueError("chunk_transform requires coprime (p, q)")
    vU, vV = chart.values
    if vV is None or (vV / vU).as_integer_ratio() != (p, q):
        raise ValueError("chart values are %s, expected the ratio %d/%d" % (chart.values, p, q))
    fld = chart.field
    a, b = bezout(p, q)
    fu, fv = chart_forward(chart)
    bu, bv = backward(chart)
    X, Y = BivarPoly.gens(fld, fu.vars)
    shift = BivarPoly(fld, {(0, 0): fld(c), (0, 1): fld.one}, X.vars)  # Y + c
    sub_x = X ** q * shift ** b
    sub_y = X ** p * shift ** a
    new_forward = (fu.subs(sub_x, sub_y), fv.subs(sub_x, sub_y))
    new_u = bu ** a / bv ** b
    new_v = (bv ** q / bu ** p).sub_scalar(c)
    try:
        vY = rat_value(new_v, chart.js)
    except InsufficientDepthError:
        vY = None
    return ChunkResult(new_forward, (new_u, new_v), (chart.values[0] / q, vY),
                       chart.step_index + euclid_data(p, q).epsilon, a, b, fld(c))
