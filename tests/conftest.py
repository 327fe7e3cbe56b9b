"""Shared fixtures: the two reference specs, a deterministic spec battery,
and small polynomial helpers.

The random specs and polynomials come from ``scripts/run_battery.py``, so
the tests and the battery draw from one generator."""

import json
import pathlib
import random
import sys

import pytest

from jumpseq.engine import ValuationSpec, build_jumping_sequence, extract_independent
from jumpseq.fields import QQ, prime_field
from jumpseq.poly import BivarPoly

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


def expanded_strict_transform(f, chart):
    """The strict transform through the expanded forward map, the oracle
    for the stepwise pull-back: (g, m) with f(forward) = X^m * g and g not
    divisible by X."""
    pulled = f.subs(*chart.forward)
    m = min(a for a, _ in pulled.terms)
    g = BivarPoly(pulled.field, {(a - m, b): c for (a, b), c in pulled.terms.items()},
                  pulled.vars)
    return g, m


def charts_inverse(chart) -> bool:
    """Whether the backward parameters pull back through the forward map
    to the chart coordinates: b.num(forward) == C * b.den(forward) for
    each backward parameter b and coordinate C."""
    coords = BivarPoly.gens(chart.field, chart.forward[0].vars)
    return all(b.num.subs(*chart.forward) == C * b.den.subs(*chart.forward)
               for b, C in zip(chart.backward, coords))
