"""Shared fixtures: the two reference specs, a deterministic spec battery,
and small polynomial helpers."""

import json
import pathlib
import random
from fractions import Fraction
from math import gcd

import pytest

from jumpseq.engine import ValuationSpec, build_jumping_sequence, extract_independent
from jumpseq.errors import InvalidSpecError, ResourceLimitError
from jumpseq.fields import QQ, prime_field
from jumpseq.poly import BivarPoly

SPECS_DIR = pathlib.Path(__file__).resolve().parent.parent / "specs"


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


_COPRIME_PAIRS = [(p, q) for p in range(1, 8) for q in range(1, 8) if gcd(p, q) == 1]


def _growth_estimate(pairs) -> int:
    """Cheap upper estimate of the term count of the last polynomial in
    the tower; used to screen out draws that would blow the resource
    ceiling only after an expensive computation."""
    from math import comb

    est = 2
    for _, q in pairs[1:]:
        est = comb(est + q - 1, q) + 2
        if est > 800:
            return est
    return est


def random_spec(rng: random.Random, field) -> ValuationSpec:
    """A random valid spec with coprime pairs p, q <= 7 and depth <= 5.

    Regenerates deterministically when a draw produces a sequence that
    exceeds the resource ceiling (possible for towers of large q)."""
    while True:
        depth = rng.randint(1, 5)
        pairs = [rng.choice(_COPRIME_PAIRS) for _ in range(depth)]
        if _growth_estimate(pairs) > 800:
            continue
        mode = "discrete" if all(q == 1 for _, q in pairs) else "nondiscrete"
        spec = make_spec(field, pairs, mode=mode)
        try:
            build_jumping_sequence(spec)
        except (InvalidSpecError, ResourceLimitError):
            continue
        return spec


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


def random_bivar(rng: random.Random, field, max_deg: int = 12,
                 max_terms: int = 5, vars=("u", "v")) -> BivarPoly:
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        a = rng.randint(0, max_deg)
        b = rng.randint(0, max_deg - a)
        if field.kind == "rationals":
            c = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        else:
            c = field(rng.randint(0, field.characteristic - 1))
        terms[(a, b)] = c
    return BivarPoly(field, terms, vars)


def charts_inverse(chart) -> bool:
    """Whether the backward parameters pull back through the forward map
    to the chart coordinates: b.num(forward) == C * b.den(forward) for
    each backward parameter b and coordinate C."""
    coords = BivarPoly.gens(chart.field, chart.forward[0].vars)
    return all(b.num.subs(*chart.forward) == C * b.den.subs(*chart.forward)
               for b, C in zip(chart.backward, coords))
