#!/usr/bin/env python3
"""End-to-end certification battery.

Builds a collection of valuation specs (the two shipped references plus
deterministic random ones), then runs every certificate the library
offers over them: construction invariants, expansion round-trips,
generating-sequence verification, chunk-boundary monomial certificates,
dual sequences and the stable-form ladder dichotomy.  Prints a summary
table and optionally writes the full JSON report.

Usage:
    python scripts/run_battery.py [--seed 0] [--out report.json]
"""

import argparse
import json
import pathlib
import random
import sys
import time
from fractions import Fraction
from math import comb, gcd

from jumpseq.blowup import monoidal_sequence
from jumpseq.cli import _dumps
from jumpseq.engine import (
    ValuationSpec,
    build_jumping_sequence,
    expand,
    extract_independent,
    value,
    verify_generating_sequence,
    verify_minimality,
)
from jumpseq.errors import InsufficientDepthError, InvalidSpecError, ResourceLimitError
from jumpseq.extension import (
    MonomialExtension,
    first_gcd_failure,
    ladder,
)
from jumpseq.fields import QQ, prime_field
from jumpseq.poly import BivarPoly

SPECS_DIR = pathlib.Path(__file__).resolve().parent.parent / "specs"
COPRIME = [(p, q) for p in range(1, 8) for q in range(1, 8) if gcd(p, q) == 1]


def growth_estimate(pairs):
    est = 2
    for _, q in pairs[1:]:
        est = comb(est + q - 1, q) + 2
        if est > 800:
            return est
    return est


def random_spec(rng, field):
    while True:
        depth = rng.randint(1, 5)
        pairs = [rng.choice(COPRIME) for _ in range(depth)]
        if growth_estimate(pairs) > 800:
            continue
        mode = "discrete" if all(q == 1 for _, q in pairs) else "nondiscrete"
        units = tuple(BivarPoly.const(field, 1) for _ in pairs)
        lambdas = tuple(field(1) for _ in pairs)
        try:
            spec = ValuationSpec(field, tuple(pairs), lambdas, units, mode)
            build_jumping_sequence(spec)
        except (InvalidSpecError, ResourceLimitError):
            continue
        return spec


def random_poly(rng, field, max_deg=12, max_terms=4):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        a = rng.randint(0, max_deg)
        b = rng.randint(0, max_deg - a)
        if field.kind == "rationals":
            terms[(a, b)] = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        else:
            terms[(a, b)] = field(rng.randint(0, field.characteristic - 1))
    return BivarPoly(field, terms, ("u", "v"))


def spec_record(name, spec, rng, n_random_polys):
    js = build_jumping_sequence(spec)
    ind = extract_independent(js)
    rec = {"name": name, "pairs": list(spec.pairs), "mode": spec.mode,
           "field": spec.field.to_json(), "beta": [str(b) for b in js.beta],
           "independent_indices": list(ind.indices)}

    roundtrips = additivity = skipped = 0
    polys = []
    for _ in range(n_random_polys):
        f = random_poly(rng, spec.field)
        if f.is_zero():
            continue
        if expand(f, js).resubstitute() != f:
            raise AssertionError("expansion round trip failed for %s on %s" % (name, f))
        roundtrips += 1
        polys.append(f)
    for f, g in zip(polys[0::2], polys[1::2]):
        try:
            if value(f * g, js) != value(f, js) + value(g, js):
                raise AssertionError("value is not additive for %s on %s and %s" % (name, f, g))
            additivity += 1
        except InsufficientDepthError:
            skipped += 1
    rec["expansion"] = {"roundtrips": roundtrips, "additivity_pairs": additivity,
                        "uncertified_pairs": skipped}

    report = verify_generating_sequence(js, Fraction(3), 5)
    rec["generating"] = {"checks": len(report),
                         "uncertified": sum(r["pass"] is None for r in report),
                         "pass": all(r["pass"] is not False for r in report)}

    if ind.levels:
        try:
            levels = monoidal_sequence(js, ind, ind.levels)
            rec["monoidal"] = {"levels": len(levels),
                               "pass": all(r["pass"] for r in levels)}
        except InsufficientDepthError:
            rec["monoidal"] = {"levels": 0, "pass": None,
                               "note": "needs more spec depth"}
        except (InvalidSpecError, ResourceLimitError) as e:
            rec["monoidal"] = {"levels": 0, "pass": None, "note": str(e)}
        rec["minimality"] = verify_minimality(ind)
        if all(r["minimal"] for r in rec["minimality"]) != (ind.pbar[0] != 1):
            raise AssertionError("minimality of %s disagrees with pbar_1 != 1" % name)

    rec["ladders"] = []
    one = BivarPoly.const(spec.field, 1, ("x", "y"))
    for t in (2, 3, 5):
        ext = MonomialExtension(t=t, delta=one, base_spec=spec)
        M = first_gcd_failure(t, spec.pairs)
        try:
            cert = ladder(ext)
        except (InsufficientDepthError, ResourceLimitError) as e:
            rec["ladders"].append({"t": t, "outcome": "resource-limited",
                                   "note": str(e)})
            continue
        entry = {"t": t, "outcome": cert.outcome["kind"], "ok": cert.ok}
        if M is None:
            entry["ratios"] = [r["value_ratio"] for r in cert.rungs]
            if not cert.ok:
                raise AssertionError("ladder failed for %s t=%d" % (name, t))
        else:
            if cert.outcome["M"] != M:
                raise AssertionError("ladder contradiction for %s t=%d at M=%s, expected M=%d"
                                     % (name, t, cert.outcome["M"], M))
            entry["witness"] = {k: cert.outcome[k] for k in ("M", "l", "g")}
        rec["ladders"].append(entry)
    return rec


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--random-specs", type=int, default=6)
    ap.add_argument("--polys-per-spec", type=int, default=60)
    ap.add_argument("--out", default=None)
    args = ap.parse_args(argv)

    rng = random.Random(args.seed)
    specs = []
    for fname in ("spec-a.json", "spec-b.json"):
        with open(SPECS_DIR / fname) as fh:
            specs.append((fname[:-5], ValuationSpec.from_json(json.load(fh))))
    f101 = prime_field(101)
    for i in range(args.random_specs):
        field = QQ if i % 2 == 0 else f101
        specs.append(("random-%d" % i, random_spec(rng, field)))

    started = time.time()
    records = []
    for name, spec in specs:
        t0 = time.time()
        rec = spec_record(name, spec, rng, args.polys_per_spec)
        rec["seconds"] = round(time.time() - t0, 3)
        records.append(rec)
        ladders = " ".join("t=%d:%s" % (e["t"], e["outcome"]) for e in rec["ladders"])
        print("%-12s pairs=%-28s gen=%s  %s  (%.2fs)" % (
            name, rec["pairs"], rec["generating"]["pass"], ladders, rec["seconds"]))

    report = {"seed": args.seed, "specs": records,
              "seconds": round(time.time() - started, 3)}
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(_dumps(report))
        print("report written to", args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
