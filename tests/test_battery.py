"""The battery script's checks are explicit code: under ``python -O`` a
wrong result still stops the run instead of being counted as passed.
Its ``--out`` report is plain JSON, and its random specs that need long
chains are certified, not skipped."""

import json
import os
import pathlib
import random
import subprocess
import sys

import pytest

import run_battery
from jumpseq.fields import QQ, prime_field

ROOT = pathlib.Path(__file__).resolve().parent.parent

#: replaces one library function inside run_battery with a wrong one
BREAKAGES = {
    "round-trip": (
        "run_battery.expand = lambda f, js: SimpleNamespace(resubstitute=lambda: f + 1)",
        "expansion round trip failed for spec-a",
    ),
    "additivity": (
        "run_battery.value = lambda f, js: Fraction(1)",
        "value is not additive for spec-a",
    ),
    "ladder-ok": (
        "run_battery.ladder = lambda ext: SimpleNamespace(ok=False, rungs=[], outcome=dict("
        "kind='toroidal', M=first_gcd_failure(ext.t, ext.base_spec.pairs), l=0, g=0))",
        "ladder failed for spec-a t=5",
    ),
    "contradiction-M": (
        "run_battery.ladder = lambda ext: SimpleNamespace(ok=True, rungs=[], outcome=dict("
        "kind='contradiction', M=7, l=0, g=0))",
        "ladder contradiction for spec-a t=2 at M=7, expected M=1",
    ),
}

SCRIPT = """
import json, random, sys
from fractions import Fraction
from types import SimpleNamespace
sys.path.insert(0, %(scripts)r)
import run_battery
from jumpseq.extension import first_gcd_failure
spec = run_battery.ValuationSpec.from_json(
    json.loads((run_battery.SPECS_DIR / "spec-a.json").read_text()))
%(patch)s
run_battery.spec_record("spec-a", spec, random.Random(0), 4)
"""


@pytest.mark.parametrize("name", sorted(BREAKAGES))
def test_battery_check_survives_optimized_interpreter(name):
    patch, message = BREAKAGES[name]
    code = SCRIPT % {"scripts": str(ROOT / "scripts"), "patch": patch}
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True,
                          env=env, timeout=300)
    assert proc.returncode != 0
    assert "AssertionError: " + message in proc.stderr, proc.stderr


def test_battery_out_writes_json_report(tmp_path):
    """``--out`` writes the report with field data as strings and the
    timings as JSON numbers."""
    target = tmp_path / "report.json"
    argv = ["--random-specs", "0", "--polys-per-spec", "2", "--out", str(target)]
    assert run_battery.main(argv) == 0
    report = json.loads(target.read_text())
    spec_a, spec_b = report["specs"]
    assert (spec_a["name"], spec_b["name"]) == ("spec-a", "spec-b")
    assert spec_a["beta"] == ["1", "3/2", "23/6"] and spec_a["pairs"] == [[3, 2], [5, 3]]
    assert spec_a["monoidal"] == {"levels": 2, "pass": True}
    assert spec_a["generating"] == {"checks": 20, "uncertified": 0, "pass": True}
    assert spec_a["ladders"][2] == {"t": 5, "outcome": "toroidal", "ok": True,
                                    "ratios": [[15, 2], [25, 3]]}
    assert all(isinstance(r["seconds"], float) for r in [report] + report["specs"])


@pytest.mark.parametrize("index, levels, ladders", [
    (0, 2, ["contradiction", "contradiction", "toroidal"]),
    (2, 3, ["resource-limited", "contradiction", "contradiction"]),
])
def test_battery_certifies_long_random_chains(index, levels, ladders):
    """random-0 and random-2 of ``--seed 0`` (4 pairs each): the monoidal
    sequence passes at every level, and every ladder runs to a
    certificate or an honest resource limit, none skipped."""
    rng = random.Random(0)  # drawn as main() draws them
    for i in range(index + 1):
        spec = run_battery.random_spec(rng, QQ if i % 2 == 0 else prime_field(101))
    rec = run_battery.spec_record("random-%d" % index, spec, rng, 0)
    assert rec["monoidal"] == {"levels": levels, "pass": True}
    assert [e["outcome"] for e in rec["ladders"]] == ladders
    assert all(e["ok"] for e in rec["ladders"] if e["outcome"] == "toroidal")
