"""Fuzz the command line in process: random small specs and extensions
through every subcommand end in a documented exit code (0, 2, 3 or 64),
with no exception escaping ``main`` and a JSON report on stdout for the
codes that write one.  A third of the requests also run with
``--format text``, which must render that report, and a third with
``--out FILE``, which must hold the bytes stdout holds without it."""

import io
import json
import os
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from math import gcd

from hypothesis import example, given, settings, strategies as st

from jumpseq.cli import _render_text, main

#: (p, q) with p <= 5 and q <= 4, and the coprime ones, which a spec needs
PAIRS = [(p, q) for p in range(1, 6) for q in range(1, 5)]
COPRIME = [(p, q) for p, q in PAIRS if gcd(p, q) == 1]
#: nondiscrete, the mode of most specs, three times as often as discrete
MODES = ["nondiscrete"] * 3 + ["discrete"]
FIELDS = [{"kind": "rationals"}] + [{"kind": "prime", "p": p} for p in (2, 3, 5, 101)]
LAMBDAS = ["0", "1", "2", "-1", "1/2", "-2/3"]
#: units 1, 1 + 2u, 1 + v and 1 + uv; a unit involving v can leave some T_i not
#: monic in v, which the first expansion refuses (exit 64)
UNITS = ["1"] + [{"terms": [{"e": [0, 0], "c": "1"}, {"e": e, "c": c}]}
                 for e, c in (([1, 0], "2"), ([0, 1], "1"), ([1, 1], "1"))]
DELTAS = ["1"] + [{"vars": ["x", "y"], "terms": [{"e": [0, 0], "c": "1"}, {"e": e, "c": "1"}]}
                  for e in ([1, 0], [2, 1], [0, 1])]
COMMANDS = ["genseq", "eval", "expand", "euclid", "blowup", "monoidal", "dual", "ladder",
            "verify", "classify"]
#: ``verify --gamma-max`` values, from one below every semigroup value to one
#: past every value a small request compares
GAMMA_MAX = ["0", "1/2", "5", "100"]
#: how the report is written: JSON on stdout, text on stdout, JSON to a file
OUTPUTS = ["stdout", "text", "file"]

#: a nondiscrete spec whose q_i are all 1: no independent index to classify by
ALL_Q_ONE = {"t": 6, "spec": {"field": {"kind": "prime", "p": 101}, "pairs": [[4, 1]],
                              "lambdas": ["2"], "units": ["1"]}}
#: a monoidal walk over Q whose unit constants pass str()'s digit limit
LONG_CONSTANTS = {"field": {"kind": "rationals"}, "pairs": [[5, 4], [3, 5], [6, 1], [7, 2]],
                  "lambdas": ["-2/3", "1/3", "1", "1/3"], "units": ["1", "1", "1", "1"]}
#: spec-a's pairs; a ladder with t = 2 on it ends in a contradiction (exit 2)
SPEC_A = {"field": {"kind": "rationals"}, "pairs": [[3, 2], [5, 3]], "lambdas": ["1", "1"],
          "units": ["1", "1"], "mode": "nondiscrete"}
#: a value past the depth of a spec with no pairs (exit 3)
NO_PAIRS = {"field": {"kind": "prime", "p": 5}, "pairs": [], "lambdas": [], "units": [],
            "mode": "nondiscrete"}
DEEP_POLY = {"terms": [{"e": [1, 1], "c": "1"}]}
#: T_2 = v - u(1 + v) is not monic in v, so expanding anything exits 64
NOT_MONIC = {"field": {"kind": "rationals"}, "pairs": [[1, 1]], "lambdas": ["1"],
             "units": [UNITS[2]], "mode": "nondiscrete"}


@st.composite
def requests(draw):
    """A command with its input files: ``spec``, ``poly`` and ``ext`` are
    written as JSON files and passed in that order, then ``args``."""
    command = draw(st.sampled_from(COMMANDS))
    if command == "euclid":
        return {"command": command, "args": [str(draw(st.integers(0, 9))) for _ in "pq"]}
    extension = command in ("dual", "ladder", "classify")
    n = draw(st.integers(0, 3))
    spec = {"field": draw(st.sampled_from(FIELDS)),
            "pairs": [list(draw(st.sampled_from(COPRIME) | st.sampled_from(PAIRS)))
                      for _ in range(n)],
            "lambdas": [draw(st.sampled_from(LAMBDAS)) for _ in range(n)],
            # an extension needs trivial downstairs units
            "units": [draw(st.sampled_from(UNITS[:1] if extension else UNITS))
                      for _ in range(n)],
            "mode": draw(st.sampled_from(MODES))}
    if extension:
        return {"command": command, "ext": {"t": draw(st.integers(1, 9)),
                                             "delta": draw(st.sampled_from(DELTAS)),
                                             "spec": spec}}
    request = {"command": command, "spec": spec, "args": []}
    if command in ("eval", "expand"):
        terms = draw(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4),
                                        st.sampled_from(LAMBDAS)),
                              max_size=3, unique_by=lambda t: t[:2]))
        request["poly"] = {"terms": [{"e": [a, b], "c": c} for a, b, c in terms]}
    elif command == "blowup":
        request["args"] = ["--steps", str(draw(st.integers(0, 6)))]
    elif command == "verify":
        request["args"] = ["--deg-bound", str(draw(st.integers(0, 5))),
                           "--samples", str(draw(st.integers(0, 3))),
                           "--seed", str(draw(st.integers(0, 99))),
                           "--gamma-max", draw(st.sampled_from(GAMMA_MAX))]
    return request


def _run(argv):
    """Exit code, stdout and stderr of ``main(argv)`` run in process."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=150, derandomize=True, deadline=None)
@given(requests(), st.sampled_from(OUTPUTS))
@example({"command": "classify", "ext": ALL_Q_ONE}, "stdout")
@example({"command": "monoidal", "spec": LONG_CONSTANTS}, "stdout")
@example({"command": "ladder", "ext": {"t": 2, "delta": "1", "spec": SPEC_A}}, "text")
@example({"command": "ladder", "ext": {"t": 2, "delta": "1", "spec": SPEC_A}}, "file")
@example({"command": "eval", "spec": NO_PAIRS, "poly": DEEP_POLY}, "text")
@example({"command": "eval", "spec": NO_PAIRS, "poly": DEEP_POLY}, "file")
@example({"command": "expand", "spec": NOT_MONIC, "poly": DEEP_POLY}, "stdout")
def test_cli_exits_with_a_documented_code(request, output):
    with tempfile.TemporaryDirectory() as tmp:
        argv = [request["command"]]
        for key in ("spec", "poly", "ext"):
            if key in request:
                argv.append(os.path.join(tmp, key + ".json"))
                with open(argv[-1], "w") as fh:
                    json.dump(request[key], fh)
        argv += request.get("args", [])
        code, out, err = _run(argv)
        if output == "text":
            text = _run(argv + ["--format", "text"])
            # the exit-3 report is JSON whatever the format
            rendered = _render_text(json.loads(out)) if code in (0, 2) else out
            assert text == (code, rendered, err), argv
        elif output == "file":
            target = os.path.join(tmp, "report")
            to_file = _run(argv + ["--out", target])
            written = ""
            if os.path.exists(target):
                with open(target, "rb") as fh:
                    written = fh.read().decode()
            # the report goes to the file; the exit-3 report still to stdout
            assert (to_file[0], to_file[1] + written, to_file[2]) == (code, out, err), argv
            assert code not in (0, 2) or (written == out and to_file[1] == ""), argv
    assert code in (0, 2, 3, 64), (argv, code, err)
    if code != 64:
        json.loads(out)
    else:
        assert err.startswith(("error:", "input error:", "usage:")), err
