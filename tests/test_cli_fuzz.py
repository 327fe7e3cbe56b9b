"""Fuzz the command line in process: random small specs and extensions
through every subcommand end in a documented exit code (0, 2, 3 or 64),
with no exception escaping ``main`` and a JSON report on stdout for the
codes that write one.  A third of the requests also run with
``--format text``, which must render that report, and a third with
``--out FILE``, which must hold the bytes stdout holds without it.
Malformed inputs (a top level that is not an object, pairs, lambdas,
units, primes, exponents t and deltas of the wrong shape or value) and
out-of-range ``--depth`` arguments are held to the same rule."""

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
            "units": [draw(st.sampled_from(UNITS)) for _ in range(n)],
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


#: one malformed stand-in per entry, by the spec field it replaces ("top"
#: replaces the whole spec); each is drawn into an otherwise valid request
BAD_SPEC = {
    "top": [[], "spec", 3, None, [SPEC_A]],
    "field": [{"kind": "prime", "p": p} for p in (4, 1, 0, -7, "5", "x", 2.5, None, True)]
    + [{"kind": "prime"}, {"kind": "reals"}, "rationals", None],
    "pairs": ["3,2", None, {"p": 3}, [3, 2], [[3]], [[3, 2, 1]], [["3", 2]], [[3.0, 2]],
              [[True, 1]], [[-3, 2]], [[0, 1]], [[4, 2]]],
    "lambdas": ["1", None, [1, 1], [None, "1"], ["abc", "1"], ["1/0", "1"], [["1"], "1"],
                ["0", "1"], [], ["1", "1", "1"]],
    "units": ["1", None, [1, 1], [None, "1"], [{"terms": "x"}, "1"],
              [{"terms": [{"e": [0], "c": "1"}]}, "1"], [{"terms": [{"e": [0, 0], "c": "2"}]}, "1"],
              [{"vars": ["x", "y"], "terms": [{"e": [0, 0], "c": "1"}]}, "1"], []],
}
#: malformed stand-ins in an extension: its top level, t and delta; delta
#: 1 + y is a unit involving the second variable, and the others do not
#: have constant term 1
BAD_EXT = {
    "top": [[], "ext", 5, None],
    "t": [0, -1, "5", 2.0, None],
    "delta": [DELTAS[3], {"vars": ["x", "y"], "terms": [{"e": [0, 0], "c": "2"}]}, "2", "0",
              {"vars": ["x", "y"], "terms": [{"e": [1, 0], "c": "1"}]}],
}
#: --depth arguments: below, at the edge of and past every spec's range,
#: and not an integer
DEPTHS = ["0", "-3", "x", "99"]


@st.composite
def malformed_requests(draw):
    """A request on spec-a's pairs over Q or F_101 with one malformed
    spec or extension entry, or none, and for ``monoidal``, ``dual`` and
    ``ladder`` possibly a ``--depth`` from :data:`DEPTHS`."""
    command = draw(st.sampled_from(["genseq", "blowup", "monoidal", "verify", "dual", "ladder",
                                    "classify"]))
    spec = dict(SPEC_A, field=draw(st.sampled_from([FIELDS[0], FIELDS[-1]])))
    extension = command in ("dual", "ladder", "classify")
    key = draw(st.sampled_from(["valid"] + sorted(BAD_SPEC) + (sorted(BAD_EXT) if extension
                                                                else [])))
    if key == "top":
        spec = draw(st.sampled_from(BAD_SPEC["top"] + (BAD_EXT["top"] if extension else [])))
    elif key in BAD_SPEC:
        spec[key] = draw(st.sampled_from(BAD_SPEC[key]))
    args = []
    if command in ("monoidal", "dual", "ladder") and draw(st.booleans()):
        args = ["--depth", draw(st.sampled_from(DEPTHS))]
    if not extension:
        return {"command": command, "spec": spec, "args": args}
    ext = {"t": 5, "delta": "1", "spec": spec}
    if key in ("t", "delta"):
        ext[key] = draw(st.sampled_from(BAD_EXT[key]))
    elif key == "top" and spec in BAD_EXT["top"]:
        ext = spec
    return {"command": command, "ext": ext, "args": args}


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
    _check_request(request, output)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(malformed_requests(), st.sampled_from(OUTPUTS))
@example({"command": "genseq", "spec": dict(SPEC_A, field="rationals"), "args": []}, "stdout")
def test_malformed_requests_exit_with_a_documented_code(request, output):
    _check_request(request, output)


def _check_request(request, output):
    """Run ``request`` as :func:`requests` describes it, with its report
    written as ``output`` says, and check the exit code and the output."""
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
