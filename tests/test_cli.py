import argparse
import json
import os
import pathlib
import subprocess
import sys

import pytest

from jumpseq.cli import _build_parser, main
from jumpseq.fields import GroundField
from jumpseq.poly import BivarPoly, RatExpr

from conftest import forward_map, maps_inverse

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
SPECS = pathlib.Path(__file__).resolve().parent.parent / "specs"
SPEC_A = str(SPECS / "spec-a.json")
SPEC_B = str(SPECS / "spec-b.json")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def write_ext(tmp_path, t, spec_path, delta="1"):
    with open(spec_path) as fh:
        spec = json.load(fh)
    p = tmp_path / ("ext-t%d.json" % t)
    p.write_text(json.dumps({"t": t, "delta": delta, "spec": spec}))
    return str(p)


def test_genseq(capsys):
    code, out, _ = run(capsys, "genseq", SPEC_A)
    assert code == 0
    data = json.loads(out)
    assert data["sequence"]["n"] == [[3], [10, 1]]
    assert data["sequence"]["beta"] == ["1", "3/2", "23/6"]
    assert data["independent"]["pbar"] == [3, 5]


def test_euclid(capsys):
    code, out, _ = run(capsys, "euclid", "5", "3")
    assert code == 0
    data = json.loads(out)
    assert data == {"N": 3, "f": [1, 1, 2], "epsilon": 4, "bezout": [2, 1]}


def test_eval(capsys, tmp_path):
    poly = tmp_path / "f.json"
    poly.write_text(json.dumps(
        {"vars": ["u", "v"], "terms": [{"e": [0, 2], "c": "1"}, {"e": [3, 0], "c": "-1"}]}
    ))
    code, out, _ = run(capsys, "eval", SPEC_A, str(poly))
    assert code == 0
    assert json.loads(out)["value"] == "23/6"


def test_eval_insufficient_depth_exit_3(capsys, tmp_path):
    # T_3 = (v^2 - u^3)^3 - u^10 v has no certified value at depth 2
    from jumpseq.engine import build_jumping_sequence, ValuationSpec
    with open(SPEC_A) as fh:
        js = build_jumping_sequence(ValuationSpec.from_json(json.load(fh)))
    poly = tmp_path / "t3.json"
    poly.write_text(json.dumps(js.T[3].to_json()))
    code, out, _ = run(capsys, "eval", SPEC_A, str(poly))
    assert code == 3
    data = json.loads(out)
    assert data["error"] == "insufficient-depth" and data["extra_depth"] == 1


def test_expand(capsys, tmp_path):
    poly = tmp_path / "f.json"
    poly.write_text(json.dumps(
        {"vars": ["u", "v"], "terms": [{"e": [0, 2], "c": "1"}]}
    ))
    code, out, _ = run(capsys, "expand", SPEC_A, str(poly))
    assert code == 0
    terms = json.loads(out)["terms"]
    # v^2 = T_2 + u^3
    assert {"c": "1", "e": [3, 0, 0, 0]} in terms
    assert {"c": "1", "e": [0, 0, 1, 0]} in terms


def test_ladder_contradiction_exit_2(capsys, tmp_path):
    ext = write_ext(tmp_path, 2, SPEC_A)
    code, out, _ = run(capsys, "ladder", ext)
    assert code == 2
    data = json.loads(out)
    assert data["outcome"] == {"kind": "contradiction", "M": 1, "l": 1,
                               "g": 1, "pbar_prime": 3}


def test_ladder_pass_exit_0(capsys, tmp_path):
    ext = write_ext(tmp_path, 5, SPEC_A)
    code, out, _ = run(capsys, "ladder", ext)
    assert code == 0
    data = json.loads(out)
    assert data["ok"] is True
    assert [r["value_ratio"] for r in data["rungs"]] == [[15, 2], [25, 3]]


def test_classify_discrete(capsys, tmp_path):
    ext = write_ext(tmp_path, 3, SPEC_B)
    code, out, _ = run(capsys, "classify", ext)
    assert code == 0
    data = json.loads(out)
    assert data["form"]["case"] == 5 and data["form"]["minimal"] is False
    assert list(data) == ["form"]  # the discrete branch needs no report


def test_classify_nondiscrete(capsys, tmp_path):
    ext = write_ext(tmp_path, 5, SPEC_A)
    code, out, _ = run(capsys, "classify", ext)
    assert code == 0
    data = json.loads(out)
    assert data["form"]["case"] == 4 and data["form"]["minimal"] is True


def test_classify_without_an_ok_ladder_gives_no_form(capsys, tmp_path, monkeypatch):
    """A ladder that is not ok gives no toroidal form: the report carries
    the ladder and its first failing rung, and exits 0.  Here rung 1 of
    spec-a's t = 5 certificate is made to fail."""
    from dataclasses import replace
    from jumpseq import cli
    real = cli.ladder

    def failing_ladder(ext, depth=None):
        cert = real(ext, depth)
        rungs = (cert.rungs[0], {**cert.rungs[1], "pass": False})
        return replace(cert, rungs=rungs, ok=False)

    monkeypatch.setattr(cli, "ladder", failing_ladder)
    code, out, _ = run(capsys, "classify", write_ext(tmp_path, 5, SPEC_A))
    assert code == 0
    data = json.loads(out)
    assert "form" not in data and data["failing_rung"] == 1
    assert data["ladder"]["ok"] is False and data["ladder"]["rungs"][1]["pass"] is False


def test_classify_contradiction_computes_no_minimality(capsys, tmp_path, monkeypatch):
    """A ladder that ends in a contradiction (exit 2) is the whole
    ``classify`` report, so no toroidal form, and no minimality, is
    computed for it: with ``verify_minimality`` made to raise, spec-a with
    t = 3 gives the same bytes."""
    from jumpseq import extension
    ext = write_ext(tmp_path, 3, SPEC_A)
    expected = run(capsys, "classify", ext)
    assert expected[0] == 2 and list(json.loads(expected[1])) == ["outcome"]

    def refuse(ind):
        raise AssertionError("minimality computed for a contradiction")

    monkeypatch.setattr(extension, "verify_minimality", refuse)
    assert run(capsys, "classify", ext) == expected


def test_monoidal(capsys):
    code, out, _ = run(capsys, "monoidal", SPEC_A)
    assert code == 0
    assert json.loads(out)["pass"] is True


def test_blowup(capsys):
    code, out, _ = run(capsys, "blowup", SPEC_A, "--steps", "3")
    assert code == 0
    charts = json.loads(out)["charts"]
    assert len(charts) == 4
    assert charts[3]["free"] is True and charts[3]["values"] == ["1/2", "5/6"]


def test_monoidal_charts_are_blowup_charts(capsys, tmp_path):
    """On (2,1),(1,2),(3,2) over Q with delta_1 = 1 + u, whose chain first
    walks the chunk of a pair with q = 1, each monoidal level renders the
    chart ``blowup`` reaches at the level's step (4 and 7), over the same
    factors: ``blowup``'s are a prefix of ``monoidal``'s, and the chart's
    exponent vectors index all of them."""
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "field": {"kind": "rationals"}, "pairs": [[2, 1], [1, 2], [3, 2]],
        "lambdas": ["1", "1", "1"], "mode": "nondiscrete",
        "units": [{"vars": ["u", "v"], "terms": [{"e": [0, 0], "c": "1"},
                                                 {"e": [1, 0], "c": "1"}]}, "1", "1"]}))
    code, out, _ = run(capsys, "monoidal", str(spec))
    assert code == 0
    report = json.loads(out)
    assert [lvl["step"] for lvl in report["levels"]] == [4, 7]
    for lvl in report["levels"]:
        code, out, _ = run(capsys, "blowup", str(spec), "--steps", str(lvl["step"]))
        assert code == 0
        blown = json.loads(out)
        assert lvl["chart"] == blown["charts"][-1]
        n = len(blown["factors"])
        assert report["factors"][:n] == blown["factors"]
        assert [len(e) for e in lvl["chart"]["params"]] == [n, n]


def test_monoidal_report_past_forward_map_size(capsys, tmp_path):
    """On (2,3),(1,3),(5,2),(3,2) over Q with lambda = (1,3,3,2) the report
    of all four levels is written: each chart as its steps and exponent
    vectors over the chain's nine factors (1 068 terms in all), where the
    composed forward map of level 4 has more than 10 000 terms.  Level 4's
    pass is not asserted: its residue check leaves out unit constants."""
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "field": {"kind": "rationals"}, "pairs": [[2, 3], [1, 3], [5, 2], [3, 2]],
        "lambdas": ["1", "3", "3", "2"], "units": ["1", "1", "1", "1"]}))
    code, out, err = run(capsys, "monoidal", str(spec))
    assert code == 0 and err == ""
    report = json.loads(out)
    levels = report["levels"]
    assert [lvl["level"] for lvl in levels] == [1, 2, 3, 4]
    assert [lvl["pass"] for lvl in levels[:3]] == [True] * 3
    n = len(report["factors"])
    assert n == 9 and sum(len(f["terms"]) for f in report["factors"]) == 1068
    assert all(len(e) <= n for lvl in levels for e in lvl["chart"]["params"])
    assert [len(e) for e in levels[-1]["chart"]["params"]] == [n, n]


#: spec-a over F_101 with lambdas 3 and 7, and (2,1),(1,2),(3,2) over Q and
#: F_101, whose chain first walks the chunk of a pair with q = 1
ROUND_TRIP_SPECS = {
    "a": None,
    "F101-a": {"field": {"kind": "prime", "p": 101}, "lambdas": ["3", "7"]},
    "q1": {"pairs": [[2, 1], [1, 2], [3, 2]], "lambdas": ["1", "1", "1"],
           "units": ["1", "1", "1"]},
    "F101-q1": {"field": {"kind": "prime", "p": 101}, "pairs": [[2, 1], [1, 2], [3, 2]],
                "lambdas": ["1", "1", "1"], "units": ["1", "1", "1"]},
}


def _replayed_step(fld, word):
    """A rendered step ("A", "B" or "C(<c>)") as the chart holds it."""
    if word in ("A", "B"):
        return word, None
    assert word.startswith("C(") and word.endswith(")"), word
    return "C", fld.parse(word[2:-1])


@pytest.mark.parametrize("argv, name", [
    (["blowup", "--steps", "7"], "a"), (["blowup", "--steps", "7"], "F101-a"),
    (["blowup", "--steps", "7"], "q1"), (["monoidal"], "a"), (["monoidal"], "F101-q1")],
    ids=["blowup-a", "blowup-F101-a", "blowup-q1", "monoidal-a", "monoidal-F101-q1"])
def test_rendered_chart_round_trip(capsys, tmp_path, argv, name):
    """A rendered chart still carries the whole chart: U and V rebuilt from
    the report's ``factors`` and the chart's ``params`` are inverse to the
    oracle forward map of its replayed ``steps``."""
    spec = dict(_spec_a(), **(ROUND_TRIP_SPECS[name] or {}))
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    code, out, _ = run(capsys, argv[0], str(path), *argv[1:])
    assert code == 0
    report = json.loads(out)
    fld = GroundField.from_json(spec["field"])
    factors = [BivarPoly.from_json(fld, f) for f in report["factors"]]
    charts = report.get("charts") or [lvl["chart"] for lvl in report["levels"]]
    one = BivarPoly.const(fld, 1)
    for chart in charts:
        steps = [_replayed_step(fld, w) for w in chart["steps"]]
        assert len(steps) == chart["step"]
        params = []
        for exps in chart["params"]:
            num = den = one
            for f, e in zip(factors, exps):
                if e > 0:
                    num = num * f ** e
                elif e < 0:
                    den = den * f ** -e
            params.append(RatExpr(num, den))
        assert maps_inverse(forward_map(fld, steps), params), (name, chart["step"])


def test_blowup_beyond_depth_exit_3(capsys):
    # spec-a certifies 7 steps (epsilon(3,2) + epsilon(5,3)); the 8th
    # needs the value of the next second parameter
    code, out, err = run(capsys, "blowup", SPEC_A, "--steps", "10")
    assert code == 3 and err == ""
    data = json.loads(out)
    assert data["error"] == "insufficient-depth" and data["extra_depth"] == 1


def test_blowup_depth_zero(capsys, tmp_path):
    """With no pairs the first chart's second value lies beyond the spec
    depth: it renders as null, and a step exits 3."""
    spec = tmp_path / "depth0.json"
    spec.write_text(json.dumps({"field": {"kind": "prime", "p": 101}, "pairs": [],
                                "lambdas": [], "units": []}))
    code, out, _ = run(capsys, "blowup", str(spec), "--steps", "0")
    assert code == 0 and json.loads(out)["charts"][0]["values"] == ["1", None]
    code, out, _ = run(capsys, "blowup", str(spec), "--steps", "1")
    assert code == 3 and json.loads(out)["error"] == "insufficient-depth"


def test_classify_without_independent_index_exit_64(capsys, tmp_path):
    """A nondiscrete spec whose q_i are all 1 has no pbar_1 to decide
    minimality by."""
    ext = tmp_path / "ext.json"
    ext.write_text(json.dumps({"t": 6, "spec": {
        "field": {"kind": "prime", "p": 101}, "pairs": [[4, 1]], "lambdas": ["2"],
        "units": ["1"]}}))
    code, out, err = run(capsys, "classify", str(ext))
    assert code == 64 and out == ""
    assert err.startswith("error:") and "independent index" in err


def test_monoidal_constant_past_digit_limit_renders(capsys, tmp_path):
    """Over Q this walk meets unit constants with more digits than str()
    makes (4 300 by default); they render, and all three levels are
    written."""
    spec = tmp_path / "long.json"
    spec.write_text(json.dumps({"field": {"kind": "rationals"},
                                "pairs": [[5, 4], [3, 5], [6, 1], [7, 2]],
                                "lambdas": ["-2/3", "1/3", "1", "1/3"]}))
    code, out, err = run(capsys, "monoidal", str(spec))
    assert code == 0 and err == ""
    levels = json.loads(out)["levels"]
    assert len(levels) == 3
    longest = max((h["unit_constant"] for h in levels[-1]["H_factorizations"]), key=len)
    assert len(longest) > 4300 and longest.lstrip("-").replace("/", "").isdigit()


def test_blowup_negative_steps_exit_64(capsys):
    code, out, err = run(capsys, "blowup", SPEC_A, "--steps", "-1")
    assert code == 64 and out == ""
    assert "--steps" in err


def test_usage_errors(capsys, tmp_path):
    assert run(capsys, "nosuchcommand")[0] == 64
    assert run(capsys, "genseq", str(tmp_path / "missing.json"))[0] == 64
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(capsys, "genseq", str(bad))[0] == 64


def test_oversized_json_integer_exit_64(capsys, tmp_path):
    """A JSON integer literal with more digits than the interpreter turns
    into an int (4 300) is an input error, exit 64 without a traceback: a
    spec whose "p" has 5 001 digits, and an extension whose "t" has."""
    big = "1" * 5001
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(dict(_spec_a(), field={"kind": "prime", "p": 0}))
                    .replace('"p": 0', '"p": ' + big))
    ext = tmp_path / "ext.json"
    ext.write_text(json.dumps({"t": 0, "spec": _spec_a()}).replace('"t": 0', '"t": ' + big))
    for argv in (["genseq", spec], ["monoidal", spec], ["ladder", ext], ["classify", ext]):
        code, out, err = run(capsys, argv[0], str(argv[1]))
        assert code == 64 and out == ""
        assert err.startswith("input error:") and "digits" in err


@pytest.mark.parametrize("argv", [
    ["euclid", "4", "2"],
    ["euclid", "0", "3"],
    ["monoidal", SPEC_A, "--depth", "5"],
    ["monoidal", SPEC_B],
    ["verify", SPEC_A, "--gamma-max", "abc"],
], ids=["euclid-not-coprime", "euclid-zero", "monoidal-depth-5", "monoidal-no-independent",
        "verify-gamma-max-abc"])
def test_bad_request_exit_64(capsys, argv):
    """Requests the command cannot serve exit 64 with an error message and
    no traceback."""
    code, out, err = run(capsys, *argv)
    assert code == 64 and out == ""
    assert "error:" in err and "Traceback" not in err


@pytest.mark.parametrize("cmd", ["eval", "expand"])
@pytest.mark.parametrize("terms", [
    [],
    [{"e": [0, 2], "c": "1"}, {"e": [3, 0], "c": "abc"}],
    [{"e": [0, 2], "c": "1/0"}],
    [{"e": [0, 2], "c": 1.5}],
], ids=["zero-poly", "coefficient-abc", "coefficient-1-over-0", "coefficient-float"])
def test_bad_polynomial_exit_64(capsys, tmp_path, cmd, terms):
    """The zero polynomial and a coefficient that is not an integer or
    fraction literal are usage errors, not tracebacks."""
    poly = tmp_path / "f.json"
    poly.write_text(json.dumps({"vars": ["u", "v"], "terms": terms}))
    code, out, err = run(capsys, cmd, SPEC_A, str(poly))
    assert code == 64 and out == ""
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("e", [["a", 0], [1], [-1, 0], [1.5, 0], [1, 0, 0], 3, [True, 0]],
                         ids=["letter", "one-entry", "negative", "float", "three-entries",
                              "not-a-list", "bool"])
def test_bad_exponent_exit_64(capsys, tmp_path, e):
    """An exponent that is not a pair of non-negative integers is a usage
    error: it is neither truncated nor read as a negative power."""
    poly = tmp_path / "f.json"
    poly.write_text(json.dumps({"vars": ["u", "v"], "terms": [{"e": e, "c": "1"}]}))
    code, out, err = run(capsys, "eval", SPEC_A, str(poly))
    assert code == 64 and out == ""
    assert err.startswith("error:") and "exponent" in err


@pytest.mark.parametrize("poly", [5, {"vars": ["u", "v"]}, {"terms": 5}, {"terms": [[0, 1]]}],
                         ids=["number", "no-terms", "terms-not-a-list", "term-not-an-object"])
def test_bad_polynomial_shape_exit_64(capsys, tmp_path, poly):
    path = tmp_path / "f.json"
    path.write_text(json.dumps(poly))
    code, out, err = run(capsys, "eval", SPEC_A, str(path))
    assert code == 64 and out == ""
    assert "Traceback" not in err


@pytest.mark.parametrize("field", [{"kind": "bogus"}, {"kind": "prime", "p": 6},
                                   {"kind": "prime", "p": 10.5}, "rationals",
                                   {"kind": "prime", "p": 10 ** 29 + 319},
                                   {"kind": "prime", "p": "7" * 5000}],
                         ids=["unknown-kind", "p-not-prime", "p-float", "not-an-object",
                              "p-30-digit-prime", "p-past-int-digit-limit"])
def test_bad_field_exit_64(capsys, tmp_path, field):
    with open(SPEC_A) as fh:
        spec = dict(json.load(fh), field=field)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    code, out, err = run(capsys, "genseq", str(path))
    assert code == 64 and out == ""
    assert err.startswith("error:") and "field" in err


def test_delta_breaking_monic_T_exit_64(capsys, tmp_path):
    """With delta = 1 + y the upstairs T'_2 = y^2 - x^15 (1+y)^3 is not
    monic in y, so nothing can be expanded in it: ladder and classify
    report bad input, while dual, which expands nothing, still runs."""
    delta = {"vars": ["x", "y"], "terms": [{"e": [0, 0], "c": "1"}, {"e": [0, 1], "c": "1"}]}
    ext = write_ext(tmp_path, 5, SPEC_A, delta=delta)
    for cmd in ("ladder", "classify"):
        code, out, err = run(capsys, cmd, ext)
        assert code == 64 and out == ""
        assert err.startswith("error:") and "T_2 is not monic in y" in err
    code, out, _ = run(capsys, "dual", ext)
    assert code == 0 and json.loads(out)["ok"] is True


def test_prime_field_spec_with_fraction_lambda(capsys, tmp_path):
    """An F_p spec may write a constant as "a/b"; a denominator that is
    0 mod p is a usage error."""
    spec = {"field": {"kind": "prime", "p": 101}, "pairs": [[3, 2]], "lambdas": ["1/2"]}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    code, out, _ = run(capsys, "genseq", str(path))
    assert code == 0
    # T_2 = v^2 - (1/2) u^3 = v^2 + 50 u^3 over F_101
    assert {"c": "50", "e": [3, 0]} in json.loads(out)["sequence"]["T"][2]["terms"]
    path.write_text(json.dumps(dict(spec, lambdas=["1/101"])))
    code, out, err = run(capsys, "genseq", str(path))
    assert code == 64 and out == ""
    assert "error:" in err and "Traceback" not in err


def test_text_format(capsys):
    code, out, _ = run(capsys, "euclid", "3", "2", "--format", "text")
    assert code == 0
    assert "epsilon: 3" in out


def test_out_file(capsys, tmp_path):
    target = tmp_path / "report.json"
    code, out, _ = run(capsys, "euclid", "3", "2", "--out", str(target))
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["epsilon"] == 3


def test_optimized_interpreter_same_stdout(capsys, tmp_path):
    """Every certificate check survives python -O: the CLI prints the same
    bytes with assert statements stripped."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    for argv in (["monoidal", SPEC_A], ["ladder", write_ext(tmp_path, 5, SPEC_A)]):
        code, out, _ = run(capsys, *argv)
        proc = subprocess.run([sys.executable, "-O", "-m", "jumpseq.cli", *argv],
                              capture_output=True, env=env, timeout=300)
        assert (proc.returncode, proc.stdout) == (code, out.encode()), argv


def _spec_a():
    with open(SPEC_A) as fh:
        return json.load(fh)


@pytest.mark.parametrize("ext", [
    {"t": "abc", "spec": _spec_a()},
    {"t": 5.9, "spec": _spec_a()},
    {"t": True, "spec": _spec_a()},
    {"t": "5", "spec": _spec_a()},
    {"t": 5, "spec": dict(_spec_a(), pairs=[[3, "x"], [5, 3]])},
    {"t": 5, "spec": dict(_spec_a(), pairs=[[3, 2, 1], [5, 3]])},
    {"t": 5, "spec": dict(_spec_a(), pairs=[[3.5, 2], [5, 3]])},
    {"t": 5, "spec": dict(_spec_a(), pairs=[[True, 2], [5, 3]])},
    {"t": 5, "spec": dict(_spec_a(), pairs=7)},
    [5, _spec_a()],
    {"t": 5, "spec": [3, 2]},
], ids=["t-letters", "t-float", "t-bool", "t-string", "pair-letter", "pair-three-entries",
        "pair-float", "pair-bool", "pairs-not-a-list", "ext-not-an-object",
        "spec-not-an-object"])
def test_bad_extension_integers_exit_64(capsys, tmp_path, ext):
    """t and the pair entries must be JSON integers: nothing is truncated,
    a bool is not read as 0 or 1, and a malformed value or a top level
    that is not an object is a usage error, not a traceback."""
    path = tmp_path / "ext.json"
    path.write_text(json.dumps(ext))
    for cmd in ("ladder", "dual", "classify"):
        code, out, err = run(capsys, cmd, str(path))
        assert code == 64 and out == ""
        assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("spec", [[3, 2], "spec", dict(_spec_a(), pairs=[[3, 2.0], [5, 3]])],
                         ids=["list", "string", "pair-float"])
def test_bad_spec_top_level_exit_64(capsys, tmp_path, spec):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    code, out, err = run(capsys, "genseq", str(path))
    assert code == 64 and out == ""
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("cmd,depth", [("ladder", "0"), ("ladder", "-1"), ("ladder", "3"),
                                       ("dual", "-1"), ("dual", "3")])
def test_bad_depth_exit_64(capsys, tmp_path, cmd, depth):
    """--depth outside 1..N (ladder) or 0..N (dual) is a usage error that
    names the range, not an IndexError or a mismatched-length message."""
    code, out, err = run(capsys, cmd, write_ext(tmp_path, 5, SPEC_A), "--depth", depth)
    assert code == 64 and out == ""
    assert err.startswith("error:") and "depth %s" % depth in err
    assert "equal length" not in err


@pytest.mark.parametrize("depth", [[], ["--depth", "1"]], ids=["default", "depth-1"])
def test_ladder_without_pairs_exit_64(capsys, tmp_path, depth):
    """A spec with no pairs gives the ladder no rung: the message says so
    instead of naming the empty range of depths 1 to 0."""
    path = tmp_path / "ext.json"
    path.write_text(json.dumps({"t": 3, "spec": {"field": {"kind": "rationals"}, "pairs": [],
                                                 "lambdas": [], "units": []}}))
    code, out, err = run(capsys, "ladder", str(path), *depth)
    assert code == 64 and out == ""
    assert err == "error: the ladder needs a spec with at least one pair\n"


def test_dual_depth_zero_runs(capsys, tmp_path):
    code, out, _ = run(capsys, "dual", write_ext(tmp_path, 5, SPEC_A), "--depth", "0")
    assert code == 0 and json.loads(out)["ok"] is True


@pytest.mark.parametrize("flag", ["--deg-bound", "--samples"])
def test_verify_negative_count_exit_64(capsys, flag):
    code, out, err = run(capsys, "verify", SPEC_A, flag, "-1")
    assert code == 64 and out == ""
    assert "error:" in err and flag in err


def test_verify_summary_counts_uncertified(capsys, tmp_path):
    """An uncertified record reads ``"pass": null``; it is counted in
    ``uncertified`` and does not make the summary ``pass`` false."""
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"field": {"kind": "prime", "p": 3}, "pairs": [[3, 2]],
                                "lambdas": ["1"], "units": ["1"], "mode": "nondiscrete"}))
    code, out, _ = run(capsys, "verify", str(spec), "--deg-bound", "2",
                       "--samples", "5", "--seed", "16")
    assert code == 0
    data = json.loads(out)
    assert data["pass"] is True and data["uncertified"] == 1
    assert [r["inputs"] for r in data["checks"] if r["pass"] is None] == ["sample 0"]


def test_verify_expands_nothing_no_monomial_needs(capsys, tmp_path):
    """With delta_1 = 1 + v^2, T_2 is not monic in v and any expansion is
    refused.  ``--deg-bound 0`` has no monomial, so nothing is expanded,
    not even v^0; ``--deg-bound 1`` expands v and exits 64."""
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "field": {"kind": "rationals"}, "pairs": [[3, 2], [5, 3]], "lambdas": ["1", "1"],
        "units": [{"terms": [{"e": [0, 0], "c": "1"}, {"e": [0, 2], "c": "1"}]}, "1"]}))
    code, out, _ = run(capsys, "verify", str(spec), "--deg-bound", "0")
    assert code == 0 and json.loads(out)["checks"] == []
    code, out, err = run(capsys, "verify", str(spec), "--deg-bound", "1")
    assert code == 64 and out == ""
    assert err.startswith("error: T_2 is not monic in v")


def test_duplicate_exponent_exit_64(capsys, tmp_path):
    """2v^2 - u^3 written with v^2 split over two terms is refused rather
    than read as the last term alone (v^2 - u^3)."""
    poly = tmp_path / "f.json"
    poly.write_text(json.dumps({"vars": ["u", "v"], "terms": [
        {"e": [0, 2], "c": "1"}, {"e": [0, 2], "c": "1"}, {"e": [3, 0], "c": "-1"}]}))
    for cmd in ("eval", "expand"):
        code, out, err = run(capsys, cmd, SPEC_A, str(poly))
        assert code == 64 and out == ""
        assert err.startswith("error:") and "[0, 2]" in err


@pytest.mark.parametrize("change", [
    {"lambdas": "23"},
    {"lambdas": 5},
    {"units": 5},
    {"units": "11"},
    {"lambdas": [1.5, 1]},
    {"lambdas": [True, 1]},
], ids=["lambdas-string", "lambdas-number", "units-number", "units-string",
        "lambda-float", "lambda-bool"])
def test_bad_spec_lists_exit_64(capsys, tmp_path, change):
    """lambdas and units must be lists, and a lambda is read like a
    coefficient: the string "23" is not lambda = (2, 3), the number 1.5 is
    not 3/2, and true is not 1."""
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(dict(_spec_a(), **change)))
    code, out, err = run(capsys, "genseq", str(path))
    assert code == 64 and out == ""
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("field", [{"kind": "rationals"}, {"kind": "prime", "p": 101}],
                         ids=["QQ", "F101"])
def test_bool_coefficient_exit_64(capsys, tmp_path, field):
    """A coefficient true is refused, as t, pairs and exponents refuse
    bools, rather than read v^2 - u^3 with value 23/6."""
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(dict(_spec_a(), field=field)))
    poly = tmp_path / "f.json"
    poly.write_text(json.dumps({"vars": ["u", "v"], "terms": [
        {"e": [0, 2], "c": True}, {"e": [3, 0], "c": "-1"}]}))
    code, out, err = run(capsys, "eval", str(spec), str(poly))
    assert code == 64 and out == ""
    assert err.startswith("error:") and "True" in err


def test_parser_reused_across_requests(capsys, tmp_path):
    """Requests in one process print the same bytes as each request in a
    fresh process: the parser kept between calls carries no state from a
    request with a non-default option or from one that exits 64."""
    ext = write_ext(tmp_path, 5, SPEC_A)
    requests = [["ladder", ext, "--depth", "1"], ["ladder", ext],
                ["monoidal", SPEC_A, "--depth", "5"], ["monoidal", SPEC_A]]
    in_process = [run(capsys, *argv)[:2] for argv in requests]
    assert [code for code, _ in in_process] == [0, 0, 64, 0]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    for argv, (code, out) in zip(requests, in_process):
        proc = subprocess.run([sys.executable, "-m", "jumpseq.cli", *argv],
                              capture_output=True, env=env, timeout=300)
        assert (proc.returncode, proc.stdout) == (code, out.encode()), argv


@pytest.mark.parametrize("names", [5, "uv", ["x", "y"], ["v", "u"], ["u", "u"], ["u", "v", "w"],
                                   [1, 2]],
                         ids=["number", "string", "other-names", "swapped", "repeated",
                              "three-names", "not-strings"])
def test_bad_polynomial_vars_exit_64(capsys, tmp_path, names):
    """A polynomial's ``"vars"`` must be the list of the command's
    variables: anything else is a usage error, neither a traceback nor
    read letter by letter as (u, v)."""
    poly = tmp_path / "f.json"
    poly.write_text(json.dumps({"vars": names, "terms": [
        {"e": [0, 2], "c": "1"}, {"e": [3, 0], "c": "-1"}]}))
    code, out, err = run(capsys, "eval", SPEC_A, str(poly))
    assert code == 64 and out == ""
    assert err.startswith("error:") and "variables" in err


def test_delta_in_wrong_vars_exit_64(capsys, tmp_path):
    """An upstairs unit delta must be written in (x, y)."""
    delta = {"vars": ["u", "v"], "terms": [{"e": [0, 0], "c": "1"}, {"e": [1, 0], "c": "1"}]}
    code, out, err = run(capsys, "ladder", write_ext(tmp_path, 5, SPEC_A, delta))
    assert code == 64 and out == ""
    assert err.startswith("error:") and "variables" in err


def test_classify_builds_the_downstairs_sequence_once(capsys, tmp_path, monkeypatch):
    """``classify`` reads pbar_1 from the downstairs sequence the ladder
    walked: two sequences are built (downstairs and upstairs), not three."""
    from jumpseq import cli, engine, extension
    calls = []
    build = engine.build_jumping_sequence

    def counted(*args, **kwargs):
        calls.append(args)
        return build(*args, **kwargs)

    for module in (cli, extension):
        monkeypatch.setattr(module, "build_jumping_sequence", counted)
    code, out, _ = run(capsys, "classify", write_ext(tmp_path, 5, SPEC_A))
    assert code == 0 and json.loads(out)["form"]["minimal"] is True
    assert len(calls) == 2


#: The command-line surface: per subcommand, in order, its help string and
#: each action's (option strings, dest, type, default, choices, help); every
#: subcommand ends in the three common options.
_HELP_ACTION = ((("-h", "--help"), "help", None, "==SUPPRESS==", None,
                 "show this help message and exit"),)
_COMMON_OPTIONS = ((("--format",), "format", None, "json", ("json", "text"), None),
                   (("--out",), "out", None, None, None, "write the report to a file"),
                   (("--seed",), "seed", "int", 0, None, None))
_SPEC = (((), "spec", None, None, None, None),)
_EXT = (((), "ext", None, None, None, None),)
_POLY = (((), "poly", None, None, None, None),)
_DEPTH = ((("--depth",), "depth", "int", None, None, None),)
CLI_SURFACE = [
    ("genseq", "build a jumping-polynomial sequence", _SPEC),
    ("eval", "value of a polynomial", _SPEC + _POLY),
    ("expand", "standard-form expansion of a polynomial", _SPEC + _POLY),
    ("euclid", "Euclidean chain data and Bezout pair",
     (((), "p", "int", None, None, None), ((), "q", "int", None, None, None))),
    ("blowup", "iterate single quadratic transforms",
     _SPEC + ((("--steps",), "steps", "_nonnegative_int", 1, None, None),)),
    ("monoidal", "chunk-boundary monomial certificates", _SPEC + _DEPTH),
    ("dual", "dual jumping sequences of an extension", _EXT + _DEPTH),
    ("ladder", "stable-form ladder certificate", _EXT + _DEPTH),
    ("verify", "generating-sequence verification battery",
     _SPEC + ((("--gamma-max",), "gamma_max", "_fraction", "5", None, None),
              (("--deg-bound",), "deg_bound", "_nonnegative_int", 8, None, None),
              (("--samples",), "samples", "_nonnegative_int", 0, None, None))),
    ("classify", "toroidal-form classification", _EXT),
]


def test_cli_surface_is_pinned():
    """The parser offers the same subcommands, in the same order, each with
    the same help and the same arguments, read off ``_build_parser()``
    rather than off ``--help`` text, which varies with the terminal width
    and the Python version."""
    parser = _build_parser()
    sub, = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert sub.dest == "command" and sub.required
    found = []
    for choice in sub._choices_actions:
        actions = tuple((tuple(a.option_strings), a.dest, getattr(a.type, "__name__", a.type),
                         a.default, tuple(a.choices) if a.choices else None, a.help)
                        for a in sub.choices[choice.dest]._actions)
        found.append((choice.dest, choice.help, actions))
    assert found == [(name, help, _HELP_ACTION + args + _COMMON_OPTIONS)
                     for name, help, args in CLI_SURFACE]
