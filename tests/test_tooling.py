"""Guards for the tooling around the library.

The benchmark's tracer (``perfbench/spans.py``) wraps library functions by
name, so deleting or renaming one of them breaks ``--trace 1``; every
certificate check must survive ``python -O``, which strips ``assert``; and
the blow-up chain keeps its cost model: a pull-back never substitutes, a
monoidal sequence starts at (u, v) and substitutes nowhere (also across a
chunk of a pair with q = 1), a rendered chart is its steps and exponent
vectors, never a composed forward map, no certificate forms a
backward rational expression or asks the engine for a residue or a
value, and a chain expands only its closing factors.
``verify`` expands each power of v once, not each monomial, and writes
each polynomial's witness once, so its report stays small; ``expand``
never divides by T_1 = v, scatters f into v-degree rows once and
divides no digit by a T_j above its v-degree, and its round trip, like
``subs``, multiplies at most once per digit it folds back.  The
polynomial kernel has one loop per ring operation, on integer forms, and
``engine`` takes no integer form apart; a
polynomial is its integer form, and no computation reads the
``Fraction``/``Fp`` view of its terms, which is made for output; nor of
an expansion's terms, since an expansion is its integer form too.  Reports
are encoded by ``cli._dumps``, never by the stdlib's pure-Python indent
encoder, and ``scripts/code_lines.py`` counts no blank, comment or
docstring line.
"""

import ast
import contextlib
import io
import json
import pathlib
import sys
from dataclasses import replace
from fractions import Fraction

import jumpseq
import jumpseq.poly
from jumpseq import blowup, cli, engine, extension
from jumpseq.engine import build_jumping_sequence, extract_independent

from conftest import make_spec
import code_lines  # conftest puts scripts/ on the path
import run_battery

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
import spans  # noqa: E402


def test_span_targets_resolve():
    missing = [name for name, (owner, attr) in spans.SPAN_TARGETS.items()
               if attr not in vars(owner)]
    assert missing == []


def test_tracer_installs_and_restores():
    originals = {name: vars(owner)[attr] for name, (owner, attr) in spans.SPAN_TARGETS.items()}
    tracer = spans.Tracer()
    with tracer.installed():
        assert jumpseq.poly.exact_divide is not originals["poly.exact_divide"]
        f = jumpseq.BivarPoly.gens(jumpseq.QQ)[1] ** 2
        assert jumpseq.poly.exact_divide(f, f) == jumpseq.BivarPoly.const(jumpseq.QQ, 1)
    assert {name: vars(owner)[attr] for name, (owner, attr)
            in spans.SPAN_TARGETS.items()} == originals
    assert any(span[1] == "poly.exact_divide" for span in tracer.spans)


def test_library_has_no_assert():
    found = []
    for path in sorted((ROOT / "src" / "jumpseq").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert):
                found.append("%s:%d" % (path.relative_to(ROOT), node.lineno))
    assert found == []


def test_ring_operations_run_on_integer_forms(monkeypatch):
    """A 1x1 product, a sum, a difference, a power and ``scale`` each go
    through their integer helper in ``jumpseq.poly``, over Q and F_101."""
    calls = []
    for name in ("_iadd", "_imul", "_ipow", "_iscale"):
        helper = getattr(jumpseq.poly, name)
        monkeypatch.setattr(jumpseq.poly, name,
                            lambda *a, _name=name, _helper=helper: calls.append(_name) or _helper(*a))
    for fld in (jumpseq.QQ, jumpseq.prime_field(101)):
        u, v = jumpseq.BivarPoly.gens(fld)
        for op, helper in ((lambda: u * v, "_imul"), (lambda: u + v, "_iadd"),
                           (lambda: u - v, "_iadd"), (lambda: (u + v) ** 3, "_ipow"),
                           (lambda: v.scale(2), "_iscale")):
            calls.clear()
            op()
            assert helper in calls, (fld, helper, calls)


def test_resubstitute_runs_on_integer_forms(js_a, monkeypatch):
    """``TExpansion.resubstitute`` multiplies no polynomials, constructs
    none from terms, and wraps exactly one integer form, its result."""
    u, v = jumpseq.BivarPoly.gens(jumpseq.QQ)
    f = (u + v) ** 5 + js_a.T[2] * js_a.T[3] * u
    exp = engine.expand(f, js_a)
    calls = []
    for name in ("__init__", "__mul__", "__pow__"):
        method = getattr(jumpseq.BivarPoly, name)
        monkeypatch.setattr(jumpseq.BivarPoly, name,
                            lambda *a, _name=name, _method=method: calls.append(_name) or _method(*a))
    wrap = engine._wrap
    monkeypatch.setattr(engine, "_wrap", lambda *a: calls.append("_wrap") or wrap(*a))
    out = exp.resubstitute()
    assert calls == ["_wrap"]
    assert out == f


def test_resubstitute_multiplies_once_per_digit(js_a, monkeypatch):
    """``TExpansion.resubstitute`` folds the digits of each level back by
    Horner in T_j: u and v are exponents only, and each present (level,
    digit), a distinct (a_j, ..., a_M) with j >= 2, costs at most one
    product, however many terms share it."""
    u, v = jumpseq.BivarPoly.gens(jumpseq.QQ)
    f = ((u + v + 1) ** 6 + u ** 2) * (js_a.T[2] + u) * js_a.T[3] ** 2
    exp = engine.expand(f, js_a)
    digits = {(j, exps[j:]) for _, exps in exp.terms for j in range(2, exp.M + 1)}
    assert len(exp.terms) > 4 * len(digits)
    products = []
    imul = jumpseq.poly._imul
    monkeypatch.setattr(jumpseq.poly, "_imul", lambda *a: products.append(1) or imul(*a))
    assert exp.resubstitute() == f
    assert 0 < len(products) <= len(digits)


def test_subs_multiplies_once_per_digit(monkeypatch):
    """``BivarPoly.subs`` is the same fold: each term c * u^a v^b is the
    digit (a, b) of the first level, Horner in the first argument along
    its v-degree row, and each v-degree b the digit of the second level,
    Horner in the second argument, so each present (level, digit) costs at
    most one product.  Over Q and F_101, pulled up through (x^3 * (1 + x), y)."""
    for fld in (jumpseq.QQ, jumpseq.prime_field(101)):
        u, v = jumpseq.BivarPoly.gens(fld)
        x, y = jumpseq.BivarPoly.gens(fld, ("x", "y"))
        f = (u + v + 1) ** 6 - u * v.scale(2)
        digits = len(f.form[0]) + len({b for _, b in f.form[0]})
        first = x ** 3 * (1 + x)
        expected = sum(c * first ** a * y ** b for (a, b), c in f.terms.items())
        products = []
        imul = jumpseq.poly._imul
        monkeypatch.setattr(jumpseq.poly, "_imul", lambda *a: products.append(1) or imul(*a))
        assert f.subs(first, y) == expected
        monkeypatch.undo()
        assert 0 < len(products) <= digits, (len(products), digits)


def test_engine_takes_no_form_apart():
    """Only ``jumpseq.poly`` reads an integer form: ``engine.py`` hands a
    polynomial's ``.form`` to a ``poly`` form operation as an argument,
    and never indexes, unpacks, compares or iterates one, nor imports the
    helpers that build or read one term by term."""
    path = ROOT / "src" / "jumpseq" / "engine.py"
    tree = ast.parse(path.read_text(), str(path))
    parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
    taken_apart = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "form":
            parent = parents[node]
            while isinstance(parent, (ast.List, ast.Tuple, ast.ListComp)):
                parent = parents[parent]
            if not (isinstance(parent, ast.Call) and node is not parent.func):
                taken_apart.append(node.lineno)
    assert taken_apart == []
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                for alias in node.names}
    assert imported.isdisjoint({"_check_size", "_reduce", "_element"})


def test_build_runs_on_integer_forms(monkeypatch):
    """``build_jumping_sequence`` over Q and F_101, with lambda != 1 and a
    unit in u, multiplies, raises to a power, adds, scales and constructs
    no polynomial: it wraps one integer form per T_i (T_0 and T_1 are the
    generators) and leaves ``T_rows`` to the first expansion."""
    specs = []
    for fld in (jumpseq.QQ, jumpseq.prime_field(101)):
        u, _ = jumpseq.BivarPoly.gens(fld)
        spec = make_spec(fld, [(3, 2), (4, 1), (5, 3), (2, 3)], lambdas=[fld(2)] * 4)
        specs.append(replace(spec, units=spec.units[:2] + (u + 1,) + spec.units[3:]))
    calls = []
    for name in ("__init__", "__mul__", "__pow__", "__add__", "scale"):
        method = getattr(jumpseq.BivarPoly, name)
        monkeypatch.setattr(jumpseq.BivarPoly, name,
                            lambda *a, _name=name, _method=method: calls.append(_name) or _method(*a))
    wrap = engine._wrap
    monkeypatch.setattr(engine, "_wrap", lambda *a: calls.append("_wrap") or wrap(*a))
    for spec in specs:
        calls.clear()
        js = build_jumping_sequence(spec)
        assert calls == ["_wrap"] * len(js.T)
        assert "T_rows" not in vars(js)
        assert js.T_rows


def test_computations_make_no_terms_view(spec_a, monkeypatch):
    """A polynomial is its integer form, and ``BivarPoly.terms`` is a view
    made for output: over Q and F_101, with lambda = 2, a unit 1 + u/2 and
    operands with denominators, no tower build, ring operation, ``subs``,
    ``divmod_in_v``, ``exact_divide``, ``expand`` or ``resubstitute``
    reads it, nor a ``monoidal_sequence`` or a ``ladder`` (t = 5,
    delta = 1 + x) on spec-a, nor ``to_json`` or ``str``, which render from
    the form."""
    reads = []
    view = jumpseq.BivarPoly.terms
    monkeypatch.setattr(jumpseq.BivarPoly, "terms",
                        property(lambda f: reads.append(f) or view.fget(f)))
    for fld in (jumpseq.QQ, jumpseq.prime_field(101)):
        u, v = jumpseq.BivarPoly.gens(fld)
        half = jumpseq.BivarPoly.const(fld, jumpseq.QQ("1/2") if fld is jumpseq.QQ else 51)
        spec = make_spec(fld, [(3, 2), (4, 1), (5, 3), (2, 3)], lambdas=[fld(2)] * 4)
        spec = replace(spec, units=spec.units[:2] + (1 + half * u,) + spec.units[3:])
        js = build_jumping_sequence(spec)
        f = half * (u + v) ** 3 - u * v + (-v).scale(3) + 1
        q, r = jumpseq.divmod_in_v(f * js.T[2] + u, js.T[2])
        assert (q, r) == (f, u)
        assert jumpseq.exact_divide(f * js.T[3], js.T[3]) == f
        assert f.subs(u + half, v * u) != f
        assert engine.expand(f * js.T[4], js).resubstitute() == f * js.T[4]
    js = build_jumping_sequence(spec_a)
    ind = extract_independent(js)
    assert all(r["pass"] for r in blowup.monoidal_sequence(js, ind, ind.levels))
    x, _ = jumpseq.BivarPoly.gens(jumpseq.QQ, ("x", "y"))
    assert extension.ladder(jumpseq.MonomialExtension(5, x + 1, spec_a)).ok
    assert [t["c"] for t in f.to_json()["terms"]] == ["1", "98", "51", "100", "52", "52", "51"]
    assert str(f) == "51*u^3 + 52*u^2*v + 52*u*v^2 + 100*u*v + 51*v^3 + 98*v + 1"
    assert reads == []
    assert len(f.terms) == 7 and reads == [f]


def test_computations_make_no_expansion_view(spec_a, monkeypatch):
    """An expansion is its integer form, and ``TExpansion.terms`` is a view
    made for outside callers: over Q and F_101, on spec-a's pairs, no
    ``expand``, ``value``, ``initial_form``, ``residue``,
    ``resubstitute``, ``to_json`` or ``verify_generating_sequence``
    reads it, nor a ``monoidal_sequence`` or a ``ladder`` (t = 5,
    delta = 1 + x)."""
    reads = []
    view = vars(engine.TExpansion).get("terms")
    made = view.func if view else (lambda e: vars(e)["terms"])  # a view, or stored terms
    monkeypatch.setattr(engine.TExpansion, "terms",
                        property(lambda e: reads.append(e) or made(e)), raising=False)
    for fld in (jumpseq.QQ, jumpseq.prime_field(101)):
        js = build_jumping_sequence(make_spec(fld, spec_a.pairs))
        u, v = jumpseq.BivarPoly.gens(fld)
        f = (u + v + 1) ** 4 * js.T[2] + u * v
        exp = engine.expand(f, js)
        assert exp.resubstitute() == f
        assert exp.to_json()["terms"]
        assert engine.value(js.T[2], js) == js.beta[2]
        assert Fraction(engine.initial_form(f, js)[0], js.Q[-1]) == engine.value(f, js)
        assert engine.residue(v ** 2, u ** 3, js) == fld(1)
        assert engine.verify_generating_sequence(js, Fraction(4), 3, samples=2)
        ind = extract_independent(js)
        assert all(r["pass"] for r in blowup.monoidal_sequence(js, ind, ind.levels))
        x, _ = jumpseq.BivarPoly.gens(fld, ("x", "y"))
        assert extension.ladder(jumpseq.MonomialExtension(5, x + 1, js.spec)).ok
    assert reads == []
    assert exp.terms and reads == [exp]


def test_chain_walk_never_substitutes(js_a, monkeypatch):
    """Along spec-a's chain neither a step nor the strict transforms of
    T_1 and T_2 at each chart call ``BivarPoly.subs``: A and B relabel
    exponents, and C expands (Y + c)^b in place."""
    calls = []
    subs = jumpseq.BivarPoly.subs
    monkeypatch.setattr(jumpseq.BivarPoly, "subs", lambda *a: calls.append(a) or subs(*a))
    chart = blowup.initial_chart(js_a)
    kinds = []
    while chart.values[1] is not None:
        chart = blowup.single_quadratic_transform(chart)
        kinds.append(chart.step[0])
        for f in js_a.T[1:3]:
            blowup.strict_transform(f, chart)
    assert kinds == ["A", "B", "C", "A", "B", "A", "C"]
    assert calls == []


def test_monoidal_never_substitutes(monkeypatch):
    """``monoidal_sequence`` on (2,1),(1,2),(3,2), with delta = 1 and with
    delta_1 = 1 + u, calls ``BivarPoly.subs`` nowhere: its chain starts at
    (u, v), not at (u, H_1) through a correction map."""
    calls = []
    subs = jumpseq.BivarPoly.subs
    monkeypatch.setattr(jumpseq.BivarPoly, "subs", lambda *a: calls.append(a) or subs(*a))
    u, _ = jumpseq.BivarPoly.gens(jumpseq.QQ)
    spec = make_spec(jumpseq.QQ, [(2, 1), (1, 2), (3, 2)])
    for units in (spec.units, (u + 1,) + spec.units[1:]):
        js = build_jumping_sequence(replace(spec, units=units))
        ind = extract_independent(js)
        assert all(r["pass"] for r in blowup.monoidal_sequence(js, ind, ind.levels))
    assert calls == []


def test_certificates_never_form_backward_expressions(spec_a, monkeypatch):
    """``monoidal_sequence`` and ``ladder`` take every residue from initial
    forms and every value from the values of the chain's factors: with
    ``engine.residue`` (under every name the library binds it to) and
    every ``RatExpr`` operation raising, spec-a and the tower (3,2),(4,1),
    (5,3) still certify, the ladders with t = 5 and delta = 1 + x."""
    def refuse(*args, **kwargs):
        raise AssertionError("backward expression or engine residue used")

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "jumpseq":
            for attr, val in list(vars(module).items()):
                if val is engine.residue:
                    monkeypatch.setattr(module, attr, refuse)
    for attr in ("__init__", "__add__", "__mul__", "__truediv__", "__pow__", "sub_scalar"):
        monkeypatch.setattr(jumpseq.poly.RatExpr, attr, refuse)
    x, _ = jumpseq.BivarPoly.gens(jumpseq.QQ, ("x", "y"))
    delta = jumpseq.BivarPoly.const(jumpseq.QQ, 1, ("x", "y")) + x
    for spec in (spec_a, make_spec(jumpseq.QQ, [(3, 2), (4, 1), (5, 3)])):
        js = build_jumping_sequence(spec)
        ind = extract_independent(js)
        assert all(r["pass"] for r in blowup.monoidal_sequence(js, ind, ind.levels))
        assert extension.ladder(jumpseq.MonomialExtension(5, delta, spec)).ok


def test_chains_expand_only_closing_factors(monkeypatch):
    """A chain reads the initial forms of T_0 and T_1 off its sequence, and
    a certificate takes beta_j as the value of the sequence element T_j
    it transforms, so ``monoidal_sequence`` and ``ladder`` (t = 5,
    delta = 1 + x) call ``engine.expand`` once per closing factor of the
    chains they walk, on that factor, and ``engine.value`` never: on
    spec-a's pairs and the tower (3,2),(4,1),(5,3), over Q and F_101 with
    lambda = 2, 3, 2."""
    expanded = []
    expand = engine.expand
    monkeypatch.setattr(engine, "expand", lambda f, js: expanded.append(f) or expand(f, js))

    def refuse(*args):
        raise AssertionError("engine value asked")

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "jumpseq":
            for attr, val in list(vars(module).items()):
                if val is engine.value:
                    monkeypatch.setattr(module, attr, refuse)

    def closing_factors(js, steps):
        chart = blowup.initial_chart(js)
        while chart.step_index < steps:
            chart = blowup.single_quadratic_transform(chart)
        return [f.poly for f in chart.factors[2:]]

    for fld in (jumpseq.QQ, jumpseq.prime_field(101)):
        x, _ = jumpseq.BivarPoly.gens(fld, ("x", "y"))
        for pairs in ([(3, 2), (5, 3)], [(3, 2), (4, 1), (5, 3)]):
            spec = make_spec(fld, pairs, lambdas=[fld(c) for c in (2, 3, 2)[:len(pairs)]])
            js = build_jumping_sequence(spec)
            ind = extract_independent(js)
            expanded.clear()
            chart = blowup.monoidal_sequence(js, ind, ind.levels)[-1]["chart"]
            assert len(expanded) == len(chart.factors) - 2 > 0
            assert all(f is g.poly for f, g in zip(expanded, chart.factors[2:]))
            ext = jumpseq.MonomialExtension(5, x + 1, spec)
            expanded.clear()
            last = extension.ladder(ext).rungs[-1]
            walked = expanded[:]
            factors = (closing_factors(js, last["step_R"])
                       + closing_factors(extension.build_dual_sequences(ext).up, last["step_S"]))
            assert len(walked) == len(factors) > 0
            assert sorted(map(str, walked)) == sorted(map(str, factors))


def test_rendering_composes_no_forward_map(monkeypatch):
    """``blowup --steps 7`` renders every chart without a single step
    composition or substitution: a chart is written as its step word and
    its exponent vectors over the chain's factors."""
    calls = []
    translate, subs = jumpseq.poly._translate, jumpseq.BivarPoly.subs
    assert blowup._translate is translate  # the name the chain looks up
    monkeypatch.setattr(blowup, "_translate",
                        lambda *a: calls.append("_translate") or translate(*a))
    monkeypatch.setattr(jumpseq.BivarPoly, "subs", lambda *a: calls.append("subs") or subs(*a))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["blowup", str(ROOT / "specs" / "spec-a.json"), "--steps", "7"]) == 0
    assert json.loads(out.getvalue())["charts"][-1]["steps"] == ["A", "B", "C(1)", "A", "B",
                                                                 "A", "C(1)"]
    assert calls == []


def test_verify_report_emits_each_witness_once():
    """``verify`` writes one record per polynomial, so spec-b's report
    (44 polynomials) stays small; with one record per gamma it had 203
    records and 391 997 bytes."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["verify", str(ROOT / "specs" / "spec-b.json")]) == 0
    checks = json.loads(out.getvalue())["checks"]
    assert len(checks) == len({r["inputs"] for r in checks}) == 44
    assert len(out.getvalue().encode()) < 100_000


def test_verify_expands_each_v_power_once(monkeypatch):
    """A monomial record costs no expansion of its own: ``verify`` on
    spec-a expands v^1 .. v^8 and v^0 once each, in the order the
    monomials first need them, then each sample."""
    expanded = []
    expand = engine.expand
    monkeypatch.setattr(engine, "expand", lambda f, js: expanded.append(f) or expand(f, js))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["verify", str(ROOT / "specs" / "spec-a.json"), "--samples", "3"]) == 0
    assert [f.to_json()["terms"] for f in expanded[:9]] == [
        [{"c": "1", "e": [0, b]}] for b in (*range(1, 9), 0)]
    assert len(expanded) == 9 + 3


def test_expand_never_divides_by_v(js_a, monkeypatch):
    """``expand`` reads level 1 off the v-degree rows of each level-2
    digit: on spec-a, (u + v + 1)^8 runs the division loop only by T_2 and
    T_3 (v-degrees 2 and 6), never by T_1 = v."""
    degrees = []
    divide = jumpseq.poly._idivisions_v
    monkeypatch.setattr(jumpseq.poly, "_idivisions_v",
                        lambda rows, den, g, p: degrees.append(g[0]) or divide(rows, den, g, p))
    u, v = jumpseq.BivarPoly.gens(jumpseq.QQ)
    engine.expand((u + v + 1) ** 8, js_a)
    assert degrees and set(degrees) == {2, 6}


def test_expand_scatters_its_dividend_once(js_a, monkeypatch):
    """An expansion stays in v-degree rows: one ``expand`` call scatters
    the terms of f into rows once, however many levels and digits it
    divides, and hands every digit on as rows."""
    scattered = []
    scatter = jumpseq.poly._scatter
    monkeypatch.setattr(jumpseq.poly, "_scatter", lambda terms: scattered.append(1) or scatter(terms))
    u, v = jumpseq.BivarPoly.gens(jumpseq.QQ)
    assert len(engine.expand((u + v + 1) ** 8, js_a).terms) > 9
    assert len(scattered) == 1


def test_expand_skips_a_level_above_a_digit(js_a, monkeypatch):
    """A digit whose top row lies below deg_v(T_j) is its own only T_j-adic
    digit, so it skips level j with no division: on spec-a, T_3 + u*v
    divides once, by T_3 (v-degree 6), and its digits u*v and 1, of
    v-degree below 2, never meet T_2."""
    degrees = []
    divide = jumpseq.poly._idivisions_v
    monkeypatch.setattr(jumpseq.poly, "_idivisions_v",
                        lambda rows, den, g, p: degrees.append(g[0]) or divide(rows, den, g, p))
    u, v = jumpseq.BivarPoly.gens(jumpseq.QQ)
    exp = engine.expand(js_a.T[3] + u * v, js_a)
    assert [e for _, e in exp.terms] == [(0, 0, 0, 1), (1, 1, 0, 0)]
    assert degrees == [6]


def test_reports_skip_the_stdlib_indent_encoder(monkeypatch, tmp_path):
    """Reports go through ``cli._dumps``: with ``indent`` the stdlib turns
    its C encoder off for the generator-based ``_make_iterencode``, which
    no container of a CLI report, exit-3 error report or battery report
    may reach.  Only a value no report encoder writes itself goes to the
    stdlib: here the battery's float timings.  No module names the former
    ``default`` hook, and only the encoder's hand-over to the stdlib asks
    ``json`` to indent."""
    calls, handed = [], []
    make, dumps = json.encoder._make_iterencode, json.dumps
    monkeypatch.setattr(json.encoder, "_make_iterencode",
                        lambda *a, **k: calls.append(a) or make(*a, **k))
    monkeypatch.setattr(json, "dumps", lambda obj, **k: (
        handed.append(obj) if k.get("indent") else None) or dumps(obj, **k))
    json.dumps([1], indent=2)
    assert calls and handed == [[1]], "the spies do not see the stdlib's indent encoder"
    calls.clear()
    handed.clear()
    spec_a = ROOT / "specs" / "spec-a.json"
    t3 = tmp_path / "t3.json"  # T_3 of spec-a: no certified value at depth 2
    t3.write_text(json.dumps(build_jumping_sequence(make_spec(jumpseq.QQ, [(3, 2), (5, 3)]))
                             .T[3].to_json()))
    for argv, code in ((["verify", spec_a, "--samples", "3"], 0), (["monoidal", spec_a], 0),
                       (["eval", spec_a, t3], 3)):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main([str(a) for a in argv]) == code
        json.loads(out.getvalue())
    report = tmp_path / "battery.json"
    with contextlib.redirect_stdout(io.StringIO()):
        assert run_battery.main(["--random-specs", "0", "--polys-per-spec", "2",
                                 "--out", str(report)]) == 0
    assert json.loads(report.read_text())["seed"] == 0
    assert handed and {type(obj) for obj in handed} == {float}
    assert len(calls) == len(handed)
    indented = []
    for path in sorted((ROOT / "src" / "jumpseq").rglob("*.py")) + sorted(
            (ROOT / "scripts").glob("*.py")):
        source = path.read_text()
        assert "_json_default" not in source, path
        for node in ast.walk(ast.parse(source, str(path))):
            if isinstance(node, ast.Call) and getattr(node.func, "attr", None) in ("dump", "dumps"):
                if "indent" in {k.arg for k in node.keywords}:
                    indented.append(path.name)
    assert indented == ["cli.py"]


CODE_LINES_FIXTURE = '''"""A module docstring
over two lines."""

import os  # a trailing comment counts as code

# a comment line


class Box:
    """A class docstring."""

    size = (1,
            2)

    def area(self):
        """A one-line function docstring."""
        text = """a string that is
        not a docstring"""
        return os.sep + text  # counted
'''


def test_code_lines_counts_code_only(tmp_path):
    """``scripts/code_lines.py`` counts the non-blank lines outside
    comments and docstrings: on the fixture the import, the class line,
    both lines of the tuple, the def, both lines of the plain string and
    the return."""
    assert code_lines.code_lines(CODE_LINES_FIXTURE) == 8
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text(CODE_LINES_FIXTURE)
    (tmp_path / "b.py").write_text("x = 1\n\n# done\n")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert code_lines.main([str(tmp_path)]) == 0
    assert out.getvalue().split("\n") == ["    1 b.py", "    8 pkg/a.py", "    9 total", ""]
