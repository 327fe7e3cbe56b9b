"""Guards for the tooling around the library.

The benchmark's tracer (``perfbench/spans.py``) wraps library functions by
name, so deleting or renaming one of them breaks ``--trace 1``; and every
certificate check must survive ``python -O``, which strips ``assert``.
"""

import ast
import pathlib
import sys

import jumpseq
import jumpseq.poly

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
