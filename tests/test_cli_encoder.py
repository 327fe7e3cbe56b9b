"""The CLI's report encoder against the stdlib.

``cli._dumps`` must write exactly the bytes of ``json.dumps(obj,
sort_keys=True, indent=2, default=stdlib_default)``, where
``stdlib_default`` is the ``default`` hook the CLI passed to the stdlib
before it had its own encoder.  Hypothesis builds trees of every kind of
leaf a report can hold, and every report behind the golden transcript is
compared as well."""

import collections
import contextlib
import enum
import io
import json
import pathlib
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import test_cli_golden
from jumpseq import cli
from jumpseq.blowup import initial_chart, single_quadratic_transform
from jumpseq.engine import build_jumping_sequence, extract_independent
from jumpseq.extension import MonomialExtension, ladder
from jumpseq.fields import QQ, Fp, prime_field
from jumpseq.poly import BivarPoly

from conftest import make_spec


def stdlib_default(obj):
    """The oracle's ``default``: a field element as its string, a library
    object as its ``to_json()``; anything else raises TypeError."""
    if isinstance(obj, (Fraction, Fp)):
        return str(obj)
    if hasattr(obj, "to_json"):
        return obj.to_json()
    raise TypeError("Object of type %s is not JSON serializable" % type(obj).__name__)


def stdlib(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2, default=stdlib_default)


def _library_objects():
    spec = make_spec(QQ, [(3, 2), (5, 3)])
    js = build_jumping_sequence(spec)
    u, v = BivarPoly.gens(prime_field(5))
    chart = initial_chart(js)
    x, _ = BivarPoly.gens(QQ, ("x", "y"))
    ext = MonomialExtension(5, 1 + x, spec)
    return [QQ, prime_field(101), spec, js.T[2], u * v - 3, extract_independent(js),
            chart, single_quadratic_transform(chart), ext, ladder(ext)]


LIBRARY = _library_objects()
#: characters the string encoder escapes, and some it passes through
SPECIAL = '"\\/\b\f\n\r\t\x00\x1f\x7f\x80é €\U0001f600 aZ'

leaves = st.one_of(
    st.text(st.sampled_from(SPECIAL) | st.characters(), max_size=8),
    st.integers(-10 ** 6, 10 ** 6) | st.integers(-10 ** 40, 10 ** 40),
    st.booleans(), st.none(),
    st.floats(allow_nan=False, allow_infinity=False),
    st.fractions(max_denominator=10 ** 12),
    st.builds(Fp, st.integers(-10 ** 6, 10 ** 6), st.sampled_from([2, 5, 101])),
    st.sampled_from(LIBRARY),
)


def _containers(children):
    return st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.text(st.sampled_from(SPECIAL), max_size=4), children, max_size=4),
        st.dictionaries(st.integers(-10 ** 30, 10 ** 30), children, max_size=4),
    )


trees = st.recursive(leaves, _containers, max_leaves=25)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(trees)
def test_encoder_matches_stdlib_on_random_trees(tree):
    assert cli._dumps(tree) == stdlib(tree)


class Small(enum.IntEnum):
    TWO = 2


class Count(int):
    pass


class Ratio(Fraction):
    pass


def test_encoder_matches_stdlib_on_edge_values():
    Pair = collections.namedtuple("Pair", "a b")
    for obj in ([], {}, [[]], {"a": {}}, (), float("nan"), [float("inf"), -float("inf")],
                -0.0, 1e300, {None: 1}, {True: 1}, {False: [1]}, {2.5: "x"}, {-7: None},
                {Small.TWO: Small.TWO}, collections.OrderedDict(b=1, a=2), Pair(1, [2]),
                type("S", (str,), {})("sub\n"), [Fraction(-3, 7), Fp(8, 5)], 10 ** 200,
                # lists of ints are one join only when every entry is exactly an int
                [0], (4, -1, 10 ** 30), [1, True, 2], [True, 1], [3, Small.TWO],
                [Count(4), 5], [5, Count(4)], [1, "a", None], [Ratio(1, 3), 2]):
        assert cli._dumps(obj) == stdlib(obj), obj


@pytest.mark.parametrize("obj", [object(), {1, 2}, 1j, b"x", [1, {"a": [object()]}],
                                 {"k": frozenset()}])
def test_unsupported_leaf_raises_type_error(obj):
    with pytest.raises(TypeError) as expected:
        stdlib(obj)
    with pytest.raises(TypeError) as got:
        cli._dumps(obj)
    assert str(got.value) == str(expected.value)


@pytest.mark.parametrize("obj", [{Fraction(1, 2): 1}, {(1, 2): 1}, {"a": {Fp(1, 5): 0}}])
def test_unsupported_key_raises_type_error(obj):
    with pytest.raises(TypeError) as expected:
        stdlib(obj)
    with pytest.raises(TypeError) as got:
        cli._dumps(obj)
    assert str(got.value) == str(expected.value)


def test_golden_reports_match_stdlib(monkeypatch, tmp_path):
    """Every report a golden-transcript request writes encodes as the
    stdlib encodes it."""
    encode, reports = cli._dumps, []

    def spy(obj, pad="\n"):
        if pad == "\n":  # a whole report, or the to_json() of one
            reports.append(obj)
        return encode(obj, pad)

    monkeypatch.setattr(cli, "_dumps", spy)
    mismatched = []
    for label, argv in test_cli_golden._requests(pathlib.Path(tmp_path)):
        reports.clear()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
        assert reports or code == 64, label
        mismatched += [label for obj in reports if encode(obj) != stdlib(obj)]
    assert mismatched == []
