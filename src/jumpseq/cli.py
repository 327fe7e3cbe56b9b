"""Command-line front end.

Every command reads JSON inputs, runs the corresponding library
operation and writes a JSON report with sorted keys, deterministic for
its seed.  :func:`_dumps` gives the bytes of ``json.dumps(report,
sort_keys=True, indent=2)`` with a field element as its string and a
library object as its ``to_json()``.  It writes what reports hold
itself, in one recursive pass: exact ``str`` and ``int``, ``True``,
``False`` and ``None`` as literals, ``Fraction`` and ``Fp`` as strings,
a dict with string keys, a list or tuple (one ``join`` when all of
exact ``int``, ``str``, ``Fraction`` or ``Fp``), an exact polynomial or
expansion as its term list written from its integer form, one template
per term, and any other library object as its ``to_json()``.  Anything
else, a float, a subclass of a builtin type, a dict with a key that is
not a string or a value no report holds, goes to the stdlib
(``json.dumps`` with the same hook), indented to its place, so its
bytes and its ``TypeError`` are the stdlib's.  On spec-b's ``verify``
report, whose 494 witness terms are most of its bytes, it takes 1.1 ms
against the stdlib's 5.2 ms (CPython 3.11, 2-CPU x86-64).
Exit codes: 0 success, 2 ladder contradiction, 3 insufficient depth, 64
usage errors.

Each subcommand is declared once, as one entry of the command table
:data:`_COMMANDS`: its name, its handler, its input kind, its help and
its own arguments.  :func:`_build_parser` makes the parser from the
table, adding ``--format``, ``--out`` and ``--seed`` to every
subcommand after its own arguments.  An input kind has one loader
(:data:`_LOADERS`): a spec file becomes its built
:class:`~jumpseq.engine.JumpingSequence`, an extension file a
:class:`~jumpseq.extension.MonomialExtension`, and ``euclid`` reads no
file.  A handler takes ``(loaded input, args)`` and returns
``(report, exit code)``; it writes nothing.  :func:`main` loads the
input, calls the handler and emits its report (:func:`_emit`), the one
place a report is written, and maps the library's errors to exit codes.
A handler validates nothing the library validates: a spec with no
independent index, a depth out of range and a ladder with no pairs are
refused by the library function, whose
:class:`~jumpseq.errors.InvalidSpecError` exits 64 as a handler's own
:class:`UsageError` does.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction

from .blowup import initial_chart, monoidal_sequence, single_quadratic_transform
from .engine import (
    JumpingSequence,
    TExpansion,
    ValuationSpec,
    build_jumping_sequence,
    expand,
    extract_independent,
    value,
    verify_generating_sequence,
    verify_minimality,
)
from .errors import InsufficientDepthError, JumpseqError
from .euclid import bezout, euclid_data
from .extension import (
    MonomialExtension,
    build_dual_sequences,
    check_classifiable,
    classify_toroidal_form,
    ladder,
)
from .fields import Fp, render
from .poly import BivarPoly

EXIT_OK = 0
EXIT_CONTRADICTION = 2
EXIT_DEPTH = 3
EXIT_USAGE = 64


class UsageError(JumpseqError):
    """A request that names data the command cannot work on (exit 64)."""


_encode_str = json.encoder.encode_basestring_ascii  # the C string encoder

#: The exact leaf types a list of which, all of one type, is one ``join``,
#: each with its text.
_JOINED = {int: int.__repr__, str: _encode_str,
           Fraction: lambda x: _encode_str(str(x)), Fp: lambda x: _encode_str(str(x))}


def _default(obj):
    """The stdlib's ``default`` hook: a field element as its string, a
    library object as its ``to_json()``; anything else raises TypeError."""
    if isinstance(obj, (Fraction, Fp)):
        return str(obj)
    if hasattr(obj, "to_json"):
        return obj.to_json()
    raise TypeError("Object of type %s is not JSON serializable" % type(obj).__name__)


def _dumps(obj, pad="\n") -> str:
    """The report encoder described above; ``pad`` is the newline and
    indent that precede ``obj``'s closing bracket."""
    t = type(obj)
    if t is str:
        return _encode_str(obj)
    if t is int:
        return int.__repr__(obj)
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if obj is None:
        return "null"
    if t is Fraction or t is Fp:
        return _encode_str(str(obj))
    inner = pad + "  "
    if t is dict and all(type(k) is str for k in obj):
        if not obj:
            return "{}"
        return "{" + inner + ("," + inner).join([
            _encode_str(k) + ": " + _dumps(obj[k], inner) for k in sorted(obj)]) + pad + "}"
    if t is list or t is tuple:
        if not obj:
            return "[]"
        t0 = type(obj[0])
        leaf = _JOINED.get(t0)
        if leaf and all(type(v) is t0 for v in obj):  # no bool, no subclass
            return "[" + inner + ("," + inner).join(map(leaf, obj)) + pad + "]"
        return "[" + inner + ("," + inner).join([_dumps(v, inner) for v in obj]) + pad + "]"
    # An exact polynomial or expansion: its terms written from its integer
    # form, one template per term, as its to_json() writes them.
    if t is BivarPoly:
        (terms, den), p = obj.form, obj.field.characteristic
        pairs, rest = sorted(terms.items()), "," + inner + '"vars": ' + _dumps(obj.vars, inner)
    elif t is TExpansion:
        pairs, den, p, rest = obj.pairs, obj.den, obj.js.field.characteristic, ""
    elif hasattr(obj, "to_json"):
        return _dumps(obj.to_json(), pad)
    else:
        return json.dumps(obj, sort_keys=True, indent=2, default=_default).replace("\n", pad)
    i2 = inner + "  "
    i3, i4 = i2 + "  ", i2 + "    "
    term = "{" + i3 + '"c": "%s",' + i3 + '"e": [' + i4 + "%s" + i3 + "]" + i2 + "}"
    body = ("[" + i2 + ("," + i2).join([
        term % (render(n, den, p), ("," + i4).join(map(int.__repr__, e)))
        for e, n in pairs]) + inner + "]") if pairs else "[]"
    return "{" + inner + '"terms": ' + body + rest + pad + "}"


def _emit(report, args) -> None:
    out = _dumps(report) + "\n"
    if args.format == "text":
        out = _render_text(json.loads(out))
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(out)
    else:
        sys.stdout.write(out)


def _render_text(data, indent=0) -> str:
    pad = "  " * indent
    if isinstance(data, dict):
        lines = []
        for k in sorted(data):
            v = data[k]
            if isinstance(v, (dict, list)):
                lines.append("%s%s:" % (pad, k))
                lines.append(_render_text(v, indent + 1))
            else:
                lines.append("%s%s: %s" % (pad, k, v))
        return "\n".join(lines) + ("\n" if indent == 0 else "")
    if isinstance(data, list):
        return "\n".join(_render_text(v, indent) for v in data)
    return "%s%s" % (pad, data)


class _InputError(Exception):
    """An input file that ``json`` cannot read: malformed JSON, text that
    cannot be decoded, or an integer literal past the interpreter's limit
    on int-from-string conversion (a plain ValueError)."""


def _load_json(path):
    with open(path) as fh:
        try:
            return json.load(fh)
        except ValueError as e:
            raise _InputError(e) from None


def _load_sequence(path) -> JumpingSequence:
    return build_jumping_sequence(ValuationSpec.from_json(_load_json(path)))


def _load_extension(path) -> MonomialExtension:
    return MonomialExtension.from_json(_load_json(path))


#: The loader of each input kind, keyed by the name of its positional file.
_LOADERS = {"spec": _load_sequence, "ext": _load_extension}


# ---------------------------------------------------------------------------
# subcommands: each takes its loaded input and the parsed arguments and
# returns (report, exit code)
# ---------------------------------------------------------------------------


def cmd_genseq(js, args):
    return {"sequence": js.to_json(), "independent": extract_independent(js).to_json()}, EXIT_OK


def _load_nonzero_poly(args, js) -> BivarPoly:
    f = BivarPoly.from_json(js.field, _load_json(args.poly))
    if f.is_zero():
        raise UsageError("%s: the zero polynomial has no value or expansion" % args.command)
    return f


def cmd_eval(js, args):
    return {"value": value(_load_nonzero_poly(args, js), js)}, EXIT_OK


def cmd_expand(js, args):
    return expand(_load_nonzero_poly(args, js), js), EXIT_OK


def cmd_euclid(_, args):
    try:
        ed = euclid_data(args.p, args.q)
        a, b = bezout(args.p, args.q)
    except ValueError as e:  # p, q not positive or not coprime
        raise UsageError(str(e)) from None
    return {"N": ed.N, "f": ed.f, "epsilon": ed.epsilon, "bezout": [a, b]}, EXIT_OK


def cmd_blowup(js, args):
    chart = initial_chart(js)
    charts = [chart]
    for _ in range(args.steps):
        chart = single_quadratic_transform(chart)
        charts.append(chart)
    return {"charts": charts, "factors": [f.poly for f in chart.factors]}, EXIT_OK


def cmd_monoidal(js, args):
    ind = extract_independent(js)
    report = monoidal_sequence(js, ind, ind.levels if args.depth is None else args.depth)
    return {"levels": report, "factors": [f.poly for f in report[-1]["chart"].factors],
            "pass": all(r["pass"] for r in report)}, EXIT_OK


def cmd_dual(ext, args):
    return build_dual_sequences(ext, k=args.depth), EXIT_OK


def cmd_ladder(ext, args):
    cert = ladder(ext, depth=args.depth)
    return cert, EXIT_CONTRADICTION if cert.outcome.get("kind") == "contradiction" else EXIT_OK


def cmd_verify(js, args):
    report = verify_generating_sequence(js, args.gamma_max, args.deg_bound,
                                        samples=args.samples, seed=args.seed)
    return {"checks": report, "minimality": verify_minimality(extract_independent(js)),
            "pass": all(r["pass"] is not False for r in report),
            "uncertified": sum(r["pass"] is None for r in report)}, EXIT_OK


def cmd_classify(ext, args):
    check_classifiable(ext)  # before the ladder walks any chain
    if ext.base_spec.mode == "discrete":
        return {"form": classify_toroidal_form(ext)}, EXIT_OK
    cert = ladder(ext)
    if cert.outcome.get("kind") == "contradiction":
        return {"outcome": cert.outcome}, EXIT_CONTRADICTION
    if not cert.ok:  # no form without a certificate; exit 0, as an uncertified verify record
        return {"ladder": cert,
                "failing_rung": next(r["i"] for r in cert.rungs if not r["pass"])}, EXIT_OK
    return {"form": classify_toroidal_form(ext), "ladder": cert}, EXIT_OK


# ---------------------------------------------------------------------------
# the command table, argument parsing and dispatch
# ---------------------------------------------------------------------------


def _nonnegative_int(s: str) -> int:
    n = int(s)
    if n < 0:
        raise argparse.ArgumentTypeError("%d is negative" % n)
    return n


def _fraction(s: str) -> Fraction:
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError("%r is not a rational number" % s) from None


_DEPTH = ("--depth", {"type": int, "default": None})

#: One entry per subcommand, in the order of ``--help``: its name, its
#: handler, its input kind (a key of :data:`_LOADERS`, which is also the
#: name of its positional file, or None), its help and its own arguments
#: as (name, keyword arguments of ``add_argument``).
_COMMANDS = (
    ("genseq", cmd_genseq, "spec", "build a jumping-polynomial sequence", ()),
    ("eval", cmd_eval, "spec", "value of a polynomial", (("poly", {}),)),
    ("expand", cmd_expand, "spec", "standard-form expansion of a polynomial", (("poly", {}),)),
    ("euclid", cmd_euclid, None, "Euclidean chain data and Bezout pair",
     (("p", {"type": int}), ("q", {"type": int}))),
    ("blowup", cmd_blowup, "spec", "iterate single quadratic transforms",
     (("--steps", {"type": _nonnegative_int, "default": 1}),)),
    ("monoidal", cmd_monoidal, "spec", "chunk-boundary monomial certificates", (_DEPTH,)),
    ("dual", cmd_dual, "ext", "dual jumping sequences of an extension", (_DEPTH,)),
    ("ladder", cmd_ladder, "ext", "stable-form ladder certificate", (_DEPTH,)),
    ("verify", cmd_verify, "spec", "generating-sequence verification battery",
     (("--gamma-max", {"type": _fraction, "default": "5"}),
      ("--deg-bound", {"type": _nonnegative_int, "default": 8}),
      ("--samples", {"type": _nonnegative_int, "default": 0}))),
    ("classify", cmd_classify, "ext", "toroidal-form classification", ()),
)

#: The options every subcommand takes after its own.
_COMMON = (("--format", {"choices": ["json", "text"], "default": "json"}),
           ("--out", {"default": None, "help": "write the report to a file"}),
           ("--seed", {"type": int, "default": 0}))


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jumpseq",
        description="Generating sequences of rational valuations: "
                    "construction, blow-up simulation, certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, handler, kind, summary, arguments in _COMMANDS:
        p = sub.add_parser(name, help=summary)
        for arg, kwargs in (((kind, {}),) if kind else ()) + arguments + _COMMON:
            p.add_argument(arg, **kwargs)
        p.set_defaults(handler=handler, input=kind)
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0,) else 0
    try:
        data = _LOADERS[args.input](getattr(args, args.input)) if args.input else None
        report, code = args.handler(data, args)
        _emit(report, args)
        return code
    except InsufficientDepthError as e:
        sys.stdout.write(_dumps({"error": "insufficient-depth", "message": str(e),
                                 "extra_depth": e.extra_depth}) + "\n")
        return EXIT_DEPTH
    except (OSError, _InputError, KeyError) as e:
        sys.stderr.write("input error: %s\n" % e)
        return EXIT_USAGE
    except JumpseqError as e:
        sys.stderr.write("error: %s\n" % e)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
