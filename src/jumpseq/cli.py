"""Command-line front end.

Every command reads JSON inputs, runs the corresponding library
operation and writes a JSON report with sorted keys, deterministic for
its seed.  :func:`_dumps` gives the bytes of ``json.dumps(report,
sort_keys=True, indent=2)`` in one recursive pass, about twice as fast
as the stdlib's indent encoder on spec-b's ``verify`` report (3.8 ms
against 7.8 ms, CPython 3.11): ``Fraction`` and ``Fp`` as strings, a
list of plain ints as one ``join``, a library object as its
``to_json()``, anything else a ``TypeError``.
Exit codes: 0 success, 2 ladder contradiction, 3 insufficient depth, 64
usage errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction

from .blowup import initial_chart, monoidal_sequence, single_quadratic_transform
from .engine import (
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
    classify_toroidal_form,
    discrete_branch_report,
    ladder,
)
from .fields import Fp
from .poly import BivarPoly

EXIT_OK = 0
EXIT_CONTRADICTION = 2
EXIT_DEPTH = 3
EXIT_USAGE = 64


class UsageError(JumpseqError):
    """A request that names data the command cannot work on (exit 64)."""


_encode_str = json.encoder.encode_basestring_ascii  # the C string encoder


def _dumps(obj, pad="\n") -> str:
    """The report encoder described above; ``pad`` is the newline and
    indent that precede ``obj``'s closing bracket."""
    t = type(obj)
    if t is str:
        return _encode_str(obj)
    if t is int:
        return int.__repr__(obj)
    if t is Fraction or t is Fp:
        return _encode_str(str(obj))
    inner = pad + "  "
    if t is dict and obj:
        return "{" + inner + ("," + inner).join([
            _encode_str(k if isinstance(k, str) else _key(k)) + ": " + _dumps(obj[k], inner)
            for k in sorted(obj)]) + pad + "}"
    if (t is list or t is tuple) and obj:
        if type(obj[0]) is int and all(type(v) is int for v in obj):  # no bool, no subclass
            return "[" + inner + ("," + inner).join(map(int.__repr__, obj)) + pad + "]"
        return "[" + inner + ("," + inner).join([_dumps(v, inner) for v in obj]) + pad + "]"
    if t is dict or t is list or t is tuple:
        return "{}" if t is dict else "[]"
    if obj is None or t is bool or isinstance(obj, float):
        return json.dumps(obj)  # the C encoder: null, true, false, float.__repr__, NaN, Infinity
    for kind, exact in ((str, str), (int, int), (dict, dict), (list, list), (tuple, list)):
        if isinstance(obj, kind):  # a subclass, encoded as its base type
            return _dumps(exact(obj), pad)
    if isinstance(obj, (Fraction, Fp)):
        return _encode_str(str(obj))
    if hasattr(obj, "to_json"):
        return _dumps(obj.to_json(), pad)
    raise TypeError("Object of type %s is not JSON serializable" % type(obj).__name__)


def _key(k) -> str:
    """A dict key that is not a string, spelled as the stdlib spells it."""
    if k is None or isinstance(k, (int, float)):
        return json.dumps(k)
    raise TypeError("keys must be str, int, float, bool or None, not %s" % type(k).__name__)


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


def _load_spec(path) -> ValuationSpec:
    return ValuationSpec.from_json(_load_json(path))


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_genseq(args):
    spec = _load_spec(args.spec)
    js = build_jumping_sequence(spec)
    ind = extract_independent(js)
    _emit({"sequence": js.to_json(), "independent": ind.to_json()}, args)
    return EXIT_OK


def _load_nonzero_poly(args, spec) -> BivarPoly:
    f = BivarPoly.from_json(spec.field, _load_json(args.poly))
    if f.is_zero():
        raise UsageError("%s: the zero polynomial has no value or expansion" % args.command)
    return f


def cmd_eval(args):
    spec = _load_spec(args.spec)
    js = build_jumping_sequence(spec)
    v = value(_load_nonzero_poly(args, spec), js)
    _emit({"value": v}, args)
    return EXIT_OK


def cmd_expand(args):
    spec = _load_spec(args.spec)
    js = build_jumping_sequence(spec)
    _emit(expand(_load_nonzero_poly(args, spec), js), args)
    return EXIT_OK


def cmd_euclid(args):
    try:
        ed = euclid_data(args.p, args.q)
        a, b = bezout(args.p, args.q)
    except ValueError as e:  # p, q not positive or not coprime
        raise UsageError(str(e)) from None
    _emit({"N": ed.N, "f": ed.f, "epsilon": ed.epsilon, "bezout": [a, b]}, args)
    return EXIT_OK


def cmd_blowup(args):
    spec = _load_spec(args.spec)
    js = build_jumping_sequence(spec)
    chart = initial_chart(js)
    charts = [chart]
    for _ in range(args.steps):
        chart = single_quadratic_transform(chart)
        charts.append(chart)
    _emit({"charts": charts, "factors": [f.poly for f in chart.factors]}, args)
    return EXIT_OK


def cmd_monoidal(args):
    spec = _load_spec(args.spec)
    js = build_jumping_sequence(spec)
    ind = extract_independent(js)
    if ind.levels == 0:
        raise UsageError("monoidal needs an independent index (some q_i > 1); the spec has none")
    depth = args.depth if args.depth is not None else ind.levels
    if not 1 <= depth <= ind.levels:
        raise UsageError("--depth %d: the spec provides independent levels 1 to %d"
                         % (depth, ind.levels))
    report = monoidal_sequence(js, ind, depth)
    _emit({"levels": report, "factors": [f.poly for f in report[-1]["chart"].factors],
           "pass": all(r["pass"] for r in report)}, args)
    return EXIT_OK


def cmd_dual(args):
    ext = MonomialExtension.from_json(_load_json(args.ext))
    duals = build_dual_sequences(ext, k=args.depth)
    _emit(duals, args)
    return EXIT_OK


def cmd_ladder(args):
    ext = MonomialExtension.from_json(_load_json(args.ext))
    cert = ladder(ext, depth=args.depth)
    _emit(cert, args)
    if cert.outcome.get("kind") == "contradiction":
        return EXIT_CONTRADICTION
    return EXIT_OK


def cmd_verify(args):
    js = build_jumping_sequence(_load_spec(args.spec))
    report = verify_generating_sequence(js, args.gamma_max, args.deg_bound,
                                        samples=args.samples, seed=args.seed)
    _emit({"checks": report, "minimality": verify_minimality(extract_independent(js)),
           "pass": all(r["pass"] is not False for r in report),
           "uncertified": sum(r["pass"] is None for r in report)}, args)
    return EXIT_OK


def cmd_classify(args):
    ext = MonomialExtension.from_json(_load_json(args.ext))
    if ext.base_spec.mode == "discrete":
        report = {"form": classify_toroidal_form(ext), "discrete_branch": discrete_branch_report(ext)}
    else:
        if extract_independent(ext.down).levels == 0:
            raise UsageError("classify needs an independent index (some q_i > 1); the spec has none")
        cert = ladder(ext)
        if cert.outcome.get("kind") == "contradiction":
            _emit({"outcome": cert.outcome}, args)
            return EXIT_CONTRADICTION
        report = {"form": classify_toroidal_form(ext), "ladder": cert}
    _emit(report, args)
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing and dispatch
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


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jumpseq",
        description="Generating sequences of rational valuations: "
                    "construction, blow-up simulation, certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", choices=["json", "text"], default="json")
        p.add_argument("--out", default=None, help="write the report to a file")
        p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("genseq", help="build a jumping-polynomial sequence")
    p.add_argument("spec")
    common(p)
    p.set_defaults(func=cmd_genseq)

    p = sub.add_parser("eval", help="value of a polynomial")
    p.add_argument("spec")
    p.add_argument("poly")
    common(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("expand", help="standard-form expansion of a polynomial")
    p.add_argument("spec")
    p.add_argument("poly")
    common(p)
    p.set_defaults(func=cmd_expand)

    p = sub.add_parser("euclid", help="Euclidean chain data and Bezout pair")
    p.add_argument("p", type=int)
    p.add_argument("q", type=int)
    common(p)
    p.set_defaults(func=cmd_euclid)

    p = sub.add_parser("blowup", help="iterate single quadratic transforms")
    p.add_argument("spec")
    p.add_argument("--steps", type=_nonnegative_int, default=1)
    common(p)
    p.set_defaults(func=cmd_blowup)

    p = sub.add_parser("monoidal", help="chunk-boundary monomial certificates")
    p.add_argument("spec")
    p.add_argument("--depth", type=int, default=None)
    common(p)
    p.set_defaults(func=cmd_monoidal)

    p = sub.add_parser("dual", help="dual jumping sequences of an extension")
    p.add_argument("ext")
    p.add_argument("--depth", type=int, default=None)
    common(p)
    p.set_defaults(func=cmd_dual)

    p = sub.add_parser("ladder", help="stable-form ladder certificate")
    p.add_argument("ext")
    p.add_argument("--depth", type=int, default=None)
    common(p)
    p.set_defaults(func=cmd_ladder)

    p = sub.add_parser("verify", help="generating-sequence verification battery")
    p.add_argument("spec")
    p.add_argument("--gamma-max", type=_fraction, default="5")
    p.add_argument("--deg-bound", type=_nonnegative_int, default=8)
    p.add_argument("--samples", type=_nonnegative_int, default=0)
    common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("classify", help="toroidal-form classification")
    p.add_argument("ext")
    common(p)
    p.set_defaults(func=cmd_classify)

    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0,) else 0
    try:
        return args.func(args)
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
