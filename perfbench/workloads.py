"""Seeded inputs and checked operations for the three benchmark workloads.

Every workload is built by :func:`prepare` into a :class:`Workload` whose
``cycle(index)`` returns one cycle of operations.  An operation is a
callable that does the work, checks the result and returns an
:class:`Outcome`.  Library calls go through module attributes
(``jumpseq.value``, ``jumpseq.cli.main``) at call time, so the traced run
sees the wrapped functions.

The seed picks polynomial coefficients, the constants lambda over F_101
(not in chain-certify) and the ``--seed`` of seeded CLI requests.  The
(p, q) pairs and the polynomial supports are fixed, so the seed does not
change the amount of work.  Over the rationals lambda stays 1: the size
of the coefficients, and with it the work, would otherwise depend on the
seed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, List, Optional

import jumpseq
import jumpseq.cli
import jumpseq.extension

F101 = jumpseq.prime_field(101)
QQ = jumpseq.QQ

#: expand-oracle: discrete towers, shallow pairs, the 3-pair tower and a
#: 4-pair tower whose last T has 75 terms, over Q and F_101.
EXPAND_SPECS = [
    (QQ, ((2, 1), (3, 1))),
    (QQ, ((3, 2),)),
    (QQ, ((3, 2), (5, 3))),
    (QQ, ((2, 3), (3, 2))),
    (QQ, ((3, 2), (4, 1), (5, 3))),
    (QQ, ((3, 2), (5, 3), (5, 2), (2, 3))),
    (F101, ((1, 1), (2, 1), (3, 1))),
    (F101, ((2, 3),)),
    (F101, ((5, 3),)),
    (F101, ((3, 2), (5, 3))),
    (F101, ((2, 3), (3, 2))),
    (F101, ((3, 2), (4, 1), (5, 3))),
]
EXPAND_PAIRS_PER_SPEC = 2

SPEC_A = ((3, 2), (5, 3))
TOWER = ((3, 2), (4, 1), (5, 3))
SPEC_2332 = ((2, 3), (3, 2))
#: chain-certify over Q with lambda = 1: monoidal sequences on 2-level specs
#: and the ladders named by (pairs, t, delta is 1 + x).  The tower's t=5
#: ladder (8 s) and the 3-level F_101 monoidal sequence (12 s, ending in the
#: term limit) are left out: with them a run held one cycle, and on a shared
#: machine whose speed drifts that could not be measured steadily.
CHAIN_MONOIDAL = [SPEC_A, TOWER, SPEC_2332]
CHAIN_LADDERS = [
    (SPEC_A, 1, False), (SPEC_A, 5, False), (SPEC_A, 7, False),
    (SPEC_A, 5, True), (SPEC_2332, 5, False), (SPEC_A, 2, False),
]
#: chain-certify over F_101: each 2-level spec gets monoidal sequences for
#: LAMBDA_DRAWS draws of lambda, and ladders with t = 5 and t = 7 for the
#: first LADDER_DRAWS of them.  The draws are the same for every seed,
#: because their cost depends on lambda; chain-certify's inputs do not
#: depend on the seed.  The many short monoidal sequences keep the median
#: operation inside a dense cluster of similar times.  The tower is left
#: out: with lambda != 1 its level-2 residue check fails.
CHAIN_SEEDED = [SPEC_A, SPEC_2332, ((1, 2), (3, 2)), ((5, 3), (2, 3)),
                ((2, 3), (1, 2)), ((1, 2), (5, 3))]
LAMBDA_DRAWS = 5
LADDER_DRAWS = 2

UNCERTIFIED_WITNESS = "value not certified at this depth"


@dataclass
class Outcome:
    """What one operation produced.

    ``text`` feeds the output digest.  ``queries`` counts value, residue
    and certificate queries and ``certified`` those that were certified.
    ``failure`` names a resource limit or an exception; ``wrong`` names a
    failed correctness check.
    """

    text: str = ""
    queries: int = 0
    certified: int = 0
    failure: Optional[str] = None
    wrong: Optional[str] = None
    bytes_out: int = 0


@dataclass
class Op:
    run: Callable[[], Outcome]
    queries: int = 0


@dataclass
class Workload:
    pairs: list
    cycle: Callable[[int], List[Op]]
    tail_percentile: int
    workdir: Optional[str] = None
    files: list = field(default_factory=list)

    def close(self):
        """Remove the input files written for the CLI."""
        for path in self.files:
            os.remove(path)
        if self.workdir:
            os.rmdir(self.workdir)


# ---------------------------------------------------------------------------
# input generation
# ---------------------------------------------------------------------------


def make_spec(fld, pairs, rng=None):
    """A spec with trivial units; lambda is drawn from ``rng`` over F_101
    and is 1 otherwise."""
    if rng is not None and fld == F101:
        lambdas = [str(rng.randint(1, 100)) for _ in pairs]
    else:
        lambdas = ["1"] * len(pairs)
    mode = "discrete" if all(q == 1 for _, q in pairs) else "nondiscrete"
    return jumpseq.ValuationSpec.from_json({
        "field": fld.to_json(), "pairs": [list(pq) for pq in pairs],
        "lambdas": lambdas, "units": ["1"] * len(pairs), "mode": mode,
    })


def random_poly(shape_rng, coeff_rng, fld, max_deg=12, max_terms=4):
    """A nonzero polynomial of total degree <= max_deg with <= max_terms terms.

    The exponents come from ``shape_rng`` and the coefficients from
    ``coeff_rng``.  Callers draw the same shapes for every seed and every
    cycle: the cost of an expansion depends mostly on the exponents, so
    this keeps the work of a cycle the same for every seed.
    """
    terms = {}
    for _ in range(shape_rng.randint(1, max_terms)):
        a = shape_rng.randint(0, max_deg)
        b = shape_rng.randint(0, max_deg - a)
        if fld == QQ:
            c = Fraction(coeff_rng.choice([-1, 1]) * coeff_rng.randint(1, 9), coeff_rng.randint(1, 9))
        else:
            c = coeff_rng.randint(1, fld.characteristic - 1)
        terms[(a, b)] = c
    return jumpseq.BivarPoly(fld, terms, ("u", "v"))


def plain(obj):
    """Library objects as plain JSON data, for digests."""
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, dict):
        return {str(k): plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [plain(x) for x in obj]
    if hasattr(obj, "to_json"):
        return plain(obj.to_json())
    return str(obj)


def dumps(obj) -> str:
    return json.dumps(plain(obj), sort_keys=True, separators=(",", ":"))


def digest(outcomes) -> str:
    h = hashlib.sha256()
    for o in outcomes:
        h.update(o.text.encode())
        h.update(b"\n")
    return h.hexdigest()


def _rng(seed, *tags):
    return random.Random("%d/%s" % (seed, "/".join(str(t) for t in tags)))


# ---------------------------------------------------------------------------
# expand-oracle
# ---------------------------------------------------------------------------


def _expand_op(js, f, g) -> Outcome:
    texts, values = [], []
    for h in (f, g):
        e = jumpseq.expand(h, js)
        if e.resubstitute() != h:
            return Outcome(text=dumps(e), queries=3, wrong="round trip of %s" % h)
        texts.append(dumps(e))
    out = Outcome(queries=3)
    for h in (f, g, f * g):
        try:
            values.append(jumpseq.value(h, js))
            out.certified += 1
        except jumpseq.InsufficientDepthError:
            values.append(None)
    if None not in values and values[2] != values[0] + values[1]:
        out.wrong = "value(fg) = %s != %s + %s" % tuple(values)
    out.text = "|".join(texts + [str(v) for v in values])
    return out


def _prepare_expand_oracle(seed):
    rng = _rng(seed, "specs")
    built = []
    for fld, pairs in EXPAND_SPECS:
        built.append(jumpseq.build_jumping_sequence(make_spec(fld, pairs, rng)))

    def cycle(index):
        shapes, coeffs = _rng(0, "shapes"), _rng(seed, "coefficients", index)
        ops = []
        for _ in range(EXPAND_PAIRS_PER_SPEC):
            for js in built:
                f = random_poly(shapes, coeffs, js.field)
                g = random_poly(shapes, coeffs, js.field)
                ops.append(Op(lambda js=js, f=f, g=g: _expand_op(js, f, g), 3))
        return ops

    return Workload([p for _, p in EXPAND_SPECS], cycle, 98)


# ---------------------------------------------------------------------------
# chain-certify
# ---------------------------------------------------------------------------


def _monoidal_op(js) -> Outcome:
    ind = jumpseq.extract_independent(js)
    reports = jumpseq.monoidal_sequence(js, ind, ind.levels)
    out = Outcome(text=dumps(reports), queries=1, certified=1)
    failing = [r["level"] for r in reports if r["pass"] is not True]
    if failing:
        out.wrong = "monoidal %s fails at levels %s" % (js.spec.pairs, failing)
    return out


def _ladder_op(ext) -> Outcome:
    cert = jumpseq.ladder(ext)
    out = Outcome(text=dumps(cert), queries=1, certified=1)
    pairs = ext.base_spec.pairs
    M = jumpseq.extension.first_gcd_failure(ext.t, pairs)
    if M is None:
        if cert.ok is not True or cert.outcome.get("kind") != "toroidal":
            out.wrong = "ladder %s t=%d not certified" % (pairs, ext.t)
    elif cert.outcome.get("kind") != "contradiction" or cert.outcome.get("M") != M:
        out.wrong = "ladder %s t=%d: outcome %s, expected M=%d" % (pairs, ext.t, cert.outcome, M)
    return out


def _prepare_chain_certify():
    rng = _rng(0, "lambdas")
    x = jumpseq.BivarPoly.gens(QQ, ("x", "y"))[0]
    ops = []
    for pairs in CHAIN_MONOIDAL:
        js = jumpseq.build_jumping_sequence(make_spec(QQ, pairs))
        ops.append(Op(lambda js=js: _monoidal_op(js), 1))
    for pairs, t, skew in CHAIN_LADDERS:
        delta = jumpseq.BivarPoly.const(QQ, 1, ("x", "y")) + (x if skew else 0)
        ext = jumpseq.MonomialExtension(t=t, delta=delta, base_spec=make_spec(QQ, pairs))
        ops.append(Op(lambda ext=ext: _ladder_op(ext), 1))
    one = jumpseq.BivarPoly.const(F101, 1, ("x", "y"))
    for draw in range(LAMBDA_DRAWS):
        for pairs in CHAIN_SEEDED:
            spec = make_spec(F101, pairs, rng)
            js = jumpseq.build_jumping_sequence(spec)
            ops.append(Op(lambda js=js: _monoidal_op(js), 1))
            for t in (5, 7) if draw < LADDER_DRAWS else ():
                ext = jumpseq.MonomialExtension(t=t, delta=one, base_spec=spec)
                ops.append(Op(lambda ext=ext: _ladder_op(ext), 1))
    pairs = CHAIN_MONOIDAL + [p for p, _, _ in CHAIN_LADDERS] + CHAIN_SEEDED
    return Workload(sorted(set(pairs)), lambda index: ops, 96)


# ---------------------------------------------------------------------------
# cli-mix
# ---------------------------------------------------------------------------


def _cli_op(label, argv, expect, check, seen) -> Outcome:
    """Run ``jumpseq.cli.main(argv)`` in process and check its exit code,
    its report and that an identical earlier request gave identical bytes.
    ``label`` names the request without the directories, which differ
    between checkouts and runs."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = jumpseq.cli.main(argv)
    out_s, err_s = stdout.getvalue(), stderr.getvalue()
    blob = "%s\n%d\n%s\n%s" % (label, code, out_s, err_s)
    out = Outcome(text=blob, bytes_out=len(out_s.encode()) + len(err_s.encode()))
    if seen.setdefault(label, blob) != blob:
        out.wrong = "request %s is not byte-stable" % label
    elif code not in expect:
        out.wrong = "request %s exited %d, expected %s" % (label, code, sorted(expect))
    elif check is not None:
        out.queries = 1
        verdict = check(code, json.loads(out_s) if code in (0, 2, 3) else None)
        if verdict is True:
            out.certified = 1
        elif verdict is not None:
            out.wrong = "request %s: %s" % (label, verdict)
    return out


def _check_pass(key):
    def check(code, report):
        if code != 0:
            return "exit %d" % code
        return True if report.get(key) is True else "%s is not true" % key
    return check


def _check_verify(code, report):
    if code != 0:
        return "exit %d" % code
    if report.get("pass") is not True:
        return "verification failed"
    uncertified = any(r.get("witness") == UNCERTIFIED_WITNESS for r in report["checks"])
    return None if uncertified else True


def _check_outcome(expect_contradiction):
    def check(code, report):
        if expect_contradiction:
            return True if code == 2 and report["outcome"]["kind"] == "contradiction" else "no witness"
        return True if code == 0 else "exit %d" % code
    return check


def _check_value(expected):
    def check(code, report):
        if code == 3:
            return None
        return True if report.get("value") == expected else "value %s, expected %s" % (
            report.get("value"), expected)
    return check


def _prepare_cli_mix(wl, seed, root):
    workdir = wl.workdir
    rng, shapes = _rng(seed, "cli"), _rng(0, "cli-shapes")

    def write(name, obj):
        path = os.path.join(workdir, name)
        with open(path, "w") as fh:
            json.dump(obj, fh, sort_keys=True)
        wl.files.append(path)
        return path

    spec_paths = {"a": os.path.join(root, "specs", "spec-a.json"),
                  "b": os.path.join(root, "specs", "spec-b.json")}
    specs = {}
    for name, path in spec_paths.items():
        with open(path) as fh:
            specs[name] = jumpseq.ValuationSpec.from_json(json.load(fh))
    specs["c"] = make_spec(F101, SPEC_2332, rng)
    spec_paths["c"] = write("spec-c.json", specs["c"].to_json())
    wl.pairs = [specs[k].pairs for k in "abc"]
    jss = {k: jumpseq.build_jumping_sequence(s) for k, s in specs.items()}

    reqs = []  # (argv, expected exit codes, report check)
    for k in "abc":
        reqs.append((["genseq", spec_paths[k]], {0}, None))
    for p, q in ((5, 3), (7, 4)):
        reqs.append((["euclid", str(p), str(q)], {0}, None))

    def eval_request(k, name, f):
        path = write(name, f.to_json())
        try:
            expected = str(jumpseq.value(f, jss[k]))
            code = 0
        except jumpseq.InsufficientDepthError:
            expected, code = None, 3
        reqs.append((["eval", spec_paths[k], path], {code}, _check_value(expected)))
        return path

    for k in "abc":
        for i in range(2):
            path = eval_request(k, "poly-%s%d.json" % (k, i),
                                random_poly(shapes, rng, specs[k].field, max_deg=8))
            reqs.append((["expand", spec_paths[k], path], {0}, None))
    # T_M has no certified value at the spec's depth: the exit-3 path
    eval_request("a", "poly-a-top.json", jss["a"].T[-1])
    for k, steps, expect in (("a", 3, {0}), ("c", 3, {0}), ("a", 10, {0, 3})):
        reqs.append((["blowup", spec_paths[k], "--steps", str(steps)], expect, None))
    for k in "ac":
        reqs.append((["monoidal", spec_paths[k]], {0}, _check_pass("pass")))
    for k, t in (("a", 5), ("a", 2), ("b", 3), ("c", 5)):
        ext = jumpseq.MonomialExtension(
            t=t, delta=jumpseq.BivarPoly.const(specs[k].field, 1, ("x", "y")),
            base_spec=specs[k])
        path = write("ext-%s%d.json" % (k, t), ext.to_json())
        contradiction = jumpseq.extension.first_gcd_failure(t, specs[k].pairs) is not None
        code = 2 if contradiction else 0
        if not contradiction:
            reqs.append((["dual", path], {0}, _check_pass("ok")))
        if specs[k].mode == "nondiscrete":
            reqs.append((["ladder", path], {code},
                         _check_outcome(True) if contradiction else _check_pass("ok")))
        reqs.append((["classify", path], {code}, _check_outcome(contradiction)))
    vseed = str(rng.randint(0, 10 ** 6))
    for k, extra in (("a", ["--samples", "10", "--seed", vseed]), ("b", []),
                     ("c", ["--samples", "10", "--seed", vseed])):
        reqs.append((["verify", spec_paths[k]] + extra, {0}, _check_verify))
    reqs.append((["euclid", "5"], {64}, None))

    seen = {}
    ops = []
    for argv, expect, check in reqs:
        label = " ".join(os.path.basename(a) for a in argv)
        ops.append(Op(lambda label=label, argv=argv, expect=expect, check=check:
                      _cli_op(label, argv, expect, check, seen), 0 if check is None else 1))
    wl.cycle = lambda index: ops


def prepare(name, seed, root) -> Workload:
    """Generate and parse the inputs of one workload."""
    if name == "expand-oracle":
        return _prepare_expand_oracle(seed)
    if name == "chain-certify":
        return _prepare_chain_certify()
    if name == "cli-mix":
        workdir = os.path.join(root, ".bench_out", "work-%d" % os.getpid())
        os.makedirs(workdir)
        wl = Workload([], None, 98, workdir)
        try:
            _prepare_cli_mix(wl, seed, root)
        except BaseException:
            wl.close()
            raise
        return wl
    raise ValueError("unknown workload %r" % name)
