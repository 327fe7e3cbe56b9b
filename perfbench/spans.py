"""Per-layer tracing from outside the library.

:class:`Tracer` wraps the public functions of each layer while it is
installed.  It replaces every binding of a wrapped function in the
``jumpseq`` modules (``jumpseq.engine.value`` and ``jumpseq.blowup.value``
are the same object), the methods on ``BivarPoly`` and
``GroundField.__call__``.  Imports made inside library functions resolve
at call time, so they see the wrappers too.  Everything is restored on
exit.

Span layers record one span per call: operation id, name, parent span,
start, end, self time and the exception type if one escaped.  Self time
is the duration minus the time covered by child spans; calls are
single-threaded and nested, so that is the sum of the children's
durations.  Coefficient coercion and polynomial construction are too
frequent for spans and are only counted.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from contextlib import contextmanager
from time import perf_counter_ns

import jumpseq
import jumpseq.blowup
import jumpseq.cli
import jumpseq.engine
import jumpseq.extension
import jumpseq.poly

#: span name -> (owner, attribute) of the wrapped function
SPAN_TARGETS = {
    "poly.mul": (jumpseq.BivarPoly, "__mul__"),
    "poly.subs": (jumpseq.BivarPoly, "subs"),
    "poly.divmod_in_v": (jumpseq.poly, "divmod_in_v"),
    "poly.exact_divide": (jumpseq.poly, "exact_divide"),
    "poly.eval_rat": (jumpseq.poly, "eval_rat"),
    "engine.build": (jumpseq.engine, "build_jumping_sequence"),
    "engine.expand": (jumpseq.engine, "expand"),
    "engine.value": (jumpseq.engine, "value"),
    "engine.residue": (jumpseq.engine, "residue"),
    "engine.verify": (jumpseq.engine, "verify_generating_sequence"),
    "blowup.transform": (jumpseq.blowup, "single_quadratic_transform"),
    "blowup.strict_transform": (jumpseq.blowup, "strict_transform"),
    "blowup.value_in_original": (jumpseq.blowup, "value_in_original"),
    "blowup.monoidal": (jumpseq.blowup, "monoidal_sequence"),
    "extension.ladder": (jumpseq.extension, "ladder"),
    "extension.dual": (jumpseq.extension, "build_dual_sequences"),
    "cli.main": (jumpseq.cli, "main"),
}
#: spans whose InsufficientDepthError counts as an uncertified engine answer
ENGINE_QUERIES = ("engine.value", "engine.residue")
COUNTERS = ("fields.coerce.calls", "poly.ctor.calls", "errors.resource_limit.count")


class Tracer:
    def __init__(self):
        self.spans = []        # (op_id, name, parent, start_ns, end_ns, self_ns, error)
        self.counts = Counter()
        self.terms_max = 0
        self.op_id = -1
        self._stack = []       # [span index, child ns] per open span
        self._undo = []

    # ---- wrappers ------------------------------------------------------

    def _span(self, name, fn):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1][0] if stack else -1
            frame = [idx, 0]
            stack.append(frame)
            error = None
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            except BaseException as e:
                error = type(e).__name__
                raise
            finally:
                end = perf_counter_ns()
                stack.pop()
                if stack:
                    stack[-1][1] += end - start
                spans[idx] = (self.op_id, name, parent, start, end, end - start - frame[1], error)

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted_coerce(self, fn):
        counts = self.counts

        def __call__(fld, x):
            counts["fields.coerce.calls"] += 1
            return fn(fld, x)

        return __call__

    def _counted_ctor(self, fn):
        counts = self.counts

        def __init__(poly, *args, **kwargs):
            counts["poly.ctor.calls"] += 1
            try:
                fn(poly, *args, **kwargs)
            except jumpseq.ResourceLimitError:
                counts["errors.resource_limit.count"] += 1
                raise
            if len(poly.terms) > self.terms_max:
                self.terms_max = len(poly.terms)

        return __init__

    # ---- installation --------------------------------------------------

    def _replace(self, orig, wrapper):
        """Point every binding of ``orig`` in the jumpseq modules and in
        the BivarPoly/GroundField classes at ``wrapper``."""
        owners = [m for n, m in sys.modules.items() if n == "jumpseq" or n.startswith("jumpseq.")]
        owners += [jumpseq.BivarPoly, jumpseq.GroundField]
        for owner in owners:
            for attr, val in list(vars(owner).items()):
                if val is orig:
                    setattr(owner, attr, wrapper)
                    self._undo.append((owner, attr, orig))

    @contextmanager
    def installed(self):
        try:
            for name, (owner, attr) in SPAN_TARGETS.items():
                orig = vars(owner)[attr]
                self._replace(orig, self._span(name, orig))
            self._replace(vars(jumpseq.GroundField)["__call__"],
                          self._counted_coerce(vars(jumpseq.GroundField)["__call__"]))
            self._replace(vars(jumpseq.BivarPoly)["__init__"],
                          self._counted_ctor(vars(jumpseq.BivarPoly)["__init__"]))
            yield self
        finally:
            for owner, attr, orig in reversed(self._undo):
                setattr(owner, attr, orig)
            self._undo.clear()

    # ---- results -------------------------------------------------------

    def mark(self):
        """Start a window for :meth:`summary`: returns the span count and
        the counters so far, and resets the term high-water mark."""
        mark = (len(self.spans), Counter(self.counts))
        self.terms_max = 0
        return mark

    def summary(self, mark) -> dict:
        """Per-layer calls, self seconds and counters since ``mark``."""
        first, counts0 = mark
        out = {}
        for name in SPAN_TARGETS:
            out[name + ".calls"] = 0
            out[name + ".self_s"] = 0.0
        uncertified = 0
        for _, name, _, _, _, self_ns, error in self.spans[first:]:
            out[name + ".calls"] += 1
            out[name + ".self_s"] += self_ns / 1e9
            if name in ENGINE_QUERIES and error == "InsufficientDepthError":
                uncertified += 1
        for key in COUNTERS:
            out[key] = self.counts[key] - counts0[key]
        out["engine.uncertified"] = uncertified
        out["poly.terms_max"] = self.terms_max
        return out

    def write(self, path):
        """Write the spans as JSON lines, one list per span."""
        with open(path, "w") as fh:
            fh.write(json.dumps(["op", "name", "parent", "start_ns", "end_ns",
                                 "self_ns", "error"]) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
