#!/usr/bin/env python3
"""Alternating parent/change benchmark pairs, written to ``BENCH_<pr>.json``.

Runs the benchmark declared in ``BENCHMARK.json`` (``perfbench/run.py``,
unchanged) in two source checkouts: the parent commit (``--parent``) and
this one.  For every workload it runs ten pairs of ``run_seconds`` each,
one seed per pair (``--seed``, ``--seed`` + 1, ...), alternating which
side runs first, then one ``--trace 1`` run per side.  The output holds
each side's commit and the hash of its ``src/`` and ``perfbench/`` files
(:func:`source_hash`), every pair's end-to-end metrics, output digests,
correctness and operation counts, each side's median and quartiles per
metric, the change-to-parent ratio of the medians, the pairs the change
won (ties count for neither), whether the change's median is worse than
the parent's by more than the metric's relative bound (``beyond_bound``),
each side's median and quartiles of attempted operations and their
ratio (``attempted``: a faster side attempts more operations in the same
time, and its peak RSS grows with them), and the per-layer metrics of
the traced runs.

A workload's pairs are ``sound`` when every run of both sides reported
correct output, both sides gave the same output digest in every pair and
the change failed no larger share of its operations than the parent.  A
gain holds (``gain_holds``) only on sound pairs, when the change wins at
least nine tenths of them and its median is better than the parent's by
more than the distance between the quartiles of the parent's runs.  The
script exits 1 when some workload's pairs are not sound.

Usage, with a clone of the repository checked out at the parent commit:

    git clone -q . ../parent && git -C ../parent checkout -q HEAD~1
    PYTHONPATH=src python3 scripts/bench_pairs.py --parent ../parent --out BENCH_<pr>.json

Each run is a separate process started in its checkout, so each side
imports its own ``src/jumpseq``; this script uses the library only for
its report encoder, :func:`jumpseq.cli._dumps`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import pathlib
import statistics
import subprocess
import sys

from jumpseq.cli import _dumps

ROOT = pathlib.Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
PAIRS = 10
OUTCOME = ("correct", "attempted", "failed")


def parse_run(stdout: str):
    """The record, the metric values and the outcome (``correct``,
    ``attempted``, ``failed``) of one ``perfbench/run.py`` run: its first
    and last lines of stdout."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    record = json.loads(lines[0])["record"]
    result = json.loads(lines[-1])
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    return record, metrics, {k: result[k] for k in OUTCOME}


def spread(values):
    """Median and quartiles (inclusive method) of one side's runs."""
    values = sorted(values)
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def compare(pairs, metric, better, bound, sound):
    """One end-to-end metric over the pairs: each side's spread, the ratio
    of the medians, the pairs the change won, whether the change is worse
    than the parent by more than ``bound``, and whether a gain holds (never
    on pairs that are not ``sound``)."""
    par = [p["parent"][metric] for p in pairs]
    chg = [p["change"][metric] for p in pairs]
    sign = 1 if better == "higher" else -1
    wins = sum(1 for a, b in zip(par, chg) if sign * (b - a) > 0)
    ps, cs = spread(par), spread(chg)
    pm, cm = ps["median"], cs["median"]
    improvement = sign * (cm - pm)
    return {
        "better": better, "bound": bound, "parent": ps, "change": cs,
        "ratio": cm / pm if pm else None,
        "change_wins": wins, "pairs": len(pairs),
        "beyond_bound": -improvement > bound * abs(pm),
        "gain_holds": (sound and wins * 10 >= 9 * len(pairs)
                       and improvement > ps["q3"] - ps["q1"]),
    }


def aggregate(pairs, end_to_end, traced=None):
    """The summary of one workload: ``pairs`` holds per pair the seed, the
    side that ran first and each side's metrics, output digest and outcome
    (``<side>_correct``, ``<side>_attempted``, ``<side>_failed``);
    ``end_to_end`` is ``BENCHMARK.json``'s list of metrics; ``traced``
    maps each side to its per-layer metrics.  Beside the end-to-end
    comparisons it gives each side's spread of ``attempted`` operations and
    the ratio of their medians, since a run's peak RSS grows with the
    operations it attempts."""
    failed_share = {side: sum(p[side + "_failed"] for p in pairs)
                    / sum(p[side + "_attempted"] for p in pairs) for side in SIDES}
    out = {
        "pairs": pairs,
        "all_correct": all(p[side + "_correct"] for p in pairs for side in SIDES),
        "digests_equal": all(p["parent_digest"] == p["change_digest"] for p in pairs),
        "failed_share": failed_share,
    }
    out["sound"] = sound = (out["all_correct"] and out["digests_equal"]
                            and failed_share["change"] <= failed_share["parent"])
    attempted = {side: spread([p[side + "_attempted"] for p in pairs]) for side in SIDES}
    attempted["ratio"] = attempted["change"]["median"] / attempted["parent"]["median"]
    out["attempted"] = attempted
    out["end_to_end"] = {m["name"]: compare(pairs, m["name"], m["better"], m["bound"], sound)
                         for m in end_to_end}
    if traced:
        out["per_layer"] = {name: {side: traced[side].get(name) for side in SIDES}
                            for name in sorted(set().union(*traced.values()))}
    return out


def blob_id(data: bytes) -> str:
    """Git's object id of a file holding ``data``."""
    return hashlib.sha1(b"blob %d\0" % len(data) + data).hexdigest()


def source_hash(checkout):
    """The sha256 of the lines ``<blob id> <path>``, sorted by path, of the
    files under ``src/`` and ``perfbench/`` that git tracks or would add, as
    they are on disk.  For a commit,
    ``git ls-tree -r --format='%(objectname) %(path)' <commit> src perfbench | sha256sum``
    prints the same hash, so a reader can tell which commit was measured."""
    cmd = ["git", "ls-files", "-z", "-co", "--exclude-standard", "src", "perfbench"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=True)
    paths = sorted({p for p in proc.stdout.split("\0") if p and (checkout / p).is_file()})
    lines = "".join("%s %s\n" % (blob_id((checkout / p).read_bytes()), p) for p in paths)
    return hashlib.sha256(lines.encode()).hexdigest()


def describe(checkout):
    """The checkout's commit, marked ``-dirty`` when its files differ from
    it, and its :func:`source_hash`."""
    proc = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=checkout,
                          capture_output=True, text=True, check=False)
    return {"commit": proc.stdout.strip() or None, "source_sha256": source_hash(checkout)}


def run(checkout, workload, seed, seconds, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=False)
    if proc.returncode not in (0, 1):  # 1: the run finished with wrong output
        raise SystemExit("%s in %s exited %d:\n%s" % (" ".join(cmd), checkout,
                                                      proc.returncode, proc.stderr))
    return parse_run(proc.stdout)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, type=pathlib.Path,
                    help="source checkout of the parent commit")
    ap.add_argument("--seed", type=int, default=1, help="seed of the first pair")
    ap.add_argument("--out", required=True, type=pathlib.Path)
    args = ap.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    checkouts = {"parent": args.parent.resolve(), "change": ROOT}
    report = {
        "command": bench["command"], "seconds": seconds,
        "sources": {side: describe(path) for side, path in checkouts.items()},
        "workloads": {},
    }
    unsound = []
    for workload in (w["name"] for w in bench["workloads"]):
        pairs = []
        for i in range(PAIRS):
            seed = args.seed + i
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            row = {"seed": seed, "first": order[0]}
            for side in order:
                record, metrics, outcome = run(checkouts[side], workload, seed, seconds, 0)
                row[side] = metrics
                row[side + "_digest"] = record["output_digest"]
                row.update((side + "_" + k, v) for k, v in outcome.items())
            pairs.append(row)
            print("%s pair %d: ops/s parent %.0f change %.0f" % (
                workload, i, row["parent"]["ops_per_s"], row["change"]["ops_per_s"]),
                file=sys.stderr, flush=True)
        traced = {side: run(checkouts[side], workload, args.seed, seconds, 1)[1]
                  for side in SIDES}
        summary = report["workloads"][workload] = aggregate(pairs, bench["end_to_end"], traced)
        if not summary["sound"]:
            unsound.append(workload)
        args.out.write_text(_dumps(report) + "\n")
    if unsound:
        print("pairs not sound (wrong output, unequal digests or more failures): %s"
              % ", ".join(unsound), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
