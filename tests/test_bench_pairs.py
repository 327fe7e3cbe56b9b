"""``scripts/bench_pairs.py`` aggregates canned ``perfbench/run.py`` output:
the metrics and outcome are read from the last line and the digest from
the first, wins count strictly better pairs, a gain needs nine tenths of
the pairs, a median gap wider than the parent's interquartile range and
sound pairs (correct output, equal digests, no larger failed share), and
a change worse than the relative bound is flagged.  ``main`` runs every
workload of ``BENCHMARK.json`` for ten alternating pairs at its run
length; here its runs are canned too, so no process is started."""

import json

import pytest

import bench_pairs  # conftest puts scripts/ on the path

END_TO_END = [
    {"name": "ops_per_s", "better": "higher", "bound": 0.25},
    {"name": "op_p50_ms", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "better": "lower", "bound": 0.1},
]


def run_output(ops, p50, rss, digest="d0", correct=True, failed=0, attempted=10):
    record = {"record": {"workload": "expand-oracle", "output_digest": digest}}
    metrics = {"ops_per_s": {"value": ops, "unit": "1/s"},
               "op_p50_ms": {"value": p50, "unit": "ms"},
               "peak_rss_mb": {"value": rss, "unit": "MB"}}
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    return "%s\n%s\n" % (json.dumps(record), json.dumps(result))


def pair(i, parent, change, **change_run):
    row = {"seed": i, "first": ("parent", "change")[i % 2]}
    for side, values, kw in (("parent", parent, {}), ("change", change, change_run)):
        record, metrics, outcome = bench_pairs.parse_run(run_output(*values, **kw))
        row[side], row[side + "_digest"] = metrics, record["output_digest"]
        row.update((side + "_" + k, v) for k, v in outcome.items())
    return row


def winning_pairs(**last_change_run):
    """Ten pairs where the change wins ops/s clearly; the last change run
    takes ``last_change_run``."""
    return [pair(i, (900 + 10 * i, 1.0, 25.0), (1200 + 10 * i, 1.0, 25.0),
                 **(last_change_run if i == 9 else {}))
            for i in range(10)]


def test_parse_run_reads_record_metrics_and_outcome():
    record, metrics, outcome = bench_pairs.parse_run(
        run_output(900.0, 0.8, 24.0, "abc", correct=False, failed=3))
    assert record["output_digest"] == "abc"
    assert metrics == {"ops_per_s": 900.0, "op_p50_ms": 0.8, "peak_rss_mb": 24.0}
    assert outcome == {"correct": False, "attempted": 10, "failed": 3}


def test_spread_is_median_and_inclusive_quartiles():
    assert bench_pairs.spread([4, 1, 3, 2, 5]) == {"median": 3, "q1": 2, "q3": 4}
    assert bench_pairs.spread([7]) == {"median": 7, "q1": 7, "q3": 7}


def test_aggregate_claims_gain_and_flags_regression():
    # ops/s: the change wins 9 of 10 pairs by far more than the spread;
    # p50: one tie and nine small wins inside the parent's spread;
    # RSS: the change is 20 % worse, beyond the 10 % bound.
    pairs = [pair(i, (900 + 10 * i, 1.0 + 0.1 * i, 25.0),
                  (1200 + 10 * i if i else 800, 1.0 + 0.1 * i - 0.01 * bool(i), 30.0))
             for i in range(10)]
    traced = {"parent": {"poly.mul.calls": 617}, "change": {"poly.mul.calls": 24}}
    out = bench_pairs.aggregate(pairs, END_TO_END, traced)
    assert out["all_correct"] and out["digests_equal"] and out["sound"]
    assert out["failed_share"] == {"parent": 0, "change": 0}
    ops, p50, rss = (out["end_to_end"][m] for m in ("ops_per_s", "op_p50_ms", "peak_rss_mb"))
    assert ops["change_wins"] == 9 and ops["pairs"] == 10
    assert ops["parent"]["median"] == 945 and ops["change"]["median"] == 1245
    assert ops["ratio"] == 1245 / 945
    assert ops["gain_holds"] and not ops["beyond_bound"]
    assert p50["change_wins"] == 9 and not p50["gain_holds"] and not p50["beyond_bound"]
    assert rss["change_wins"] == 0 and rss["ratio"] == 1.2
    assert rss["beyond_bound"] and not rss["gain_holds"]
    assert out["per_layer"] == {"poly.mul.calls": {"parent": 617, "change": 24}}


def test_aggregate_reports_attempted_operations():
    """Each side's spread of attempted operations and the ratio of their
    medians stand beside the end-to-end comparisons, so a peak RSS that
    follows the operation count can be read off."""
    pairs = [pair(i, (900 + 10 * i, 1.0, 25.0), (1100 + 10 * i, 1.0, 27.0),
                  attempted=1100 * 30 + 300 * i) for i in range(10)]
    for i, row in enumerate(pairs):
        row["parent_attempted"] = 900 * 30 + 300 * i
    out = bench_pairs.aggregate(pairs, END_TO_END)
    assert out["attempted"]["parent"] == {"median": 28350, "q1": 27675, "q3": 29025}
    assert out["attempted"]["change"]["median"] == 34350
    assert out["attempted"]["ratio"] == 34350 / 28350
    assert out["failed_share"] == {"parent": 0, "change": 0}


def test_aggregate_needs_nine_tenths():
    pairs = [pair(i, (1000, 1.0, 25.0), (1100 if i < 8 else 1000, 1.0, 25.0)) for i in range(10)]
    out = bench_pairs.aggregate(pairs, END_TO_END)
    assert out["sound"] and "per_layer" not in out
    assert out["end_to_end"]["ops_per_s"]["change_wins"] == 8
    assert not out["end_to_end"]["ops_per_s"]["gain_holds"]


def test_winning_pairs_hold_a_gain():
    out = bench_pairs.aggregate(winning_pairs(), END_TO_END)
    assert out["sound"] and out["end_to_end"]["ops_per_s"]["gain_holds"]


@pytest.mark.parametrize("change_run, flag", [
    ({"correct": False}, "all_correct"),
    ({"digest": "other"}, "digests_equal"),
])
def test_no_gain_on_wrong_output(change_run, flag):
    out = bench_pairs.aggregate(winning_pairs(**change_run), END_TO_END)
    assert not out[flag] and not out["sound"]
    assert out["end_to_end"]["ops_per_s"]["change_wins"] == 10
    assert not out["end_to_end"]["ops_per_s"]["gain_holds"]


def test_no_gain_when_the_change_fails_more_operations():
    out = bench_pairs.aggregate(winning_pairs(failed=1), END_TO_END)
    assert out["all_correct"] and out["digests_equal"]
    assert out["failed_share"] == {"parent": 0, "change": 1 / 100}
    assert not out["sound"] and not out["end_to_end"]["ops_per_s"]["gain_holds"]
    # as many failures on both sides is no reason to refuse the gain
    pairs = winning_pairs(failed=1)
    pairs[0]["parent_failed"] = 1
    assert bench_pairs.aggregate(pairs, END_TO_END)["sound"]


def test_blob_id_is_gits_object_id():
    assert bench_pairs.blob_id(b"") == "e69de29bb2d1d6434b8b29ae775ad8c2e48c5391"
    assert bench_pairs.blob_id(b"hello\n") == "ce013625030ba8dba906f756967f9e9ca394464a"


@pytest.mark.parametrize("wrong_change", [False, True])
def test_main_runs_ten_alternating_pairs_per_workload(monkeypatch, tmp_path, wrong_change):
    bench = json.loads((bench_pairs.ROOT / "BENCHMARK.json").read_text())
    calls = []

    def fake_run(checkout, workload, seed, seconds, trace):
        side = "change" if checkout == bench_pairs.ROOT else "parent"
        calls.append((side, workload, seed, seconds, trace))
        fast = side == "change"
        record, metrics, outcome = bench_pairs.parse_run(run_output(
            1200.0 + seed if fast else 900.0 + seed, 1.0, 25.0,
            correct=not (fast and wrong_change and seed == 7)))
        for m in bench["end_to_end"]:
            metrics.setdefault(m["name"], 1.0)
        return record, metrics, outcome

    monkeypatch.setattr(bench_pairs, "run", fake_run)
    monkeypatch.setattr(bench_pairs, "describe", lambda checkout: {"commit": str(checkout)})
    out = tmp_path / "bench.json"
    code = bench_pairs.main(["--parent", str(tmp_path), "--seed", "5", "--out", str(out)])
    report = json.loads(out.read_text())

    names = [w["name"] for w in bench["workloads"]]
    assert list(report["workloads"]) == sorted(names)
    assert report["seconds"] == bench["run_seconds"]
    assert report["sources"]["change"] == {"commit": str(bench_pairs.ROOT)}
    assert {c[3] for c in calls} == {bench["run_seconds"]}
    assert len(calls) == len(names) * (2 * bench_pairs.PAIRS + 2)
    for name in names:
        w = report["workloads"][name]
        assert [p["seed"] for p in w["pairs"]] == list(range(5, 15))
        assert [p["first"] for p in w["pairs"]] == ["parent", "change"] * 5
        traced = [c for c in calls if c[1] == name and c[4]]
        assert [c[0] for c in traced] == ["parent", "change"] and {c[2] for c in traced} == {5}
        assert w["sound"] is not wrong_change
        assert w["end_to_end"]["ops_per_s"]["gain_holds"] is not wrong_change
    assert code == (1 if wrong_change else 0)
