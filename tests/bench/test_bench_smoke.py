"""Tier-1 smoke test of the benchmark: tiny sizes, same code path.

Runs every workload once untraced and once traced through the real runner
(fresh child interpreters included) and checks the contract the driver and
later perf PRs rely on: schema, metric names, trace sanity, digest
agreement, and that ``bench/`` selects no baseline implementation.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]
if str(REPO_ROOT) not in sys.path:
    sys.path.insert(0, str(REPO_ROOT))

from bench import catalog, compare, runner  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
WORKLOAD_NAMES = [w.name for w in catalog.WORKLOADS]


@pytest.fixture(scope="module")
def trace_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("bench_traces")


@pytest.fixture(scope="module")
def document(trace_dir):
    return runner.run_suite(
        WORKLOAD_NAMES, catalog.DEFAULT_SEED, seconds=0, tiny=True, repetitions=1,
        log=lambda _line: None, trace_dir=trace_dir,
    )


def _driver_run(*extra):
    done = subprocess.run(
        [sys.executable, "-m", "bench", "run", "--tiny", "--repetitions", "1",
         "--seed", "3", "--seconds", "1", *extra],
        cwd=REPO_ROOT, capture_output=True, text=True, timeout=120, check=False,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


# ----------------------------------------------------------------------
# BENCHMARK.json
# ----------------------------------------------------------------------
def test_benchmark_json_matches_catalogue_and_contract():
    with open(REPO_ROOT / "BENCHMARK.json") as fh:
        declared = json.load(fh)
    assert declared == catalog.benchmark_json()
    assert set(declared) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert 1 <= declared["run_seconds"] <= 60
    assert 2 <= len(declared["workloads"]) <= 8
    assert 1 <= len(declared["end_to_end"]) <= 16
    assert 1 <= len(declared["per_layer"]) <= 128
    names = []
    for workload in declared["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
        names.append(workload["name"])
    for metric in declared["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in declared["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in declared["end_to_end"] + declared["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
        names.append(metric["name"])
    assert all(NAME.match(n) for n in names)
    assert len(names) == len(set(names)), "a name is used once"
    setup = next(m for m in declared["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in declared["end_to_end"])


# ----------------------------------------------------------------------
# The result document
# ----------------------------------------------------------------------
def test_every_declared_metric_is_present_for_its_workloads(document):
    assert document["schema"] == catalog.SCHEMA
    assert list(document["workloads"]) == WORKLOAD_NAMES
    for name, entry in document["workloads"].items():
        expected = {m.name for m in catalog.END_TO_END}
        expected |= {m.name for m in catalog.PHASE if name in m.workloads}
        assert set(entry["end_to_end"]) == expected
        for metric, summary in entry["end_to_end"].items():
            assert summary["median"] > 0, (name, metric)
            assert summary["n"] == len(summary["values"]) == 1
        assert set(entry["per_layer"]) == {
            m.name for m in catalog.LAYER if name in m.workloads
        }
        assert "trace.overhead_share" in entry["per_layer"]
        assert entry["sizes"] == catalog.sizes_for(name, tiny=True)


def test_every_workload_is_correct_with_nothing_failed(document):
    for name, entry in document["workloads"].items():
        assert entry["correct"] and entry["failed"] == 0, (name, entry["failures"])
        assert entry["failed_share"] == 0 and entry["attempted"] >= 1


def test_traced_replay_reproduces_the_untraced_digests(document):
    for name, entry in document["workloads"].items():
        assert entry["traced_digests"] == entry["repetitions"][0]["digests"], name
        assert entry["traced_digests"], name


def test_churn_reuses_the_per_goal_cache_and_reports_every_edit(document):
    churn = document["workloads"]["symbolic_churn"]
    assert churn["per_layer"]["symbolic.goals_from_cache"]["value"] > 0
    edits = catalog.sizes_for("symbolic_churn", tiny=True)["edits"]
    assert len(churn["detail"]["per_edit"]) == edits
    assert churn["detail"]["base_generation_s"] > 0


def test_span_self_times_fit_inside_their_parents(document, trace_dir):
    for name in WORKLOAD_NAMES:
        with open(trace_dir / f"trace_{name}.json") as fh:
            trace = json.load(fh)
        assert trace["workload"] == name
        spans = trace["spans"]
        covered = [0.0] * len(spans)
        for span_name, start, end, parent in spans:
            assert NAME.match(span_name) and end >= start
            if parent >= 0:
                assert parent < len(spans)
                assert spans[parent][1] <= start and end <= spans[parent][2] + 1e-9
                covered[parent] += end - start
        for index, (_n, start, end, _p) in enumerate(spans):
            assert covered[index] <= (end - start) + 1e-9


# ----------------------------------------------------------------------
# Driver form
# ----------------------------------------------------------------------
def test_driver_form_prints_exactly_the_declared_metrics():
    untraced = _driver_run("--workload", "fuzz_control", "--trace", "0")
    assert set(untraced) == {"correct", "attempted", "failed", "metrics"}
    assert untraced["correct"] is True and untraced["failed"] == 0
    assert set(untraced["metrics"]) == {m.name for m in catalog.END_TO_END}
    assert all(v["value"] > 0 for v in untraced["metrics"].values())
    traced = _driver_run("--workload", "fuzz_control", "--trace", "1")
    assert set(traced["metrics"]) == {m.name for m in catalog.PER_LAYER}
    assert traced["metrics"]["updates_per_s"]["value"] > 0
    assert traced["metrics"]["smt.sat_propagations"]["value"] == 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(REPO_ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "trace_*.json"))
    shutil.copy(REPO_ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "-m", "bench", "run", "--workload", "fuzz_control",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, check=False,
    )
    assert done.returncode != 0
    assert "{" not in done.stdout


# ----------------------------------------------------------------------
# Runner checks and compare verdicts
# ----------------------------------------------------------------------
def _child(**metrics):
    return {"workload": "w", "repetition": 0, "digests": {"d": "x"}, "metrics": metrics,
            "attempted": 1, "failed": 0}


def test_exact_repeat_counters_must_agree():
    same = [_child(**{"smt.sat_propagations": 7, "verdict_s": 1.0}),
            dict(_child(**{"smt.sat_propagations": 7, "verdict_s": 2.0}), repetition=1)]
    runner.check_exact_repeat(same)
    drifted = [same[0], dict(_child(**{"smt.sat_propagations": 8}), repetition=1)]
    with pytest.raises(runner.BenchError, match="smt.sat_propagations"):
        runner.check_exact_repeat(drifted)


def test_trace_with_other_digests_is_rejected():
    untraced = _child()
    traced = dict(_child(), digests={"d": "y"}, span_self_times_fit=True)
    with pytest.raises(runner.BenchError, match="trace rejected"):
        runner.check_trace(untraced, traced)


def test_compare_verdicts():
    steady = [10.0, 10.1, 9.9, 10.05, 9.95, 10.0, 10.1, 9.9, 10.0, 10.0]
    assert compare.judge(steady, [v * 1.3 for v in steady], "lower", 0.1)[3] == "regressed"
    assert compare.judge(steady, [v * 0.7 for v in steady], "lower", 0.1)[3] == "improved"
    assert compare.judge(steady, list(reversed(steady)), "lower", 0.1)[3] == "unchanged"
    noisy = [10.0, 14.0, 7.0, 12.0, 9.0, 15.0, 6.0, 11.0, 13.0, 8.0]
    assert compare.judge(noisy, [v * 1.05 for v in noisy], "lower", 0.1)[3] == "unresolved"
    # Three pairs cannot carry a claim, however clean the sweep.
    assert compare.judge([10.0, 10.1, 9.9], [9.7, 9.8, 9.6], "lower", 0.1)[3] == "unchanged"
    # Higher-is-better metrics flip the direction.
    assert compare.judge(steady, [v * 0.7 for v in steady], "higher", 0.1)[3] == "regressed"


def test_a_document_agrees_with_itself(document):
    rows = compare.compare(document, document)
    assert rows and compare.within_bounds(rows)
    assert all(r.verdict == "unchanged" for r in rows)
    assert "verdict_s" in compare.render(rows)


# ----------------------------------------------------------------------
# The benchmark measures the production path only
# ----------------------------------------------------------------------
def test_bench_selects_no_baseline_implementation():
    banned = re.compile(
        r"\b(kernel|encoder|indexed|incremental|reuse_solvers|force_pipeline|"
        r"workers|pipeline_depth)\s*="
    )
    sources = sorted((REPO_ROOT / "bench").glob("*.py"))
    assert sources
    for path in sources:
        for number, line in enumerate(path.read_text().splitlines(), 1):
            assert not banned.search(line), f"{path.name}:{number}: {line.strip()}"
