"""Fast smoke test of the benchmark runner at tiny input sizes.

    python3 -m pytest -q bench/test_smoke.py

Checks, for every workload: each metric line carries a name, a number and
a unit; the end-to-end run prints all six end-to-end metrics and an error
rate of 0; the JSON last line holds exactly the metrics the mode promises;
two runs with the same seed give identical results and counters; the
runner refuses to run, without a result, where the sources are missing;
a call site that no longer exists leaves its span out instead of
failing; and each op's time is its fastest run among the passes that ran
all of its unit's ops.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("cnf-removal", "af-dynamic", "td-width")
END_TO_END = {"setup_s", "ops_per_s", "op_p50_ms", "op_p90_ms", "peak_rss_mb"}


def _bench_spec():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"] for m in spec["end_to_end"]},
            {m["name"] for m in spec["per_layer"]})


def _run(workload, trace, cwd=ROOT, runner=BENCH_DIR / "run.py"):
    proc = subprocess.run(
        [sys.executable, str(runner), "--workload", workload, "--seed", "3",
         "--seconds", "5", "--trace", str(trace), "--size", "tiny", "--ops", "12"],
        cwd=cwd, capture_output=True, text=True, timeout=120)
    return proc


def _parse(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    metrics = {}
    for line in lines[:-1]:
        if line.startswith("metric "):
            _, name, value, unit = line.split()
            metrics[name] = (float(value), unit)
    digest = next(line for line in lines if line.startswith("results "))
    return result, metrics, digest


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_run(workload):
    declared, _ = _bench_spec()
    result, metrics, digest = _parse(_run(workload, 0))
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 12
    assert set(metrics) == END_TO_END | {"error_rate"}
    assert metrics["error_rate"] == (0.0, "ratio")
    assert set(result["metrics"]) == declared
    for name, entry in result["metrics"].items():
        assert entry["unit"] == metrics[name][1]
        assert entry["value"] > 0
    again, _, digest_again = _parse(_run(workload, 0))
    assert digest_again == digest
    assert again["attempted"] == result["attempted"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_repeats_counters(workload):
    _, declared = _bench_spec()
    first, metrics, digest = _parse(_run(workload, 1))
    assert first["correct"] and first["failed"] == 0
    assert set(first["metrics"]) == declared
    assert all(unit for _, unit in metrics.values())
    second, metrics_again, digest_again = _parse(_run(workload, 1))
    assert digest_again == digest
    counters = {name: value for name, (value, unit) in metrics.items() if unit != "s"}
    assert counters == {name: value for name, (value, unit) in metrics_again.items()
                        if unit != "s"}
    if workload == "td-width":
        assert metrics["engine.decisions"][0] == 0
        assert metrics["engine.unit_propagate.self_s"][0] == 0
        assert metrics["heuristics.compute_tree_decomposition.self_s"][0] > 0
    else:
        assert metrics["engine.decisions"][0] + metrics["cache.make_key.calls"][0] > 0


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run("cnf-removal", 0, cwd=tmp_path, runner=tmp_path / "bench" / "run.py")
    assert proc.returncode != 0
    assert not proc.stdout.strip()


def test_missing_call_site_reads_absent(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    from dyncount import dimacs
    import tracing

    # re-setting the attribute makes monkeypatch restore the unwrapped function
    monkeypatch.setattr(dimacs, "parse_dimacs", dimacs.parse_dimacs)
    monkeypatch.setattr(tracing, "CALL_SITES", (
        ("dyncount.dimacs", "parse_dimacs", "dimacs.parse_dimacs"),
        ("dyncount.engine", "removed_function", "engine.removed_function"),
        ("dyncount.removed_module", "count", "removed_module.count"),
    ))
    tracer = tracing.Tracer()
    tracer.install()
    assert dimacs.parse_dimacs("p cnf 1 1\n1 0\n") == (1, [(1,)])
    totals = tracer.layer_totals()
    assert set(totals) == {"dimacs.parse_dimacs"}
    assert totals["dimacs.parse_dimacs"][1] == 1
    assert tracer.missing == ["dyncount.engine.removed_function",
                              "dyncount.removed_module.count"]


def test_fastest_takes_each_ops_fastest_full_run(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    import run
    from workloads import OpTimer

    first, second = OpTimer(), OpTimer()
    first.setups, first.durations = [3.0, 2.0], [5.0, 1.0, 4.0, 7.0]
    first.unit_ends = [(1, 2), (2, 4)]
    # the second pass stopped after the first op of its second unit
    second.setups, second.durations = [1.0, 4.0], [6.0, 2.0, 3.0]
    second.unit_ends = [(1, 2), (2, 3)]
    assert run.fastest([first, second]) == ([1.0, 2.0], [5.0, 1.0, 4.0, 7.0])
