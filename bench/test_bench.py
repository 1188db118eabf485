"""Smoke tests of the benchmark itself, at tiny sizes.

Run from the repository root: python3 -m pytest bench -q
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from twobox import cli  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join(cwd, "bench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    return proc


def last_json(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_format():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]] + list(workloads.WORKLOADS)
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) and len(n) <= 64 for n in names)
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END_UNITS


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_timed_run_passes_gate(workload):
    res = last_json(bench("--workload", workload, "--size", "tiny", "--seconds", "1", "--trace", "0"))
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True and res["failed"] == 0 and res["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == expected
    assert all(math.isfinite(v["value"]) and v["value"] > 0 for v in res["metrics"].values())

    with open(os.path.join(ROOT, ".bench_out", f"{workload}_seed1_trace0.json"), encoding="utf-8") as fh:
        detail = json.load(fh)["detail"]
    # Every measured interval is bracketed by probes, and the raw times are kept.
    if workload == "library_mix":
        assert len(detail["speed_probes_s"]) == 2 * len(detail["raw_rounds"])
    else:
        assert len(detail["speed_probes_s"]) == 2 * sum(len(r["ops"]) for r in detail["raw_rounds"])
        assert len(detail["import_probes_s"]) == len(detail["raw_setup_samples"]) + 1
    assert set(detail["raw_metrics"]) >= {"setup_s", "wall_p50_s", "wall_tail_s", "points_per_s"}


def test_speed_factor():
    assert run.SpeedProbe.factor(run.PROBE_REF_S, run.PROBE_REF_S) == 1.0
    assert run.SpeedProbe.factor(run.PROBE_REF_S, 3 * run.PROBE_REF_S) == pytest.approx(0.5**run.PROBE_ELASTICITY)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_run_spans(workload):
    res = last_json(bench("--workload", workload, "--size", "tiny", "--seed", "3", "--seconds", "2", "--trace", "1"))
    assert res["correct"] is True and res["failed"] == 0
    assert list(res["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    assert all(NAME.fullmatch(k) for k in res["metrics"])
    assert all(math.isfinite(v["value"]) for v in res["metrics"].values())

    with open(os.path.join(ROOT, ".bench_out", f"{workload}_seed3_trace1.json"), encoding="utf-8") as fh:
        walls = json.load(fh)["detail"]["traced_round_s"]  # measured around each traced round
    for k, wall in enumerate(walls):
        sp = spans.Spans(os.path.join(ROOT, ".bench_out", f"spans_{workload}_seed3_round{2 * k + 1}.npz"))
        assert sp.check_links() == []
        assert np.all(sp.self_time >= -1e-9)  # children never cover more than their parent
        ((_, self_sum),) = sp.rounds().values()
        assert self_sum <= wall <= self_sum + max(1e-3, 0.01 * wall)  # all time attributed
    busy = {"sweep_dense": "quantum.calls", "trace_sample": "montecarlo.records", "library_mix": "montecarlo.draws"}
    assert res["metrics"][busy[workload]]["value"] > 0


def test_missing_sources_fail_without_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "sweep_dense", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_tail_percentile():
    assert run.tail([1.0, 5.0, 2.0]) == (5.0, 100)
    assert run.tail([float(k) for k in range(20)]) == (19.0, 100)  # p50 is not a tail
    values = [float(k) for k in range(1, 41)]
    value, pct = run.tail(values)
    assert pct == 75 and sum(v > value for v in values) >= run.TAIL_BEYOND


# ------------------------------------------------------------------ the gate


@pytest.fixture
def outputs(tmp_path):
    """Valid outputs of every tiny CLI operation, written by twobox.cli.run."""
    made = {}
    for name in ("sweep_dense", "trace_sample"):
        for op in workloads.cli_ops(name, workloads.DEFAULT_SEED, "tiny"):
            path = tmp_path / op["out"]
            summary = tmp_path / (op["name"] + ".txt")
            with open(summary, "w", encoding="utf-8") as fh, contextlib.redirect_stdout(fh):
                cli.run(op["config"], out=str(path), fmt=op["fmt"])
            made[op["name"]] = (op, path, summary.read_text(encoding="utf-8"))
    return made


def gate(made, name):
    op, path, stdout = made[name]
    return workloads.check_cli_op(
        op, str(path), stdout, workloads.DEFAULT_SEED, "tiny", cli.validate_result_document
    )["error"]


def test_gate_accepts_valid_outputs(outputs):
    for name in outputs:
        assert gate(outputs, name) is None, name


def test_gate_rejects_wrong_sweep_value(outputs):
    op, path, _ = outputs["quantum_sweep"]
    doc = json.loads(path.read_text())
    doc["result"]["points"][-1]["value"] += 1e-6
    path.write_text(json.dumps(doc))
    assert "from the reference" in gate(outputs, "quantum_sweep")


def test_gate_rejects_invalid_document(outputs):
    op, path, _ = outputs["trace_quantum"]
    doc = json.loads(path.read_text())
    doc["provenance"]["extra"] = 1
    path.write_text(json.dumps(doc))
    assert "ValidationError" in gate(outputs, "trace_quantum")


def test_gate_rejects_csv_shape(outputs):
    op, path, _ = outputs["classical_sweep"]
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[:-1]))
    assert "points" in gate(outputs, "classical_sweep")
    path.write_text("p,v,m,s\n" + "".join(lines[1:]))
    assert "header" in gate(outputs, "classical_sweep")


def test_gate_rejects_trace_tallies(outputs):
    op, path, _ = outputs["trace_classical"]
    text = path.read_text()
    k = text.index(",S,2\n")
    path.write_text(text[:k] + ",S,1\n" + text[k + 5 :])  # one trial moved to another cell
    assert "pinned" in gate(outputs, "trace_classical")
    outputs["trace_classical"] = (op, path, "sample: n = 2000, conditional mean 9 +/- 0.1 (exact 2)")
    path.write_text(text)
    assert "summary" in gate(outputs, "trace_classical")


def test_gof_failure():
    probs = workloads.classical_table(**workloads.TRACE_PARAMS)
    assert workloads.gof_failure(np.round(probs * 1e6), probs) is None
    skewed = np.round(probs[:, ::-1] * 1e6)
    assert "chi-square" in workloads.gof_failure(skewed, probs)
    assert "zero probability" in workloads.gof_failure([[1, 1], [1, 1]], [[0.5, 0.5], [0.0, 0.0]])
