import hashlib
import json
import math
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twobox import (
    ClassicalMatchedProtocol,
    ContextualValues,
    CountTable,
    DomainError,
    MeasurementModel,
    Postselection,
    QuantumProtocol,
    TwoLevelState,
    ValidationError,
    __version__,
    conditional_mean_quantum,
    estimate_conditional_mean,
    sweep_metric,
)
from twobox.cli import MODES, _range_block, _run_quantum, _write_atomic, main, run, validate_result_document
from twobox.montecarlo import _BLOCK as BLOCK

MATCHED_CFG = {
    "mode": "classical",
    "p1": 1.0,
    "g": 0.1,
    "q": 6 / 11,
    "q0": 4 / 9,
}


def run_to_doc(config, capsys, **kwargs):
    code = run(config, **kwargs)
    captured = capsys.readouterr()
    assert code == 0
    return json.loads(captured.out), captured.err


def write_config(tmp_path, config, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(config), encoding="utf-8")
    return str(path)


class TestClassicalMode:
    def test_matched_point(self, capsys):
        doc, err = run_to_doc(MATCHED_CFG, capsys)
        res = doc["result"]
        flat = [x for row in res["joint"] for x in row]
        assert flat == pytest.approx([0.25, 0.30, 0.25, 0.20], abs=1e-15)
        assert res["conditional_mean"] == pytest.approx(2.0, abs=1e-12)
        assert res["alpha_s"] == pytest.approx(10.0)
        assert res["alpha_sbar"] == pytest.approx(-10.0)
        assert res["unconditional_mean"] == pytest.approx(1.0, abs=1e-12)
        assert res["final_box"] == 2
        assert "conditional mean 2" in err

    def test_other_box(self, capsys):
        cfg = dict(MATCHED_CFG, final_box=1)
        doc, _ = run_to_doc(cfg, capsys)
        assert doc["result"]["final_box"] == 1
        assert doc["result"]["p_box1"] == pytest.approx(0.5, abs=1e-12)

    def test_document_shape(self, capsys):
        doc, _ = run_to_doc(MATCHED_CFG, capsys)
        assert set(doc) == {"mode", "result", "provenance"}
        assert doc["mode"] == "classical"
        assert doc["provenance"]["config"] == json.loads(json.dumps(MATCHED_CFG))
        assert doc["provenance"]["seed"] is None
        assert doc["provenance"]["engine"].startswith("twobox ")


class TestQuantumMode:
    CFG = {"mode": "quantum", "p1": 0.75, "theta": math.pi / 3, "lambda": 0.1}

    def test_weak_value_block(self, capsys):
        doc, _ = run_to_doc(self.CFG, capsys)
        res = doc["result"]
        assert res["weak_value"] == pytest.approx(2.0, abs=1e-12)
        assert res["weak_value_imag"] == pytest.approx(0.0, abs=1e-15)
        assert res["expectation"] == pytest.approx(0.5, abs=1e-12)
        assert res["overlap_probability"] == pytest.approx(0.25, abs=1e-12)

    def test_finite_coupling_block(self, capsys):
        doc, _ = run_to_doc(self.CFG, capsys)
        res = doc["result"]
        assert res["lambda"] == 0.1
        assert res["conditional_mean"] == pytest.approx(1.985074533578583, rel=1e-12)
        assert res["postselection_probability"] == pytest.approx(0.25187971108501767, rel=1e-12)
        assert res["postselection_shift"] == pytest.approx(0.0018797110850176657, rel=1e-10)
        assert res["quantum_disturbance"] == pytest.approx(0.002170503401867141, rel=1e-10)
        assert res["conditional_mean_error"] == pytest.approx(2.0 - 1.985074533578583, rel=1e-10)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(p1=st.floats(0.0, 1.0), theta=st.floats(-10.0, 10.0), lam=st.floats(0.0, 1.0))
    def test_coupling_block_is_the_sweep_at_one_point(self, p1, theta, lam):
        protocol = QuantumProtocol(p1, theta)
        try:
            result = _run_quantum({"mode": "quantum", "p1": p1, "theta": theta, "lambda": lam}, None).result
        except DomainError:
            # zero coupling or zero overlap, where the conditional mean's error is undefined
            with pytest.raises(DomainError):
                sweep_metric(protocol, "conditional_mean_error", [lam])
            return
        for metric in protocol.metrics:
            assert result[metric] == sweep_metric(protocol, metric, [lam]).values[0], metric

    def test_coupling_block_and_readme_list_the_protocol_metrics(self, capsys):
        without = run_to_doc({"mode": "quantum", "p1": 0.75, "theta": 1.0}, capsys)[0]["result"]
        with_lambda = run_to_doc(dict(self.CFG), capsys)[0]["result"]
        assert with_lambda.keys() - without.keys() == {"lambda", *QuantumProtocol.metrics}
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        command_line = readme.split("## Command line")[1].split("\n## ")[0]
        sentence = command_line[command_line.index("\nMetrics") :].split(".\n")[0]
        assert tuple(re.findall(r"`([a-z_]+)`", sentence)) == QuantumProtocol.metrics

    def test_without_lambda_no_coupling_keys(self, capsys):
        cfg = {"mode": "quantum", "p1": 0.75, "theta": math.pi / 3}
        doc, _ = run_to_doc(cfg, capsys)
        assert "conditional_mean" not in doc["result"]
        assert "weak_value" in doc["result"]


def assert_results_close(a, b, path="result"):
    if isinstance(a, dict):
        assert a.keys() == b.keys(), path
        for key in a:
            assert_results_close(a[key], b[key], f"{path}.{key}")
    elif isinstance(a, list):
        assert len(a) == len(b), path
        for k, (x, y) in enumerate(zip(a, b)):
            assert_results_close(x, y, f"{path}[{k}]")
    elif isinstance(a, float):
        assert b == pytest.approx(a, rel=1e-12, abs=1e-12), path
    else:
        assert a == b, path


class TestThetaWrap:
    """Every quantum mode reads theta modulo 2*pi, so a full turn either way changes nothing."""

    CFGS = {
        "quantum": {"mode": "quantum", "p1": 0.75, "lambda": 0.1},
        "witness": {"mode": "witness", "p1": 0.75},
        "sample": {"mode": "sample", "protocol": "quantum", "p1": 0.75, "lambda": 0.3, "n": 2000, "seed": 9},
    }

    @pytest.mark.parametrize("mode", sorted(CFGS))
    @pytest.mark.parametrize("turns", [-1, 1])
    def test_full_turn_gives_the_same_result(self, tmp_path, capsys, mode, turns):
        theta = math.pi / 3
        results = []
        for k, angle in enumerate((theta, theta + turns * 2.0 * math.pi)):
            path = write_config(tmp_path, dict(self.CFGS[mode], theta=angle), name=f"cfg{k}.json")
            assert main(["--config", path, "--quiet"]) == 0
            results.append(json.loads(capsys.readouterr().out)["result"])
        assert_results_close(*results)


class TestMatchMode:
    def test_matched_recipe(self, capsys):
        cfg = {"mode": "match", "theta": math.pi / 3, "g": 0.1}
        doc, _ = run_to_doc(cfg, capsys)
        res = doc["result"]
        assert res["p1"] == 1.0
        assert res["q"] == pytest.approx(6 / 11, rel=1e-15)
        assert res["q0"] == pytest.approx(4 / 9, rel=1e-15)
        assert res["conditional_mean"] == pytest.approx(res["target"], rel=1e-12)
        assert res["p_box2"] == pytest.approx(math.cos(math.pi / 3), rel=1e-12)


class TestWitnessMode:
    def test_anomalous_point(self, capsys):
        cfg = {"mode": "witness", "p1": 0.75, "theta": math.pi / 3}
        doc, _ = run_to_doc(cfg, capsys)
        res = doc["result"]
        assert res["w1"] == pytest.approx(1.5, abs=1e-12)
        assert res["w2"] == pytest.approx(-0.5, abs=1e-12)
        assert res["negative"] is True
        assert res["weak_value"] == pytest.approx(2.0, abs=1e-12)

    def test_ordinary_point(self, capsys):
        cfg = {"mode": "witness", "p1": 1.0, "theta": 0.0}
        doc, _ = run_to_doc(cfg, capsys)
        assert doc["result"]["negative"] is False


# sha256 of the JSON documents, recorded before the amplitude products were
# written once. Each also pins a value whose last bits change when the
# products and the divisions use Python complex arithmetic instead of numpy's.
@pytest.mark.parametrize(
    "cfg, digest",
    [
        (
            {"mode": "quantum", "p1": 0.2, "theta": 2.0, "lambda": 0.1},
            "936de49093414853fae1425a3cf7b024346d20219a6baf7cf271366d8ba6f172",
        ),
        (
            {"mode": "quantum", "p1": 0.3, "theta": 1.5, "lambda": 0.7},
            "e826f9bcdbaa91d99ce74053383ce8a66f731d6d666f8237d3ed00e03352e5c0",
        ),
        (
            {"mode": "quantum", "p1": 0.6, "theta": 0.5, "lambda": 1e-8},
            "a1ea7ae08dbf51ec1c03c76044376b502145fa0b0e2fb707b01e3a2e17bfe26e",
        ),
        (
            {"mode": "witness", "p1": 0.7, "theta": 2.0},  # w1 = -51.1: negative
            "9f8f464f921f94f7c244aa5ae63253d3452334c6f78ef56730e3660057101d0c",
        ),
        (
            {"mode": "witness", "p1": 0.4, "theta": 5.0},
            "12f814a2ee41a45c52e47f1a08706e140ac16cab978b44482c1053db2c1c70b3",
        ),
    ],
    ids=["quantum-anomalous", "quantum-strong", "quantum-weak", "witness-negative", "witness-positive"],
)
def test_quantum_and_witness_json_bytes_pinned(tmp_path, cfg, digest):
    out = tmp_path / "point.json"
    run(cfg, out=str(out), quiet=True)
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


class TestSweepMode:
    CFG = {
        "mode": "sweep",
        "protocol": "classical",
        "theta": math.pi / 3,
        "metric": "conditional_mean",
        "strengths": [0.1, 0.01, 0.001],
    }

    def test_points(self, capsys):
        doc, _ = run_to_doc(self.CFG, capsys)
        res = doc["result"]
        assert res["parameter"] == "g"
        assert res["protocol"] == "classical_matched"
        assert [p["param"] for p in res["points"]] == [0.1, 0.01, 0.001]
        for p in res["points"]:
            assert p["value"] == pytest.approx(2.0, abs=1e-12)
            assert p["stderr"] is None

    def test_grid_spec_log(self, capsys):
        cfg = {
            "mode": "sweep",
            "protocol": "quantum",
            "p1": 0.75,
            "theta": math.pi / 3,
            "metric": "conditional_mean",
            "strengths": {"from": 1e-3, "to": 1e-1, "points": 5, "scale": "log"},
        }
        doc, _ = run_to_doc(cfg, capsys)
        params = [p["param"] for p in doc["result"]["points"]]
        assert params[0] == pytest.approx(1e-3)
        assert params[-1] == pytest.approx(1e-1)
        assert len(params) == 5

    def test_csv_output(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = run(dict(self.CFG), out=str(out), fmt="csv", quiet=True)
        assert code == 0
        raw = out.read_bytes()
        assert b"\r" not in raw
        lines = raw.decode("utf-8").splitlines()
        assert lines[0] == "param,value,metric,stderr"
        assert len(lines) == 4
        for line in lines[1:]:
            param, value, metric, stderr = line.split(",")
            assert metric == "conditional_mean"
            assert stderr == ""
            assert float(value) == pytest.approx(2.0, abs=1e-12)
        assert [float(l.split(",")[0]) for l in lines[1:]] == [0.1, 0.01, 0.001]

    def test_csv_round_trips_17_digits(self, tmp_path):
        cfg = {
            "mode": "sweep",
            "protocol": "quantum",
            "p1": 0.75,
            "theta": math.pi / 3,
            "metric": "postselection_probability",
            "strengths": [0.1],
        }
        out = tmp_path / "one.csv"
        run(cfg, out=str(out), fmt="csv", quiet=True)
        line = out.read_text(encoding="utf-8").splitlines()[1]
        value = float(line.split(",")[1])
        assert value == 0.25187971108501767

    # sha256 of the 1000-point matched classical CSV sweeps, recorded before
    # sweeps became one array call; the classical arithmetic is unchanged
    @pytest.mark.parametrize(
        "metric, digest",
        [
            ("conditional_mean", "e898997b2f7d938758cbaa17567684526631ab2518fc5d0e67b06d52187b310e"),
            ("conditional_mean_error", "a1f824f0e6591ccbd4cf3ab4257e84115e92fe5113fd1a2b5480d1974b05b641"),
            ("postselection_probability", "8557883e4ed881c7cc8c20de97e4604c46e8c40b68bdb0104575eb200f01991e"),
            ("postselection_shift", "565f3f91624d7542561d111b34ebcee258a2ba1004089a7631dd4ef4d90274cf"),
        ],
    )
    def test_classical_csv_bytes_pinned(self, tmp_path, metric, digest):
        cfg = {
            "mode": "sweep",
            "protocol": "classical",
            "theta": math.pi / 3,
            "metric": metric,
            "strengths": {"from": 1e-6, "to": 0.4, "points": 1000, "scale": "log"},
        }
        out = tmp_path / "classical.csv"
        run(cfg, out=str(out), fmt="csv", quiet=True)
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def reference_sweep_bytes(config, fmt):
    """A sweep document written the simple way: whole grid, one dict per point, one json.dumps."""
    spec = config["strengths"]
    if isinstance(spec, list):
        grid = np.asarray(spec, dtype=float)
    elif spec.get("scale") == "log":
        grid = np.geomspace(spec["from"], spec["to"], spec["points"])
    else:
        grid = np.linspace(spec["from"], spec["to"], spec["points"])
    if config["protocol"] == "quantum":
        protocol = QuantumProtocol(config["p1"], config["theta"])
    else:
        protocol = ClassicalMatchedProtocol(config["theta"])
    res = sweep_metric(protocol, config["metric"], grid)
    if fmt == "csv":
        rows = [f"{s:.17g},{v:.17g},{res.metric},\n" for s, v in zip(res.strengths.tolist(), res.values.tolist())]
        return ("param,value,metric,stderr\n" + "".join(rows)).encode()
    points = [{"param": s, "value": v, "stderr": None} for s, v in zip(res.strengths.tolist(), res.values.tolist())]
    result = {"parameter": res.parameter, "metric": res.metric, "protocol": res.protocol, "fixed": res.fixed}
    document = {
        "mode": "sweep",
        "result": dict(result, points=points),
        "provenance": {"engine": f"twobox {__version__}", "config": config, "seed": None},
    }
    return (json.dumps(document, sort_keys=True, indent=2, allow_nan=False) + "\n").encode()


class TestStreamedSweep:
    """Sweeps are checked, then formatted and written, one block of points at a time."""

    QUANTUM = {"mode": "sweep", "protocol": "quantum", "p1": 0.75, "theta": math.pi / 3, "metric": "conditional_mean"}

    def test_quantum_json_bytes_pinned(self, tmp_path, capsys):
        # sha256 recorded when sweeps were written as one json.dumps of per-point dicts
        cfg = dict(self.QUANTUM, strengths={"from": 1e-12, "to": 1e-1, "points": BLOCK + 1, "scale": "log"})
        out = tmp_path / "sweep.json"
        run(cfg, out=str(out), quiet=True)
        data = out.read_bytes()
        assert hashlib.sha256(data).hexdigest() == "c09be24ceb04ad2f645a5aa36748f117d40921d8b8ffcfa866cb8f1de968163a"
        run(cfg, quiet=True)
        assert capsys.readouterr().out.encode() == data

    @pytest.mark.parametrize("points", [1, 2, BLOCK, BLOCK + 1])
    @pytest.mark.parametrize(
        "kind, base",
        [
            ("log", dict(QUANTUM, strengths={"from": 1e-12, "to": 1e-1, "scale": "log"})),
            ("linear", dict(QUANTUM, metric="quantum_disturbance", strengths={"from": 0.9, "to": 1e-3})),
            ("list", {"mode": "sweep", "protocol": "classical", "theta": 1.0, "metric": "postselection_shift"}),
        ],
    )
    def test_bytes_match_the_reference_writer(self, tmp_path, capsys, kind, base, points):
        if kind == "list":
            cfg = dict(base, strengths=[0.5 - k * 3e-6 for k in range(points)])
        else:
            cfg = dict(base, strengths=dict(base["strengths"], points=points))
        for fmt in ("json", "csv"):
            out = tmp_path / f"sweep.{fmt}"
            run(cfg, out=str(out), fmt=fmt, quiet=True)
            assert out.read_bytes() == reference_sweep_bytes(cfg, fmt)
        run(cfg, fmt="csv", quiet=True)
        assert capsys.readouterr().out.encode() == reference_sweep_bytes(cfg, "csv")

    @pytest.mark.parametrize(
        "lo, hi, points, log",
        [
            (1e-12, 1e-1, 2 * BLOCK + 3, True),
            (0.4, 1e-6, BLOCK + 1, True),
            (3e-5, 7e-2, 1, True),
            (-0.0, 1.0, 1, False),
            (0.9, -0.25, 2 * BLOCK + 3, False),
            (0.0, 1e-322, 7, False),  # a step that underflows to zero
            (0.5, 0.5, 3, False),
        ],
    )
    def test_grid_blocks_are_numpy_grids(self, lo, hi, points, log):
        whole = np.geomspace(lo, hi, points) if log else np.linspace(lo, hi, points)
        blocks = [_range_block(lo, hi, points, k, min(k + BLOCK, points), log) for k in range(0, points, BLOCK)]
        assert np.concatenate(blocks).tobytes() == whole.tobytes()

    def grid_with(self, changes):
        grid = [1e-3 + k * 1e-6 for k in range(BLOCK + 10)]
        for index, value in changes.items():
            grid[index] = value
        return grid

    ZERO_COUPLING = "conditional_mean undefined at lambda = 0.0: conditional mean undefined at zero coupling (lam = 0)"

    @pytest.mark.parametrize(
        "changes, code, message",
        [
            # the first failing point is in the second block
            ({BLOCK + 3: 0.0}, 3, ZERO_COUPLING),
            # a kernel error in the second block wins over a grid that is not monotone in the first
            ({5: 1e-3, BLOCK + 3: 0.0}, 3, ZERO_COUPLING),
            ({5: 1e-3, BLOCK + 3: 1.5}, 2, "coupling lam must be in [0, 1], got 1.5"),
            # equal only across the block boundary
            ({BLOCK: 1e-3 + (BLOCK - 1) * 1e-6}, 2, "strengths must be strictly monotone"),
            # falling only across the block boundary, rising everywhere else
            ({BLOCK: 1e-3}, 2, "strengths must be strictly monotone"),
        ],
    )
    def test_failing_sweep_writes_nothing(self, tmp_path, capsys, changes, code, message):
        path = write_config(tmp_path, dict(self.QUANTUM, strengths=self.grid_with(changes)))
        out = tmp_path / "sweep.json"
        for argv in (["--out", str(out)], ["--format", "csv"], []):
            assert main(["--config", path, *argv]) == code
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"error: {message}\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_memory_does_not_grow_with_points(self, tmp_path, fmt):
        # a writer that holds the whole document takes about 1 KB per point (JSON) and 250 B (CSV)
        def sweep(points):
            return dict(self.QUANTUM, strengths={"from": 1e-12, "to": 1e-1, "points": points, "scale": "log"})

        run(sweep(1000), out=str(tmp_path / "warm"), fmt=fmt, quiet=True)
        peaks = {}
        for points in (200_000, 400_000):
            tracemalloc.start()
            try:
                run(sweep(points), out=str(tmp_path / "sweep"), fmt=fmt, quiet=True)
                peaks[points] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert (peaks[400_000] - peaks[200_000]) / 200_000 <= 4.0


class TestSampleMode:
    CFG = dict(MATCHED_CFG, mode="sample", protocol="classical", n=1000, seed=7)

    def test_frozen_counts_and_estimate(self, capsys):
        doc, _ = run_to_doc(self.CFG, capsys)
        res = doc["result"]
        assert res["counts"] == [[258, 299], [261, 182]]
        counts = CountTable(res["counts"])
        mean, stderr = estimate_conditional_mean(counts, ContextualValues.symmetric(0.1), 2)
        assert res["conditional_mean"] == pytest.approx(mean, rel=1e-15)
        assert res["stderr"] == pytest.approx(stderr, rel=1e-15)
        assert res["exact_conditional_mean"] == pytest.approx(2.0, abs=1e-12)
        assert res["gof"] is not None and res["gof"]["reject"] is False
        assert res["trace"] is False

    def test_seed_flag_overrides_config(self, capsys):
        doc, _ = run_to_doc(self.CFG, capsys, seed=8)
        assert doc["provenance"]["seed"] == 8
        assert doc["result"]["counts"] != [[258, 299], [261, 182]]

    def test_small_n_gof_omitted(self, capsys):
        doc, _ = run_to_doc(dict(self.CFG, n=10, seed=1), capsys)
        assert doc["result"]["gof"] is None

    def test_quantum_sample(self, capsys):
        cfg = {
            "mode": "sample",
            "protocol": "quantum",
            "p1": 0.75,
            "theta": math.pi / 3,
            "lambda": 0.1,
            "n": 20000,
            "seed": 13,
        }
        doc, _ = run_to_doc(cfg, capsys)
        res = doc["result"]
        exact = res["exact_conditional_mean"]
        assert exact == pytest.approx(1.985074533578583, rel=1e-12)
        assert abs(res["conditional_mean"] - exact) <= 5 * res["stderr"]

    def test_quantum_exact_mean_is_the_engine_value_in_the_weak_limit(self, capsys):
        cfg = {"mode": "sample", "protocol": "quantum", "p1": 0.75, "theta": 1.0, "lambda": 1e-9}
        cfg.update(n=100, seed=3)
        doc, _ = run_to_doc(cfg, capsys)
        i = TwoLevelState.from_occupation(0.75)
        f = Postselection(1.0).state
        exact = conditional_mean_quantum(i, MeasurementModel(1e-9), f)
        assert doc["result"]["exact_conditional_mean"] == exact

    def test_trace_csv(self, tmp_path):
        cfg = dict(self.CFG, n=50, trace=True)
        out = tmp_path / "trace.csv"
        run(cfg, out=str(out), fmt="csv", quiet=True)
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "trial,signal,final_box"
        assert len(lines) == 51
        for k, line in enumerate(lines[1:]):
            trial, signal, box = line.split(",")
            assert int(trial) == k
            assert signal in ("S", "Sbar")
            assert box in ("1", "2")

    def test_trace_csv_bytes_pinned(self, tmp_path, capsys):
        # sha256 recorded when traces were lists of per-trial records written in one piece
        cfg = dict(self.CFG, n=100_000, trace=True)
        out = tmp_path / "trace.csv"
        run(cfg, out=str(out), fmt="csv", quiet=True)
        data = out.read_bytes()
        assert hashlib.sha256(data).hexdigest() == "6993a2e6e58a3878af1f958112e26ce8010c30c14766f6584bb22bebe35e6103"
        run(cfg, fmt="csv", quiet=True)
        assert capsys.readouterr().out.encode() == data

    def test_trace_csv_memory_is_two_bytes_per_trial(self, tmp_path):
        # the trace columns take 1 + 1 bytes per trial; rows are formatted a block at a time
        cfg = dict(self.CFG, trace=True)
        run(dict(cfg, n=1000), out=str(tmp_path / "warm.csv"), fmt="csv", quiet=True)
        peaks = {}
        for n in (200_000, 400_000):
            tracemalloc.start()
            try:
                run(dict(cfg, n=n), out=str(tmp_path / "trace.csv"), fmt="csv", quiet=True)
                peaks[n] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert (peaks[400_000] - peaks[200_000]) / 200_000 <= 4.0

    def test_trace_counts_match_trace_records(self, capsys):
        doc_plain, _ = run_to_doc(dict(self.CFG, trace=True), capsys)
        # trace mode simulates stage by stage yet must sample the same law
        counts = CountTable(doc_plain["result"]["counts"])
        assert counts.total == 1000
        assert doc_plain["result"]["gof"]["reject"] is False


class TestDeterminism:
    def test_json_bytes_reproducible(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        cfg = dict(TestSampleMode.CFG)
        run(dict(cfg), out=str(a), quiet=True)
        run(dict(cfg), out=str(b), quiet=True)
        assert a.read_bytes() == b.read_bytes()

    def test_worker_count_invisible_in_output(self, tmp_path, monkeypatch):
        cfg = {
            "mode": "sweep",
            "protocol": "quantum",
            "p1": 0.75,
            "theta": math.pi / 3,
            "metric": "conditional_mean",
            "strengths": {"from": 1e-3, "to": 1e-1, "points": 24, "scale": "log"},
        }
        outputs = []
        for workers in ("1", "3"):
            monkeypatch.setenv("TWOBOX_WORKERS", workers)
            path = tmp_path / f"w{workers}.json"
            run(dict(cfg), out=str(path), quiet=True)
            outputs.append(path.read_bytes())
        assert outputs[0] == outputs[1]
        assert b"workers" not in outputs[0].lower()


class TestResultDocumentValidation:
    def template(self):
        return {
            "mode": "classical",
            "result": {"x": 1.0},
            "provenance": {"engine": "twobox 0.1.0", "config": {}, "seed": None},
        }

    def test_accepts_template(self):
        validate_result_document(self.template())

    def test_rejects_extra_top_key(self):
        doc = self.template()
        doc["extra"] = 1
        with pytest.raises(ValidationError, match="exactly the keys"):
            validate_result_document(doc)

    def test_accepts_an_int_beyond_the_float_range(self):
        doc = self.template()
        doc["result"]["x"] = 10**400
        validate_result_document(doc)

    def test_rejects_nan(self):
        doc = self.template()
        doc["result"]["x"] = float("nan")
        with pytest.raises(ValidationError, match="non-finite"):
            validate_result_document(doc)

    def test_rejects_bad_provenance(self):
        doc = self.template()
        doc["provenance"].pop("seed")
        with pytest.raises(ValidationError, match="provenance"):
            validate_result_document(doc)

    def test_rejects_unknown_mode(self):
        doc = self.template()
        doc["mode"] = "mystery"
        with pytest.raises(ValidationError, match="unknown mode"):
            validate_result_document(doc)

    def test_rejects_unserializable(self):
        doc = self.template()
        doc["result"]["x"] = object()
        with pytest.raises(ValidationError, match="unserializable"):
            validate_result_document(doc)


class TestExitCodes:
    def test_unknown_mode(self, tmp_path, capsys):
        path = write_config(tmp_path, {"mode": "mystery"})
        assert main(["--config", path]) == 2
        assert "unknown mode" in capsys.readouterr().err

    def test_missing_required_key(self, tmp_path, capsys):
        path = write_config(tmp_path, {"mode": "classical", "p1": 1.0})
        assert main(["--config", path]) == 2
        assert "required" in capsys.readouterr().err

    def test_config_not_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        assert main(["--config", str(path)]) == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_config_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "binary.json"
        path.write_bytes(b"\xff")
        assert main(["--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read config file") and "0xff" in err
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_config_int_beyond_the_digit_limit(self, tmp_path, capsys):
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(MATCHED_CFG).replace('"g": 0.1', '"g": 1' + "0" * 5000), encoding="utf-8")
        assert main(["--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read config file") and "5001 digits" in err
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_sample_beyond_int64_trials_writes_nothing(self, tmp_path, capsys):
        out = tmp_path / "sample.json"
        for trace in (False, True):
            path = write_config(tmp_path, dict(TestSampleMode.CFG, n=10**400, trace=trace))
            assert main(["--config", path, "--out", str(out)]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error: number of trials must be an integer in [0, 2**63)")
            assert not out.exists()
            assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]

    def test_trace_beyond_the_address_space_is_exit_2(self, tmp_path, capsys):
        # 2**62 trials need 2**63 bytes of trace columns, which no address space holds,
        # so the allocation fails at once and nothing is allocated
        out = tmp_path / "trace.csv"
        path = write_config(tmp_path, dict(TestSampleMode.CFG, n=2**62, trace=True))
        assert main(["--config", path, "--out", str(out), "--format", "csv"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: a trace of n = {2**62} trials needs {2**63} bytes, more than can be allocated\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]

    def test_config_missing_file(self, tmp_path, capsys):
        assert main(["--config", str(tmp_path / "nope.json")]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_csv_unavailable_for_witness(self, tmp_path, capsys):
        path = write_config(tmp_path, {"mode": "witness", "p1": 0.75, "theta": 1.0})
        assert main(["--config", path, "--format", "csv"]) == 2
        assert "csv output is not available" in capsys.readouterr().err

    def test_sample_requires_seed(self, tmp_path, capsys):
        cfg = {k: v for k, v in TestSampleMode.CFG.items() if k != "seed"}
        path = write_config(tmp_path, cfg)
        assert main(["--config", path]) == 2
        assert "requires a seed" in capsys.readouterr().err

    def test_orthogonal_postselection_is_exit_3(self, tmp_path, capsys):
        path = write_config(
            tmp_path, {"mode": "quantum", "p1": 0.75, "theta": 2 * math.pi / 3}
        )
        assert main(["--config", path]) == 3
        assert "zero overlap" in capsys.readouterr().err

    def test_unmatchable_target_is_exit_3(self, tmp_path, capsys):
        path = write_config(tmp_path, {"mode": "match", "theta": 2.0, "g": 0.1})
        assert main(["--config", path]) == 3

    def test_impossible_postselection_is_exit_3(self, tmp_path, capsys):
        cfg = {"mode": "classical", "p1": 1.0, "g": 0.5, "q": 0.0, "q0": 0.0}
        path = write_config(tmp_path, cfg)
        assert main(["--config", path]) == 3
        assert "postselection never occurs" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "cfg, code, named",
        [
            ({"protocol": "classical", "theta": math.pi / 3, "strengths": [0.1, 0.9, 1.5]}, 3, "g = 0.9"),
            ({"protocol": "classical", "theta": math.pi / 3, "strengths": [0.1, 1.5, 0.9]}, 2, "got 1.5"),
            ({"protocol": "quantum", "p1": 0.75, "theta": 1.0, "strengths": [0.2, 0.0, 1.2]}, 3, "lambda = 0.0"),
            ({"protocol": "quantum", "p1": 0.75, "theta": 1.0, "strengths": [0.2, 1.2, 0.0]}, 2, "got 1.2"),
        ],
    )
    def test_mixed_sweep_grid_exit_code_follows_first_bad_point(self, tmp_path, capsys, cfg, code, named):
        path = write_config(tmp_path, {"mode": "sweep", "metric": "conditional_mean", **cfg})
        assert main(["--config", path]) == code
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize(
        "cfg, message",
        [
            (dict(MATCHED_CFG, g=10**400), f"config key 'g' must be a finite number, got {10**400!r}"),
            (
                {"mode": "sweep", "protocol": "quantum", "p1": 0.75, "theta": 1.0, "strengths": [0.1, 10**400]},
                f"strengths entries must be finite numbers, got {10**400!r}",
            ),
            (
                {"mode": "sweep", "protocol": "quantum", "p1": 0.75, "theta": 1.0,
                 "strengths": {"from": 0.1, "to": 0.2, "points": 10**400}},
                f"strengths 'points' must be at most 2**53, got {10**400!r}",
            ),
            (
                {"mode": "sweep", "protocol": "quantum", "p1": 0.75, "theta": 1.0,
                 "strengths": {"from": 0.1, "to": 0.2, "points": 2**53 + 1}},
                f"strengths 'points' must be at most 2**53, got {2**53 + 1!r}",
            ),
        ],
    )
    def test_integer_no_float_holds_is_exit_2(self, tmp_path, capsys, cfg, message):
        path = write_config(tmp_path, {"metric": "conditional_mean", **cfg})
        assert main(["--config", path]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_linear_grid_span_beyond_the_float_range_is_exit_2(self, tmp_path, capsys):
        grid = {"from": -1e308, "to": 1e308, "points": 3}
        cfg = {"mode": "sweep", "protocol": "quantum", "p1": 0.75, "theta": 1.0, "metric": "conditional_mean"}
        assert main(["--config", write_config(tmp_path, dict(cfg, strengths=grid))]) == 2
        err = capsys.readouterr().err
        assert err == "error: strengths from -1e+308 to 1e+308 span more than the float range\n"
        assert "RuntimeWarning" not in err

    def test_unwritable_output_is_exit_2(self, tmp_path, capsys):
        path = write_config(tmp_path, MATCHED_CFG)
        missing = tmp_path / "absent" / "x.json"
        assert main(["--config", path, "--out", str(missing)]) == 2
        assert "cannot write" in capsys.readouterr().err

    def test_zero_coupling_sample_is_exit_3(self, tmp_path, capsys):
        cfg = {
            "mode": "sample",
            "protocol": "quantum",
            "p1": 0.75,
            "theta": math.pi / 3,
            "lambda": 0.0,
            "n": 100,
            "seed": 1,
        }
        path = write_config(tmp_path, cfg)
        assert main(["--config", path]) == 3
        assert "zero coupling" in capsys.readouterr().err


class TestOutputPlumbing:
    def test_stdout_document_stderr_summary(self, capsys):
        code = run(dict(MATCHED_CFG))
        captured = capsys.readouterr()
        assert code == 0
        json.loads(captured.out)
        assert captured.err.strip().startswith("classical:")

    def test_quiet_suppresses_summary(self, capsys):
        run(dict(MATCHED_CFG), quiet=True)
        captured = capsys.readouterr()
        assert captured.err == ""
        json.loads(captured.out)

    def test_out_file_summary_on_stdout(self, tmp_path, capsys):
        out = tmp_path / "doc.json"
        run(dict(MATCHED_CFG), out=str(out))
        captured = capsys.readouterr()
        assert captured.out.strip().startswith("classical:")
        doc = json.loads(out.read_text(encoding="utf-8"))
        validate_result_document(doc)

    def test_no_temp_files_left_behind(self, tmp_path):
        out = tmp_path / "doc.json"
        run(dict(MATCHED_CFG), out=str(out), quiet=True)
        leftovers = [p.name for p in tmp_path.iterdir() if p.name != "doc.json"]
        assert leftovers == []

    def test_failed_stream_keeps_existing_file(self, tmp_path):
        out = tmp_path / "trace.csv"
        out.write_text("old contents\n", encoding="utf-8")

        def chunks():
            yield "trial,signal,final_box\n"
            yield "0,S,1\n"
            raise RuntimeError("formatter failed")

        with pytest.raises(RuntimeError, match="formatter failed"):
            _write_atomic(str(out), chunks())
        assert out.read_text(encoding="utf-8") == "old contents\n"
        assert [p.name for p in tmp_path.iterdir()] == ["trace.csv"]

    def test_main_via_subprocess(self, tmp_path):
        path = write_config(tmp_path, MATCHED_CFG)
        proc = subprocess.run(
            [sys.executable, "-m", "twobox.cli", "--config", path, "--quiet"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(proc.stdout)
        assert doc["result"]["conditional_mean"] == pytest.approx(2.0, abs=1e-12)

    def test_modes_tuple_is_complete(self):
        assert MODES == ("classical", "quantum", "sweep", "match", "witness", "sample")
