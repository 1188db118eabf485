#!/usr/bin/env python3
"""twobox benchmark: three workloads, end-to-end metrics, and a traced per-layer run.

Usage (from the repository root)::

    python3 bench/run.py --workload sweep_dense --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all          # every workload, metrics table

It measures the checked-out ``src/`` (``PYTHONPATH=<root>/src``), never an
installed twobox. Load model: one client in a closed loop; each operation
starts after the previous one has exited, nothing runs concurrently, and
``TWOBOX_WORKERS`` is removed from the children's environment.

With ``--trace 0`` rounds repeat until ``--seconds`` of round time is
measured, and the last stdout line is the JSON result with every
end-to-end metric. With ``--trace 1`` untraced and traced in-process
rounds alternate in fresh children for ``--seconds``; the last line
carries the per-layer metrics. Every operation's output is checked (see
``workloads.py``); a failed check counts in ``failed``. Full results,
provenance and spans go to ``.bench_out/`` under the root.
"""

from __future__ import annotations

import argparse
import glob
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

import numpy as np

import spans
import workloads

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
OUT_DIR = os.path.join(ROOT, ".bench_out")

SETUP_SAMPLES = 7
PROCESS_SAMPLES = 5
OP_TIMEOUT_S = 150.0
TAIL_BEYOND = 10  # wall_tail_s: highest percentile with this many rounds beyond it

# Timed runs report their times at a fixed reference speed. A shared host
# switches between a fast and a slow state, up to 2x apart, for seconds to
# minutes at a time, and raw times follow it. So a fixed calibration loop
# of the same kind of work as the kernels (float math and small numpy
# arrays, no twobox code) is timed right before and right after every
# measured interval. The interval is multiplied by (PROBE_REF_S / p) **
# PROBE_ELASTICITY, where p is the mean of its two probes. The workloads
# slow down less than the loop between the two states: 1.3x to 1.7x per
# operation against 1.9x, an elasticity of about 0.7 in log terms. The raw
# times stay in the results file.
PROBE_ITERATIONS = 6000
PROBE_REPS = 12
PROBE_REF_S = 0.020  # the loop's median time on a shared 2-vCPU VM, so scaled times read like raw ones
PROBE_ELASTICITY = 0.7
# A CLI set-up sample is interpreter start and imports: its time barely
# follows the loop (r^2 0.02 over 76 samples) but does follow a fresh
# interpreter that imports numpy (r^2 0.39). So set-up samples are
# bracketed by that import probe instead, and scaled by
# IMPORT_PROBE_REF_S over the mean of the two, with elasticity 1.
IMPORT_PROBE_CODE = "import numpy; print('ready', flush=True)"
IMPORT_PROBE_REPS = 2
IMPORT_PROBE_REF_S = 0.17  # its median time on the same VM

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_p50_s": "s",
    "wall_tail_s": "s",
    "peak_rss_mb": "MB",
    "points_per_s": "1/s",
}
# Reported in the results file and the table, but not on the result line:
# each is zero, or does not apply, on some workload.
EXTRA_UNITS = {"trials_per_s": "1/s", "max_abs_err": "1", "error_rate": "1"}


class BenchError(Exception):
    """The benchmark cannot run here (for example, no twobox sources)."""


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("TWOBOX_WORKERS", None)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class Proc:
    """One child process, reaped with os.wait4 so its own peak RSS is read.

    Use it as a context manager: a child still running when the block
    exits (on an error, a timeout or a signal) is killed and waited for.
    """

    def __init__(self, args, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, timeout=OP_TIMEOUT_S):
        self.args, self.stdout, self.stderr, self.timeout = args, stdout, stderr, timeout

    def __enter__(self):
        self.t0 = time.perf_counter()
        self.popen = subprocess.Popen(self.args, cwd=ROOT, env=child_env(), stdout=self.stdout, stderr=self.stderr)
        self._timer = threading.Timer(self.timeout, self.popen.kill)
        self._timer.start()
        return self

    def line(self) -> tuple:
        """The next stdout line, and the seconds from spawn until it arrived."""
        text = self.popen.stdout.readline().decode(errors="replace").strip()
        return text, time.perf_counter() - self.t0

    def reap(self) -> tuple:
        """Wait for exit; returns (wall since spawn, exit code, peak RSS in KiB)."""
        if self.popen.stdout is not None:
            self.popen.stdout.read()
        _, status, usage = os.wait4(self.popen.pid, 0)
        wall = time.perf_counter() - self.t0
        self.popen.returncode = os.waitstatus_to_exitcode(status)
        return wall, self.popen.returncode, usage.ru_maxrss

    def __exit__(self, *exc):
        self._timer.cancel()
        if self.popen.returncode is None:
            self.popen.kill()
            self.popen.wait()
        if self.popen.stdout is not None:
            self.popen.stdout.close()
        return False


def python_ready_time(code: str) -> tuple:
    """Spawn `python -c code`; returns (seconds until its first line, exit code, peak RSS, the line)."""
    with Proc([sys.executable, "-c", code], stdout=subprocess.PIPE) as proc:
        line, ready = proc.line()
        _, exit_code, rss = proc.reap()
    return ready, exit_code, rss, line


def calibration_loop() -> float:
    acc = 0.0
    for i in range(PROBE_ITERATIONS):
        x = (i % 997 + 1) * 1e-3
        a = np.array([[x, 1.0 - x], [0.5 * x, 1.0 - 0.5 * x]])
        acc += float(a.sum()) + math.sqrt(x) / (1.0 + x * x)
    return acc


class SpeedProbe:
    """Times the calibration loop; a probe is its mean time over PROBE_REPS runs.

    The mean, unlike the fastest run, grows in step with the share of the
    probe's time that the host spent in its slow state.
    """

    def __init__(self):
        calibration_loop()  # warm-up
        self.samples = []
        self.import_samples = []

    def probe(self) -> float:
        times = []
        for _ in range(PROBE_REPS):
            t = time.perf_counter()
            calibration_loop()
            times.append(time.perf_counter() - t)
        self.samples.append(statistics.fmean(times))
        return self.samples[-1]

    @staticmethod
    def factor(before: float, after: float) -> float:
        """Multiplier that takes a time measured between two probes to the reference speed."""
        return (PROBE_REF_S / ((before + after) / 2.0)) ** PROBE_ELASTICITY

    def import_probe(self) -> float:
        """Mean time until a fresh interpreter has imported numpy, over IMPORT_PROBE_REPS starts."""
        times = []
        for _ in range(IMPORT_PROBE_REPS):
            ready, exit_code, _, line = python_ready_time(IMPORT_PROBE_CODE)
            if exit_code != 0 or line != "ready":
                raise BenchError("a fresh interpreter cannot import numpy")
            times.append(ready)
        self.import_samples.append(statistics.fmean(times))
        return self.import_samples[-1]

    @staticmethod
    def import_factor(before: float, after: float) -> float:
        """Multiplier that takes a set-up time between two import probes to the reference speed."""
        return IMPORT_PROBE_REF_S / ((before + after) / 2.0)


def nearest_rank(values, pct: float) -> float:
    ordered = sorted(values)
    k = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[k - 1]


def tail(values) -> tuple:
    """Highest integer percentile with at least TAIL_BEYOND rounds beyond it.

    When no percentile above the median qualifies (fewer than about
    2 * TAIL_BEYOND rounds), the maximum is reported instead, as
    percentile 100; the results file gives the sample count next to it.
    """
    n = len(values)
    for pct in range(99, 50, -1):
        if n - max(1, math.ceil(pct / 100.0 * n)) >= TAIL_BEYOND:
            return nearest_rank(values, pct), pct
    return max(values), 100


def git_commit() -> str:
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        path = os.path.join(ROOT, ".git", name)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + name):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def provenance(args, load_start) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "git_commit": git_commit(),
        "seed": args.seed,
        "size": args.size,
        "seconds": args.seconds,
        "trace": args.trace,
        "twobox_workers": {
            "environment": os.environ.get("TWOBOX_WORKERS"),
            "children": "unset (removed from every child environment)",
        },
        "load_model": "closed loop, one client, one operation at a time",
        "loadavg_start": list(load_start),
        "loadavg_end": list(os.getloadavg()),
    }


class Workload:
    """Runs one workload's rounds, gates every operation and collects the numbers."""

    def __init__(self, name: str, seed: int, size: str):
        self.name, self.seed, self.size = name, seed, size
        self.work = os.path.join(OUT_DIR, f"work_{name}")
        shutil.rmtree(self.work, ignore_errors=True)
        os.makedirs(self.work)
        self.gate = []  # one {"round", "op", "error"} per gated operation
        self.rss_kb = []
        self.hashes = {}
        self.speed = None  # a SpeedProbe in timed runs
        import twobox.cli

        self.validate = twobox.cli.validate_result_document

    @property
    def is_library(self) -> bool:
        return self.name == "library_mix"

    def ops(self) -> list:
        return workloads.cli_ops(self.name, self.seed, self.size)

    def record(self, rnd, op, info):
        self.gate.append({"round": rnd, "op": op, "error": info.get("error")})
        if info.get("sha256"):
            self.hashes[op] = info["sha256"]

    # ------------------------------------------------------------ set-up

    def cli_setup_samples(self) -> tuple:
        """Set-up times of fresh interpreters: (at reference speed, raw)."""
        code = "import twobox.cli; print('ready', flush=True)"
        samples, raw = [], []
        before = self.speed.import_probe()
        for _ in range(SETUP_SAMPLES):
            ready, exit_code, rss, line = python_ready_time(code)
            after = self.speed.import_probe()
            self.rss_kb.append(rss)
            if exit_code != 0 or line != "ready":
                raise BenchError("importing twobox.cli from src/ failed")
            raw.append(ready)
            samples.append(ready * SpeedProbe.import_factor(before, after))
            before = after
        return samples, raw

    # ------------------------------------------------------ CLI rounds

    def cli_round(self, rnd: int) -> tuple:
        """Each operation as a `twobox` subprocess.

        Returns per-op walls (raw and at reference speed) and per-op gate info.
        """
        walls, scaled, infos = {}, {}, {}
        for op in self.ops():
            cfg = os.path.join(self.work, op["name"] + ".config.json")
            with open(cfg, "w", encoding="utf-8") as fh:
                json.dump(op["config"], fh)
            out = os.path.join(self.work, op["out"])
            if os.path.exists(out):
                os.unlink(out)
            stdout_path = os.path.join(self.work, op["name"] + ".stdout")
            with open(stdout_path, "wb") as so, open(os.path.join(self.work, op["name"] + ".stderr"), "wb") as se:
                args = [sys.executable, "-m", "twobox.cli", "--config", cfg, "--out", out, "--format", op["fmt"]]
                before = self.speed.probe()
                with Proc(args, stdout=so, stderr=se) as proc:
                    wall, exit_code, rss = proc.reap()
                after = self.speed.probe()
            walls[op["name"]] = wall
            scaled[op["name"]] = wall * SpeedProbe.factor(before, after)
            self.rss_kb.append(rss)
            if exit_code != 0:
                info = {"error": f"exit code {exit_code}"}
            else:
                with open(stdout_path, encoding="utf-8", errors="replace") as fh:
                    info = workloads.check_cli_op(op, out, fh.read(), self.seed, self.size, self.validate)
            self.record(rnd, op["name"], info)
            infos[op["name"]] = info
        return walls, scaled, infos

    # -------------------------------------------------- in-process rounds

    def child_round(self, rnd: int, trace: bool, ops=None) -> dict:
        """One in-process round in a fresh child; returns its timings and outputs.

        In timed runs, "factor" takes its times to the reference speed.
        """
        tag = f"{rnd}_{int(trace)}"
        spec = {
            "workload": self.name,
            "seed": self.seed,
            "size": self.size,
            "root": ROOT,
            "work": self.work,
            "trace": trace,
            "ops": [] if self.is_library else ops or [op["name"] for op in self.ops()],
            "result": os.path.join(self.work, f"child_{tag}.json"),
            "round": rnd,
            "spans": spans_path(self, rnd),
        }
        spec_path = os.path.join(self.work, f"child_{tag}.spec.json")
        with open(spec_path, "w", encoding="utf-8") as fh:
            json.dump(spec, fh)
        if os.path.exists(spec["result"]):
            os.unlink(spec["result"])
        with open(os.path.join(self.work, f"child_{tag}.stderr"), "wb") as se:
            args = [sys.executable, os.path.join(BENCH, "child.py"), spec_path]
            before = self.speed.probe() if self.speed else None
            with Proc(args, stdout=subprocess.PIPE, stderr=se) as proc:
                ready, setup = proc.line()
                done, _ = proc.line()
                _, exit_code, rss = proc.reap()
            factor = SpeedProbe.factor(before, self.speed.probe()) if self.speed else 1.0
        self.rss_kb.append(rss)
        result = {
            "setup": setup, "rss_kb": rss, "factor": factor,
            "ok": (ready, done, exit_code) == ("ready", "done", 0),
        }
        if result["ok"]:
            with open(spec["result"], encoding="utf-8") as fh:
                result.update(json.load(fh))
        self.gate_child(rnd, result, spec["ops"])
        return result

    def gate_child(self, rnd: int, result: dict, op_names: list):
        if self.is_library:
            if not result["ok"]:
                for name in workloads.LIBRARY_OPS:
                    self.record(rnd, name, {"error": "child round failed"})
                return
            inputs = workloads.library_inputs(self.seed, self.size)
            for name, error in workloads.check_library(result["out"], inputs, self.seed, self.size):
                self.record(rnd, name, {"error": error})
            return
        for op in self.ops():
            if op["name"] not in op_names:
                continue
            if not result["ok"] or result["out"][op["name"]]["error"]:
                info = {"error": result.get("out", {}).get(op["name"], {}).get("error") or "child round failed"}
            else:
                info = workloads.check_cli_op(
                    op, os.path.join(self.work, op["out"]), result["out"][op["name"]]["stdout"],
                    self.seed, self.size, self.validate,
                )
            self.record(rnd, op["name"], info)
            result.setdefault("info", {})[op["name"]] = info

    # ------------------------------------------------------------ metrics

    def failures(self) -> tuple:
        return len(self.gate), sum(1 for g in self.gate if g["error"])


def round_numbers(w: Workload, rnd: dict) -> dict:
    """Wall time (total and per operation), exact points and their time, trials and their time."""
    if w.is_library:
        walls = rnd["walls"]
        inp = workloads.library_inputs(w.seed, w.size)
        return {
            "wall": rnd["wall"],
            "ops": walls,
            "points": 3 * len(inp["lam_grid"]) + len(inp["extrapolate_grid"]),
            "points_s": walls["sweep_metric"] + walls["weak_limit_extrapolate"],
            "trials": len(inp["keyed_g"]) * inp["keyed_trials"] + inp["big_n"],
            "trials_s": walls["sample_classical_sweep"] + walls["sample_classical"],
        }
    ops = w.ops()
    wall = sum(rnd.values())
    if w.name == "sweep_dense":
        points = sum(op["config"]["strengths"]["points"] for op in ops)
        return {"wall": wall, "ops": rnd, "points": points, "points_s": wall, "trials": 0, "trials_s": wall}
    # trace_sample: each operation builds one exact table (the sampler's reference).
    trials = sum(op["config"]["n"] for op in ops)
    return {"wall": wall, "ops": rnd, "points": len(ops), "points_s": wall, "trials": trials, "trials_s": wall}


def timing_metrics(setups: list, rounds: list) -> dict:
    walls = [r["wall"] for r in rounds]
    m = {
        "setup_s": statistics.median(setups),
        "wall_p50_s": statistics.median(walls),
        "wall_tail_s": tail(walls)[0],
        "points_per_s": statistics.median(r["points"] / r["points_s"] for r in rounds),
    }
    if any(r["trials"] for r in rounds):
        m["trials_per_s"] = statistics.median(r["trials"] / r["trials_s"] for r in rounds)
    return m


def run_timed(args) -> tuple:
    w = Workload(args.workload, args.seed, args.size)
    rounds, raw_rounds, setups, raw_setups = [], [], [], []
    # A first import warms the file cache (and the bytecode cache, where
    # Python writes one); users do not pay that on every run.
    python_ready_time("import twobox.cli; print('ready')")
    w.speed = SpeedProbe()
    if not w.is_library:
        setups, raw_setups = w.cli_setup_samples()
    measured = 0.0
    max_err = None
    while not rounds or measured < args.seconds:
        rnd_id = len(rounds)
        if w.is_library:
            res = w.child_round(rnd_id, trace=False)
            if not res["ok"]:
                raise BenchError("library round child failed; see .bench_out/work_library_mix/*.stderr")
            f = res["factor"]
            setups.append(res["setup"] * f)
            raw_setups.append(res["setup"])
            raw = round_numbers(w, res)
            nums = round_numbers(w, dict(res, wall=res["wall"] * f, walls={k: v * f for k, v in res["walls"].items()}))
        else:
            walls, scaled, infos = w.cli_round(rnd_id)
            raw = round_numbers(w, walls)
            nums = round_numbers(w, scaled)
            if "max_abs_err" in infos.get("quantum_sweep", {}):
                max_err = max(max_err or 0.0, infos["quantum_sweep"]["max_abs_err"])
        rounds.append(nums)
        raw_rounds.append(raw)
        measured += raw["wall"]

    timing = timing_metrics(setups, rounds)
    _, pct = tail([r["wall"] for r in rounds])
    attempted, failed = w.failures()
    metrics = {k: timing[k] for k in ("setup_s", "wall_p50_s", "wall_tail_s", "points_per_s")}
    metrics["peak_rss_mb"] = max(w.rss_kb) / 1024.0
    extra = {"error_rate": failed / attempted}
    if "trials_per_s" in timing:
        extra["trials_per_s"] = timing["trials_per_s"]
    if max_err is not None:
        extra["max_abs_err"] = max_err
    samples = {
        "setup_s": len(setups), "wall_p50_s": len(rounds), "wall_tail_s": len(rounds),
        "peak_rss_mb": len(w.rss_kb), "points_per_s": len(rounds),
        "trials_per_s": len(rounds), "max_abs_err": len(rounds), "error_rate": attempted,
    }
    detail = {
        "rounds": rounds,
        "raw_rounds": raw_rounds,
        "setup_samples": setups,
        "raw_setup_samples": raw_setups,
        "raw_metrics": timing_metrics(raw_setups, raw_rounds),
        "speed_probes_s": w.speed.samples,
        "import_probes_s": w.speed.import_samples,
        "probe_ref_s": PROBE_REF_S,
        "probe_elasticity": PROBE_ELASTICITY,
        "wall_tail_percentile": pct,
        "samples": samples,
        "gate": w.gate,
        "output_sha256": w.hashes,
        "extra_metrics": extra,
    }
    return w, metrics, extra, detail


def run_traced(args) -> tuple:
    """Per-layer metrics: process start-up, then untraced and traced in-process rounds."""
    w = Workload(args.workload, args.seed, args.size)
    for old in glob.glob(os.path.join(OUT_DIR, f"spans_{w.name}_*.npz")):
        os.unlink(old)  # keep only the latest traced run's spans
    m = {}
    interp, imports_numpy, imports = [], [], []
    proc_errors = 0
    python_ready_time("import twobox.cli; print('ready')")  # warm-up, as in run_timed
    for _ in range(PROCESS_SAMPLES):
        ready, code, _, _ = python_ready_time("print('ready', flush=True)")
        interp.append(ready)
        proc_errors += code != 0
        _, code, _, line = python_ready_time(
            "import time; t = time.perf_counter(); import numpy; t1 = time.perf_counter(); "
            "import twobox.cli; t2 = time.perf_counter(); print(t1 - t, t2 - t, flush=True)"
        )
        try:
            a, b = map(float, line.split())
            imports_numpy.append(a)
            imports.append(b)
        except ValueError:
            proc_errors += 1
        proc_errors += code != 0
    if not imports:
        raise BenchError("importing twobox.cli from src/ failed")
    m["process.interpreter_s"] = statistics.median(interp)
    m["process.import_numpy_s"] = statistics.median(imports_numpy)
    m["process.import_s"] = statistics.median(imports)
    m["process.errors"] = proc_errors

    # Untraced and traced rounds alternate, each in a fresh child, for
    # --seconds of wall time (at least one pair); per-layer values are medians.
    pairs, start = [], time.perf_counter()
    while not pairs or time.perf_counter() - start < args.seconds:
        k = 2 * len(pairs)
        plain = w.child_round(k, trace=False)
        traced = w.child_round(k + 1, trace=True)
        if not (plain["ok"] and traced["ok"]):
            raise BenchError("in-process round failed; see .bench_out/work_*/child_*.stderr")
        sp = spans.Spans(spans_path(w, k + 1))
        for p in sp.check_links():
            w.record(k + 1, "spans", {"error": p})
        if not pairs:
            first = sp  # its layer shares go into the results file
        pairs.append((plain["wall"], traced["wall"], traced_metrics(w, sp, traced)))
    for key in pairs[0][2]:
        m[key] = statistics.median(p[2][key] for p in pairs)

    m["montecarlo.rss_per_trial_b"] = 0.0
    if w.name == "trace_sample":
        ops = {o["name"]: o for o in w.ops()}
        big = w.child_round(k + 2, trace=False, ops=["trace_classical"])
        small = w.child_round(k + 3, trace=False, ops=["trace_classical_small"])
        dn = ops["trace_classical"]["config"]["n"] - ops["trace_classical_small"]["config"]["n"]
        m["montecarlo.rss_per_trial_b"] = (big["rss_kb"] - small["rss_kb"]) * 1024.0 / dn

    plain_s = statistics.median(p[0] for p in pairs)
    traced_s = statistics.median(p[1] for p in pairs)
    m["trace.overhead_frac"] = traced_s / plain_s - 1.0
    detail = {
        "untraced_round_s": [p[0] for p in pairs],
        "traced_round_s": [p[1] for p in pairs],
        "spans_per_traced_round": int(first.dur.size),
        "layer_shares": shares(first.layer_self()),
        "op_layer_shares": op_shares(w, first),
        "gate": w.gate,
        "output_sha256": w.hashes,
        "samples": {"process.*": PROCESS_SAMPLES, "traced rounds": len(pairs), "untraced rounds": len(pairs)},
    }
    return w, m, detail


def spans_path(w, rnd: int) -> str:
    return os.path.join(OUT_DIR, f"spans_{w.name}_seed{w.seed}_round{rnd}.npz")


def traced_metrics(w, sp, traced: dict) -> dict:
    """Per-layer metrics of one traced round: span-derived, plus the bytes its operations wrote."""
    m = sp.layer_metrics()
    bytes_out, rows = 0, 0
    for name, info in traced.get("info", {}).items():
        op = next(o for o in w.ops() if o["name"] == name)
        bytes_out += os.path.getsize(os.path.join(w.work, op["out"]))
        rows += info.get("rows", 0)
    m["cli.bytes_out"] = bytes_out
    m["cli.bytes_per_s"] = bytes_out / m["cli.self_s"] if m["cli.self_s"] > 0 else 0.0
    m["cli.records_emitted_ratio"] = rows / m["montecarlo.records"] if m["montecarlo.records"] else 0.0
    return m


def shares(seconds: dict) -> dict:
    total = sum(seconds.values())
    return {k: round(v / total, 4) for k, v in seconds.items()}


def op_shares(w: Workload, sp) -> list:
    """Layer shares of self time per operation of the traced round.

    CLI workloads: one entry per operation. library_mix: the top-level
    library calls, grouped by name.
    """
    calls = sp.calls()
    if not w.is_library:
        return [{"op": op["name"], "wall_s": wall, "shares": shares(sec)} for op, (_, wall, sec) in zip(w.ops(), calls)]
    grouped = {}
    for name, wall, sec in calls:
        g = grouped.setdefault(name, {"op": name, "calls": 0, "wall_s": 0.0, "seconds": {}})
        g["calls"] += 1
        g["wall_s"] += wall
        for layer, v in sec.items():
            g["seconds"][layer] = g["seconds"].get(layer, 0.0) + v
    return [dict(g, shares=shares(g.pop("seconds"))) for g in grouped.values()]


def check_sources():
    if not os.path.isfile(os.path.join(ROOT, "src", "twobox", "cli.py")):
        raise BenchError(f"no twobox sources under {os.path.join(ROOT, 'src')}")
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import twobox

    if not os.path.abspath(twobox.__file__).startswith(os.path.join(ROOT, "src") + os.sep):
        raise BenchError(f"twobox imported from {twobox.__file__}, not from src/")


def per_layer_units() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def print_table(workload: str, metrics: dict, units: dict, stream):
    print(f"{workload}:", file=stream)
    for name, value in metrics.items():
        print(f"  {name:32s} {value:14.6g} {units.get(name, '')}", file=stream)


def run_one(args) -> tuple:
    """Run one workload; writes the results file and returns (result line, table metrics, units)."""
    load_start = os.getloadavg()
    os.makedirs(OUT_DIR, exist_ok=True)
    if args.trace:
        w, metrics, detail = run_traced(args)
        units = per_layer_units()
        missing = set(units) - set(metrics)
        if missing:
            raise BenchError(f"per-layer metrics not computed: {sorted(missing)}")
        metrics = {k: metrics[k] for k in units}
        shown = metrics
    else:
        w, metrics, extra, detail = run_timed(args)
        units = dict(END_TO_END_UNITS, **EXTRA_UNITS)
        raw = {f"{k} (raw)": v for k, v in detail["raw_metrics"].items()}
        units.update({k: units[k.split()[0]] for k in raw})
        shown = dict(metrics, **extra, **raw)
    attempted, failed = w.failures()
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    record = {
        "workload": args.workload,
        "result": result,
        "shown_metrics": {k: {"value": v, "unit": units[k]} for k, v in shown.items()},
        "provenance": provenance(args, load_start),
        "detail": detail,
    }
    path = os.path.join(OUT_DIR, f"{args.workload}_seed{args.seed}_trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    shutil.rmtree(w.work, ignore_errors=True)
    for g in w.gate:
        if g["error"]:
            print(f"  FAILED round {g['round']} {g['op']}: {g['error']}", file=sys.stderr)
    return result, shown, units


def _terminate(signum, frame):
    raise SystemExit(128 + signum)  # unwinds through Proc, which stops the running child


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _terminate)

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=tuple(workloads.SIZES), default="full",
                        help="input sizes; 'tiny' is for the smoke tests")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    try:
        check_sources()
        if args.workload != "all":
            result, shown, units = run_one(args)
            print_table(args.workload, shown, units, sys.stderr)
            print(json.dumps(result))
            return 0
        for name in workloads.WORKLOADS:
            result, shown, units = run_one(argparse.Namespace(**dict(vars(args), workload=name)))
            print_table(name, shown, units, sys.stdout)
            print(f"  attempted {result['attempted']}, failed {result['failed']}")
        return 0
    except BenchError as err:
        print(f"bench: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
