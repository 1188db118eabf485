"""One benchmark round inside a fresh interpreter.

Usage: python3 bench/child.py SPEC.json

SPEC names the workload, seed, size preset, repository root, work
directory and result paths, and whether to trace. The child imports
twobox from ``<root>/src``, builds its inputs, prints ``ready``, runs one
round and writes the round's timings and outputs to the result path (and
its spans, when traced) before printing ``done``. The parent times
``ready`` from the spawn, which is the set-up time of a library round.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import time

import workloads


def _library_round(twobox, inp: dict) -> tuple:
    """The library_mix operations; returns (per-op walls, outputs to gate)."""
    theta = workloads.THETA
    params_list = inp["params_list"]
    walls, out = {}, {}
    clock = time.perf_counter

    t = clock()
    tables = twobox.sample_classical_sweep(params_list, inp["keyed_trials"], inp["keyed_seed"])
    walls["sample_classical_sweep"] = clock() - t
    out["keyed_counts"] = [tab.counts.ravel().tolist() for tab in tables]

    t = clock()
    big = twobox.sample_classical(inp["big"], inp["big_n"], inp["big_seed"])
    walls["sample_classical"] = clock() - t
    out["big_counts"] = big.counts.tolist()

    # The library's own goodness of fit, wherever its chi-square regime
    # holds. The gate does not use its verdicts: the parent runs a stricter
    # pooled test of its own.
    t = clock()
    twobox.gof_test(big, twobox.joint_distribution(inp["big"]))
    for params, tab in zip(params_list, tables):
        exact = twobox.joint_distribution(params)
        if min(exact.table.ravel()) * tab.total >= 5.0:
            twobox.gof_test(tab, exact)
    walls["gof_test"] = clock() - t

    quantum = twobox.QuantumProtocol(p1=workloads.P1_Q, theta=theta)
    classical = twobox.ClassicalMatchedProtocol(theta=theta)
    t = clock()
    sweeps = {
        "mean": twobox.sweep_metric(quantum, "conditional_mean", inp["lam_grid"]),
        "disturbance": twobox.sweep_metric(quantum, "quantum_disturbance", inp["lam_grid"]),
        "shift": twobox.sweep_metric(classical, "postselection_shift", inp["g_grid"]),
    }
    walls["sweep_metric"] = clock() - t
    for key, res in sweeps.items():
        out[f"sweep_{key}"] = res.values.tolist()

    t = clock()
    fit = twobox.fit_power_law(sweeps["shift"])
    walls["fit_power_law"] = clock() - t
    out["fit"] = [fit.exponent, fit.prefactor]

    t = clock()
    short = twobox.sweep_metric(quantum, "conditional_mean", inp["extrapolate_grid"])
    out["extrapolated"] = twobox.weak_limit_extrapolate(short)
    walls["weak_limit_extrapolate"] = clock() - t

    md = inp["min_dist"]
    t = clock()
    out["min_disturbance"] = twobox.min_disturbance_for_value(md["v"], md["g"], grid_resolution=md["grid_resolution"])
    walls["min_disturbance_for_value"] = clock() - t
    return walls, out


def _cli_round(cli, ops: list, work: str) -> tuple:
    """Each CLI operation as an in-process call of the public twobox.cli.run."""
    walls, out = {}, {}
    for op in ops:
        buf = io.StringIO()
        t = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                code = cli.run(op["config"], out=os.path.join(work, op["out"]), fmt=op["fmt"], quiet=False)
            error = None if code == 0 else f"run returned {code}"
        except Exception as err:  # recorded and gated by the parent
            error = f"{type(err).__name__}: {err}"
        walls[op["name"]] = time.perf_counter() - t
        out[op["name"]] = {"stdout": buf.getvalue(), "error": error}
    return walls, out


def main(spec_path: str) -> int:
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    sys.path.insert(0, os.path.join(spec["root"], "src"))
    import twobox

    if spec["workload"] == "library_mix":
        inp = workloads.library_inputs(spec["seed"], spec["size"])
        inp["params_list"] = [twobox.fc_match_params(workloads.THETA, g) for g in inp["keyed_g"]]
        inp["big"] = twobox.ClassicalParams(**inp["big_params"])

        def body():
            return _library_round(twobox, inp)

    else:
        import twobox.cli

        ops = [op for op in workloads.cli_ops(spec["workload"], spec["seed"], spec["size"]) if op["name"] in spec["ops"]]

        def body():
            return _cli_round(twobox.cli, ops, spec["work"])

    tracer = None
    if spec["trace"]:
        import spans

        tracer = spans.Tracer()
        tracer.install()
    print("ready", flush=True)

    t = time.perf_counter()
    if tracer is None:
        walls, out = body()
    else:
        with tracer.root(spec["round"]):
            walls, out = body()
    wall = time.perf_counter() - t
    if tracer is not None:
        tracer.save(spec["spans"])
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump({"wall": wall, "walls": walls, "out": out}, fh)
    print("done", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
