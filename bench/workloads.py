"""Workload definitions, closed-form references and the per-operation gate.

Every input is a pure function of the benchmark seed and the size preset,
so the same seed always produces the same configs. The references below
are written independently of ``twobox`` (closed forms in numpy), so the
gate does not trust the code it measures.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from statistics import NormalDist

import numpy as np

THETA = math.pi / 3
P1_Q = 0.75  # quantum preparation occupation
TRACE_PARAMS = {"p1": 1.0, "g": 0.2, "q": 0.5, "q0": 0.4}
TRACE_LAMBDA = 0.2
DEFAULT_SEED = 1

# Gross-error tolerance for sweep values: a floor plus a multiple of the
# rounding error that a difference of O(1) probabilities divided by the
# strength can carry. The known weak-limit cancellation (about 3 eps/lambda)
# passes; a wrong formula, which is off by O(1), does not. The size of the
# cancellation error itself is reported as max_abs_err.
SWEEP_TOL_FLOOR = 1e-9
SWEEP_TOL_EPS_MULT = 1e3
EPS = np.finfo(float).eps

# Goodness of fit: the gate rejects only at the 1e-6 level, so that across
# every seed and operation a false alarm stays far less likely than a
# genuine defect, which moves a million-trial statistic by orders of
# magnitude.
GOF_LEVEL = 1e-6

SIZES = {
    "full": {
        "sweep_points": 100_000,
        "trace_n": (1_000_000, 1_000_000, 100_000),
        "keyed_points": 1000,
        "keyed_trials": 10_000,
        "big_n": 10_000_000,
        "lib_sweep_points": 10_000,
        "min_dist_grid": 151,
    },
    "tiny": {
        "sweep_points": 200,
        "trace_n": (2000, 2000, 500),
        "keyed_points": 20,
        "keyed_trials": 1000,
        "big_n": 100_000,
        "lib_sweep_points": 200,
        "min_dist_grid": 21,
    },
}

# Counts pinned for DEFAULT_SEED. The samplers' draws are meant to stay
# byte-identical, so any change here is a change in seeded output.
PINNED = {
    "full": {
        "trace_classical": [[299338, 299979], [240697, 159986]],
        "trace_quantum": [[371814, 178911], [370953, 78322]],
        "trace_classical_small": [[29936, 29890], [24015, 16159]],
        "keyed_sha256": "ad695f594bf81a5eb7098504d3a93a3f24caf9c0a0f46c91b2e4e73c4c39af91",
        "big": [[3001760, 3001648], [2397695, 1598897]],
    },
    "tiny": {
        "trace_classical": [[601, 625], [432, 342]],
        "trace_quantum": [[736, 359], [745, 160]],
        "trace_classical_small": [[141, 143], [112, 104]],
        "keyed_sha256": "62f51033fce18e08ad5d00baa67a4693fa1a2b438b618ee8bb0030331faa6563",
        "big": [[30096, 29817], [24054, 16033]],
    },
}

WORKLOADS = ("sweep_dense", "trace_sample", "library_mix")
LIBRARY_OPS = (
    "sample_classical_sweep", "sample_classical", "sweep_metric",
    "fit_power_law", "weak_limit_extrapolate", "min_disturbance_for_value",
)


def config_seed(seed: int, k: int) -> int:
    """Seed handed to the program for operation k of a round."""
    return seed * 16 + k


# ---------------------------------------------------------------- references


def classical_table(p1, g, q, q0) -> np.ndarray:
    """Exact 2x2 table over (S, Sbar) x (box 1, box 2), closed form."""
    p2 = 1.0 - p1
    a = (1.0 + g) / 2.0
    abar = (1.0 - g) / 2.0
    return np.array(
        [
            [p1 * a * (1 - q) + p2 * abar * q, p1 * a * q + p2 * abar * (1 - q)],
            [p1 * (1 - a) * (1 - q0) + p2 * (1 - abar) * q0, p1 * (1 - a) * q0 + p2 * (1 - abar) * (1 - q0)],
        ]
    )


def _amplitudes(p1, theta):
    """Overlaps of the preparation with the postselection and its complement, per box."""
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    a1, a2 = math.sqrt(p1), math.sqrt(1.0 - p1)
    return (c * a1, -s * a2), (s * a1, c * a2)


def quantum_table(p1, theta, lam) -> np.ndarray:
    (x, y), (xp, yp) = _amplitudes(p1, theta)
    cp, cm = math.sqrt((1 + lam) / 2), math.sqrt((1 - lam) / 2)
    return np.array(
        [
            [(cp * xp + cm * yp) ** 2, (cp * x + cm * y) ** 2],
            [(cm * xp + cp * yp) ** 2, (cm * x + cp * y) ** 2],
        ]
    )


def quantum_mean_reference(p1, theta, lam) -> np.ndarray:
    """Cancellation-free conditional mean: the factor lambda divided out exactly."""
    (x, y), _ = _amplitudes(p1, theta)
    lam = np.asarray(lam, dtype=float)
    return (x * x - y * y) / (x * x + y * y + 2.0 * np.sqrt(1.0 - lam * lam) * x * y)


def weak_value_reference(p1, theta) -> float:
    (x, y), _ = _amplitudes(p1, theta)
    return (x - y) / (x + y)


def quantum_disturbance_reference(p1, lam) -> np.ndarray:
    lam = np.asarray(lam, dtype=float)
    return math.sqrt(p1 * (1 - p1)) * lam * lam / (1.0 + np.sqrt(1.0 - lam * lam))


def sweep_tolerance(strengths) -> np.ndarray:
    return SWEEP_TOL_FLOOR + SWEEP_TOL_EPS_MULT * EPS / np.asarray(strengths, dtype=float)


def chi2_critical(dof: int, level: float = GOF_LEVEL) -> float:
    """Upper `level` point of chi-square (Wilson-Hilferty; adequate for a gross gate)."""
    z = NormalDist().inv_cdf(1.0 - level)
    h = 2.0 / (9.0 * dof)
    return dof * (1.0 - h + z * math.sqrt(h)) ** 3


def gof_failure(counts, probs) -> str | None:
    """Pooled Pearson test of one or many count tables against exact tables.

    Cells whose expected count is below 1e-6 must be empty; cells below 5
    are left out of the statistic, as the chi-square approximation needs.
    Returns a reason string on failure, else None.
    """
    counts = np.asarray(counts, dtype=float).reshape(-1, 4)
    probs = np.asarray(probs, dtype=float).reshape(-1, 4)
    expected = probs * counts.sum(axis=1, keepdims=True)
    if np.any(counts[expected < 1e-6] > 0):
        return "counts in a cell of (near) zero probability"
    used = expected >= 5.0
    dof = int(np.sum(used.sum(axis=1) - 1)[()]) if used.any() else 0
    if dof <= 0:
        return None
    stat = float(np.sum(np.where(used, (counts - expected) ** 2 / np.where(used, expected, 1.0), 0.0)))
    crit = chi2_critical(dof)
    if stat > crit:
        return f"chi-square {stat:.4g} exceeds {crit:.4g} ({dof} dof, level {GOF_LEVEL:g})"
    return None


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


# ------------------------------------------------------------- CLI workloads


def sweep_grid(kind: str, points: int) -> np.ndarray:
    if kind == "quantum":
        return np.geomspace(1e-12, 1e-1, points)
    return np.geomspace(1e-6, 0.4, points)


def cli_ops(workload: str, seed: int, size: str) -> list:
    """The fixed list of CLI operations in one round of a CLI workload."""
    sz = SIZES[size]
    if workload == "sweep_dense":
        n = sz["sweep_points"]
        return [
            {
                "name": "quantum_sweep",
                "kind": "sweep_quantum",
                "fmt": "json",
                "out": "quantum_sweep.json",
                "config": {
                    "mode": "sweep", "protocol": "quantum", "p1": P1_Q, "theta": THETA,
                    "metric": "conditional_mean",
                    "strengths": {"from": 1e-12, "to": 1e-1, "points": n, "scale": "log"},
                },
            },
            {
                "name": "classical_sweep",
                "kind": "sweep_classical",
                "fmt": "csv",
                "out": "classical_sweep.csv",
                "config": {
                    "mode": "sweep", "protocol": "classical", "theta": THETA,
                    "metric": "conditional_mean",
                    "strengths": {"from": 1e-6, "to": 0.4, "points": n, "scale": "log"},
                },
            },
        ]
    if workload == "trace_sample":
        na, nb, nc = sz["trace_n"]
        classical = {"mode": "sample", "protocol": "classical", "trace": True, **TRACE_PARAMS}
        return [
            {
                "name": "trace_classical", "kind": "trace_csv", "fmt": "csv", "out": "trace_classical.csv",
                "config": {**classical, "n": na, "seed": config_seed(seed, 0)},
            },
            {
                "name": "trace_quantum", "kind": "trace_json", "fmt": "json", "out": "trace_quantum.json",
                "config": {
                    "mode": "sample", "protocol": "quantum", "trace": True, "p1": P1_Q, "theta": THETA,
                    "lambda": TRACE_LAMBDA, "n": nb, "seed": config_seed(seed, 1),
                },
            },
            {
                "name": "trace_classical_small", "kind": "trace_csv", "fmt": "csv",
                "out": "trace_classical_small.csv",
                "config": {**classical, "n": nc, "seed": config_seed(seed, 2)},
            },
        ]
    raise ValueError(f"{workload} is not a CLI workload")


def _exact_sample_table(config) -> np.ndarray:
    if config["protocol"] == "classical":
        return classical_table(config["p1"], config["g"], config["q"], config["q0"])
    return quantum_table(config["p1"], config["theta"], config["lambda"])


def _check_counts(op, counts, seed, size) -> str | None:
    n = op["config"]["n"]
    if int(np.sum(counts)) != n:
        return f"counts total {int(np.sum(counts))} != n = {n}"
    if seed == DEFAULT_SEED:
        pinned = PINNED[size][op["name"]]
        if np.asarray(counts).tolist() != pinned:
            return f"counts {np.asarray(counts).tolist()} differ from pinned {pinned}"
    return gof_failure(counts, _exact_sample_table(op["config"]))


_SUMMARY = re.compile(r"conditional mean (\S+) \+/- (\S+)")


def check_cli_op(op: dict, path, stdout: str, seed: int, size: str, validate) -> dict:
    """Gate one CLI operation's output file. Returns {"error": str|None, ...info}.

    ``validate`` is ``twobox.cli.validate_result_document``.
    """
    info = {"error": None, "sha256": sha256_file(path)}
    cfg = op["config"]
    try:
        if op["kind"] == "sweep_quantum":
            with open(path, encoding="utf-8") as fh:
                doc = json.load(fh)
            validate(doc)
            pts = doc["result"]["points"]
            grid = sweep_grid("quantum", cfg["strengths"]["points"])
            lam = np.array([p["param"] for p in pts], dtype=float)
            val = np.array([p["value"] for p in pts], dtype=float)
            ref = quantum_mean_reference(P1_Q, THETA, grid)
            info["error"] = _check_sweep(lam, val, grid, ref)
            if info["error"] is None:
                info["max_abs_err"] = float(np.max(np.abs(val - ref)))
        elif op["kind"] == "sweep_classical":
            header, rows = _read_csv(path)
            if header != "param,value,metric,stderr":
                info["error"] = f"wrong CSV header {header!r}"
            else:
                cols = [r.split(",") for r in rows]
                if any(len(c) != 4 or c[2] != cfg["metric"] or c[3] != "" for c in cols):
                    info["error"] = "malformed CSV row"
                else:
                    g = np.array([c[0] for c in cols], dtype=float)
                    val = np.array([c[1] for c in cols], dtype=float)
                    grid = sweep_grid("classical", cfg["strengths"]["points"])
                    info["error"] = _check_sweep(g, val, grid, np.full(grid.shape, 1.0 / math.cos(THETA)))
        elif op["kind"] == "trace_json":
            with open(path, encoding="utf-8") as fh:
                doc = json.load(fh)
            validate(doc)
            res = doc["result"]
            if res["n"] != cfg["n"] or res["trace"] is not True or res["seed"] != cfg["seed"]:
                info["error"] = "result n, trace or seed differs from the config"
            else:
                info["counts"] = res["counts"]
                info["error"] = _check_counts(op, res["counts"], seed, size)
        elif op["kind"] == "trace_csv":
            info.update(_check_trace_csv(op, path, stdout, seed, size))
        else:
            info["error"] = f"unknown op kind {op['kind']}"
    except Exception as err:  # malformed output, or ValidationError from validate()
        info["error"] = f"{type(err).__name__}: {err}"
    return info


def _read_csv(path):
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    if not text.endswith("\n"):
        raise ValueError("CSV does not end with a newline")
    lines = text[:-1].split("\n")
    return lines[0], lines[1:]


def _check_sweep(params, values, grid, reference) -> str | None:
    if params.shape != grid.shape:
        return f"{params.size} points, expected {grid.size}"
    if not np.allclose(params, grid, rtol=1e-12, atol=0.0):
        return "grid differs from the requested one"
    if not np.all(np.isfinite(values)):
        return "non-finite sweep value"
    err = np.abs(values - reference)
    bad = err > sweep_tolerance(grid)
    if bad.any():
        k = int(np.argmax(bad))
        return f"value {float(values[k])!r} at {float(grid[k])!r} is {err[k]:.3g} from the reference {float(reference[k])!r}"
    return None


def _check_trace_csv(op, path, stdout, seed, size) -> dict:
    cfg = op["config"]
    with open(path, "rb") as fh:
        data = fh.read()
    if not data.startswith(b"trial,signal,final_box\n"):
        return {"error": "wrong CSV header"}
    rows = data.count(b"\n") - 1
    if rows != cfg["n"]:
        return {"error": f"{rows} CSV rows, expected {cfg['n']}"}
    tally = [
        [data.count(b",S,1\n"), data.count(b",S,2\n")],
        [data.count(b",Sbar,1\n"), data.count(b",Sbar,2\n")],
    ]
    if sum(map(sum, tally)) != rows:
        return {"error": "rows with a signal or final box outside S/Sbar x 1/2"}
    last = data[data.rfind(b"\n", 0, len(data) - 1) + 1 :].split(b",")[0]
    if data[23:25] != b"0," or int(last) != rows - 1:
        return {"error": "trial numbers do not run from 0 to n - 1"}
    out = {"counts": tally, "rows": rows}
    err = _check_counts(op, tally, seed, size)
    if err is None:
        err = _summary_mismatch(tally, cfg["g"], stdout)
    out["error"] = err
    return out


def _summary_mismatch(tally, g, stdout) -> str | None:
    """The CSV carries no counts; its tallies must reproduce the reported mean and stderr."""
    m = _SUMMARY.search(stdout or "")
    if m is None:
        return "no 'conditional mean X +/- Y' in the summary line"
    n_f = tally[0][1] + tally[1][1]
    p_hat = tally[0][1] / n_f
    mean = (1.0 / g) * p_hat + (-1.0 / g) * (1.0 - p_hat)
    stderr = (2.0 / g) * math.sqrt(p_hat * (1.0 - p_hat) / n_f)
    if not math.isclose(float(m.group(1)), mean, rel_tol=1e-5, abs_tol=1e-12) or not math.isclose(
        float(m.group(2)), stderr, rel_tol=1e-1
    ):
        return f"CSV tallies give mean {mean:.6g} +/- {stderr:.2g}, summary says {m.group(0)!r}"
    return None


# ---------------------------------------------------------- library workload


def library_inputs(seed: int, size: str) -> dict:
    sz = SIZES[size]
    return {
        "keyed_g": np.geomspace(1e-3, 0.5, sz["keyed_points"]).tolist(),
        "keyed_trials": sz["keyed_trials"],
        "keyed_seed": config_seed(seed, 0),
        "big_params": dict(TRACE_PARAMS),
        "big_n": sz["big_n"],
        "big_seed": config_seed(seed, 1),
        "lam_grid": np.geomspace(1e-6, 0.5, sz["lib_sweep_points"]).tolist(),
        "g_grid": np.geomspace(1e-6, 0.4, sz["lib_sweep_points"]).tolist(),
        "extrapolate_grid": np.linspace(0.02, 0.16, 8).tolist(),
        "min_dist": {"v": 1.5, "g": 0.1, "grid_resolution": sz["min_dist_grid"]},
    }


def fc_table(theta, g) -> np.ndarray:
    """Exact tables of the matched classical protocol (p1 = 1), vectorized over g."""
    g = np.asarray(g, dtype=float)
    c = math.cos(theta)
    q = (c + g) / (1 + g)
    q0 = np.clip((c - g) / (1 - g), 0.0, 1.0)
    a = (1 + g) / 2
    return np.stack([a * (1 - q), a * q, (1 - a) * (1 - q0), (1 - a) * q0], axis=-1)


def keyed_digest(keyed: np.ndarray) -> str:
    return hashlib.sha256(json.dumps(np.asarray(keyed, dtype=np.int64).tolist()).encode()).hexdigest()


def check_library(out: dict, inputs: dict, seed: int, size: str) -> list:
    """Gate every library operation of one round. Returns [(op, error|None)]."""
    results = []

    def gate(name, fn):
        try:
            results.append((name, fn()))
        except (ValueError, KeyError, TypeError, IndexError) as err:
            results.append((name, f"{type(err).__name__}: {err}"))

    def keyed():
        k = np.asarray(out["keyed_counts"]).reshape(-1, 4)
        if k.shape[0] != len(inputs["keyed_g"]) or np.any(k.sum(axis=1) != inputs["keyed_trials"]):
            return "keyed sweep: wrong number of points or trials"
        if seed == DEFAULT_SEED and keyed_digest(k) != PINNED[size]["keyed_sha256"]:
            return "keyed sweep counts differ from the pinned digest"
        return gof_failure(k, fc_table(THETA, inputs["keyed_g"]))

    def big():
        b = np.asarray(out["big_counts"]).reshape(2, 2)
        if int(b.sum()) != inputs["big_n"]:
            return "sample_classical: wrong total"
        pinned = PINNED[size]["big"]
        if seed == DEFAULT_SEED and b.tolist() != pinned:
            return f"sample_classical counts {b.tolist()} differ from pinned {pinned}"
        return gof_failure(b, classical_table(**inputs["big_params"]))

    def sweeps():
        lam = np.asarray(inputs["lam_grid"])
        g = np.asarray(inputs["g_grid"])
        disturbance = quantum_disturbance_reference(P1_Q, lam)
        checks = (
            ("mean", lam, quantum_mean_reference(P1_Q, THETA, lam), sweep_tolerance(lam)),
            ("disturbance", lam, disturbance, 1e-12 + 1e-9 * disturbance),
            ("shift", g, np.full(g.shape, math.cos(THETA)), np.full(g.shape, 1e-12)),
        )
        for key, grid, ref, tol in checks:
            v = np.asarray(out[f"sweep_{key}"], dtype=float)
            if v.shape != grid.shape or not np.all(np.isfinite(v)):
                return f"{key} sweep: wrong shape or non-finite values"
            if np.any(np.abs(v - ref) > tol):
                return f"{key} sweep: max error {float(np.max(np.abs(v - ref))):.3g} beyond tolerance"
        return None

    def fit():
        exponent, prefactor = out["fit"]
        if abs(exponent) > 1e-6 or abs(prefactor - math.cos(THETA)) > 1e-6:
            return f"power-law fit of the constant shift gave exponent {exponent!r}, prefactor {prefactor!r}"
        return None

    def extrapolate():
        limit = out["extrapolated"]
        target = weak_value_reference(P1_Q, THETA)
        if not math.isfinite(limit) or abs(limit - target) > 1e-6:
            return f"weak-limit extrapolation {limit!r} is not near {target!r}"
        return None

    def min_dist():
        v = out["min_disturbance"]
        if not (math.isfinite(v) and 0.0 <= v <= 1.0):
            return f"min_disturbance_for_value returned {v!r}"
        return None

    for name, check in zip(LIBRARY_OPS, (keyed, big, sweeps, fit, extrapolate, min_dist)):
        gate(name, check)
    return results
