"""Command-line runner for single protocol evaluations, sweeps and sampling.

Usage::

    twobox --config experiment.json [--seed N] [--out PATH]
           [--format json|csv] [--quiet]

The config file is a JSON object whose required ``mode`` key selects what
to compute; the remaining keys are mode parameters (see the README for the
full schema). Results are written as a JSON document with ``mode``,
``result`` and ``provenance`` sections, or as CSV for tabular modes:
``param,value,metric,stderr`` rows for sweeps, ``trial,signal,final_box``
rows for trial traces, written one block of rows at a time. Without ``--out``
(or an ``out`` config key) the document goes to stdout and the one-line
summary to stderr; with a path the file is written atomically (temp file,
then rename) and the summary goes to stdout.

Exit codes: 0 success, 2 malformed config or arguments, 3 well-formed
request whose answer is undefined (zero-probability or zero-overlap
postselection, divergent target value).
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import sys
import tempfile
from dataclasses import dataclass

import numpy as np

from . import __version__
from .analysis import (
    ClassicalMatchedProtocol,
    QuantumProtocol,
    _sweep_blocks,
    projector_weak_values,
    sweep_metric,
)
from .classical import ClassicalParams, conditional_mean, fc_match_params, joint_distribution, unconditional_mean
from .contextual import ContextualValues
from .errors import DomainError, TwoBoxError, ValidationError, _shown
from .montecarlo import (
    CountTable,
    _blocks,
    _check_below,
    estimate_conditional_mean,
    gof_test,
    sample_classical_trace,
    sample_joint,
    sample_quantum_trace,
)
from .quantum import (
    MeasurementModel,
    _overlap,
    conditional_mean_quantum,
    expectation,
    joint_outcome_probs,
    weak_value,
)
from .tables import BOXES, SIGNALS

__all__ = ["MODES", "main", "run", "validate_result_document"]

MODES = ("classical", "quantum", "sweep", "match", "witness", "sample")

_MISSING = object()


@dataclass
class _ModeOutcome:
    result: dict
    summary: str
    csv_header: tuple | None = None
    rows: object = None  # fmt -> the CSV rows, or the JSON of result["points"], as text one block at a time


def _config_value(cfg: dict, key: str, default=_MISSING):
    """``cfg[key]``; ``default`` when the key is absent, which is an error if there is no default."""
    if key in cfg:
        return cfg[key]
    if default is _MISSING:
        raise ValidationError(f"config key {key!r} is required for mode {cfg.get('mode')!r}")
    return default


def _is_finite_number(value) -> bool:
    try:
        return not isinstance(value, bool) and isinstance(value, (int, float)) and math.isfinite(value)
    except OverflowError:  # an int beyond the float range
        return False


def _number(cfg: dict, key: str) -> float:
    value = _config_value(cfg, key)
    if not _is_finite_number(value):
        raise ValidationError(f"config key {key!r} must be a finite number, got {_shown(value)}")
    return float(value)


def _integer(cfg: dict, key: str, default=_MISSING, minimum: int = 0) -> int:
    value = _config_value(cfg, key, default)
    if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
        raise ValidationError(f"config key {key!r} must be an integer >= {minimum}, got {_shown(value)}")
    return int(value)


def _string(cfg: dict, key: str, allowed: tuple) -> str:
    value = cfg.get(key)
    if value not in allowed:
        raise ValidationError(f"config key {key!r} must be one of {list(allowed)}, got {_shown(value)}")
    return value


def _flag(cfg: dict, key: str, default: bool = False) -> bool:
    value = cfg.get(key, default)
    if not isinstance(value, bool):
        raise ValidationError(f"config key {key!r} must be true or false, got {_shown(value)}")
    return value


def _classical_params(cfg: dict) -> ClassicalParams:
    return ClassicalParams(
        p1=_number(cfg, "p1"), g=_number(cfg, "g"), q=_number(cfg, "q"), q0=_number(cfg, "q0")
    )


def _run_classical(cfg: dict, seed) -> _ModeOutcome:
    params = _classical_params(cfg)
    final_box = _integer(cfg, "final_box", default=2)
    dist = joint_distribution(params)
    cv = ContextualValues.symmetric(params.g)
    mean = conditional_mean(dist, cv, final_box)
    result = {
        "joint": dist.table.tolist(),
        "p_signal": dist.p_signal("S"),
        "p_box1": dist.p_box(1),
        "p_box2": dist.p_box(2),
        "alpha_s": cv.alpha_s,
        "alpha_sbar": cv.alpha_sbar,
        "unconditional_mean": unconditional_mean(dist, cv),
        "final_box": final_box,
        "conditional_mean": mean,
    }
    summary = (
        f"classical: conditional mean {mean:.6g} in final box {final_box} "
        f"(P = {dist.p_box(final_box):.6g}), unconditional {result['unconditional_mean']:.6g}"
    )
    return _ModeOutcome(result=result, summary=summary)


def _quantum_protocol(cfg: dict) -> QuantumProtocol:
    return QuantumProtocol(p1=_number(cfg, "p1"), theta=_number(cfg, "theta"))


def _quantum_states(cfg: dict) -> tuple:
    protocol = _quantum_protocol(cfg)
    return protocol.preparation, protocol.postselection


def _run_quantum(cfg: dict, seed) -> _ModeOutcome:
    protocol = _quantum_protocol(cfg)
    i, f = protocol.preparation, protocol.postselection
    aw = weak_value(i, f)
    result = {
        "weak_value": aw.real,
        "weak_value_imag": aw.imag,
        "expectation": expectation(i),
        "overlap_probability": abs(_overlap(i, f)) ** 2,
    }
    summary = f"quantum: weak value {aw.real:.6g}, expectation {result['expectation']:.6g}"
    if "lambda" in cfg:
        lam = _number(cfg, "lambda")
        result["lambda"] = lam
        result.update({metric: float(protocol._values(metric, lam)) for metric in protocol.metrics})
        summary += f"; conditional mean {result['conditional_mean']:.6g} at lambda = {lam:.6g}"
    return _ModeOutcome(result=result, summary=summary)


def _run_match(cfg: dict, seed) -> _ModeOutcome:
    theta = _number(cfg, "theta")
    g = _number(cfg, "g")
    params = fc_match_params(theta, g)
    dist = joint_distribution(params)
    cv = ContextualValues.symmetric(g)
    mean = conditional_mean(dist, cv, 2)
    result = {
        "p1": params.p1,
        "g": params.g,
        "q": params.q,
        "q0": params.q0,
        "conditional_mean": mean,
        "p_box2": dist.p_box(2),
        "target": ClassicalMatchedProtocol(theta).target,
    }
    summary = (
        f"match: q = {params.q:.6g}, q0 = {params.q0:.6g} reproduce "
        f"conditional mean {mean:.6g} at bias g = {g:.6g}"
    )
    return _ModeOutcome(result=result, summary=summary)


def _run_witness(cfg: dict, seed) -> _ModeOutcome:
    i, f = _quantum_states(cfg)
    pw = projector_weak_values(i, f)
    aw = weak_value(i, f)
    result = {
        "w1": pw.w1.real,
        "w1_imag": pw.w1.imag,
        "w2": pw.w2.real,
        "w2_imag": pw.w2.imag,
        "negative": pw.negative,
        "weak_value": aw.real,
    }
    summary = (
        f"witness: w1 = {pw.w1.real:.6g}, w2 = {pw.w2.real:.6g}, "
        f"negative = {'yes' if pw.negative else 'no'}"
    )
    return _ModeOutcome(result=result, summary=summary)


def _strength_grid(cfg: dict) -> tuple:
    """``(points, block)``: the grid size, and ``block(lo, hi)`` giving strengths lo..hi as floats."""
    raw = cfg.get("strengths")
    if isinstance(raw, list):
        if not raw:
            raise ValidationError("config key 'strengths' must not be an empty list")
        for value in raw:
            if not _is_finite_number(value):
                raise ValidationError(f"strengths entries must be finite numbers, got {_shown(value)}")
        return len(raw), lambda lo, hi: np.asarray(raw[lo:hi], dtype=float)
    if isinstance(raw, dict):
        start = _number(raw, "from")
        stop = _number(raw, "to")
        points = _integer(raw, "points", minimum=1)
        if points > 2**53:  # where np.arange stops counting exactly
            raise ValidationError(f"strengths 'points' must be at most 2**53, got {_shown(points)}")
        scale = raw.get("scale", "linear")
        if scale not in ("linear", "log"):
            raise ValidationError(f"strengths scale must be 'linear' or 'log', got {_shown(scale)}")
        if scale == "log" and (start <= 0 or stop <= 0):
            raise ValidationError("log-scale strengths require positive 'from' and 'to'")
        if not math.isfinite(stop - start):
            raise ValidationError(f"strengths from {start!r} to {stop!r} span more than the float range")
        return points, lambda lo, hi: _range_block(start, stop, points, lo, hi, scale == "log")
    raise ValidationError(
        "sweep mode requires 'strengths': either a list of values or "
        "{'from': a, 'to': b, 'points': n, 'scale': 'linear'|'log'}"
    )


def _range_block(start: float, stop: float, points: int, lo: int, hi: int, log: bool) -> np.ndarray:
    """``np.linspace`` (or ``np.geomspace``) ``(start, stop, points)[lo:hi]`` bit for bit, by numpy's formula."""
    a, b = (np.log10(start), np.log10(stop)) if log else (start, stop)
    div = max(points - 1, 1)
    step = (b - a) / div
    y = np.arange(lo, hi, dtype=float)
    y = (y * step if step else y / div * (b - a)) + a  # numpy divides first when the step underflows
    if log:
        y = 10.0**y
        if lo == 0:
            y[0] = start
    if hi == points > 1:
        y[-1] = stop
    return y


def _protocol_from_config(cfg: dict):
    name = _string(cfg, "protocol", ("classical", "quantum"))
    if name == "classical":
        return ClassicalMatchedProtocol(theta=_number(cfg, "theta"))
    return _quantum_protocol(cfg)


# One item of a sweep's "points" list, as json.dumps(indent=2) writes it there.
_JSON_POINT = '      {\n        "param": %r,\n        "stderr": null,\n        "value": %r\n      }'
# Stands in for the points in the document serialized around them.
_POINTS = "\x00points"


def _run_sweep(cfg: dict, seed) -> _ModeOutcome:
    protocol = _protocol_from_config(cfg)
    metric = cfg.get("metric")
    points, grid = _strength_grid(cfg)
    for _ in _sweep_blocks(protocol, metric, (grid(lo, hi) for lo, hi in _blocks(points))):
        pass  # every check runs before any output
    ends = (float(grid(0, 1)[0]), float(grid(points - 1, points)[0]))  # the grid is monotone
    result = {
        "parameter": protocol.parameter,
        "metric": metric,
        "protocol": protocol.label,
        "fixed": protocol.fixed(),
        "points": _POINTS,
    }
    summary = (
        f"sweep: {metric} at {points} values of {protocol.parameter} "
        f"in [{min(ends):.6g}, {max(ends):.6g}]"
    )

    def rows(fmt: str):
        row, sep = (_JSON_POINT, ",\n") if fmt == "json" else ("%.17g,%.17g," + metric + ",\n", "")
        for lo, hi in _blocks(points):
            res = sweep_metric(protocol, metric, grid(lo, hi))
            if lo:
                yield sep
            yield sep.join([row % pair for pair in zip(res.strengths.tolist(), res.values.tolist())])

    return _ModeOutcome(result, summary, ("param", "value", "metric", "stderr"), rows)


# The text after the trial number of a trace CSV row, by flat table cell.
_TRACE_ROW_ENDS = tuple(f",{signal},{box}\n" for signal in SIGNALS for box in BOXES)


def _run_sample(cfg: dict, seed) -> _ModeOutcome:
    if seed is None:
        raise ValidationError("sample mode requires a seed (config key 'seed' or --seed)")
    name = _string(cfg, "protocol", ("classical", "quantum"))
    n = _integer(cfg, "n", minimum=1)
    trace = _flag(cfg, "trace")
    if name == "classical":
        params = _classical_params(cfg)
        exact = joint_distribution(params)
        cv = ContextualValues.symmetric(params.g)
        trials = sample_classical_trace(params, n, seed) if trace else None
    else:
        lam = _number(cfg, "lambda")
        if lam == 0.0:
            raise DomainError("conditional mean undefined at zero coupling (lam = 0)")
        i, f = _quantum_states(cfg)
        model = MeasurementModel(lam)
        exact = joint_outcome_probs(i, model, f)
        cv = ContextualValues.symmetric(lam)
        trials = sample_quantum_trace(i, model, f, n, seed) if trace else None
    counts = CountTable.from_records(trials) if trace else sample_joint(exact, n, seed)
    mean, stderr = estimate_conditional_mean(counts, cv, 2)
    if name == "classical":
        exact_mean = conditional_mean(exact, cv, 2)
    else:
        exact_mean = conditional_mean_quantum(i, model, f)
    try:
        gof = gof_test(counts, exact)
        gof_doc = {"statistic": gof.statistic, "reject": gof.reject}
    except ValidationError:
        gof_doc = None
    result = {
        "protocol": name,
        "n": n,
        "seed": seed,
        "trace": trace,
        "counts": counts.counts.tolist(),
        "conditional_mean": mean,
        "stderr": stderr,
        "exact_conditional_mean": exact_mean,
        "gof": gof_doc,
    }
    summary = (
        f"sample: n = {n}, conditional mean {mean:.6g} +/- {stderr:.2g} "
        f"(exact {exact_mean:.6g})"
    )

    def rows(fmt: str):
        for lo, hi in _blocks(n):
            yield "".join([f"{k}{_TRACE_ROW_ENDS[c]}" for k, c in zip(range(lo, hi), trials._cells(lo, hi).tolist())])

    return _ModeOutcome(result, summary, ("trial", "signal", "final_box") if trace else None, rows)


_RUNNERS = {
    "classical": _run_classical,
    "quantum": _run_quantum,
    "match": _run_match,
    "witness": _run_witness,
    "sweep": _run_sweep,
    "sample": _run_sample,
}


def _walk_finite(node, path: str) -> None:
    if node is None or isinstance(node, (bool, int, str)):  # an int is finite, however large
        return
    if isinstance(node, float):
        if not math.isfinite(node):
            raise ValidationError(f"result contains a non-finite number at {path}")
        return
    if isinstance(node, dict):
        for key, value in node.items():
            if not isinstance(key, str):
                raise ValidationError(f"non-string key {key!r} at {path}")
            _walk_finite(value, f"{path}.{key}")
        return
    if isinstance(node, list):
        for idx, value in enumerate(node):
            _walk_finite(value, f"{path}[{idx}]")
        return
    raise ValidationError(f"unserializable value {node!r} at {path}")


def validate_result_document(doc: dict) -> None:
    """Check a result document against the schema the runner promises.

    Top level: exactly the keys ``mode``, ``result``, ``provenance``.
    Provenance: exactly ``engine`` (string), ``config`` (object), ``seed``
    (integer or null). Every number anywhere must be finite.
    """
    if not isinstance(doc, dict) or set(doc) != {"mode", "result", "provenance"}:
        raise ValidationError("result document must have exactly the keys mode, result, provenance")
    if doc["mode"] not in MODES:
        raise ValidationError(f"unknown mode {doc['mode']!r} in result document")
    if not isinstance(doc["result"], dict):
        raise ValidationError("result section must be an object")
    prov = doc["provenance"]
    if not isinstance(prov, dict) or set(prov) != {"engine", "config", "seed"}:
        raise ValidationError("provenance must have exactly the keys engine, config, seed")
    if not isinstance(prov["engine"], str) or not prov["engine"]:
        raise ValidationError("provenance.engine must be a nonempty string")
    if not isinstance(prov["config"], dict):
        raise ValidationError("provenance.config must be an object")
    seed = prov["seed"]
    if seed is not None and (isinstance(seed, bool) or not isinstance(seed, int)):
        raise ValidationError("provenance.seed must be an integer or null")
    _walk_finite(doc["result"], "result")


def _write_atomic(path: str, chunks) -> None:
    """Write the text chunks to a temp file in the target directory, then rename."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".twobox-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _resolve_seed(config: dict, flag_seed) -> int | None:
    seed = flag_seed if flag_seed is not None else config.get("seed")
    return None if seed is None else _check_below("seed", seed, 64)


def run(config: dict, seed=None, out=None, fmt=None, quiet: bool = False) -> int:
    """Execute one config and write its result document. Returns the exit code 0.

    Raises ValidationError or DomainError instead of returning nonzero;
    :func:`main` maps those to exit codes 2 and 3.
    """
    if not isinstance(config, dict):
        raise ValidationError(f"config must be a JSON object, got {type(config).__name__}")
    mode = config.get("mode")
    if mode not in MODES:
        raise ValidationError(f"unknown mode {_shown(mode)}; choose from {list(MODES)}")
    resolved_seed = _resolve_seed(config, seed)
    fmt = fmt if fmt is not None else config.get("format", "json")
    if fmt not in ("json", "csv"):
        raise ValidationError(f"format must be 'json' or 'csv', got {_shown(fmt)}")
    out = out if out is not None else config.get("out")
    if out is not None and (not isinstance(out, str) or not out):
        raise ValidationError(f"output path must be a nonempty string, got {_shown(out)}")

    outcome = _RUNNERS[mode](config, resolved_seed)
    document = {
        "mode": mode,
        "result": outcome.result,
        "provenance": {
            "engine": f"twobox {__version__}",
            "config": config,
            "seed": resolved_seed,
        },
    }
    validate_result_document(document)
    if fmt == "json":
        chunks = [json.dumps(document, sort_keys=True, indent=2, allow_nan=False) + "\n"]
        if outcome.result.get("points") is _POINTS:
            # the config echoed in provenance sorts before result, and only "protocol" follows "points"
            head, _, tail = chunks[0].rpartition(json.dumps(_POINTS))
            chunks = itertools.chain([head + "[\n"], outcome.rows("json"), ["\n    ]" + tail])
    elif outcome.csv_header is None:
        raise ValidationError(
            f"csv output is not available for mode {mode!r}; "
            "it applies to sweeps and trial traces"
        )
    else:
        chunks = itertools.chain([",".join(outcome.csv_header) + "\n"], outcome.rows("csv"))

    if out is not None:
        try:
            _write_atomic(out, chunks)
        except OSError as err:
            raise ValidationError(f"cannot write output file {out!r}: {err}") from err
        if not quiet:
            print(outcome.summary)
    else:
        sys.stdout.writelines(chunks)
        if not quiet:
            print(outcome.summary, file=sys.stderr)
    return 0


def _load_config(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            config = json.load(fh)
    except json.JSONDecodeError as err:
        raise ValidationError(f"config file {path!r} is not valid JSON: {err}") from err
    except (OSError, ValueError) as err:  # ValueError: not UTF-8, or an int beyond Python's digit limit
        raise ValidationError(f"cannot read config file {path!r}: {err}") from err
    if not isinstance(config, dict):
        raise ValidationError(f"config file {path!r} must contain a JSON object")
    return config


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="twobox",
        description="Evaluate two-box conditioned-measurement protocols from a JSON config.",
    )
    parser.add_argument("--config", required=True, metavar="PATH", help="JSON experiment config")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument("--out", default=None, metavar="PATH", help="output file (default stdout)")
    parser.add_argument("--format", dest="fmt", choices=("json", "csv"), default=None)
    parser.add_argument("--quiet", action="store_true", help="suppress the one-line summary")
    args = parser.parse_args(argv)
    try:
        config = _load_config(args.config)
        return run(config, seed=args.seed, out=args.out, fmt=args.fmt, quiet=args.quiet)
    except TwoBoxError as err:
        print(f"error: {err}", file=sys.stderr)
        return 3 if isinstance(err, DomainError) else 2


if __name__ == "__main__":
    sys.exit(main())
