"""Keyed Monte Carlo: same seed, same bytes, on any machine and any
worker count.

Every sampling call keys a Philox generator from the seed, and sweeps derive
one stream key per grid point, so results never depend on execution order.
The demo also drives the command-line runner in-process to show the output
documents are byte-stable.
"""

import json
import math
import tempfile
from pathlib import Path

from twobox import (
    ContextualValues,
    derive_stream_key,
    estimate_conditional_mean,
    fc_match_params,
    gof_test,
    joint_distribution,
    sample_classical,
    sample_classical_trace,
)
from twobox.cli import run


def main():
    params = fc_match_params(math.pi / 3, 0.1)
    exact = joint_distribution(params)

    print("per-point stream keys derived from seed 42:")
    for k in range(3):
        print(f"  point {k}: {derive_stream_key(42, k)}")

    a = sample_classical(params, 100000, seed=7)
    b = sample_classical(params, 100000, seed=7)
    print(f"\ncounts reproducible: {a == b}")
    print(f"counts table: {a.counts.tolist()}")

    cv = ContextualValues.symmetric(params.g)
    mean, stderr = estimate_conditional_mean(a, cv, 2)
    print(f"estimated conditional mean: {mean:.5f} +/- {stderr:.5f} (exact 2.0)")
    gof = gof_test(a, exact)
    print(f"goodness of fit: statistic {gof.statistic:.3f}, reject = {gof.reject}")

    trace = sample_classical_trace(params, 5, seed=7)
    print("\nfirst trials from the trace columns:")
    for k, (s, box) in enumerate(zip(trace.signal.tolist(), trace.final_box.tolist())):
        print(f"  trial {k}: signal {'S' if s else 'Sbar':<4} final box {box}")

    cfg = {
        "mode": "sample",
        "protocol": "classical",
        "p1": 1.0,
        "g": 0.1,
        "q": params.q,
        "q0": params.q0,
        "n": 10000,
        "seed": 2026,
    }
    with tempfile.TemporaryDirectory() as tmp:
        first = Path(tmp) / "first.json"
        second = Path(tmp) / "second.json"
        run(dict(cfg), out=str(first), quiet=True)
        run(dict(cfg), out=str(second), quiet=True)
        same = first.read_bytes() == second.read_bytes()
        doc = json.loads(first.read_text(encoding="utf-8"))
        print(f"\nCLI documents byte-identical across runs: {same}")
        print(f"CLI estimate: {doc['result']['conditional_mean']:.5f} "
              f"+/- {doc['result']['stderr']:.5f}")


if __name__ == "__main__":
    main()
