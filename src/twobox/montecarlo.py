"""Monte Carlo sampling of both protocols with reproducible, splittable streams.

Randomness policy
-----------------
Every sampler takes an explicit 64-bit seed; nothing in this module ever
touches operating-system entropy. Streams come from numpy's Philox
counter-based generator, which produces the same sequence on every
platform and can be keyed independently per task. Multi-point runs derive
one key per grid point from (seed, point index) with a SplitMix64 mix, so
each point's counts depend on the seed and its own index alone.

The default sampler draws (detector outcome, final box) pairs in one shot
by inverting the cumulative distribution of the exact four-cell joint
table. A separate trace mode simulates each trial stage by stage
(placement, detection, switching) and returns per-trial records; it is
slower and consumes differently from the stream, but must agree with the
joint sampler in distribution, which the goodness-of-fit test checks.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .classical import BOXES, SIGNALS, ClassicalParams, JointDistribution, joint_distribution
from .classical import _cell, _signal_average
from .contextual import ContextualValues
from .errors import DomainError, ValidationError
from .quantum import MeasurementModel, TwoLevelState, joint_outcome_probs

__all__ = [
    "TrialRecord",
    "CountTable",
    "GofResult",
    "derive_stream_key",
    "sample_joint",
    "sample_classical",
    "sample_quantum",
    "sample_classical_trace",
    "sample_quantum_trace",
    "sample_classical_sweep",
    "estimate_conditional_mean",
    "gof_test",
]

_MASK64 = (1 << 64) - 1

# Upper 0.1% point of chi-square with 3 degrees of freedom, the cell count
# minus one for the fixed total.
CHI2_CRITICAL_3DOF_P001 = 16.266


def derive_stream_key(seed: int, index: int) -> int:
    """Derive an independent 64-bit stream key for one point of a batch.

    SplitMix64: advance the seed by (index + 1) golden-ratio increments,
    then apply the finalizer mix. Distinct (seed, index) pairs map to
    well-separated keys, giving each grid point its own Philox stream.
    """
    seed = _check_seed(seed)
    if not isinstance(index, int) or isinstance(index, bool) or index < 0:
        raise ValidationError(f"index must be a nonnegative integer, got {index!r}")
    z = (seed + (index + 1) * 0x9E3779B97F4A7C15) & _MASK64
    z ^= z >> 30
    z = (z * 0xBF58476D1CE4E5B9) & _MASK64
    z ^= z >> 27
    z = (z * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def _check_seed(seed: int) -> int:
    if not isinstance(seed, int) or isinstance(seed, bool) or not 0 <= seed < (1 << 64):
        raise ValidationError(f"seed must be an integer in [0, 2**64), got {seed!r}")
    return int(seed)


def _check_trials(n: int) -> int:
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise ValidationError(f"number of trials must be a nonnegative integer, got {n!r}")
    return int(n)


def _generator(key: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=key))


@dataclass(frozen=True)
class TrialRecord:
    """One simulated trial: the detector outcome and the final box."""

    signal: str
    final_box: int

    def __post_init__(self):
        if self.signal not in SIGNALS:
            raise ValidationError(f"signal must be one of {SIGNALS}, got {self.signal!r}")
        if self.final_box not in BOXES:
            raise ValidationError(f"final_box must be 1 or 2, got {self.final_box!r}")


class CountTable:
    """Trial counts over (detector outcome, final box), same layout as the joint table."""

    __slots__ = ("_counts",)

    def __init__(self, counts):
        c = np.array(counts, dtype=np.int64)
        if c.shape != (2, 2):
            raise ValidationError(f"count table must be 2x2, got shape {c.shape}")
        if np.any(c < 0):
            raise ValidationError(f"counts must be nonnegative, got {c.tolist()}")
        c.flags.writeable = False
        self._counts = c

    @property
    def counts(self) -> np.ndarray:
        return self._counts

    @property
    def total(self) -> int:
        return int(self._counts.sum())

    def n(self, signal: str, box: int) -> int:
        return int(self._counts[_cell(signal, box)])

    def n_signal(self, signal: str) -> int:
        return sum(self.n(signal, box) for box in BOXES)

    def n_box(self, box: int) -> int:
        return sum(self.n(signal, box) for signal in SIGNALS)

    @classmethod
    def from_records(cls, records) -> "CountTable":
        c = np.zeros((2, 2), dtype=np.int64)
        for (signal, box), k in Counter((r.signal, r.final_box) for r in records).items():
            c[_cell(signal, box)] = k
        return cls(c)

    def frequencies(self) -> JointDistribution:
        if self.total == 0:
            raise ValidationError("cannot normalize an empty count table")
        return JointDistribution(self._counts / self.total)

    def __eq__(self, other):
        if not isinstance(other, CountTable):
            return NotImplemented
        return bool(np.array_equal(self._counts, other._counts))

    def __repr__(self):
        return f"CountTable({self._counts.tolist()!r})"


def sample_joint(dist: JointDistribution, n: int, seed: int) -> CountTable:
    """Draw n trials from an exact joint table by inverse-CDF lookup.

    All n trials consume exactly one uniform each, drawn from a Philox
    stream keyed by ``seed``.
    """
    n = _check_trials(n)
    gen = _generator(_check_seed(seed))
    cum = np.cumsum(dist.table.ravel())
    u = gen.random(n)
    idx = np.searchsorted(cum, u, side="right")
    np.minimum(idx, 3, out=idx)
    return CountTable(np.bincount(idx, minlength=4).reshape(2, 2))


def sample_classical(params: ClassicalParams, n: int, seed: int) -> CountTable:
    """Sample the classical protocol from its exact joint distribution."""
    return sample_joint(joint_distribution(params), n, seed)


def sample_quantum(
    i: TwoLevelState, m: MeasurementModel, f: TwoLevelState, n: int, seed: int
) -> CountTable:
    """Sample (detector outcome, postselection outcome) pairs of the quantum protocol."""
    return sample_joint(joint_outcome_probs(i, m, f), n, seed)


def sample_classical_trace(params: ClassicalParams, n: int, seed: int) -> list:
    """Simulate each classical trial stage by stage and log it.

    Per trial three uniforms decide, in order: the initial box, the
    detector outcome, the switch. Returns a list of
    :class:`TrialRecord`, one per trial in simulation order.
    """
    n = _check_trials(n)
    gen = _generator(_check_seed(seed))
    u = gen.random((n, 3))
    in_box1 = u[:, 0] < params.p1
    p_signal = np.where(in_box1, (1.0 + params.g) / 2.0, (1.0 - params.g) / 2.0)
    signal = u[:, 1] < p_signal
    p_switch = np.where(signal, params.q, params.q0)
    switched = u[:, 2] < p_switch
    final_box1 = in_box1 ^ switched
    return [
        TrialRecord(signal="S" if s else "Sbar", final_box=1 if b else 2)
        for s, b in zip(signal.tolist(), final_box1.tolist())
    ]


def sample_quantum_trace(
    i: TwoLevelState, m: MeasurementModel, f: TwoLevelState, n: int, seed: int
) -> list:
    """Simulate quantum trials stage by stage: detector outcome, then postselection."""
    n = _check_trials(n)
    gen = _generator(_check_seed(seed))
    dist = joint_outcome_probs(i, m, f)
    p_s = dist.p_signal("S")
    with np.errstate(divide="ignore", invalid="ignore"):
        p2_given_s = dist.p("S", 2) / p_s if p_s > 0 else 0.0
        p2_given_sbar = dist.p("Sbar", 2) / (1.0 - p_s) if p_s < 1 else 0.0
    u = gen.random((n, 2))
    signal = u[:, 0] < p_s
    p_box2 = np.where(signal, p2_given_s, p2_given_sbar)
    in_box2 = u[:, 1] < p_box2
    return [
        TrialRecord(signal="S" if s else "Sbar", final_box=2 if b else 1)
        for s, b in zip(signal.tolist(), in_box2.tolist())
    ]


def sample_classical_sweep(params_list, n: int, seed: int) -> list:
    """Sample a sequence of classical parameter points with one stream per point.

    Point ``k`` draws from the Philox stream keyed by
    ``derive_stream_key(seed, k)``.
    """
    n = _check_trials(n)
    seed = _check_seed(seed)
    return [sample_classical(p, n, derive_stream_key(seed, k)) for k, p in enumerate(params_list)]


def estimate_conditional_mean(
    counts: CountTable, cv: ContextualValues, final_box: int = 2
) -> tuple:
    """Contextual-value average over the trials that ended in ``final_box``.

    Returns ``(mean, stderr)`` where the standard error comes from the
    binomial fluctuation of the signal fraction among the postselected
    trials.

    Raises
    ------
    DomainError
        If no trial ended in the conditioning box.
    """
    n_f = counts.n_box(final_box)
    if n_f == 0:
        raise DomainError(f"no postselected trials: no count in final box {final_box}")
    n_s = counts.n("S", final_box)
    mean = _signal_average(n_s, n_f, cv.alpha_s, cv.alpha_sbar)
    p_hat = n_s / n_f
    stderr = cv.span * math.sqrt(p_hat * (1.0 - p_hat) / n_f)
    return float(mean), float(stderr)


@dataclass(frozen=True)
class GofResult:
    """Pearson chi-square statistic and the rejection flag at the 0.001 level."""

    statistic: float
    reject: bool


def gof_test(counts: CountTable, exact: JointDistribution) -> GofResult:
    """Pearson goodness-of-fit of sampled counts against the exact joint table.

    Three degrees of freedom (four cells, fixed total); rejects when the
    statistic exceeds 16.266, the 0.001 tail point. Requires at least 100
    trials and an expected count of at least 5 in every cell, the usual
    validity regime of the chi-square approximation.
    """
    total = counts.total
    expected = exact.table * total
    if total < 100 or np.min(expected) < 5.0:
        raise ValidationError(
            "insufficient counts for the chi-square approximation: need a total of at "
            f"least 100 and expected at least 5 per cell, got total {total} and "
            f"min expected {float(np.min(expected))!r}"
        )
    statistic = float(np.sum((counts.counts - expected) ** 2 / expected))
    return GofResult(statistic=statistic, reject=statistic > CHI2_CRITICAL_3DOF_P001)
