"""Monte Carlo sampling of both protocols with reproducible, splittable streams.

Randomness policy
-----------------
Every sampler takes an explicit 64-bit seed; nothing in this module ever
touches operating-system entropy. Streams come from numpy's Philox
counter-based generator, which produces the same sequence on every
platform and can be keyed independently per task. Multi-point runs derive
one key per grid point from (seed, point index) with a SplitMix64 mix, so
each point's counts depend on the seed and its own index alone.

The default sampler draws (detector outcome, final box) pairs by
inverting the cumulative distribution of the exact four-cell joint table.
A separate trace mode simulates each trial stage by stage (placement,
detection, switching) and returns a :class:`TrialTrace`: two columns, the
detector outcome (``bool``, True for S) and the final box (``uint8``, 1 or
2), one entry per trial, 2 bytes per trial in all. It consumes differently
from the stream, but must agree with the joint sampler in distribution,
which the goodness-of-fit test checks.

Every sampler draws its uniforms in blocks of at most ``_BLOCK`` trials,
so the working memory of a draw is bounded whatever ``n`` is. Philox
float64 draws are sequential, so the blocks consume the stream exactly as
one ``gen.random(n)`` (or ``gen.random((n, k))``) call would, and seeded
counts and traces do not depend on the block size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .classical import ClassicalParams, joint_distribution
from .contextual import ContextualValues, _numbers
from .errors import DomainError, ValidationError, _shown
from .quantum import MeasurementModel, TwoLevelState, joint_outcome_probs
from .tables import BOXES, SIGNALS, JointDistribution, _cell, _flat_cells, _signal_average

__all__ = [
    "TrialTrace",
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

# Trials per block of drawn uniforms and of streamed CSV rows.
_BLOCK = 1 << 16


def derive_stream_key(seed: int, index: int) -> int:
    """Derive an independent 64-bit stream key for one point of a batch.

    SplitMix64: advance the seed by (index + 1) golden-ratio increments,
    then apply the finalizer mix. Distinct (seed, index) pairs map to
    well-separated keys, giving each grid point its own Philox stream.
    """
    seed = _check_below("seed", seed, 64)
    if not isinstance(index, int) or isinstance(index, bool) or index < 0:
        raise ValidationError(f"index must be a nonnegative integer, got {_shown(index)}")
    if index >= 1 << 64:  # the mix reads the index modulo 2**64
        raise ValidationError(f"index must be below 2**64, got {_shown(index)}")
    z = (seed + (index + 1) * 0x9E3779B97F4A7C15) & _MASK64
    z ^= z >> 30
    z = (z * 0xBF58476D1CE4E5B9) & _MASK64
    z ^= z >> 27
    z = (z * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def _check_below(name: str, value, bits: int) -> int:
    """``value`` as an int, after checking it is in [0, 2**bits): 64 bits for seeds, 63 for int64 trial counts."""
    if not isinstance(value, int) or isinstance(value, bool) or not 0 <= value < (1 << bits):
        raise ValidationError(f"{name} must be an integer in [0, 2**{bits}), got {_shown(value)}")
    return int(value)


def _generator(key: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=key))


def _blocks(n: int):
    """``(lo, hi)`` bounds of consecutive blocks of at most ``_BLOCK`` items covering ``range(n)``."""
    return ((lo, min(lo + _BLOCK, n)) for lo in range(0, n, _BLOCK))


def _draw_blocks(gen: np.random.Generator, n: int, k: int | None = None):
    """Yield ``(lo, hi, u)``: the uniforms of trials ``lo..hi``, one (or ``k``) per trial, in stream order."""
    for lo, hi in _blocks(n):
        yield lo, hi, gen.random(hi - lo if k is None else (hi - lo, k))


class TrialTrace:
    """Trials in simulation order, as two read-only columns.

    ``signal`` is ``bool`` (True for the detector outcome S) and
    ``final_box`` is ``uint8`` (1 or 2).
    """

    __slots__ = ("signal", "final_box")

    def __init__(self, signal, final_box):
        signal = np.asarray(signal)
        final_box = np.asarray(final_box)
        if signal.dtype != bool or signal.ndim != 1 or final_box.shape != signal.shape:
            raise ValidationError(
                "a trial trace needs a 1-D bool signal column and a final_box column of the same "
                f"length, got {signal.dtype} {signal.shape} and {final_box.shape}"
            )
        if final_box.size and (
            not np.issubdtype(final_box.dtype, np.integer) or final_box.min() < 1 or final_box.max() > 2
        ):
            raise ValidationError("final_box entries must be 1 or 2")
        self.signal = signal.view()
        self.final_box = final_box.astype(np.uint8, copy=False).view()
        self.signal.flags.writeable = False
        self.final_box.flags.writeable = False

    def __len__(self) -> int:
        return self.signal.size

    def _cells(self, lo: int, hi: int) -> np.ndarray:
        """Flat table cell, in ``ravel()`` order, of trials ``lo..hi``."""
        return _flat_cells(self.signal[lo:hi], self.final_box[lo:hi])

    def __eq__(self, other):
        if not isinstance(other, TrialTrace):
            return NotImplemented
        return bool(
            np.array_equal(self.signal, other.signal) and np.array_equal(self.final_box, other.final_box)
        )

    def __repr__(self):
        return f"TrialTrace(<{len(self)} trials>)"


class CountTable:
    """Trial counts over (detector outcome, final box), same layout as the joint table."""

    __slots__ = ("_counts",)

    def __init__(self, counts):
        c = np.array(_numbers(counts, "counts must be integers, got {}", np.int64))
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
    def from_records(cls, trace: TrialTrace) -> "CountTable":
        """Count the trials of a :class:`TrialTrace`, one ``np.bincount`` per block."""
        if not isinstance(trace, TrialTrace):
            raise ValidationError(f"can only count a TrialTrace, got {type(trace).__name__}")
        cells = (np.bincount(trace._cells(lo, hi), minlength=4) for lo, hi in _blocks(len(trace)))
        return cls(sum(cells, np.zeros(4, dtype=np.int64)).reshape(2, 2))

    def __eq__(self, other):
        if not isinstance(other, CountTable):
            return NotImplemented
        return bool(np.array_equal(self._counts, other._counts))

    def __repr__(self):
        return f"CountTable({self._counts.tolist()!r})"


def sample_joint(dist: JointDistribution, n: int, seed: int) -> CountTable:
    """Draw n trials from an exact joint table by inverse-CDF lookup.

    All n trials consume exactly one uniform each, drawn in blocks from a
    Philox stream keyed by ``seed``.
    """
    n = _check_below("number of trials", n, 63)
    gen = _generator(_check_below("seed", seed, 64))
    cum = np.cumsum(dist.table.ravel())
    c = np.zeros(4, dtype=np.int64)
    for _, _, u in _draw_blocks(gen, n):
        idx = np.searchsorted(cum, u, side="right")
        np.minimum(idx, 3, out=idx)
        c += np.bincount(idx, minlength=4)
    return CountTable(c.reshape(2, 2))


def sample_classical(params: ClassicalParams, n: int, seed: int) -> CountTable:
    """Sample the classical protocol from its exact joint distribution."""
    return sample_joint(joint_distribution(params), n, seed)


def sample_quantum(
    i: TwoLevelState, m: MeasurementModel, f: TwoLevelState, n: int, seed: int
) -> CountTable:
    """Sample (detector outcome, postselection outcome) pairs of the quantum protocol."""
    return sample_joint(joint_outcome_probs(i, m, f), n, seed)


def _simulate(n: int, seed: int, k: int, stages) -> TrialTrace:
    """Trace of n trials: ``stages`` maps each block of k uniforms per trial to (signal, final box)."""
    n = _check_below("number of trials", n, 63)
    gen = _generator(_check_below("seed", seed, 64))
    signal = np.empty(n, dtype=bool)
    final_box = np.empty(n, dtype=np.uint8)
    for lo, hi, u in _draw_blocks(gen, n, k):
        signal[lo:hi], final_box[lo:hi] = stages(u)
    return TrialTrace(signal, final_box)


def sample_classical_trace(params: ClassicalParams, n: int, seed: int) -> TrialTrace:
    """Simulate each classical trial stage by stage and log it.

    Per trial three uniforms decide, in order: the initial box, the
    detector outcome, the switch. Returns the :class:`TrialTrace` of the
    n trials in simulation order.
    """

    def stages(u):
        in_box1 = u[:, 0] < params.p1
        p_signal = np.where(in_box1, (1.0 + params.g) / 2.0, (1.0 - params.g) / 2.0)
        signal = u[:, 1] < p_signal
        switched = u[:, 2] < np.where(signal, params.q, params.q0)
        return signal, np.where(in_box1 ^ switched, 1, 2)

    return _simulate(n, seed, 3, stages)


def sample_quantum_trace(
    i: TwoLevelState, m: MeasurementModel, f: TwoLevelState, n: int, seed: int
) -> TrialTrace:
    """Simulate quantum trials stage by stage: detector outcome, then postselection."""
    dist = joint_outcome_probs(i, m, f)
    p_s = dist.p_signal("S")
    with np.errstate(divide="ignore", invalid="ignore"):
        p2_given_s = dist.p("S", 2) / p_s if p_s > 0 else 0.0
        p2_given_sbar = dist.p("Sbar", 2) / (1.0 - p_s) if p_s < 1 else 0.0

    def stages(u):
        signal = u[:, 0] < p_s
        return signal, np.where(u[:, 1] < np.where(signal, p2_given_s, p2_given_sbar), 2, 1)

    return _simulate(n, seed, 2, stages)


def sample_classical_sweep(params_list, n: int, seed: int) -> list:
    """Sample a sequence of classical parameter points with one stream per point.

    Point ``k`` draws from the Philox stream keyed by
    ``derive_stream_key(seed, k)``.
    """
    n = _check_below("number of trials", n, 63)
    seed = _check_below("seed", seed, 64)
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
