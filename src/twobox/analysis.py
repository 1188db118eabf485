"""Protocol sweeps, scaling fits, weak-limit extrapolation, negativity witness.

This module compares the two engines on an equal footing. A protocol
object fixes everything except the measurement strength (the detector
bias ``g`` classically, the coupling ``lam`` quantum mechanically);
:func:`sweep_metric` evaluates a named metric along a strength grid and
returns a tabular result that the fitting and extrapolation helpers
consume directly.

The headline contrast lives in the ``postselection_shift`` metric: how
much turning the detector on moves the probability of the postselected
outcome. The matched classical protocol pays a strength-independent
shift, while the quantum protocol pays one of order lam^2, vanishing in
the weak limit. ``weak_limit_extrapolate`` removes that quadratic error
from conditioned averages by Richardson extrapolation in lam^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .classical import ClassicalParams, _matched_cosine, _matched_switching, joint_distribution, joint_tables
from .contextual import _check_finite, _check_unit_interval, _numbers
from .errors import DomainError, TwoBoxError, ValidationError, _shown
from .quantum import (
    MeasurementModel,
    Postselection,
    TwoLevelState,
    _check_coupling,
    _conditional_means,
    _disturbances,
    _overlap,
    outcome_tables,
    weak_value,
)
from .tables import _box2, _check_tables, _postselected, _signal_average

__all__ = [
    "ClassicalMatchedProtocol",
    "QuantumProtocol",
    "SweepResult",
    "PowerLawFit",
    "ProjectorWeakValues",
    "classical_postselection_shift",
    "quantum_postselection_shift",
    "sweep_metric",
    "metric_names",
    "fit_power_law",
    "richardson_extrapolate",
    "weak_limit_extrapolate",
    "projector_weak_values",
]


@dataclass(frozen=True)
class ClassicalMatchedProtocol:
    """Classical protocol tuned to mimic the weak value 1/cos(theta) at any bias."""

    theta: float

    def __post_init__(self):
        object.__setattr__(self, "theta", _check_finite("theta", self.theta))

    label = "classical_matched"
    parameter = "g"
    metrics = ("conditional_mean", "conditional_mean_error", "postselection_probability", "postselection_shift")

    @property
    def target(self) -> float:
        return 1.0 / _matched_cosine(self.theta)

    def fixed(self) -> dict:
        return {"theta": self.theta}

    def _values(self, metric: str, g: np.ndarray):
        q, q0 = _matched_switching(self.theta, g)
        # P(box 2) >= q / 2 > 0 on the matched family (p1 = 1, q > 0), so the postselection check cannot fire
        ps, pf = _postselected(_check_tables(joint_tables(1.0, g, q, q0)))
        # p1 = 1, so the undisturbed protocol never ends in box 2 and the shift is P(box 2)
        if metric in ("postselection_probability", "postselection_shift"):
            return pf
        mean = _signal_average(ps, pf, 1.0 / g, -1.0 / g)
        return mean if metric == "conditional_mean" else np.abs(mean - self.target)


@dataclass(frozen=True)
class QuantumProtocol:
    """Quantum protocol: prepare with occupation p1, postselect at angle theta."""

    p1: float
    theta: float

    def __post_init__(self):
        object.__setattr__(self, "p1", _check_unit_interval("p1", self.p1))
        object.__setattr__(self, "theta", _check_finite("theta", self.theta))

    label = "quantum"
    parameter = "lambda"
    metrics = ClassicalMatchedProtocol.metrics + ("quantum_disturbance",)

    @property
    def preparation(self) -> TwoLevelState:
        return TwoLevelState.from_occupation(self.p1)

    @property
    def postselection(self) -> TwoLevelState:
        return Postselection(self.theta % (2.0 * math.pi)).state

    @property
    def target(self) -> float:
        return weak_value(self.preparation, self.postselection).real

    def fixed(self) -> dict:
        return {"p1": self.p1, "theta": self.theta}

    def _values(self, metric: str, lam: np.ndarray):
        i = self.preparation
        f = self.postselection
        lam = _check_coupling(lam)
        if metric == "postselection_probability":
            return _box2(outcome_tables(i, f, lam))
        if metric == "postselection_shift":
            return _quantum_shifts(i, f, lam)
        if metric == "quantum_disturbance":
            return _disturbances(i, lam)
        mean = _conditional_means(i, f, lam)
        return mean if metric == "conditional_mean" else np.abs(mean - self.target)


def classical_postselection_shift(params: ClassicalParams) -> float:
    """How far the detector's disturbance moves the final box 2 probability.

    Compares P(final box 2) under ``params`` against the undisturbed
    protocol (q = q0 = 0), where the final box is the initial one.
    """
    disturbed = joint_distribution(params).p_box(2)
    return abs(disturbed - (1.0 - params.p1))


def quantum_postselection_shift(i: TwoLevelState, f: TwoLevelState, lam: float) -> float:
    """How far the coupling moves the postselection probability from its lam = 0 value."""
    return float(_quantum_shifts(i, f, MeasurementModel(lam).lam))


def _quantum_shifts(i: TwoLevelState, f: TwoLevelState, lam):
    undisturbed = abs(f.a1.conjugate() * i.a1 + f.a2.conjugate() * i.a2) ** 2
    return np.abs(_box2(outcome_tables(i, f, lam)) - undisturbed)


def metric_names(protocol) -> tuple:
    """Metric names available for the given protocol object."""
    if not isinstance(protocol, (ClassicalMatchedProtocol, QuantumProtocol)):
        raise ValidationError(f"unknown protocol object {protocol!r}")
    return protocol.metrics


@dataclass(frozen=True, eq=False)
class SweepResult:
    """One metric evaluated along a strictly monotone strength grid."""

    parameter: str
    strengths: np.ndarray
    values: np.ndarray
    protocol: str
    metric: str
    fixed: dict = field(default_factory=dict)

    def __post_init__(self):
        s = np.asarray(self.strengths, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if s.ndim != 1 or s.size == 0:
            raise ValidationError("strengths must be a nonempty 1-D grid")
        if v.shape != s.shape:
            raise ValidationError(
                f"values shape {v.shape} does not match strengths shape {s.shape}"
            )
        diffs = np.diff(s)
        _check_sweep(np.all(diffs > 0), np.all(diffs < 0), np.isfinite(s).all() and np.isfinite(v).all())
        s.flags.writeable = False
        v.flags.writeable = False
        object.__setattr__(self, "strengths", s)
        object.__setattr__(self, "values", v)

    def __len__(self):
        return int(self.strengths.size)


def _check_sweep(rising: bool, falling: bool, finite: bool) -> None:
    """Raise the grid error of a sweep: all steps rising or all falling, then every number finite."""
    if not (rising or falling):
        raise ValidationError("strengths must be strictly monotone")
    if not finite:
        raise ValidationError("strengths and values must be finite")


def _raise_first_failure(evaluate, protocol, metric: str, grid: np.ndarray, whole_grid_error) -> None:
    """Raise the error a per-point loop over ``grid`` would raise first.

    Every prefix of the grid that holds the first failing point fails and
    no shorter one does, so bisect on the prefix length.
    """
    good, bad = 0, grid.size
    while bad - good > 1:
        mid = (good + bad) // 2
        try:
            evaluate(protocol, metric, grid[:mid])
            good = mid
        except TwoBoxError:
            bad = mid
    try:
        evaluate(protocol, metric, grid[good:bad])
    except DomainError as err:
        x = float(grid[good])
        raise DomainError(f"{metric} undefined at {protocol.parameter} = {x!r}: {err}") from err
    raise whole_grid_error  # reached only if some check is not point-wise


def _sweep_blocks(protocol, metric: str, blocks):
    """Yield ``(strengths, values)`` per block of one grid, raising what the blocks joined in order would.

    Blocks are checked and evaluated in order, one at a time. The error of
    the first failing point wins; the grid checks of :class:`SweepResult`,
    across block boundaries too, run after the last block.
    """
    if metric not in metric_names(protocol):
        raise ValidationError(f"unknown metric {_shown(metric)}; choose from {list(protocol.metrics)}")
    rising = falling = finite = True
    last = np.empty(0)
    for block in blocks:
        grid = _numbers(block, "strengths must be numbers, got {}")
        if grid.ndim != 1 or grid.size == 0:
            raise ValidationError("strengths must be a nonempty 1-D grid")
        try:
            values = protocol._values(metric, grid)
        except TwoBoxError as err:
            _raise_first_failure(type(protocol)._values, protocol, metric, grid, err)
        steps = np.diff(grid, prepend=last)
        rising = rising and bool(np.all(steps > 0))
        falling = falling and bool(np.all(steps < 0))
        finite = finite and bool(np.all(np.isfinite(grid)) and np.all(np.isfinite(values)))
        last = grid[-1:]
        yield grid, values
    _check_sweep(rising, falling, finite)


def sweep_metric(protocol, metric: str, strengths) -> SweepResult:
    """Evaluate one metric at every strength on the grid.

    The whole grid goes through the protocol's array kernel in one call.
    The CLI streams long grids through the same generator one block at a
    time, so a streamed sweep checks and fails exactly as this call does.
    Points are checked as one-at-a-time evaluation would check them, and
    the error raised is the one the first failing point, in grid order,
    would raise.

    Parameters
    ----------
    protocol : ClassicalMatchedProtocol or QuantumProtocol
        The protocol family; its strength axis is ``g`` or ``lam``.
    metric : str
        One of :func:`metric_names` for the protocol.
    strengths : array_like
        Strictly monotone grid of strengths.

    Raises
    ------
    ValidationError
        For an empty grid, an unknown metric name or a strength out of
        range.
    DomainError
        If the metric is undefined at some grid point; the message names
        the offending point.
    """
    [(grid, values)] = _sweep_blocks(protocol, metric, [strengths])
    return SweepResult(
        parameter=protocol.parameter,
        strengths=grid,
        values=values,
        protocol=protocol.label,
        metric=metric,
        fixed=protocol.fixed(),
    )


@dataclass(frozen=True)
class PowerLawFit:
    """Least-squares fit of values ~ prefactor * strength ** exponent."""

    exponent: float
    prefactor: float
    rms_residual: float


def fit_power_law(points: SweepResult) -> PowerLawFit:
    """Fit a power law by linear least squares in log-log coordinates.

    Requires at least three points with strictly positive strengths and
    values. ``rms_residual`` is reported in log space; a large value means
    the data is not actually a power law.
    """
    x = points.strengths
    y = points.values
    if x.size < 3:
        raise ValidationError(f"power-law fit needs at least 3 points, got {x.size}")
    if np.any(x <= 0) or np.any(y <= 0):
        raise ValidationError("power-law fit requires strictly positive strengths and values")
    lx = np.log(x)
    ly = np.log(y)
    slope, intercept = np.polyfit(lx, ly, 1)
    residuals = ly - (slope * lx + intercept)
    return PowerLawFit(
        exponent=float(slope),
        prefactor=float(np.exp(intercept)),
        rms_residual=float(np.sqrt(np.mean(residuals**2))),
    )


def richardson_extrapolate(strengths, values) -> tuple:
    """Polynomial extrapolation of values(strength) to strength -> 0 in strength^2.

    Builds the Neville tableau in t = strength^2, appropriate when the
    leading error is even in the strength, and returns
    ``(limit, error_estimate)`` where the estimate is the change from the
    previous extrapolation order.
    """
    s = np.asarray(strengths, dtype=float)
    v = np.asarray(values, dtype=float)
    if s.ndim != 1 or s.shape != v.shape or s.size < 2:
        raise ValidationError("extrapolation needs two equal-length 1-D arrays, at least 2 points")
    if np.any(s <= 0) or not np.all(np.isfinite(s)) or not np.all(np.isfinite(v)):
        raise ValidationError("strengths must be positive and finite, values finite")
    order = np.argsort(s)[::-1]
    t = s[order] ** 2
    if np.any(np.diff(t) >= 0):
        raise ValidationError("strengths must be distinct")
    cur = v[order].astype(float)
    k = s.size
    for m in range(1, k):
        previous = cur[-1]
        cur = (t[: k - m] * cur[1:] - t[m:] * cur[:-1]) / (t[: k - m] - t[m:])
    return float(cur[0]), float(abs(cur[0] - previous))


def weak_limit_extrapolate(points: SweepResult) -> float:
    """Extrapolate a sweep to zero strength, removing the quadratic error.

    Requires at least three grid points. Returns the Richardson limit; use
    :func:`richardson_extrapolate` directly when the error estimate is
    also wanted.
    """
    if len(points) < 3:
        raise ValidationError(f"weak-limit extrapolation needs at least 3 points, got {len(points)}")
    limit, _ = richardson_extrapolate(points.strengths, points.values)
    return limit


@dataclass(frozen=True)
class ProjectorWeakValues:
    """Weak values of the two box projectors and their negativity flag.

    The pair always sums to 1; ``negative`` is True when either real part
    dips below zero, the conditioned quasiprobability reading of an
    anomalous weak value.
    """

    w1: complex
    w2: complex
    negative: bool


def projector_weak_values(i: TwoLevelState, f: TwoLevelState) -> ProjectorWeakValues:
    """Weak values <f|b><b|i>/<f|i> of the box projectors, b = 1, 2."""
    ovl = _overlap(i, f)
    w1 = complex(np.conj(f.a1) * i.a1 / ovl)
    w2 = complex(np.conj(f.a2) * i.a2 / ovl)
    negative = min(w1.real, w2.real) < -1e-12
    return ProjectorWeakValues(w1=w1, w2=w2, negative=negative)
