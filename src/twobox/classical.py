"""Exact engine for the classical two-box conditioned-measurement protocol.

Model
-----
A particle is prepared in box 1 with probability ``p1`` and in box 2
otherwise. A binary detector then fires: it emits a signal ``S`` with
probability ``(1 + g) / 2`` when the particle sits in box 1 and
``(1 - g) / 2`` when it sits in box 2. The bias ``g`` in (0, 1] measures
how informative the detector is; ``g = 1`` reads the box perfectly, while
``g -> 0`` approaches a coin flip. The detection disturbs the system: the
particle switches box with probability ``q`` if a signal was emitted and
``q0`` if not. Finally both boxes are opened and the particle's box is
recorded, which allows postselection on the final box.

Weighting the detector outcomes with the contextual values ``+1/g`` for a
signal and ``-1/g`` for no signal makes the unconditional average equal to
the occupation difference ``p1 - p2`` for every preparation. The same
weighted average conditioned on the final box is bounded only by
``[-1/g, 1/g]`` and can leave ``[-1, 1]`` once the switching is outcome
dependent (``q != q0``).

Everything in this module is exact. Joint probabilities come from
enumerating the eight paths (initial box x signal x switch); no sampling
is involved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .contextual import _check_bias, _check_finite
from .errors import DomainError, ValidationError

__all__ = [
    "SIGNALS",
    "BOXES",
    "ClassicalParams",
    "JointDistribution",
    "joint_distribution",
    "joint_tables",
    "unconditional_mean",
    "conditional_mean",
    "fc_match_params",
    "min_disturbance_for_value",
]

SIGNALS = ("S", "Sbar")
BOXES = (1, 2)
_CELLS = {(s, b): (i, j) for i, s in enumerate(SIGNALS) for j, b in enumerate(BOXES)}


def _cell(signal: str, box: int) -> tuple:
    """(row, column) of a detector outcome and a final box in a 2x2 joint or count table."""
    if signal not in SIGNALS:
        raise ValidationError(f"signal must be one of {SIGNALS}, got {signal!r}")
    cell = None if isinstance(box, bool) else _CELLS.get((signal, box))
    if cell is None:
        raise ValidationError(f"final_box must be 1 or 2, got {box!r}")
    return cell


def _check_unit_interval(name: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value) or not 0.0 <= value <= 1.0:
        raise ValidationError(f"{name} must be in [0, 1], got {value!r}")
    return value


def _check_tables(t):
    """Check a ``(..., 2, 2)`` stack of joint tables and return it clipped at 0.

    Each table must be finite, nonnegative and sum to 1, all within 1e-12;
    an error names the first failing table.
    """
    cells = t.reshape(-1, 4)
    if not np.isfinite(cells).all():
        raise ValidationError("joint table entries must be finite")
    negative = (cells < -1e-12).any(axis=1)
    if negative.any():
        table = cells[negative.argmax()].reshape(2, 2)
        raise ValidationError(f"joint table entries must be nonnegative, got {table.tolist()}")
    total = cells.sum(axis=1)
    off = abs(total - 1.0) > 1e-12
    if off.any():
        raise ValidationError(f"joint table must sum to 1, got {float(total[off.argmax()])!r}")
    return np.maximum(t, 0.0)


@dataclass(frozen=True)
class ClassicalParams:
    """Full parameter set of one classical protocol run.

    Attributes
    ----------
    p1 : float
        Probability of preparing the particle in box 1.
    g : float
        Detector bias in (0, 1]. The signal probabilities are
        (1 + g)/2 from box 1 and (1 - g)/2 from box 2.
    q : float
        Switch probability after a signal.
    q0 : float
        Switch probability after no signal.
    """

    p1: float
    g: float
    q: float
    q0: float

    def __post_init__(self):
        object.__setattr__(self, "p1", _check_unit_interval("p1", self.p1))
        object.__setattr__(self, "g", float(_check_bias(self.g)))
        object.__setattr__(self, "q", _check_unit_interval("q", self.q))
        object.__setattr__(self, "q0", _check_unit_interval("q0", self.q0))

    @property
    def p2(self) -> float:
        return 1.0 - self.p1


class JointDistribution:
    """Exact joint probability table over (signal outcome, final box).

    Rows are the detector outcomes ``"S"`` and ``"Sbar"``; columns are the
    final boxes 1 and 2. The same container is used by the quantum engine,
    where "final box 2" stands for a successful postselection and
    "final box 1" for its complement.
    """

    __slots__ = ("_table",)

    def __init__(self, table):
        t = np.array(table, dtype=float)
        if t.shape != (2, 2):
            raise ValidationError(f"joint table must be 2x2, got shape {t.shape}")
        t = _check_tables(t)
        t.flags.writeable = False
        self._table = t

    @property
    def table(self) -> np.ndarray:
        """The 2x2 probability array (read-only). Rows: S, Sbar. Columns: box 1, box 2."""
        return self._table

    def p(self, signal: str, box: int) -> float:
        return float(self._table[_cell(signal, box)])

    def p_signal(self, signal: str) -> float:
        return sum(self.p(signal, box) for box in BOXES)

    def p_box(self, box: int) -> float:
        return sum(self.p(signal, box) for signal in SIGNALS)

    def __repr__(self):
        return f"JointDistribution({self._table.tolist()!r})"


def _column(p1, g, q, q0, final_box: int):
    """P(S, final box) and P(Sbar, final box), each the sum of its two paths, initial box 1 first."""
    p2 = 1.0 - p1
    a = (1.0 + g) / 2.0  # P(S | box 1)
    abar = (1.0 - g) / 2.0  # P(S | box 2)
    w1, w2 = (q, 1.0 - q) if final_box == 2 else (1.0 - q, q)  # switch weights from box 1, box 2
    v1, v2 = (q0, 1.0 - q0) if final_box == 2 else (1.0 - q0, q0)
    return p1 * a * w1 + p2 * abar * w2, p1 * (1.0 - a) * v1 + p2 * (1.0 - abar) * v2


def joint_tables(p1, g, q, q0) -> np.ndarray:
    """Exact joint tables over broadcast parameters, shape ``(..., 2, 2)``, not range-checked.

    Each path is (initial box) x (signal or not) x (switch or not); its
    probability is the product of the three stage probabilities, and paths
    are accumulated by (signal, final box), rows S and Sbar.
    """
    # [()] makes 0-d input numpy scalars, whose arithmetic is much cheaper
    p1, g, q, q0 = (np.asarray(v, dtype=float)[()] for v in (p1, g, q, q0))
    cells = (*_column(p1, g, q, q0, 1), *_column(p1, g, q, q0, 2))
    t = np.empty(np.broadcast(*cells).shape + (2, 2))
    t[..., 0, 0], t[..., 1, 0], t[..., 0, 1], t[..., 1, 1] = cells
    return t


def joint_distribution(params: ClassicalParams) -> JointDistribution:
    """The exact joint table of one parameter set; see :func:`joint_tables`."""
    return JointDistribution(joint_tables(params.p1, params.g, params.q, params.q0))


def _box2(t):
    return t[..., 0, 1] + t[..., 1, 1]


def _signal_average(p_signal_f, p_f, alpha_s, alpha_sbar):
    ps = p_signal_f / p_f
    return alpha_s * ps + alpha_sbar * (1.0 - ps)


def unconditional_mean(dist: JointDistribution, cv) -> float:
    """Average of the contextual values over the signal marginal."""
    return cv.alpha_s * dist.p_signal("S") + cv.alpha_sbar * dist.p_signal("Sbar")


def conditional_mean(dist: JointDistribution, cv, final_box: int = 2) -> float:
    """Average of the contextual values conditioned on the final box.

    Raises
    ------
    DomainError
        If the conditioning box has probability zero, i.e. the
        postselection never occurs.
    """
    pf = dist.p_box(final_box)
    if pf <= 0.0:
        raise DomainError(f"postselection never occurs: P(final box {final_box}) = 0")
    return _signal_average(dist.p(signal="S", box=final_box), pf, cv.alpha_s, cv.alpha_sbar)


def fc_match_params(theta: float, g: float) -> ClassicalParams:
    """Classical parameters whose box-2 conditional mean equals 1/cos(theta).

    Start the particle in box 1 with certainty and pick the switch
    probabilities

        q  = (cos(theta) + g) / (1 + g)
        q0 = (cos(theta) - g) / (1 - g)        (q0 = 1 at g = 1)

    Then, conditioning on final box 2, the weighted detector average is
    exactly 1/cos(theta) for every admissible bias, reproducing the
    anomalous weak value of the matching quantum protocol at any g, not
    just in the weak limit. The final box 2 probability is cos(theta),
    independent of g.

    Parameters
    ----------
    theta : float
        Postselection angle; the target value is 1/cos(theta).
    g : float
        Detector bias. Requires g <= cos(theta), otherwise q0 would be
        negative and no valid switch probability exists.
    """
    q, q0 = _matched_switching(theta, g)
    return ClassicalParams(p1=1.0, g=g, q=float(q), q0=float(q0))


def _matched_switching(theta: float, g) -> tuple:
    """(q, q0) of :func:`fc_match_params` over a bias array, after its checks; q0 clamped to [0, 1]."""
    g = _check_bias(g)
    c = math.cos(float(theta))
    if c <= 0.0:
        raise DomainError(f"target value undefined or divergent: cos(theta) = {c!r} must be positive")
    unmatched = g > c + 1e-15
    if unmatched.any():
        raise DomainError(
            "no valid switch probability: requires g <= cos(theta), "
            f"got g={float(g.flat[unmatched.argmax()])!r}, cos(theta)={c!r}"
        )
    with np.errstate(divide="ignore", invalid="ignore"):
        q0 = np.where(g == 1.0, 1.0, (c - g) / (1.0 - g))
    return (c + g) / (1.0 + g), np.minimum(np.maximum(q0, 0.0), 1.0)


def _conditional_mean_surface(p1, q, q0, g):
    """Vectorized box-2 conditional mean with contextual values (+1/g, -1/g).

    Broadcasts over ``p1``, ``q`` and ``q0``. Points where final box 2 has
    probability zero come back NaN instead of raising. Uses the box-2
    column of :func:`joint_tables` alone, so a 3-D grid costs no whole tables.
    """
    p1, q, q0 = (np.asarray(v, dtype=float) for v in (p1, q, q0))
    ps2, psb2 = _column(p1, g, q, q0, 2)
    pf = ps2 + psb2
    with np.errstate(divide="ignore", invalid="ignore"):
        mean = (ps2 - psb2) / (g * pf)
    return np.where(pf > 0.0, mean, np.nan)


def _grid_min_disturbance(v_target, g, lo, hi, n, tol):
    """Smallest max(q, q0) with |conditional mean - v_target| <= tol on a box grid.

    ``lo`` and ``hi`` are 3-vectors bounding (p1, q, q0). Returns
    (best objective, best point) or (inf, None) when no grid point is
    feasible.
    """
    axes = [np.linspace(lo[i], hi[i], n) for i in range(3)]
    p1 = axes[0][:, None, None]
    q = axes[1][None, :, None]
    q0 = axes[2][None, None, :]
    mean = _conditional_mean_surface(p1, q, q0, g)
    feasible = np.abs(mean - v_target) <= tol
    if not feasible.any():
        return math.inf, None
    objective = np.broadcast_to(np.maximum(q, q0), mean.shape)
    masked = np.where(feasible, objective, np.inf)
    flat = int(np.argmin(masked))
    i, j, k = np.unravel_index(flat, masked.shape)
    best = float(masked[i, j, k])
    point = (float(axes[0][i]), float(axes[1][j]), float(axes[2][k]))
    return best, point


def min_disturbance_for_value(v_target: float, g: float, grid_resolution: int = 51) -> float:
    """Minimum switching disturbance needed to reach a target conditional mean.

    Searches a uniform ``grid_resolution``-point grid over (p1, q, q0) in
    [0, 1]^3 for points whose box-2 conditional mean (with contextual
    values +1/g, -1/g) lies within a grid tolerance of ``v_target``, and
    returns the smallest max(q, q0) among them. The tolerance is
    ``2 * h * max(1, |v_target|)`` with h the grid spacing, so that targets
    representable between grid points are not missed. A second pass
    re-searches one coarse cell around the best point at the same
    resolution and proportionally tighter tolerance.

    Returns ``math.inf`` when no grid point is feasible, which is the
    honest answer for targets outside [-1/g, 1/g].

    Note the objective measures switching activity only. The protocol
    family contains scaled-down matches (q and q0 shrunk together toward
    zero at p1 = 1) that hold the conditional mean fixed while the
    postselection probability vanishes, so for anomalous targets the
    returned minimum shrinks with the grid spacing rather than settling at
    a finite floor. Zero disturbance is reachable only at targets the
    undisturbed protocol produces; conditioning on box 2, max(q, q0) = 0
    forces the conditional mean to exactly -1.
    """
    g = float(_check_bias(g))
    v_target = _check_finite("v_target", v_target)
    n = int(grid_resolution)
    if n < 2:
        raise ValidationError(f"grid_resolution must be at least 2, got {grid_resolution!r}")

    h = 1.0 / (n - 1)
    tol = 2.0 * h * max(1.0, abs(v_target))
    best, point = _grid_min_disturbance(
        v_target, g, lo=(0.0, 0.0, 0.0), hi=(1.0, 1.0, 1.0), n=n, tol=tol
    )
    if point is None:
        return best

    lo = [max(0.0, x - h) for x in point]
    hi = [min(1.0, x + h) for x in point]
    h_fine = max(hi[i] - lo[i] for i in range(3)) / (n - 1)
    tol_fine = 2.0 * h_fine * max(1.0, abs(v_target))
    fine, _ = _grid_min_disturbance(v_target, g, lo=lo, hi=hi, n=n, tol=tol_fine)
    return min(best, fine)
