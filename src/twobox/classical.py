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
import numbers
from dataclasses import dataclass

import numpy as np

from .contextual import _check_bias, _check_finite, _check_unit_interval
from .errors import DomainError, ValidationError, _shown
# SIGNALS and BOXES are imported so that they stay importable from this module.
from .tables import BOXES, SIGNALS, JointDistribution, _postselected, _signal_average, _stack  # noqa: F401

__all__ = [
    "ClassicalParams",
    "joint_distribution",
    "joint_tables",
    "unconditional_mean",
    "conditional_mean",
    "fc_match_params",
    "min_disturbance_for_value",
]


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
    return _stack(*_column(p1, g, q, q0, 1), *_column(p1, g, q, q0, 2))


def joint_distribution(params: ClassicalParams) -> JointDistribution:
    """The exact joint table of one parameter set; see :func:`joint_tables`."""
    return JointDistribution(joint_tables(params.p1, params.g, params.q, params.q0))


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
    return float(_signal_average(*_postselected(dist.table, final_box), cv.alpha_s, cv.alpha_sbar))


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


def _matched_cosine(theta: float) -> float:
    """cos(theta), after checking that the matched target 1/cos(theta) is finite and positive."""
    c = math.cos(float(theta))
    if c <= 0.0:
        raise DomainError(f"target value undefined or divergent: cos(theta) = {c!r} must be positive")
    return c


def _matched_switching(theta: float, g) -> tuple:
    """(q, q0) of :func:`fc_match_params` over a bias array, after its checks; q0 clamped to [0, 1]."""
    g = _check_bias(g)
    c = _matched_cosine(theta)
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
    probability zero come back NaN instead of raising.
    """
    p1, q, q0 = (np.asarray(v, dtype=float) for v in (p1, q, q0))
    ps2, psb2 = _column(p1, g, q, q0, 2)
    pf = ps2 + psb2
    with np.errstate(divide="ignore", invalid="ignore"):
        mean = _signal_average(ps2, pf, 1.0 / g, -1.0 / g)
    return np.where(pf > 0.0, mean, np.nan)


def min_disturbance_for_value(v_target: float, g: float, grid_resolution: int = 51) -> float:
    """Smallest disturbed fraction of postselected runs that holds a target conditional mean.

    The cost of a parameter set (p1, q, q0) is the postselection shift
    relative to the postselection probability, |P_g(2) - P_0(2)| / P_g(2),
    with P_g(2) the final box 2 probability and P_0(2) = 1 - p1 its
    undisturbed (q = q0 = 0) value. It is scale invariant: shrinking the
    switching together with P_g(2) does not make it vanish. Its exact
    minimum over every (p1, q, q0) whose box-2 conditional mean with
    contextual values (+1/g, -1/g) equals ``v_target`` = v is

        0                    for |v| <= 1, at (1/2, (1 + v)/2, (1 + v)/2);
        g |1 + v| / (1 + g)  for 1 < |v| <= 1/g, at ((1 + v g)/2, 1, 0);
        math.inf             for |v| > 1/g, which no parameters reach.

    For v < -1 the point (0, 1 - a k / abar, 0) with a = (1 + g)/2,
    abar = (1 - g)/2 and k = (1 + v g)/(1 - v g) attains it as well. The
    cost jumps from 0 to 2g/(1 + g) as v leaves [-1, 1] upward, and
    grows from 0 as v leaves it downward.

    ``grid_resolution`` is checked (it must be at least 2) and selects
    nothing: the minimum is exact, not searched on a grid.
    """
    g = float(_check_bias(g))
    v_target = _check_finite("v_target", v_target)
    if not (isinstance(grid_resolution, numbers.Real) and grid_resolution >= 2):
        raise ValidationError(f"grid_resolution must be at least 2, got {_shown(grid_resolution)}")
    if abs(v_target) <= 1.0:
        return 0.0
    if abs(v_target) > 1.0 / g:
        return math.inf
    return g * abs(1.0 + v_target) / (1.0 + g)
