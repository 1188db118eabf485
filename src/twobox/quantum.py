"""Exact engine for the quantum two-box protocol with a weakly coupled detector.

The system is a two-level 'which box' degree of freedom. The detector is a
binary instrument with Kraus operators

    M_S    = diag(c+, c-)
    M_Sbar = diag(c-, c+),      c+ = sqrt((1 + lam) / 2), c- = sqrt((1 - lam) / 2),

so a signal is emitted with probability (1 + lam)/2 from box 1 and
(1 - lam)/2 from box 2, matching the classical detector with bias
g = lam. The coupling ``lam`` in [0, 1] interpolates between no
measurement at all and a projective box readout.

After the detector fires, the system is postselected by a projective
measurement onto the state parametrized by an angle theta,

    |f> = cos(theta/2)|1> - sin(theta/2)|2>,

whose overlap with the preparation (sqrt(p1), sqrt(p2)) controls how
anomalous the conditioned statistics become. Conditioned detector
averages weighted by the contextual values (+1/lam, -1/lam) converge, as
lam -> 0, to the weak value of the box observable A = |1><1| - |2><2|,

    A_w = <f|A|i> / <f|i>,

which exceeds 1 whenever the postselection nearly undoes the preparation.
The weak values, the conditional means and the postselection shift are
closed forms in the amplitude products x = conj(f1) a1 and
y = conj(f2) a2, formed once in :func:`_products`. The projector weak
values x/<f|i> and y/<f|i> sum to 1; a negative one witnesses the anomaly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .contextual import _check_interval, _check_unit_interval, _numbers
from .errors import DomainError, ValidationError
from .tables import JointDistribution, _box2, _check_tables, _postselected, _stack

__all__ = [
    "TwoLevelState",
    "Postselection",
    "MeasurementModel",
    "expectation",
    "weak_value",
    "joint_outcome_probs",
    "outcome_tables",
    "conditional_mean_quantum",
    "quantum_postselection_shift",
    "ProjectorWeakValues",
    "projector_weak_values",
]

_OVERLAP_FLOOR = 1e-14


@dataclass(frozen=True)
class TwoLevelState:
    """Pure state a1|1> + a2|2>, normalized to within 1e-12."""

    a1: complex
    a2: complex

    def __post_init__(self):
        message = "state amplitudes must be numbers, got {}"
        a1, a2 = (complex(_numbers(a, message, complex, scalar=True)) for a in (self.a1, self.a2))
        norm = abs(a1) ** 2 + abs(a2) ** 2
        if not math.isfinite(norm) or abs(norm - 1.0) > 1e-12:
            raise ValidationError(f"state must be normalized, got |a1|^2 + |a2|^2 = {norm!r}")
        object.__setattr__(self, "a1", a1)
        object.__setattr__(self, "a2", a2)

    @classmethod
    def from_occupation(cls, p1: float) -> "TwoLevelState":
        """Real nonnegative amplitudes (sqrt(p1), sqrt(1 - p1))."""
        p1 = _check_unit_interval("p1", p1)
        return cls(a1=math.sqrt(p1), a2=math.sqrt(1.0 - p1))

    @property
    def vector(self) -> np.ndarray:
        return np.array([self.a1, self.a2], dtype=complex)


@dataclass(frozen=True)
class Postselection:
    """Projective postselection onto cos(theta/2)|1> - sin(theta/2)|2>."""

    theta: float

    def __post_init__(self):
        theta = _check_interval(self.theta, "theta must be in [0, 2*pi], got {}", 0.0, 2.0 * math.pi)
        object.__setattr__(self, "theta", theta)

    @property
    def state(self) -> TwoLevelState:
        half = self.theta / 2.0
        return TwoLevelState(a1=math.cos(half), a2=-math.sin(half))


def _check_coupling(lam, scalar=False):
    """``lam`` after checking every coupling is in [0, 1]; see :func:`_check_interval`."""
    return _check_interval(lam, "coupling lam must be in [0, 1], got {}", 0.0, 1.0, scalar=scalar)


@dataclass(frozen=True)
class MeasurementModel:
    """Binary detector with coupling strength ``lam`` in [0, 1]."""

    lam: float

    def __post_init__(self):
        object.__setattr__(self, "lam", _check_coupling(self.lam, scalar=True))


def _overlap(i: TwoLevelState, f: TwoLevelState) -> complex:
    """<f|i>, after checking that it is not zero, where weak values are undefined."""
    ovl = complex(np.conj(f.vector) @ i.vector)
    if abs(ovl) <= _OVERLAP_FLOOR:
        raise DomainError("undefined weak value (zero overlap between preparation and postselection)")
    return ovl


def _products(i: TwoLevelState, f: TwoLevelState) -> tuple:
    """The amplitude products (x, y) = (conj(f1) a1, conj(f2) a2), as numpy complex scalars.

    <f|i> = x + y and <f|A|i> = x - y. The numpy products keep the bits
    of every result; Python complex arithmetic changes their last bits.
    """
    return np.conj(f.a1) * i.a1, np.conj(f.a2) * i.a2


def expectation(state: TwoLevelState) -> float:
    """Expectation of the box observable A = |1><1| - |2><2|."""
    return abs(state.a1) ** 2 - abs(state.a2) ** 2


def weak_value(i: TwoLevelState, f: TwoLevelState) -> complex:
    """Weak value <f|A|i> / <f|i> of the box observable.

    Raises
    ------
    DomainError
        If the postselection does not overlap the preparation (overlap
        magnitude below 1e-14), where the weak value is undefined.
    """
    ovl = _overlap(i, f)
    x, y = _products(i, f)
    return complex((x - y) / ovl)


def _abs2(z):
    return z.real * z.real + z.imag * z.imag


def outcome_tables(i: TwoLevelState, f: TwoLevelState, lam) -> np.ndarray:
    """Exact joint tables |<f|M i>|^2 over a coupling array, shape ``lam.shape + (2, 2)``.

    Rows are the Kraus operators of S and Sbar; column box 2 is a successful
    postselection onto ``f``, column box 1 a failed one. The
    coupling is not range-checked; see :class:`MeasurementModel`.
    """
    lam = np.asarray(lam, dtype=float)[()]  # numpy scalar for 0-d input: cheaper arithmetic
    with np.errstate(invalid="ignore"):
        plus, minus = np.sqrt((1.0 + lam) / 2.0), np.sqrt((1.0 - lam) / 2.0)

    def row(c1, c2):
        """P(box 1) and P(box 2) jointly with the outcome of Kraus operator diag(c1, c2)."""
        psi1, psi2 = c1 * i.a1, c2 * i.a2
        return _abs2(-f.a2 * psi1 + f.a1 * psi2), _abs2(f.a1.conjugate() * psi1 + f.a2.conjugate() * psi2)

    (s1, s2), (sbar1, sbar2) = row(plus, minus), row(minus, plus)
    return _stack(s1, sbar1, s2, sbar2)


def joint_outcome_probs(
    i: TwoLevelState, m: MeasurementModel, f: TwoLevelState
) -> JointDistribution:
    """Joint probabilities of (detector outcome, postselection outcome); see :func:`outcome_tables`."""
    return JointDistribution(outcome_tables(i, f, m.lam))


def _conditional_means(i: TwoLevelState, f: TwoLevelState, lam):
    """Conditional means over a coupling array, after the checks of :func:`conditional_mean_quantum`.

    The factor lam divides out exactly, since P(S, f) - P(Sbar, f) =
    lam (|x|^2 - |y|^2) with x = conj(f1) a1 and y = conj(f2) a2; so the
    weak limit keeps full precision.
    """
    lam = np.asarray(lam, dtype=float)
    if (lam == 0.0).any():
        raise DomainError("conditional mean undefined at zero coupling (lam = 0)")
    _, pf = _postselected(_check_tables(outcome_tables(i, f, lam)))
    x, y = _products(i, f)
    return (_abs2(x) - _abs2(y)) / pf


def conditional_mean_quantum(i: TwoLevelState, m: MeasurementModel, f: TwoLevelState) -> float:
    """Average of the contextual values (+1/lam, -1/lam) of the detector outcome, postselected on ``f``.

    It converges to the real part of the weak value as lam -> 0, with an
    error of order lam^2. For other weights ``cv``, weight the table:
    ``conditional_mean(joint_outcome_probs(i, m, f), cv, 2)``.

    Raises
    ------
    DomainError
        At lam = 0, where the detector outcome is independent of the box
        and the conditional mean is undefined; or when the postselection
        never occurs.
    """
    return float(_conditional_means(i, f, m.lam))


def _disturbances(i: TwoLevelState, lam):
    """Trace distance between the input state and the measured-and-forgotten state, over a coupling array.

    This is |a1*a2| * (1 - sqrt(1 - lam^2)), evaluated as |a1*a2| * lam^2 /
    (1 + sqrt(1 - lam^2)) to keep full precision: of order lam^2 / 2 in the
    weak limit, quantum back-action on the unconditioned state is
    quadratically small in the coupling.
    """
    lam = np.asarray(lam, dtype=float)
    return abs(i.a1 * i.a2) * (lam * lam) / (1.0 + np.sqrt(1.0 - lam * lam))


def quantum_postselection_shift(i: TwoLevelState, f: TwoLevelState, lam: float) -> float:
    """How far the coupling moves the postselection probability from its lam = 0 value."""
    return float(_quantum_shifts(i, f, _check_coupling(lam, scalar=True)))


def _quantum_shifts(i: TwoLevelState, f: TwoLevelState, lam):
    x, y = _products(i, f)
    return np.abs(_box2(outcome_tables(i, f, lam)) - abs(x + y) ** 2)


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
    x, y = _products(i, f)
    w1, w2 = complex(x / ovl), complex(y / ovl)
    return ProjectorWeakValues(w1=w1, w2=w2, negative=min(w1.real, w2.real) < -1e-12)
