"""Contextual values: outcome weights that unbias a noisy detector.

A detector with response matrix R (columns indexed by where the particle
is, rows by what the detector says) generally reports a biased average of
any box observable. Assigning each outcome a weight alpha and averaging
the weights instead of the raw outcomes removes the bias whenever

    R^T alpha = (eigenvalue in box 1, eigenvalue in box 2).

For the symmetric binary detector used throughout this package, with
signal probabilities (1 + g)/2 from box 1 and (1 - g)/2 from box 2 and
the box observable with eigenvalues (+1, -1), the solution is
alpha_S = 1/g and alpha_Sbar = -1/g. The weights diverge as the detector
becomes uninformative, which is exactly what lets conditioned averages
grow anomalously large.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ValidationError

__all__ = ["ContextualValues", "ResponseMatrix", "solve_cv"]


def _check_finite(name: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise ValidationError(f"{name} must be finite, got {value!r}")
    return value


def _check_unit_interval(name: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value) or not 0.0 <= value <= 1.0:
        raise ValidationError(f"{name} must be in [0, 1], got {value!r}")
    return value


def _check_bias(g) -> np.ndarray:
    """``g`` as floats (a numpy scalar for 0-d input), after checking every detector bias is in (0, 1]."""
    g = np.asarray(g, dtype=float)[()]
    bad = ~((g > 0.0) & (g <= 1.0))
    if bad.any():
        raise ValidationError(
            f"detector bias g must be in (0, 1], got {float(g.flat[bad.argmax()])!r}; "
            "g = 0 carries no information and is rejected outright"
        )
    return g


@dataclass(frozen=True)
class ContextualValues:
    """Outcome weights (alpha_s for a signal, alpha_sbar for none)."""

    alpha_s: float
    alpha_sbar: float

    def __post_init__(self):
        for name in ("alpha_s", "alpha_sbar"):
            object.__setattr__(self, name, _check_finite(name, getattr(self, name)))

    @classmethod
    def symmetric(cls, g: float) -> "ContextualValues":
        """Weights (1/g, -1/g) for the symmetric detector with bias g."""
        g = float(_check_bias(g))
        return cls(alpha_s=1.0 / g, alpha_sbar=-1.0 / g)

    @property
    def span(self) -> float:
        """Width of the weight interval, |alpha_s - alpha_sbar|."""
        return abs(self.alpha_s - self.alpha_sbar)


class ResponseMatrix:
    """Column-stochastic 2x2 detector response.

    Entry [row, col] is the probability of detector outcome ``row``
    (0 = signal, 1 = no signal) given the particle in box ``col + 1``.
    """

    __slots__ = ("_table",)

    def __init__(self, table):
        t = np.array(table, dtype=float)
        if t.shape != (2, 2):
            raise ValidationError(f"response matrix must be 2x2, got shape {t.shape}")
        if not np.all(np.isfinite(t)) or np.any(t < -1e-12) or np.any(t > 1.0 + 1e-12):
            raise ValidationError("response matrix entries must be probabilities in [0, 1]")
        sums = t.sum(axis=0)
        if np.any(np.abs(sums - 1.0) > 1e-12):
            raise ValidationError(f"response matrix columns must each sum to 1, got {sums.tolist()}")
        t.flags.writeable = False
        self._table = t

    @property
    def table(self) -> np.ndarray:
        return self._table

    @classmethod
    def symmetric(cls, g: float) -> "ResponseMatrix":
        g = float(_check_bias(g))
        a = (1.0 + g) / 2.0
        abar = (1.0 - g) / 2.0
        return cls([[a, abar], [1.0 - a, 1.0 - abar]])

    def __repr__(self):
        return f"ResponseMatrix({self._table.tolist()!r})"


def solve_cv(response: ResponseMatrix, eigenvalues=(1.0, -1.0)) -> ContextualValues:
    """Solve R^T alpha = eigenvalues for the contextual values.

    Raises
    ------
    DomainError
        If the response matrix is singular, i.e. the detector outcome
        statistics are identical for both boxes and the detector carries
        no information about the observable.
    """
    target = np.asarray(eigenvalues, dtype=float)
    if target.shape != (2,) or not np.all(np.isfinite(target)):
        raise ValidationError(f"eigenvalues must be two finite reals, got {eigenvalues!r}")
    rt = response.table.T
    if abs(float(np.linalg.det(rt))) <= 1e-12:
        raise DomainError(
            "detector carries no information about the observable: response matrix is singular"
        )
    alpha = np.linalg.solve(rt, target)
    return ContextualValues(alpha_s=float(alpha[0]), alpha_sbar=float(alpha[1]))
