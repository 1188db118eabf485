"""The joint table over (detector outcome, final box): its layout and its checks.

Both engines describe a run by one 2x2 table of probabilities. Rows are
the detector outcomes ``"S"`` and ``"Sbar"``; columns are the final boxes
1 and 2. For the quantum protocol "final box 2" stands for a successful
postselection and "final box 1" for its complement. Count tables of
sampled trials use the same layout, and a trial's flat cell is its
position in ``table.ravel()``.

This module is the only one that indexes a table by position. The engines
build stacks of tables with :func:`_stack` and read the postselected
column with :func:`_postselected`, which also holds the one check that
the postselection ever occurs.
"""

from __future__ import annotations

import numpy as np

from .contextual import _numbers
from .errors import DomainError, ValidationError, _shown

__all__ = ["SIGNALS", "BOXES", "JointDistribution"]

SIGNALS = ("S", "Sbar")
BOXES = (1, 2)


def _cell(signal: str, box: int) -> tuple:
    """(row, column) of a detector outcome and a final box in a 2x2 joint or count table."""
    if signal not in SIGNALS:
        raise ValidationError(f"signal must be one of {SIGNALS}, got {_shown(signal)}")
    if isinstance(box, (bool, np.bool_)) or box not in BOXES:
        raise ValidationError(f"final_box must be 1 or 2, got {_shown(box)}")
    return SIGNALS.index(signal), BOXES.index(box)


def _flat_cells(signal: np.ndarray, final_box: np.ndarray) -> np.ndarray:
    """Flat cell in ``ravel()`` order of each trial, from its signal (True for S) and final box."""
    return np.where(signal, 0, 2) + final_box - 1


def _stack(s1, sbar1, s2, sbar2) -> np.ndarray:
    """The ``(..., 2, 2)`` stack of tables with cells P(S, 1), P(Sbar, 1), P(S, 2), P(Sbar, 2), broadcast."""
    t = np.empty(np.broadcast(s1, sbar1, s2, sbar2).shape + (2, 2))
    t[..., 0, 0], t[..., 1, 0], t[..., 0, 1], t[..., 1, 1] = s1, sbar1, s2, sbar2
    return t


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


class JointDistribution:
    """Exact joint probability table over (signal outcome, final box).

    Rows are the detector outcomes ``"S"`` and ``"Sbar"``; columns are the
    final boxes 1 and 2. The same container is used by the quantum engine,
    where "final box 2" stands for a successful postselection and
    "final box 1" for its complement.
    """

    __slots__ = ("_table",)

    def __init__(self, table):
        t = _numbers(table, "joint table entries must be numbers, got {}")
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


def _box2(t):
    """P(final box 2) of each table in a stack."""
    return t[..., 0, 1] + t[..., 1, 1]


def _postselected(t, box: int = 2) -> tuple:
    """``(P(S, box), P(box))`` of each table in a stack, after checking that every P(box) > 0."""
    col = _cell("S", box)[1]
    ps = t[..., 0, col]
    pf = ps + t[..., 1, col]
    if (pf <= 0.0).any():
        raise DomainError(f"postselection never occurs: P(final box {box}) = 0")
    return ps, pf


def _signal_average(p_signal_f, p_f, alpha_s, alpha_sbar):
    """Contextual-value average given P(S, f) (or a count) and P(f) (or the matching total)."""
    ps = p_signal_f / p_f
    return alpha_s * ps + alpha_sbar * (1.0 - ps)
