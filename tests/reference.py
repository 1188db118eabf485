"""The one test reference for both engines: an instrument acting on a 2x2 density matrix.

Each engine's joint table is the outcome statistics of one operational
formula,

    P(s, c) = Tr(Pi_c  sum_k K_{s,k} rho K_{s,k}^dagger),

for a preparation ``rho``, one list of Kraus operators K_{s,k} per
detector outcome s (rows S, Sbar) and one projector Pi_c per final
outcome c (columns box 1, box 2). The quantum protocol is a pure
preparation, one diagonal Kraus operator per outcome and the
postselection projector with its complement. The classical marble model
is the commuting, diagonal case of the same instrument: a diagonal
preparation, Kraus operators that are diagonal or a box swap X times a
diagonal, and the box projectors.

These are plain matrix products, written for clarity and not speed; the
tests hold the closed-form engines in ``src/`` against them.
"""

import math

import numpy as np

from twobox import ValidationError

X = np.array([[0.0, 1.0], [1.0, 0.0]])
BOX_PROJECTORS = (np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))


def apply_kraus(rho, kraus) -> np.ndarray:
    """sum_k K_k rho K_k^dagger: the state left by one outcome, unnormalized."""
    return sum(k @ rho @ np.conj(k.T) for k in kraus)


def instrument_table(rho, kraus, projectors) -> np.ndarray:
    """The 2x2 table P(s, c) = Tr(Pi_c sum_k K_{s,k} rho K_{s,k}^dagger), rows s, columns c."""
    return np.array([[np.trace(pi @ apply_kraus(rho, ks)).real for pi in projectors] for ks in kraus])


def density_matrix(state) -> np.ndarray:
    v = state.vector
    return np.outer(v, np.conj(v))


def c_plus(lam: float) -> float:
    return math.sqrt((1.0 + lam) / 2.0)


def c_minus(lam: float) -> float:
    return math.sqrt((1.0 - lam) / 2.0)


def kraus_signal(lam: float) -> np.ndarray:
    return np.diag([c_plus(lam), c_minus(lam)]).astype(complex)


def kraus_no_signal(lam: float) -> np.ndarray:
    return np.diag([c_minus(lam), c_plus(lam)]).astype(complex)


def quantum_instrument(i, f, lam: float) -> tuple:
    """(rho, kraus, projectors) of the quantum protocol: prepare ``i``, detect at ``lam``, postselect ``f``."""
    postselected = density_matrix(f)
    return density_matrix(i), [[kraus_signal(lam)], [kraus_no_signal(lam)]], (np.eye(2) - postselected, postselected)


def marble_instrument(p1: float, g: float, q: float, q0: float) -> tuple:
    """(rho, kraus, projectors) of the marble model, the diagonal case of the instrument.

    rho = diag(p1, 1 - p1). The detector response R[s, b] is P(s | box b),
    and q_s the switch probability after outcome s (q for S, q0 for Sbar).
    Outcome s keeps the box with K_{s,0} = sqrt(1 - q_s) diag(sqrt(R[s, :]))
    and swaps it with K_{s,1} = sqrt(q_s) X diag(sqrt(R[s, :])).
    """
    response = np.array([[(1.0 + g) / 2.0, (1.0 - g) / 2.0], [(1.0 - g) / 2.0, (1.0 + g) / 2.0]])
    kraus = [
        [math.sqrt(1.0 - q_s) * np.diag(np.sqrt(r)), math.sqrt(q_s) * X @ np.diag(np.sqrt(r))]
        for r, q_s in zip(response, (q, q0))
    ]
    return np.diag([p1, 1.0 - p1]), kraus, BOX_PROJECTORS


def unconditioned_post_measurement_state(i, lam: float) -> np.ndarray:
    """State after the detector fires, summed over both outcomes."""
    return apply_kraus(density_matrix(i), [kraus_signal(lam), kraus_no_signal(lam)])


def validate_density_matrix(rho: np.ndarray) -> np.ndarray:
    """Check hermiticity, unit trace and positivity to within 1e-12."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (2, 2):
        raise ValidationError(f"density matrix must be 2x2, got shape {rho.shape}")
    if not np.all(np.isfinite(rho.real)) or not np.all(np.isfinite(rho.imag)):
        raise ValidationError("density matrix entries must be finite")
    if np.max(np.abs(rho - np.conj(rho.T))) > 1e-12:
        raise ValidationError("density matrix must be hermitian")
    if abs(np.trace(rho).real - 1.0) > 1e-12:
        raise ValidationError(f"density matrix trace must be 1, got {np.trace(rho)!r}")
    if np.min(np.linalg.eigvalsh(rho)) < -1e-12:
        raise ValidationError("density matrix must be positive semidefinite")
    return rho


def trace_distance(rho: np.ndarray, sigma: np.ndarray) -> float:
    """Half the trace norm of rho - sigma."""
    diff = np.asarray(rho, dtype=complex) - np.asarray(sigma, dtype=complex)
    return 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(diff))))
