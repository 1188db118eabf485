"""The test reference itself: valid instruments and density matrices."""

import math

import numpy as np
import pytest

from twobox import TwoLevelState, ValidationError
from reference import (
    c_minus,
    c_plus,
    density_matrix,
    kraus_no_signal,
    kraus_signal,
    marble_instrument,
    trace_distance,
    unconditioned_post_measurement_state,
    validate_density_matrix,
)


def random_state(rng):
    v = rng.normal(size=2) + 1j * rng.normal(size=2)
    v /= np.linalg.norm(v)
    return TwoLevelState(a1=v[0], a2=v[1])


class TestKraus:
    def test_kraus_completeness(self):
        # M_S'M_S + M_Sbar'M_Sbar = 1 for every coupling, and sum K'K = 1 for every marble model
        for lam in (0.0, 1e-6, 0.1, 0.3, 0.7, 1.0):
            total = sum(np.conj(k.T) @ k for k in (kraus_signal(lam), kraus_no_signal(lam)))
            assert np.max(np.abs(total - np.eye(2))) <= 1e-12
        rng = np.random.default_rng(4)
        for _ in range(100):
            _, kraus, _ = marble_instrument(*rng.uniform(0, 1, 4))
            total = sum(np.conj(k.T) @ k for ks in kraus for k in ks)
            assert np.max(np.abs(total - np.eye(2))) <= 1e-12

    def test_strong_limit_is_projective(self):
        assert c_plus(1.0) == pytest.approx(1.0)
        assert c_minus(1.0) == 0.0


class TestDensityMatrices:
    def test_validate_accepts_pure_state(self):
        rho = density_matrix(TwoLevelState(a1=0.6, a2=0.8j))
        validate_density_matrix(rho)

    def test_validate_rejects_bad_matrices(self):
        with pytest.raises(ValidationError, match="hermitian"):
            validate_density_matrix(np.array([[0.5, 0.1], [0.3, 0.5]]))
        with pytest.raises(ValidationError, match="trace"):
            validate_density_matrix(np.eye(2))
        with pytest.raises(ValidationError, match="positive"):
            validate_density_matrix(np.diag([1.5, -0.5]))

    def test_measurement_damps_coherence(self):
        # diagonal untouched, off-diagonal scaled by sqrt(1 - lam^2)
        rng = np.random.default_rng(8)
        for _ in range(100):
            s = random_state(rng)
            lam = rng.uniform(0, 1)
            rho = density_matrix(s)
            after = unconditioned_post_measurement_state(s, lam)
            validate_density_matrix(after)
            assert after[0, 0] == pytest.approx(rho[0, 0], abs=1e-12)
            assert after[1, 1] == pytest.approx(rho[1, 1], abs=1e-12)
            assert after[0, 1] == pytest.approx(rho[0, 1] * math.sqrt(1 - lam**2), abs=1e-12)

    def test_trace_distance_basics(self):
        rho1 = density_matrix(TwoLevelState(a1=1.0, a2=0.0))
        rho2 = density_matrix(TwoLevelState(a1=0.0, a2=1.0))
        assert trace_distance(rho1, rho1) == pytest.approx(0.0, abs=1e-15)
        assert trace_distance(rho1, rho2) == pytest.approx(1.0, rel=1e-12)
