import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from twobox import (
    ContextualValues,
    DomainError,
    MeasurementModel,
    Postselection,
    TwoLevelState,
    ValidationError,
    conditional_mean,
    conditional_mean_quantum,
    density_matrix,
    expectation,
    joint_outcome_probs,
    outcome_tables,
    postselection_probability,
    quantum_disturbance,
    trace_distance,
    unconditioned_post_measurement_state,
    validate_density_matrix,
    weak_value,
)


def anchored_pair(theta):
    """Preparation with sqrt(p1) = cos(theta/2) and the matching postselection."""
    i = TwoLevelState.from_occupation(math.cos(theta / 2) ** 2)
    return i, Postselection(theta).state


def random_state(rng):
    v = rng.normal(size=2) + 1j * rng.normal(size=2)
    v /= np.linalg.norm(v)
    return TwoLevelState(a1=v[0], a2=v[1])


class TestStates:
    def test_from_occupation(self):
        s = TwoLevelState.from_occupation(0.75)
        assert s.a1 == pytest.approx(math.sqrt(0.75))
        assert s.a2 == pytest.approx(0.5)

    def test_normalization_enforced(self):
        with pytest.raises(ValidationError, match="normalized"):
            TwoLevelState(a1=1.0, a2=0.1)

    def test_complex_amplitudes_allowed(self):
        s = TwoLevelState(a1=0.6, a2=0.8j)
        assert_allclose(s.vector, [0.6, 0.8j])

    def test_occupation_range(self):
        with pytest.raises(ValidationError, match="p1"):
            TwoLevelState.from_occupation(1.2)

    def test_postselection_state(self):
        f = Postselection(math.pi / 3).state
        assert f.a1 == pytest.approx(math.cos(math.pi / 6))
        assert f.a2 == pytest.approx(-math.sin(math.pi / 6))

    def test_postselection_angle_range(self):
        with pytest.raises(ValidationError, match="theta"):
            Postselection(-0.1)
        with pytest.raises(ValidationError, match="theta"):
            Postselection(7.0)


class TestMeasurementModel:
    def test_coupling_range(self):
        with pytest.raises(ValidationError, match="lam"):
            MeasurementModel(1.1)
        with pytest.raises(ValidationError, match="lam"):
            MeasurementModel(-0.01)

    def test_kraus_completeness(self):
        # M_S'M_S + M_Sbar'M_Sbar = 1 for every coupling
        for lam in (0.0, 1e-6, 0.1, 0.3, 0.7, 1.0):
            m = MeasurementModel(lam)
            total = (
                np.conj(m.kraus_signal.T) @ m.kraus_signal
                + np.conj(m.kraus_no_signal.T) @ m.kraus_no_signal
            )
            assert np.max(np.abs(total - np.eye(2))) <= 1e-12

    def test_strong_limit_is_projective(self):
        m = MeasurementModel(1.0)
        assert m.c_plus == pytest.approx(1.0)
        assert m.c_minus == 0.0


class TestExpectationAndWeakValue:
    def test_expectation_examples(self):
        assert expectation(TwoLevelState(a1=1.0, a2=0.0)) == 1.0
        assert expectation(TwoLevelState.from_occupation(0.5)) == pytest.approx(0.0, abs=1e-15)
        assert expectation(TwoLevelState.from_occupation(0.75)) == pytest.approx(0.5, rel=1e-12)

    def test_eigenstate_postselection(self):
        i = TwoLevelState.from_occupation(0.75)
        f = Postselection(0.0).state
        assert weak_value(i, f) == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize("theta", [math.pi / 6, math.pi / 3, 0.45 * math.pi])
    def test_anchored_family_inverse_cosine(self, theta):
        i, f = anchored_pair(theta)
        aw = weak_value(i, f)
        assert aw.real == pytest.approx(1.0 / math.cos(theta), rel=1e-12)
        assert aw.imag == pytest.approx(0.0, abs=1e-12)

    def test_orthogonal_postselection_rejected(self):
        # p1=0.75 against theta=2pi/3: cos(60)*sqrt(0.75) = sin(60)*0.5
        i = TwoLevelState.from_occupation(0.75)
        f = Postselection(2 * math.pi / 3).state
        with pytest.raises(DomainError, match="zero overlap"):
            weak_value(i, f)

    def test_complex_weak_value(self):
        s = TwoLevelState(a1=0.6, a2=0.8j)
        f = TwoLevelState(a1=0.8, a2=-0.6)
        assert weak_value(s, f) == pytest.approx(1j, abs=1e-12)


class TestJointOutcomeProbs:
    def test_zero_coupling_factorizes(self):
        i = TwoLevelState.from_occupation(0.75)
        f = Postselection(math.pi / 3).state
        d = joint_outcome_probs(i, MeasurementModel(0.0), f)
        pf = abs(np.conj(f.vector) @ i.vector) ** 2
        assert d.p("S", 2) == pytest.approx(pf / 2, rel=1e-12)
        assert d.p("Sbar", 2) == pytest.approx(pf / 2, rel=1e-12)

    def test_projective_limit(self):
        i = TwoLevelState(a1=1.0, a2=0.0)
        f = Postselection(0.0).state
        d = joint_outcome_probs(i, MeasurementModel(1.0), f)
        assert_allclose(d.table, [[0.0, 1.0], [0.0, 0.0]], atol=1e-15)

    def test_matched_point_postselection_probability(self):
        i = TwoLevelState.from_occupation(0.75)
        f = Postselection(math.pi / 3).state
        d = joint_outcome_probs(i, MeasurementModel(0.1), f)
        assert d.p_box(2) == pytest.approx(0.251880, abs=1e-6)
        # closed form (a^2+b^2) + 2ab sqrt(1-lam^2) with a=0.75, b=-0.25
        closed = 0.625 + 2 * 0.75 * (-0.25) * math.sqrt(1 - 0.01)
        assert d.p_box(2) == pytest.approx(closed, rel=1e-13)

    def test_normalized_for_random_complex_states(self):
        rng = np.random.default_rng(15)
        for _ in range(200):
            d = joint_outcome_probs(
                random_state(rng), MeasurementModel(rng.uniform(0, 1)), random_state(rng)
            )
            assert abs(d.table.sum() - 1.0) <= 1e-12
            assert np.all(d.table >= 0.0)


class TestConditionalMean:
    def test_matched_point_value(self):
        i = TwoLevelState.from_occupation(0.75)
        f = Postselection(math.pi / 3).state
        mean = conditional_mean_quantum(i, MeasurementModel(0.1), f)
        assert mean == pytest.approx(1.985069, abs=1e-5)
        # closed form (a^2 - b^2) / (a^2 + b^2 + 2ab sqrt(1 - lam^2))
        closed = 0.5 / (0.625 - 0.375 * math.sqrt(0.99))
        assert mean == pytest.approx(closed, rel=1e-12)

    def test_eigenstate_input(self):
        i = TwoLevelState(a1=1.0, a2=0.0)
        f = Postselection(0.0).state
        for lam in (0.05, 0.3, 1.0):
            assert conditional_mean_quantum(i, MeasurementModel(lam), f) == pytest.approx(
                1.0, abs=1e-12
            )

    def test_box2_postselection_of_symmetric_input(self):
        i = TwoLevelState.from_occupation(0.5)
        f = Postselection(math.pi).state
        for lam in (0.05, 0.4, 0.9):
            assert conditional_mean_quantum(i, MeasurementModel(lam), f) == pytest.approx(
                -1.0, abs=1e-12
            )

    def test_zero_coupling_rejected(self):
        i = TwoLevelState.from_occupation(0.75)
        f = Postselection(math.pi / 3).state
        with pytest.raises(DomainError, match="zero coupling"):
            conditional_mean_quantum(i, MeasurementModel(0.0), f)

    def test_impossible_postselection_rejected(self):
        i = TwoLevelState(a1=0.0, a2=1.0)
        f = TwoLevelState(a1=1.0, a2=0.0)
        with pytest.raises(DomainError, match="postselection never occurs"):
            conditional_mean_quantum(i, MeasurementModel(0.5), f)

    def test_custom_weights(self):
        # weights other than (+1/lam, -1/lam) go through the joint table
        i = TwoLevelState.from_occupation(0.75)
        f = Postselection(math.pi / 3).state
        m = MeasurementModel(0.1)
        cv = ContextualValues(alpha_s=10.0, alpha_sbar=-10.0)
        d = joint_outcome_probs(i, m, f)
        p_s = d.p("S", 2) / d.p_box(2)
        assert conditional_mean(d, cv, 2) == 10.0 * p_s - 10.0 * (1 - p_s)

    def test_unconditional_identity(self):
        # the raw weighted signal average recovers <i|A|i> at any coupling
        rng = np.random.default_rng(3)
        for _ in range(300):
            i = TwoLevelState.from_occupation(rng.uniform(0, 1))
            f = Postselection(rng.uniform(0, 2 * math.pi)).state
            lam = 10 ** rng.uniform(-3, 0)
            d = joint_outcome_probs(i, MeasurementModel(lam), f)
            cv = ContextualValues.symmetric(lam)
            uncond = cv.alpha_s * d.p_signal("S") + cv.alpha_sbar * d.p_signal("Sbar")
            assert uncond == pytest.approx(expectation(i), abs=1e-12)

    def test_weak_limit_convergence_rate(self):
        i = TwoLevelState.from_occupation(0.75)
        f = Postselection(math.pi / 3).state
        lams = np.array([0.2, 0.1, 0.05, 0.02, 0.01])
        errs = np.array(
            [abs(conditional_mean_quantum(i, MeasurementModel(l), f) - 2.0) for l in lams]
        )
        assert np.all(errs <= 2.0 * lams**2)
        slope = np.polyfit(np.log(lams), np.log(errs), 1)[0]
        assert slope >= 1.9


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
            after = unconditioned_post_measurement_state(s, MeasurementModel(lam))
            validate_density_matrix(after)
            assert after[0, 0] == pytest.approx(rho[0, 0], abs=1e-12)
            assert after[1, 1] == pytest.approx(rho[1, 1], abs=1e-12)
            assert after[0, 1] == pytest.approx(rho[0, 1] * math.sqrt(1 - lam**2), abs=1e-12)

    def test_trace_distance_basics(self):
        rho1 = density_matrix(TwoLevelState(a1=1.0, a2=0.0))
        rho2 = density_matrix(TwoLevelState(a1=0.0, a2=1.0))
        assert trace_distance(rho1, rho1) == pytest.approx(0.0, abs=1e-15)
        assert trace_distance(rho1, rho2) == pytest.approx(1.0, rel=1e-12)


class TestDisturbance:
    def test_zero_coupling_no_disturbance(self):
        assert quantum_disturbance(
            TwoLevelState.from_occupation(0.75), MeasurementModel(0.0)
        ) == pytest.approx(0.0, abs=1e-15)

    def test_eigenstate_undisturbed(self):
        i = TwoLevelState(a1=1.0, a2=0.0)
        for lam in (0.1, 0.5, 1.0):
            assert quantum_disturbance(i, MeasurementModel(lam)) == pytest.approx(0.0, abs=1e-15)

    def test_matched_point_value(self):
        got = quantum_disturbance(TwoLevelState.from_occupation(0.75), MeasurementModel(0.1))
        assert got == pytest.approx(0.002171, abs=1e-6)
        assert got == pytest.approx(0.002170503401867141, rel=1e-12)

    def test_closed_form_for_real_amplitudes(self):
        rng = np.random.default_rng(21)
        for _ in range(200):
            p1 = rng.uniform(0, 1)
            lam = rng.uniform(0, 1)
            i = TwoLevelState.from_occupation(p1)
            closed = abs(i.a1 * i.a2) * (1 - math.sqrt(1 - lam**2))
            assert quantum_disturbance(i, MeasurementModel(lam)) == pytest.approx(
                closed, abs=1e-12
            )

    def test_back_action_closed_form(self):
        # |P_f(lam) - P_f(0)| = |2ab (sqrt(1-lam^2) - 1)| for real states
        rng = np.random.default_rng(30)
        for _ in range(200):
            p1 = rng.uniform(0, 1)
            theta = rng.uniform(0, 2 * math.pi)
            lam = rng.uniform(0, 1)
            i = TwoLevelState.from_occupation(p1)
            f = Postselection(theta).state
            shift = postselection_probability(i, MeasurementModel(lam), f) - abs(
                np.conj(f.vector) @ i.vector
            ) ** 2
            a = f.a1 * i.a1
            b = f.a2 * i.a2
            closed = 2 * a * b * (math.sqrt(1 - lam**2) - 1)
            assert shift == pytest.approx(closed, abs=1e-12)


class TestPostselectionProbability:
    def test_zero_coupling_is_overlap(self):
        i = TwoLevelState.from_occupation(0.75)
        f = Postselection(math.pi / 3).state
        assert postselection_probability(i, MeasurementModel(0.0), f) == pytest.approx(
            0.25, rel=1e-12
        )

    def test_identity_overlap(self):
        i = TwoLevelState.from_occupation(0.4)
        assert postselection_probability(i, MeasurementModel(0.0), i) == pytest.approx(
            1.0, rel=1e-12
        )

    def test_matches_joint_table(self):
        rng = np.random.default_rng(55)
        for _ in range(100):
            i = random_state(rng)
            f = random_state(rng)
            m = MeasurementModel(rng.uniform(0, 1))
            assert postselection_probability(i, m, f) == pytest.approx(
                joint_outcome_probs(i, m, f).p_box(2), rel=1e-12, abs=1e-14
            )


angles = st.floats(0.0, 2.0 * math.pi)
# a1 = cos(alpha) e^(i phi1), a2 = sin(alpha) e^(i phi2): every normalized state up to a global phase
states = st.builds(
    lambda alpha, phi1, phi2: TwoLevelState(
        a1=math.cos(alpha) * complex(math.cos(phi1), math.sin(phi1)),
        a2=math.sin(alpha) * complex(math.cos(phi2), math.sin(phi2)),
    ),
    st.floats(0.0, math.pi / 2),
    angles,
    angles,
)


class TestKrausReferences:
    """The closed forms against the Kraus operators and density matrices they abbreviate."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(i=states, f=states, lam=st.floats(0.0, 1.0))
    def test_outcome_tables(self, i, f, lam):
        m = MeasurementModel(lam)
        t = outcome_tables(i, f, lam)
        for row, kraus in enumerate((m.kraus_signal, m.kraus_no_signal)):
            after = kraus @ i.vector
            p_f = abs(np.conj(f.vector) @ after) ** 2
            assert t[row, 1] == pytest.approx(p_f, abs=1e-12)
            assert t[row, 0] == pytest.approx(np.vdot(after, after).real - p_f, abs=1e-12)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(i=states, lam=st.floats(0.0, 1.0))
    def test_disturbance(self, i, lam):
        m = MeasurementModel(lam)
        reference = trace_distance(density_matrix(i), unconditioned_post_measurement_state(i, m))
        assert quantum_disturbance(i, m) == pytest.approx(reference, abs=1e-12)
