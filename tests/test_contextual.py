import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from twobox import (
    ClassicalParams,
    ContextualValues,
    CountTable,
    DomainError,
    JointDistribution,
    MeasurementModel,
    Postselection,
    QuantumProtocol,
    ResponseMatrix,
    SweepResult,
    TwoLevelState,
    ValidationError,
    fc_match_params,
    joint_distribution,
    min_disturbance_for_value,
    richardson_extrapolate,
    solve_cv,
    unconditional_mean,
)


class TestContextualValues:
    def test_symmetric_weights(self):
        cv = ContextualValues.symmetric(0.5)
        assert cv.alpha_s == 2.0
        assert cv.alpha_sbar == -2.0
        assert cv.span == 4.0

    def test_rejects_uninformative_bias(self):
        with pytest.raises(ValidationError):
            ContextualValues.symmetric(0.0)

    def test_rejects_nonfinite_weights(self):
        with pytest.raises(ValidationError, match="alpha_s"):
            ContextualValues(alpha_s=math.inf, alpha_sbar=-1.0)


class TestResponseMatrix:
    def test_symmetric_columns(self):
        r = ResponseMatrix.symmetric(0.3)
        assert_allclose(r.table, [[0.65, 0.35], [0.35, 0.65]], rtol=1e-15)
        assert_allclose(r.table.sum(axis=0), [1.0, 1.0], rtol=1e-15)

    def test_rejects_unnormalized_columns(self):
        with pytest.raises(ValidationError, match="sum to 1"):
            ResponseMatrix([[0.6, 0.3], [0.5, 0.7]])

    def test_rejects_out_of_range_entries(self):
        with pytest.raises(ValidationError, match="probabilities"):
            ResponseMatrix([[1.2, 0.3], [-0.2, 0.7]])

    def test_read_only(self):
        r = ResponseMatrix.symmetric(0.3)
        with pytest.raises(ValueError):
            r.table[0, 0] = 0.0


class TestSolveCv:
    def test_strong_detector_weights_are_eigenvalues(self):
        cv = solve_cv(ResponseMatrix.symmetric(1.0))
        assert cv.alpha_s == pytest.approx(1.0, abs=1e-12)
        assert cv.alpha_sbar == pytest.approx(-1.0, abs=1e-12)

    def test_half_bias(self):
        cv = solve_cv(ResponseMatrix.symmetric(0.5))
        assert cv.alpha_s == pytest.approx(2.0, abs=1e-12)
        assert cv.alpha_sbar == pytest.approx(-2.0, abs=1e-12)

    def test_matches_closed_form_for_symmetric_family(self):
        rng = np.random.default_rng(42)
        for g in rng.uniform(0.001, 1.0, 100):
            cv = solve_cv(ResponseMatrix.symmetric(g))
            assert cv.alpha_s == pytest.approx(1.0 / g, rel=1e-12)
            assert cv.alpha_sbar == pytest.approx(-1.0 / g, rel=1e-12)

    def test_unbiasing_residual(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            a, b = rng.uniform(0, 1, 2)
            if abs(a - b) < 0.05:
                continue
            r = ResponseMatrix([[a, b], [1 - a, 1 - b]])
            eig = tuple(rng.uniform(-3, 3, 2))
            cv = solve_cv(r, eig)
            recovered = r.table.T @ np.array([cv.alpha_s, cv.alpha_sbar])
            assert_allclose(recovered, eig, rtol=1e-10, atol=1e-10)

    def test_asymmetric_detector_literal_convention(self):
        # response P(S|1)=1/2+lam, P(S|2)=1/2-lam solves to +/- 1/(2 lam)
        lam = 0.1
        r = ResponseMatrix([[0.5 + lam, 0.5 - lam], [0.5 - lam, 0.5 + lam]])
        cv = solve_cv(r)
        assert cv.alpha_s == pytest.approx(1.0 / (2 * lam), rel=1e-12)
        assert cv.alpha_sbar == pytest.approx(-1.0 / (2 * lam), rel=1e-12)

    def test_singular_detector_rejected(self):
        r = ResponseMatrix([[0.4, 0.4], [0.6, 0.6]])
        with pytest.raises(DomainError, match="carries no information"):
            solve_cv(r)

    def test_bad_eigenvalue_shape(self):
        with pytest.raises(ValidationError, match="eigenvalues"):
            solve_cv(ResponseMatrix.symmetric(0.5), (1.0, -1.0, 0.0))

    def test_amplification_law(self):
        # weights diverge like 1/g as the detector becomes uninformative
        gs = np.geomspace(1e-3, 1e-1, 21)
        mags = np.array([abs(solve_cv(ResponseMatrix.symmetric(g)).alpha_s) for g in gs])
        slope = np.polyfit(np.log(gs), np.log(mags), 1)[0]
        assert slope == pytest.approx(-1.0, abs=0.01)


def test_solved_weights_unbias_the_protocol():
    # end to end: solve for the weights, then check the unconditional
    # average reproduces p1 - p2 regardless of switching
    rng = np.random.default_rng(4)
    for _ in range(100):
        g = rng.uniform(0.02, 1.0)
        cv = solve_cv(ResponseMatrix.symmetric(g))
        params = ClassicalParams(rng.uniform(0, 1), g, rng.uniform(0, 1), rng.uniform(0, 1))
        mean = unconditional_mean(joint_distribution(params), cv)
        assert mean == pytest.approx(params.p1 - params.p2, abs=1e-10)


HUGE = 10**400  # an int beyond the float range


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: ClassicalParams(p1=[0.5, 0.6], g=0.5, q=0.1, q0=0.1), "p1 must be in [0, 1], got [0.5, 0.6]"),
        (lambda: ClassicalParams(p1=0.5, g=[0.5, 0.6], q=0.1, q0=0.1), "detector bias g must be in (0, 1], got [0.5"),
        (lambda: QuantumProtocol(0.5, [1, 2]), "theta must be finite, got [1, 2]"),
        (lambda: MeasurementModel([0.1, 0.2]), "coupling lam must be in [0, 1], got [0.1, 0.2]"),
        (lambda: Postselection([0.1, 0.2]), "theta must be in [0, 2*pi], got [0.1, 0.2]"),
        (lambda: TwoLevelState([1, 0], 0), "state amplitudes must be numbers, got [1, 0]"),
        (lambda: ContextualValues.symmetric([0.5, 0.6]), "detector bias g must be in (0, 1], got [0.5, 0.6]"),
        (lambda: min_disturbance_for_value([1.5, 2.0], 0.5), "v_target must be finite, got [1.5, 2.0]"),
        (lambda: min_disturbance_for_value(1.5, [0.5, 0.6]), "detector bias g must be in (0, 1], got [0.5"),
        (lambda: fc_match_params(math.inf, 0.5), "theta must be finite, got inf"),
        (lambda: fc_match_params(HUGE, 0.5), f"theta must be finite, got {HUGE!r}"),
        (lambda: fc_match_params("abc", 0.5), "theta must be finite, got 'abc'"),
        (lambda: fc_match_params(None, 0.5), "theta must be finite, got nan"),
        (lambda: SweepResult("g", ["a", "b"], [1.0, 2.0], "p", "m"), "strengths must be numbers, got ['a', 'b']"),
        (lambda: SweepResult("g", [0.1, 0.2], [HUGE, 2.0], "p", "m"), "values must be numbers, got [1000"),
        (lambda: richardson_extrapolate(["a", "b"], [1.0, 2.0]), "strengths must be numbers, got ['a', 'b']"),
        (lambda: richardson_extrapolate([0.1, 0.2], [HUGE, 2.0]), "values must be numbers, got [1000"),
        (lambda: JointDistribution([["a", 0], [0, 1]]), "joint table entries must be numbers, got [['a', 0]"),
        (lambda: JointDistribution([[HUGE, 0], [0, 1]]), "joint table entries must be numbers, got [[1000"),
        (lambda: CountTable([["a", 0], [0, 1]]), "counts must be integers, got [['a', 0], [0, 1]]"),
        (lambda: CountTable([[HUGE, 0], [0, 1]]), "counts must be integers, got [[1000"),
        (lambda: CountTable([[1.7, 0], [0, 2.9]]), "counts must be integers, got [[1.7, 0], [0, 2.9]]"),
        (lambda: CountTable([[math.nan, 0], [0, 1]]), "counts must be integers, got [[nan, 0], [0, 1]]"),
        (lambda: CountTable(np.array([[math.inf, 0], [0, 1]])), "counts must be integers, got array([[inf"),
        (lambda: CountTable(np.array([[1e19, 0], [0, 1]])), "counts must be integers, got array([[1.e+19"),
        (lambda: ResponseMatrix([["a", 0], [0, 1]]), "response matrix entries must be probabilities in [0, 1]"),
        (lambda: ResponseMatrix([[HUGE, 0], [0, 1]]), "response matrix entries must be probabilities in [0, 1]"),
        (lambda: solve_cv(ResponseMatrix.symmetric(0.5), ("a", -1.0)), "eigenvalues must be two finite reals, got ('a'"),
        (lambda: solve_cv(ResponseMatrix.symmetric(0.5), (HUGE, -1.0)), "eigenvalues must be two finite reals, got (1000"),
    ],
)
def test_entry_points_reject_malformed_numbers_with_a_validation_error(call, message):
    with pytest.raises(ValidationError) as caught:
        call()
    assert str(caught.value).startswith(message)
