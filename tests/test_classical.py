import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from twobox import (
    ClassicalParams,
    ContextualValues,
    DomainError,
    JointDistribution,
    ValidationError,
    conditional_mean,
    fc_match_params,
    joint_distribution,
    joint_tables,
    min_disturbance_for_value,
    unconditional_mean,
)
from twobox.classical import _conditional_mean_surface
from reference import instrument_table, marble_instrument

# the edges where the closed forms could lose a digit, besides any float in [0, 1]
unit = st.sampled_from([0.0, 5e-324, 1.0 - 1e-16, 1.0]) | st.floats(0.0, 1.0)


def random_params(rng):
    return ClassicalParams(
        p1=rng.uniform(0, 1),
        g=rng.uniform(0.01, 1),
        q=rng.uniform(0, 1),
        q0=rng.uniform(0, 1),
    )


class TestClassicalParams:
    def test_fields_round_trip(self):
        p = ClassicalParams(p1=0.3, g=0.4, q=0.2, q0=0.9)
        assert (p.p1, p.g, p.q, p.q0) == (0.3, 0.4, 0.2, 0.9)
        assert p.p2 == pytest.approx(0.7)

    def test_frozen(self):
        p = ClassicalParams(p1=0.3, g=0.4, q=0.2, q0=0.9)
        with pytest.raises(AttributeError):
            p.p1 = 0.5

    @pytest.mark.parametrize("bad", [-0.1, 1.1, math.nan, math.inf])
    def test_p1_range(self, bad):
        with pytest.raises(ValidationError, match="p1"):
            ClassicalParams(p1=bad, g=0.5, q=0.0, q0=0.0)

    @pytest.mark.parametrize("bad", [0.0, -0.2, 1.0001, math.nan])
    def test_bias_range(self, bad):
        # g = 0 is rejected outright: the contextual values 1/g diverge
        with pytest.raises(ValidationError, match="g must be"):
            ClassicalParams(p1=0.5, g=bad, q=0.0, q0=0.0)

    def test_switch_range(self):
        with pytest.raises(ValidationError, match="q0"):
            ClassicalParams(p1=0.5, g=0.5, q=0.5, q0=1.5)


class TestJointDistribution:
    def test_rejects_bad_tables(self):
        with pytest.raises(ValidationError, match="2x2"):
            JointDistribution(np.ones((2, 3)))
        with pytest.raises(ValidationError, match="sum to 1"):
            JointDistribution([[0.5, 0.5], [0.5, 0.5]])
        with pytest.raises(ValidationError, match="nonnegative"):
            JointDistribution([[0.7, 0.5], [-0.2, 0.0]])

    def test_table_read_only(self):
        d = joint_distribution(ClassicalParams(p1=0.5, g=0.5, q=0.1, q0=0.2))
        with pytest.raises(ValueError):
            d.table[0, 0] = 0.9

    def test_matched_parameter_table(self):
        # p1=1, g=0.1, q=6/11, q0=4/9: hand enumeration of the 8 paths
        d = joint_distribution(ClassicalParams(p1=1.0, g=0.1, q=6 / 11, q0=4 / 9))
        assert_allclose(d.table, [[0.25, 0.30], [0.25, 0.20]], rtol=1e-12, atol=1e-15)
        assert d.p("S", 2) == pytest.approx(0.30, rel=1e-12)
        assert d.p_signal("S") == pytest.approx(0.55, rel=1e-12)
        assert d.p_box(2) == pytest.approx(0.50, rel=1e-12)

    def test_no_switching_keeps_initial_box(self):
        d = joint_distribution(ClassicalParams(p1=1.0, g=0.37, q=0.0, q0=0.0))
        assert d.p_box(2) == 0.0
        assert d.p("S", 1) == pytest.approx((1 + 0.37) / 2, rel=1e-12)

    def test_strong_detector_symmetric_preparation(self):
        d = joint_distribution(ClassicalParams(p1=0.5, g=1.0, q=0.0, q0=0.0))
        assert_allclose(d.table, [[0.5, 0.0], [0.0, 0.5]], atol=1e-15)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(p1=unit, g=unit, q=unit, q0=unit)
    def test_is_the_diagonal_instrument(self, p1, g, q, q0):
        # the marble model is the commuting case of P(s, c) = Tr(Pi_c sum_k K_{s,k} rho K_{s,k}^dagger)
        reference = instrument_table(*marble_instrument(p1, g, q, q0))
        assert np.max(np.abs(joint_tables(p1, g, q, q0) - reference)) <= 1e-14

    def test_normalization_property(self):
        rng = np.random.default_rng(101)
        for _ in range(1000):
            d = joint_distribution(random_params(rng))
            assert abs(d.table.sum() - 1.0) <= 1e-12
            assert np.all(d.table >= 0.0)

    def test_signal_marginal_ignores_switching(self):
        # the detector fires before the disturbance acts
        rng = np.random.default_rng(33)
        for _ in range(200):
            p1, g = rng.uniform(0, 1), rng.uniform(0.01, 1)
            base = joint_distribution(ClassicalParams(p1, g, rng.uniform(0, 1), rng.uniform(0, 1)))
            other = joint_distribution(ClassicalParams(p1, g, rng.uniform(0, 1), rng.uniform(0, 1)))
            assert abs(base.p_signal("S") - other.p_signal("S")) <= 1e-12
            expected = p1 * (1 + g) / 2 + (1 - p1) * (1 - g) / 2
            assert base.p_signal("S") == pytest.approx(expected, abs=1e-12)


class TestMeans:
    def test_unconditional_equals_occupation_difference(self):
        rng = np.random.default_rng(7)
        for _ in range(500):
            p = random_params(rng)
            cv = ContextualValues.symmetric(p.g)
            mean = unconditional_mean(joint_distribution(p), cv)
            assert mean == pytest.approx(p.p1 - p.p2, abs=1e-12)

    def test_unconditional_examples(self):
        cv = ContextualValues.symmetric(0.3)
        d = joint_distribution(ClassicalParams(p1=0.7, g=0.3, q=0.2, q0=0.9))
        assert unconditional_mean(d, cv) == pytest.approx(0.4, abs=1e-12)
        d = joint_distribution(ClassicalParams(p1=0.5, g=0.3, q=0.9, q0=0.1))
        assert unconditional_mean(d, cv) == pytest.approx(0.0, abs=1e-12)

    def test_conditional_matched_example(self):
        d = joint_distribution(ClassicalParams(p1=1.0, g=0.1, q=6 / 11, q0=4 / 9))
        cv = ContextualValues.symmetric(0.1)
        assert conditional_mean(d, cv, 2) == pytest.approx(2.0, rel=1e-12)

    def test_conditional_within_weight_range(self):
        rng = np.random.default_rng(19)
        for _ in range(500):
            p = random_params(rng)
            d = joint_distribution(p)
            cv = ContextualValues.symmetric(p.g)
            for box in (1, 2):
                if d.p_box(box) == 0.0:
                    continue
                mean = conditional_mean(d, cv, box)
                assert -1.0 / p.g - 1e-9 <= mean <= 1.0 / p.g + 1e-9

    def test_zero_postselection_raises(self):
        d = joint_distribution(ClassicalParams(p1=1.0, g=0.5, q=0.0, q0=0.0))
        with pytest.raises(DomainError, match="postselection never occurs"):
            conditional_mean(d, ContextualValues.symmetric(0.5), 2)

    def test_bad_box_index(self):
        d = joint_distribution(ClassicalParams(p1=0.5, g=0.5, q=0.1, q0=0.1))
        with pytest.raises(ValidationError, match="final_box"):
            conditional_mean(d, ContextualValues.symmetric(0.5), 3)

    def test_undisturbed_conditioning_reveals_the_box(self):
        # q=q0=0: the final box is the initial box, so conditioning on
        # box 2 forces the no-signal-biased average to exactly -1
        rng = np.random.default_rng(5)
        for _ in range(100):
            p1, g = rng.uniform(0.01, 0.99), rng.uniform(0.01, 1)
            d = joint_distribution(ClassicalParams(p1, g, 0.0, 0.0))
            cv = ContextualValues.symmetric(g)
            assert conditional_mean(d, cv, 2) == pytest.approx(-1.0, abs=1e-12)
            assert conditional_mean(d, cv, 1) == pytest.approx(1.0, abs=1e-12)

    def test_common_switch_value_stays_bounded(self):
        # outcome-independent switching can never push the conditioned
        # average outside the eigenvalue range
        rng = np.random.default_rng(23)
        for _ in range(500):
            p1, g, t = rng.uniform(0, 1), rng.uniform(0.01, 1), rng.uniform(0, 1)
            d = joint_distribution(ClassicalParams(p1, g, t, t))
            cv = ContextualValues.symmetric(g)
            for box in (1, 2):
                if d.p_box(box) > 0.0:
                    assert abs(conditional_mean(d, cv, box)) <= 1.0 + 1e-9

    def test_common_switch_value_conditional_vs_unconditional(self):
        # equality of the two means under q=q0 holds in the special cases
        # below; it is not a general identity (see the counterexample)
        cv = ContextualValues.symmetric(0.4)
        d = joint_distribution(ClassicalParams(p1=1.0, g=0.4, q=0.3, q0=0.3))
        assert conditional_mean(d, cv, 2) == pytest.approx(unconditional_mean(d, cv), abs=1e-12)
        d = joint_distribution(ClassicalParams(p1=0.3, g=0.4, q=0.5, q0=0.5))
        assert conditional_mean(d, cv, 2) == pytest.approx(unconditional_mean(d, cv), abs=1e-12)

    def test_common_switch_value_counterexample(self):
        # p1=0.3, q=q0=0.2: conditioning on box 2 still skews toward
        # trials that started there, so the two means differ
        cv = ContextualValues.symmetric(0.4)
        d = joint_distribution(ClassicalParams(p1=0.3, g=0.4, q=0.2, q0=0.2))
        cond = conditional_mean(d, cv, 2)
        assert cond == pytest.approx(-0.8064516129032258, rel=1e-12)
        assert unconditional_mean(d, cv) == pytest.approx(-0.4, abs=1e-12)
        assert abs(cond - unconditional_mean(d, cv)) > 0.4
        # and the conditional value is bias-independent for q=q0
        d7 = joint_distribution(ClassicalParams(p1=0.3, g=0.7, q=0.2, q0=0.2))
        assert conditional_mean(d7, ContextualValues.symmetric(0.7), 2) == pytest.approx(
            cond, rel=1e-12
        )


class TestMatching:
    def test_recipe_values(self):
        p = fc_match_params(math.pi / 3, 0.1)
        assert p.p1 == 1.0
        assert p.q == pytest.approx(6 / 11, rel=1e-13)
        assert p.q0 == pytest.approx(4 / 9, rel=1e-13)

    def test_theta_zero_forces_certain_switching(self):
        p = fc_match_params(0.0, 0.5)
        assert (p.p1, p.q, p.q0) == (1.0, 1.0, 1.0)

    def test_full_bias_limit(self):
        p = fc_match_params(0.0, 1.0)
        assert p.q == 1.0 and p.q0 == 1.0

    def test_identity_exact_for_every_bias(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            theta = rng.uniform(0.0, 1.45)
            c = math.cos(theta)
            g = rng.uniform(0.005, c)
            params = fc_match_params(theta, g)
            d = joint_distribution(params)
            cv = ContextualValues.symmetric(g)
            assert conditional_mean(d, cv, 2) == pytest.approx(1.0 / c, rel=1e-12)
            # the postselection probability is bias-independent too
            assert d.p_box(2) == pytest.approx(c, rel=1e-12)

    def test_weak_limit_has_zero_slope_in_bias(self):
        theta = math.pi / 3
        means = []
        for g in (1e-1, 1e-2, 1e-3):
            d = joint_distribution(fc_match_params(theta, g))
            means.append(conditional_mean(d, ContextualValues.symmetric(g), 2))
        for (g1, m1), (g2, m2) in zip([(1e-1, means[0]), (1e-2, means[1])], [(1e-2, means[1]), (1e-3, means[2])]):
            assert abs((m1 - m2) / (g1 - g2)) <= 1e-9

    def test_divergent_target_rejected(self):
        with pytest.raises(DomainError, match="undefined or divergent"):
            fc_match_params(2.0, 0.1)

    def test_bias_too_strong_rejected(self):
        with pytest.raises(DomainError, match="no valid switch probability"):
            fc_match_params(math.pi / 3, 0.9)

    def test_near_zero_cosine_rejected(self):
        # cos(pi/2) is positive at float precision, but no admissible bias
        # remains below it
        with pytest.raises(DomainError):
            fc_match_params(math.pi / 2, 0.1)


class TestConditionalMeanSurface:
    def test_matches_scalar_enumeration(self):
        rng = np.random.default_rng(77)
        p1 = rng.uniform(0, 1, 40)
        q = rng.uniform(0, 1, 40)
        q0 = rng.uniform(0, 1, 40)
        g = 0.3
        surface = _conditional_mean_surface(p1, q, q0, g)
        cv = ContextualValues.symmetric(g)
        for k in range(40):
            d = joint_distribution(ClassicalParams(p1[k], g, q[k], q0[k]))
            assert surface[k] == pytest.approx(conditional_mean(d, cv, 2), rel=1e-11, abs=1e-11)

    def test_nan_where_postselection_impossible(self):
        assert math.isnan(float(_conditional_mean_surface(1.0, 0.0, 0.0, 0.5)))


def box2_mean_and_cost(p1, g, q, q0):
    """Box-2 conditional mean and disturbed fraction |P_g(2) - P_0(2)| / P_g(2), in the inputs' arithmetic.

    None where final box 2 never occurs.
    """
    a, abar = (1 + g) / 2, (1 - g) / 2
    p2 = 1 - p1
    ps = p1 * a * q + p2 * abar * (1 - q)
    psbar = p1 * abar * q0 + p2 * a * (1 - q0)
    pf = ps + psbar
    if pf == 0:
        return None
    return (ps - psbar) / (g * pf), abs(pf - p2) / pf


def exact_min_disturbance(v, g):
    """The closed-form minimum of the disturbed fraction at mean v, in Fractions; None beyond 1/g."""
    if abs(v) <= 1:
        return Fraction(0)
    return g * abs(1 + v) / (1 + g) if abs(v) <= 1 / g else None


def witness(v, g):
    """A (p1, q, q0) attaining the minimum at mean v, one per branch of the closed form."""
    if abs(v) <= 1:
        return Fraction(1, 2), (1 + v) / 2, (1 + v) / 2
    if v > 1:
        return (1 + v * g) / 2, Fraction(1), Fraction(0)
    a, abar, k = (1 + g) / 2, (1 - g) / 2, (1 + v * g) / (1 - v * g)
    return Fraction(0), 1 - a * k / abar, Fraction(0)


# the edges 0, 1 and 1/2 carry the witnesses, so they are drawn often
unit_fractions = st.one_of(
    st.sampled_from([Fraction(0), Fraction(1), Fraction(1, 2)]), st.fractions(0, 1, max_denominator=10**6)
)


class TestMinDisturbance:
    def test_minus_one_costs_nothing(self):
        for g in (0.1, 0.3, 1.0):
            assert min_disturbance_for_value(-1.0, g, 51) == 0.0

    def test_inside_range_costs_nothing(self):
        # equal switching q = q0 at p1 = 1/2 reaches every mean in [-1, 1] and leaves P(box 2) at 1/2
        for v in (-0.5, 0.0, 0.5, 1.0):
            assert min_disturbance_for_value(v, 0.3, 51) == 0.0

    def test_anomalous_targets_cost_strictly_positive(self):
        v15 = min_disturbance_for_value(1.5, 0.1, 101)
        v20 = min_disturbance_for_value(2.0, 0.1, 101)
        assert 0.0 < v15 <= 1.0
        assert 0.0 < v20 <= 1.0
        assert v20 >= v15
        assert v15 == pytest.approx(5 / 22, rel=1e-15)
        assert v20 == pytest.approx(3 / 11, rel=1e-15)

    def test_infeasible_target_is_inf(self):
        # |v| cannot exceed 1/g = 10/3
        assert math.isinf(min_disturbance_for_value(6.0, 0.3, 51))
        assert math.isinf(min_disturbance_for_value(-6.0, 0.3, 51))

    def test_anomalous_flagged_targets_at_small_bias(self):
        for v in (1.5, -1.5, 2.0, 3.0):
            value = min_disturbance_for_value(v, 0.05, 51)
            assert 0.0 < value <= 1.0

    def test_deterministic(self):
        a = min_disturbance_for_value(1.7, 0.2, 41)
        b = min_disturbance_for_value(1.7, 0.2, 41)
        assert a == b

    def test_grid_resolution_selects_nothing(self):
        for v, g in ((1.5, 0.1), (-1.5, 0.1), (0.5, 0.3), (10 / 3, 0.3), (6.0, 0.3)):
            values = {min_disturbance_for_value(v, g, n) for n in (2, 51, 151)}
            assert values == {min_disturbance_for_value(v, g)}

    @pytest.mark.parametrize("g", [Fraction(1, 10), Fraction(3, 10), Fraction(1, 2), Fraction(1)])
    def test_witnesses_reach_the_mean_at_the_minimum_cost(self, g):
        for v in (1 / g, -1 / g, Fraction(3, 2), Fraction(-3, 2), Fraction(1), Fraction(-1), Fraction(0), Fraction(1, 3)):
            if abs(v) > 1 / g:
                continue
            p1, q, q0 = witness(v, g)
            cost = exact_min_disturbance(v, g)
            assert all(0 <= x <= 1 for x in (p1, q, q0))
            assert box2_mean_and_cost(p1, g, q, q0) == (v, cost)
            assert min_disturbance_for_value(float(v), float(g)) == pytest.approx(float(cost), rel=1e-15)

    def test_cost_jumps_at_plus_one_only(self):
        g = 0.1
        assert min_disturbance_for_value(math.nextafter(1.0, 2.0), g) == pytest.approx(2 * g / (1 + g), rel=1e-15)
        assert min_disturbance_for_value(math.nextafter(-1.0, -2.0), g) < 1e-15

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(p1=unit_fractions, q=unit_fractions, q0=unit_fractions, g=unit_fractions)
    def test_no_parameters_beat_the_closed_form(self, p1, q, q0, g):
        # exact arithmetic: in floats a mean of exactly 1 can round to 1 + 2**-52, across the jump
        assume(g > 0)
        point = box2_mean_and_cost(p1, g, q, q0)
        assume(point is not None)
        v, cost = point
        floor = exact_min_disturbance(v, g)
        assert floor is not None and cost >= floor

    def test_validation(self):
        with pytest.raises(ValidationError, match="grid_resolution"):
            min_disturbance_for_value(0.5, 0.3, 1)
        with pytest.raises(ValidationError, match="v_target"):
            min_disturbance_for_value(math.nan, 0.3, 51)
        with pytest.raises(ValidationError, match="g must be"):
            min_disturbance_for_value(0.5, 0.0, 51)
