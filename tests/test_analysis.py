import math

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from twobox import (
    ClassicalMatchedProtocol,
    ContextualValues,
    DomainError,
    MeasurementModel,
    Postselection,
    QuantumProtocol,
    SweepResult,
    TwoLevelState,
    ValidationError,
    conditional_mean,
    conditional_mean_quantum,
    fc_match_params,
    fit_power_law,
    joint_distribution,
    joint_outcome_probs,
    projector_weak_values,
    quantum_postselection_shift,
    richardson_extrapolate,
    sweep_metric,
    weak_limit_extrapolate,
    weak_value,
)
from twobox.analysis import _raise_first_failure, _sweep_blocks


def scalar_metric(protocol, metric: str, x: float) -> float:
    """One grid point through the scalar API."""
    if isinstance(protocol, ClassicalMatchedProtocol):
        params = fc_match_params(protocol.theta, x)
        dist = joint_distribution(params)
        if metric == "postselection_probability":
            return dist.p_box(2)
        if metric == "postselection_shift":
            return abs(dist.p_box(2) - params.p2)
        mean = conditional_mean(dist, ContextualValues.symmetric(x), 2)
    else:
        i, f, model = protocol.preparation, protocol.postselection, MeasurementModel(x)
        if metric == "postselection_probability":
            return joint_outcome_probs(i, model, f).p_box(2)
        if metric == "postselection_shift":
            return quantum_postselection_shift(i, f, x)
        if metric == "quantum_disturbance":
            # the closed form |a1 a2| (1 - sqrt(1 - lam^2)), rationalized as in the kernel
            return abs(i.a1 * i.a2) * (x * x) / (1.0 + math.sqrt(1.0 - x * x))
        mean = conditional_mean_quantum(i, model, f)
    return mean if metric == "conditional_mean" else abs(mean - protocol.target)


def point_by_point(protocol, metric: str, grid) -> np.ndarray:
    """Reference sweep: one scalar evaluation per point, stopping at the first error."""
    values = []
    for x in grid:
        x = float(x)
        try:
            values.append(scalar_metric(protocol, metric, x))
        except DomainError as err:
            raise DomainError(f"{metric} undefined at {protocol.parameter} = {x!r}: {err}") from err
    return np.array(values)


def assert_sweep_matches_loop(protocol, metric: str, grid) -> None:
    """Same values bit for bit, or the same error type and message."""
    try:
        expected = point_by_point(protocol, metric, grid)
    except (DomainError, ValidationError) as err:
        with pytest.raises(type(err)) as got:
            sweep_metric(protocol, metric, grid)
        assert str(got.value) == str(err)
        return
    assert np.array_equal(sweep_metric(protocol, metric, grid).values, expected)


def sweep_outcome(sweep) -> object:
    """The bytes of the values a sweep returns, or the type and message of the error it raises."""
    try:
        return sweep().tobytes()
    except (DomainError, ValidationError) as err:
        return type(err), str(err)


@st.composite
def cut_grids(draw):
    """A protocol, one of its metrics, a grid with random defects, and cut points splitting the grid."""
    theta = draw(st.floats(0.0, 1.5))
    p1 = draw(st.floats(0.0, 1.0))
    protocol = draw(st.sampled_from([ClassicalMatchedProtocol(theta), QuantumProtocol(p1, theta)]))
    metric = draw(st.sampled_from(protocol.metrics))
    fractions = draw(st.lists(st.floats(1e-6, 1.0), min_size=2, max_size=24, unique=True))
    # classical biases stay below cos(theta), where the recipe is defined
    top = math.cos(theta) if protocol.parameter == "g" else 1.0
    grid = np.sort(fractions) * top
    if draw(st.booleans()):
        grid = grid[::-1].copy()
    n = grid.size
    cuts = set(draw(st.lists(st.integers(1, n - 1), min_size=1, max_size=6)))
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["out of range", "out of domain", "repeat", "reverse"]))
        k = draw(st.integers(0 if kind.startswith("out") else 1, n - 1))
        if kind == "out of range":
            grid[k] = draw(st.sampled_from([-0.1, 1.5, math.nan]))
            continue
        if kind == "out of domain":
            # no matching switch probability above cos(theta); no quantum conditional mean at zero coupling
            grid[k] = min(2.0 * top, 1.0) if protocol.parameter == "g" else 0.0
            continue
        # a repeated or reversed step, placed at a cut
        if kind == "repeat":
            grid[k] = grid[k - 1]
        else:
            grid[[k - 1, k]] = grid[[k, k - 1]]
        cuts.add(k)
    return protocol, metric, grid, sorted(cuts)


class TestProtocols:
    def test_classical_target(self):
        assert ClassicalMatchedProtocol(math.pi / 3).target == pytest.approx(2.0, rel=1e-12)

    def test_classical_divergent_target(self):
        with pytest.raises(DomainError, match="undefined or divergent"):
            ClassicalMatchedProtocol(2.0).target

    def test_divergent_target_has_one_message(self):
        # the protocol's target and the matching recipe share one cos(theta) > 0 check
        with pytest.raises(DomainError) as from_target:
            ClassicalMatchedProtocol(2.0).target
        with pytest.raises(DomainError) as from_recipe:
            fc_match_params(2.0, 0.1)
        assert str(from_target.value) == str(from_recipe.value)
        assert "must be positive" in str(from_target.value)

    def test_quantum_target_is_weak_value(self):
        p = QuantumProtocol(p1=0.75, theta=math.pi / 3)
        assert p.target == pytest.approx(2.0, rel=1e-12)

    def test_axes(self):
        assert ClassicalMatchedProtocol(1.0).parameter == "g"
        assert QuantumProtocol(0.5, 1.0).parameter == "lambda"

    def test_validation(self):
        with pytest.raises(ValidationError, match="p1"):
            QuantumProtocol(p1=1.5, theta=1.0)
        with pytest.raises(ValidationError, match="theta"):
            ClassicalMatchedProtocol(math.nan)


class TestShifts:
    def test_classical_matched_shift_is_cosine(self):
        # matched parameters move P(box 2) from 0 to cos(theta), at every bias
        for g in (0.1, 0.01, 0.001):
            shift = sweep_metric(ClassicalMatchedProtocol(math.pi / 3), "postselection_shift", [g]).values[0]
            assert shift == pytest.approx(0.5, abs=1e-12)

    def test_quantum_shift_matched_point(self):
        i = TwoLevelState.from_occupation(0.75)
        f = Postselection(math.pi / 3).state
        shift = quantum_postselection_shift(i, f, 0.1)
        assert shift == pytest.approx(0.001880, abs=1e-6)
        assert shift == pytest.approx(0.0018797110850176657, rel=1e-11)

    def test_quantum_shift_vanishes_at_zero_coupling(self):
        i = TwoLevelState.from_occupation(0.75)
        f = Postselection(math.pi / 3).state
        assert quantum_postselection_shift(i, f, 0.0) == pytest.approx(0.0, abs=1e-15)


class TestSweeps:
    def test_classical_conditional_mean_constant(self):
        res = sweep_metric(
            ClassicalMatchedProtocol(math.pi / 3), "conditional_mean", [0.001, 0.01, 0.1]
        )
        assert_allclose(res.values, 2.0, rtol=1e-12)
        assert res.parameter == "g"
        assert res.protocol == "classical_matched"
        assert res.fixed == {"theta": math.pi / 3}

    def test_eigenstate_disturbance_all_zero(self):
        res = sweep_metric(
            QuantumProtocol(p1=1.0, theta=math.pi / 3), "quantum_disturbance", [0.1, 0.5, 0.9]
        )
        assert_allclose(res.values, 0.0, atol=1e-15)

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(
        p1=st.floats(0.0, 1.0),
        theta=st.floats(0.0, 1.5),
        theta_q=st.floats(0.0, 2.0 * math.pi),
        fractions=st.lists(st.floats(1e-9, 1.0), min_size=1, max_size=8),
    )
    def test_sweep_matches_scalar_api(self, p1, theta, theta_q, fractions):
        # classical biases stay below cos(theta), where the recipe is defined
        classical = ClassicalMatchedProtocol(theta)
        quantum = QuantumProtocol(p1, theta_q)
        for protocol, grid in (
            (classical, np.unique(np.array(fractions) * math.cos(theta))),
            (quantum, np.unique(fractions)),
        ):
            for metric in protocol.metrics:
                assert_sweep_matches_loop(protocol, metric, grid)

    @pytest.mark.parametrize(
        "protocol, metric, grid",
        [
            (ClassicalMatchedProtocol(math.pi / 3), "conditional_mean", [0.1, 0.9, 1.5]),
            (ClassicalMatchedProtocol(math.pi / 3), "postselection_shift", [0.1, 1.5, 0.9]),
            (ClassicalMatchedProtocol(2.0), "conditional_mean_error", [0.1, 0.2]),
            (ClassicalMatchedProtocol(2.0), "conditional_mean", [0.1, math.nan]),
            (QuantumProtocol(0.75, math.pi / 3), "conditional_mean", [0.2, 0.0, 1.2]),
            (QuantumProtocol(0.75, math.pi / 3), "conditional_mean", [0.2, 1.2, 0.0]),
            (QuantumProtocol(0.75, math.pi / 3), "quantum_disturbance", [0.0, 0.5, -0.1]),
            (QuantumProtocol(0.5, math.pi / 2), "conditional_mean_error", [0.3, 0.2, 0.0]),
            (QuantumProtocol(0.75, math.pi / 3), "postselection_shift", [0.5, math.nan, 0.0]),
            (ClassicalMatchedProtocol(math.pi / 3), "conditional_mean", np.linspace(1e-3, 1.2, 1000)),
            (
                QuantumProtocol(0.75, math.pi / 3),
                "conditional_mean",
                np.r_[np.linspace(0.9, 0.1, 700), 0.0, np.linspace(1.1, 2.0, 299)],
            ),
        ],
    )
    def test_mixed_grid_raises_what_the_loop_raises_first(self, protocol, metric, grid):
        with pytest.raises((DomainError, ValidationError)):
            point_by_point(protocol, metric, grid)
        assert_sweep_matches_loop(protocol, metric, grid)

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(case=cut_grids())
    def test_blocks_cut_anywhere_sweep_as_the_whole_grid(self, case):
        protocol, metric, grid, cuts = case
        whole = sweep_outcome(lambda: sweep_metric(protocol, metric, grid).values)
        blocks = _sweep_blocks(protocol, metric, np.split(grid, cuts))
        assert sweep_outcome(lambda: np.concatenate([values for _, values in blocks])) == whole

    def test_check_that_is_not_point_wise_raises_the_whole_grid_error(self):
        whole_grid_error = DomainError("fails only on two or more points")

        def evaluate(protocol, metric, grid):
            if grid.size > 1:
                raise whole_grid_error
            return grid

        protocol = QuantumProtocol(0.75, 1.0)
        with pytest.raises(DomainError) as caught:
            _raise_first_failure(evaluate, protocol, "conditional_mean", np.ones(4), whole_grid_error)
        assert caught.value is whole_grid_error

    def test_descending_grid_order_preserved(self):
        res = sweep_metric(
            QuantumProtocol(p1=0.75, theta=math.pi / 3), "conditional_mean", [0.2, 0.1, 0.05]
        )
        assert_allclose(res.strengths, [0.2, 0.1, 0.05])

    def test_unknown_metric_named(self):
        with pytest.raises(ValidationError, match="no_such_metric"):
            sweep_metric(QuantumProtocol(0.75, 1.0), "no_such_metric", [0.1])

    def test_classical_has_no_quantum_disturbance(self):
        with pytest.raises(ValidationError, match="quantum_disturbance"):
            sweep_metric(ClassicalMatchedProtocol(1.0), "quantum_disturbance", [0.1])

    def test_empty_grid_rejected(self):
        with pytest.raises(ValidationError, match="nonempty"):
            sweep_metric(QuantumProtocol(0.75, 1.0), "conditional_mean", [])

    def test_domain_error_names_offending_point(self):
        with pytest.raises(DomainError, match="0.9"):
            sweep_metric(ClassicalMatchedProtocol(math.pi / 3), "conditional_mean", [0.1, 0.9])
        with pytest.raises(DomainError, match="lambda = 0.0"):
            sweep_metric(QuantumProtocol(0.75, 1.0), "conditional_mean", [0.0, 0.1])

    def test_metric_names_by_protocol(self):
        classical = ClassicalMatchedProtocol(1.0).metrics
        quantum = QuantumProtocol(0.5, 1.0).metrics
        assert "quantum_disturbance" not in classical
        assert "quantum_disturbance" in quantum
        assert set(classical) < set(quantum)


class TestSweepResult:
    def test_monotone_required(self):
        with pytest.raises(ValidationError, match="monotone"):
            SweepResult("g", [0.1, 0.3, 0.2], [1.0, 2.0, 3.0], "p", "m")

    def test_shapes_must_match(self):
        with pytest.raises(ValidationError, match="shape"):
            SweepResult("g", [0.1, 0.2], [1.0], "p", "m")

    def test_arrays_read_only(self):
        res = SweepResult("g", [0.1, 0.2], [1.0, 2.0], "p", "m")
        with pytest.raises(ValueError):
            res.values[0] = 5.0


class TestPowerLaw:
    def test_exact_quadratic(self):
        x = np.array([0.1, 0.05, 0.02])
        fit = fit_power_law(SweepResult("x", x, 3 * x**2, "synthetic", "y"))
        assert fit.exponent == pytest.approx(2.0, abs=1e-9)
        assert fit.prefactor == pytest.approx(3.0, rel=1e-9)
        assert fit.rms_residual == pytest.approx(0.0, abs=1e-12)

    def test_general_exponent(self):
        x = np.geomspace(1e-3, 1, 12)
        fit = fit_power_law(SweepResult("x", x, 0.7 * x**-1.5, "synthetic", "y"))
        assert fit.exponent == pytest.approx(-1.5, abs=1e-9)

    def test_quantum_shift_scales_quadratically(self):
        grid = np.geomspace(1e-3, 1e-1, 10)
        res = sweep_metric(QuantumProtocol(0.75, math.pi / 3), "postselection_shift", grid)
        fit = fit_power_law(res)
        assert abs(fit.exponent - 2.0) <= 0.05

    def test_classical_shift_is_flat(self):
        grid = np.geomspace(1e-3, 1e-1, 10)
        res = sweep_metric(ClassicalMatchedProtocol(math.pi / 3), "postselection_shift", grid)
        fit = fit_power_law(res)
        assert abs(fit.exponent) <= 0.01

    def test_too_few_points(self):
        with pytest.raises(ValidationError, match="3 points"):
            fit_power_law(SweepResult("x", [0.1, 0.2], [1.0, 2.0], "p", "m"))

    def test_nonpositive_values_rejected(self):
        with pytest.raises(ValidationError, match="positive"):
            fit_power_law(SweepResult("x", [0.1, 0.2, 0.3], [1.0, 0.0, 2.0], "p", "m"))


class TestRichardson:
    def test_exact_even_polynomial_recovered(self):
        # values L + 2 t - 0.7 t^2 + 0.1 t^3 in t = s^2: four points suffice
        s = np.array([0.4, 0.3, 0.2, 0.1])
        t = s**2
        values = 1.234 + 2 * t - 0.7 * t**2 + 0.1 * t**3
        limit, err = richardson_extrapolate(s, values)
        assert limit == pytest.approx(1.234, abs=1e-10)
        assert err >= 0.0

    def test_constant_series(self):
        limit, err = richardson_extrapolate([0.2, 0.1, 0.05], [2.0, 2.0, 2.0])
        assert limit == pytest.approx(2.0, abs=1e-12)
        assert err == pytest.approx(0.0, abs=1e-12)

    def test_order_of_input_does_not_matter(self):
        s = np.array([0.05, 0.1, 0.2])
        v = np.array([1.1, 1.4, 2.6])
        up = richardson_extrapolate(s, v)
        down = richardson_extrapolate(s[::-1], v[::-1])
        assert up == down

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        points=st.lists(
            st.tuples(st.floats(1e-6, 1.0), st.floats(-1e3, 1e3)), min_size=2, max_size=10, unique_by=lambda p: p[0]
        )
    )
    def test_tableau_matches_the_entry_by_entry_loop(self, points):
        s, v = (np.array(column) for column in zip(*points))
        order = np.argsort(s)[::-1]
        t, cur = s[order] ** 2, v[order]
        assume(np.all(np.diff(t) < 0))
        for m in range(1, t.size):
            previous = cur[-1]
            cur = np.array([(t[i] * cur[i + 1] - t[i + m] * cur[i]) / (t[i] - t[i + m]) for i in range(t.size - m)])
        assert richardson_extrapolate(s, v) == (float(cur[0]), float(abs(cur[0] - previous)))

    def test_duplicate_strengths_rejected(self):
        with pytest.raises(ValidationError, match="distinct"):
            richardson_extrapolate([0.1, 0.1, 0.05], [1.0, 1.0, 2.0])

    def test_needs_two_points(self):
        with pytest.raises(ValidationError):
            richardson_extrapolate([0.1], [1.0])


class TestWeakLimit:
    def quantum_sweep(self, lams):
        return sweep_metric(QuantumProtocol(0.75, math.pi / 3), "conditional_mean", lams)

    def test_recovers_weak_value(self):
        limit = weak_limit_extrapolate(self.quantum_sweep([0.2, 0.1, 0.05]))
        assert limit == pytest.approx(2.0, abs=1e-3)

    def test_limit_within_ten_error_estimates(self):
        res = self.quantum_sweep([0.2, 0.1, 0.05])
        limit, err = richardson_extrapolate(res.strengths, res.values)
        assert abs(limit - 2.0) <= 10 * err

    def test_quantum_sweep_reaches_the_weak_value_at_tiny_coupling(self):
        # 50-digit Re A_w for the double inputs. The mean's own deviation is
        # about 1.5 lam^2 here, so C = 2 leaves room only for rounding, of
        # 4 eps relative to the value
        mpmath.mp.dps = 50
        half = mpmath.mpf(math.pi / 3) / 2
        x = mpmath.cos(half) * mpmath.sqrt(mpmath.mpf(0.75))
        y = -mpmath.sin(half) * mpmath.sqrt(mpmath.mpf(0.25))
        weak = float((x - y) / (x + y))
        lams = np.geomspace(1e-12, 1e-1, 400)
        err = np.abs(self.quantum_sweep(lams).values - weak)
        assert np.all(err <= 2.0 * lams**2 + 4 * np.finfo(float).eps * abs(weak))

    def test_classical_series_is_exact(self):
        res = sweep_metric(
            ClassicalMatchedProtocol(math.pi / 3), "conditional_mean", [0.2, 0.1, 0.05]
        )
        assert weak_limit_extrapolate(res) == pytest.approx(2.0, rel=1e-12)

    def test_needs_three_points(self):
        with pytest.raises(ValidationError, match="3 points"):
            weak_limit_extrapolate(
                SweepResult("lambda", [0.2, 0.1], [2.1, 2.0], "quantum", "conditional_mean")
            )


class TestNegativityWitness:
    def test_matched_point(self):
        i = TwoLevelState.from_occupation(0.75)
        f = Postselection(math.pi / 3).state
        pw = projector_weak_values(i, f)
        assert pw.w1.real == pytest.approx(1.5, rel=1e-12)
        assert pw.w2.real == pytest.approx(-0.5, rel=1e-12)
        assert pw.negative

    def test_eigenstate_postselection(self):
        i = TwoLevelState.from_occupation(0.75)
        f = Postselection(0.0).state
        pw = projector_weak_values(i, f)
        assert pw.w1 == pytest.approx(1.0, abs=1e-12)
        assert pw.w2 == pytest.approx(0.0, abs=1e-12)
        assert not pw.negative

    def test_quarter_turn_postselection(self):
        # p1=0.5 at theta=pi/2 is exactly orthogonal, so probe just beside
        # it: a strongly anomalous but well-defined point
        i = TwoLevelState.from_occupation(0.6)
        f = Postselection(math.pi / 2).state
        pw = projector_weak_values(i, f)
        aw = weak_value(i, f)
        assert abs(aw.real) > 1.0
        assert (pw.w1 + pw.w2).real == pytest.approx(1.0, abs=1e-12)
        assert pw.negative == (abs(aw.real) > 1 + 1e-12)

    def test_symmetric_input_quarter_turn_is_singular(self):
        i = TwoLevelState.from_occupation(0.5)
        f = Postselection(math.pi / 2).state
        with pytest.raises(DomainError, match="zero overlap"):
            projector_weak_values(i, f)

    def test_sum_rule_and_difference(self):
        rng = np.random.default_rng(12)
        for _ in range(300):
            v1 = rng.normal(size=2) + 1j * rng.normal(size=2)
            v2 = rng.normal(size=2) + 1j * rng.normal(size=2)
            v1 /= np.linalg.norm(v1)
            v2 /= np.linalg.norm(v2)
            i = TwoLevelState(a1=v1[0], a2=v1[1])
            f = TwoLevelState(a1=v2[0], a2=v2[1])
            if abs(np.conj(f.vector) @ i.vector) < 1e-6:
                continue
            pw = projector_weak_values(i, f)
            assert abs(pw.w1 + pw.w2 - 1.0) <= 1e-12
            assert pw.w1 - pw.w2 == pytest.approx(weak_value(i, f), rel=1e-10, abs=1e-12)

    def test_soundness_real_case(self):
        # flag raised exactly when the weak value leaves [-1, 1]; draws
        # within 1e-9 of the boundary are excluded, where the two float
        # thresholds could legitimately disagree
        rng = np.random.default_rng(16)
        checked = 0
        for _ in range(1000):
            i = TwoLevelState.from_occupation(rng.uniform(0, 1))
            f = Postselection(rng.uniform(0, 2 * math.pi)).state
            if abs(np.conj(f.vector) @ i.vector) < 1e-6:
                continue
            aw = weak_value(i, f).real
            if abs(abs(aw) - 1.0) < 1e-9:
                continue
            checked += 1
            assert projector_weak_values(i, f).negative == (abs(aw) > 1.0)
        assert checked > 900

    def test_orthogonal_rejected(self):
        i = TwoLevelState.from_occupation(0.75)
        f = Postselection(2 * math.pi / 3).state
        with pytest.raises(DomainError, match="zero overlap"):
            projector_weak_values(i, f)

    def test_flagged_cases_cost_classical_disturbance(self):
        # a flagged weak value can only be matched classically by switching:
        # the minimum disturbed fraction is strictly positive, while the quantum protocol
        # pays only ~lam^2/2 in trace distance at the same strength
        from twobox import min_disturbance_for_value

        rng = np.random.default_rng(26)
        found = 0
        while found < 5:
            p1 = rng.uniform(0.05, 0.95)
            theta = rng.uniform(0.1, 1.4)
            i = TwoLevelState.from_occupation(p1)
            f = Postselection(theta).state
            aw = weak_value(i, f).real
            if not 1.0 < abs(aw) < 18.0:
                continue
            found += 1
            assert min_disturbance_for_value(aw, 0.05, 51) > 0.0
            assert sweep_metric(QuantumProtocol(p1, theta), "quantum_disturbance", [0.05]).values[0] < 0.002
