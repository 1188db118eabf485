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
    TrialRecord,
    TwoLevelState,
    ValidationError,
    conditional_mean,
    derive_stream_key,
    estimate_conditional_mean,
    gof_test,
    joint_distribution,
    joint_outcome_probs,
    sample_classical,
    sample_classical_sweep,
    sample_classical_trace,
    sample_joint,
    sample_quantum,
    sample_quantum_trace,
)

MATCHED = ClassicalParams(p1=1.0, g=0.1, q=6 / 11, q0=4 / 9)


class TestStreamKeys:
    def test_splitmix64_reference_vector(self):
        # first output of the published SplitMix64 sequence from state 0
        assert derive_stream_key(0, 0) == 16294208416658607535

    def test_frozen_keys(self):
        assert derive_stream_key(42, 0) == 13679457532755275413
        assert derive_stream_key(42, 1) == 2949826092126892291

    def test_no_collisions_across_indices(self):
        keys = {derive_stream_key(42, k) for k in range(1000)}
        assert len(keys) == 1000

    def test_validation(self):
        with pytest.raises(ValidationError, match="seed"):
            derive_stream_key(-1, 0)
        with pytest.raises(ValidationError, match="seed"):
            derive_stream_key(1 << 64, 0)
        with pytest.raises(ValidationError, match="index"):
            derive_stream_key(1, -2)
        with pytest.raises(ValidationError, match="seed"):
            derive_stream_key(True, 0)


class TestTrialRecord:
    def test_valid_tags_only(self):
        TrialRecord(signal="S", final_box=1)
        with pytest.raises(ValidationError, match="signal"):
            TrialRecord(signal="X", final_box=1)
        with pytest.raises(ValidationError, match="final_box"):
            TrialRecord(signal="Sbar", final_box=0)


class TestCountTable:
    def test_total_and_accessors(self):
        t = CountTable([[1, 2], [3, 4]])
        assert t.total == 10
        assert t.n("S", 2) == 2
        assert t.n_signal("Sbar") == 7
        assert t.n_box(1) == 4

    def test_rejects_negative(self):
        with pytest.raises(ValidationError, match="nonnegative"):
            CountTable([[1, -2], [3, 4]])

    def test_from_records(self):
        records = [
            TrialRecord("S", 1),
            TrialRecord("S", 2),
            TrialRecord("S", 2),
            TrialRecord("Sbar", 1),
        ]
        t = CountTable.from_records(records)
        assert t.counts.tolist() == [[1, 2], [1, 0]]

    def test_frequencies_round_trip(self):
        t = CountTable([[10, 20], [30, 40]])
        assert_allclose(t.frequencies().table, [[0.1, 0.2], [0.3, 0.4]], rtol=1e-15)
        with pytest.raises(ValidationError, match="empty"):
            CountTable([[0, 0], [0, 0]]).frequencies()


_TABLES = {
    "joint": (JointDistribution([[0.1, 0.2], [0.3, 0.4]]), "p", "p_signal", "p_box"),
    "counts": (CountTable([[1, 2], [3, 4]]), "n", "n_signal", "n_box"),
}


@pytest.mark.parametrize("kind", sorted(_TABLES))
@pytest.mark.parametrize("signal, box", [("S", 0), ("S", 3), ("S", True), ("X", 1)])
def test_unknown_signal_or_box_is_rejected(kind, signal, box):
    # box 0 must not alias box 2 through index -1, and True must not pass for box 1
    table, cell, by_signal, by_box = _TABLES[kind]
    with pytest.raises(ValidationError, match="signal" if signal == "X" else "final_box"):
        getattr(table, cell)(signal, box)
    with pytest.raises(ValidationError):
        if signal == "X":
            getattr(table, by_signal)(signal)
        else:
            getattr(table, by_box)(box)


class TestSampling:
    def test_zero_trials(self):
        t = sample_classical(MATCHED, 0, 5)
        assert t.total == 0

    def test_total_is_n(self):
        assert sample_classical(MATCHED, 12345, 5).total == 12345

    def test_identical_seed_identical_counts(self):
        a = sample_classical(MATCHED, 1000, 7)
        b = sample_classical(MATCHED, 1000, 7)
        assert a == b

    def test_frozen_counts(self):
        # regression pin: Philox is platform-independent, so these counts
        # are stable everywhere
        t = sample_classical(MATCHED, 1000, 7)
        assert t.counts.tolist() == [[258, 299], [261, 182]]

    def test_different_seeds_differ(self):
        assert sample_classical(MATCHED, 1000, 7) != sample_classical(MATCHED, 1000, 8)

    def test_no_switching_never_leaves_box_one(self):
        t = sample_classical(ClassicalParams(p1=1.0, g=0.4, q=0.0, q0=0.0), 1000, 3)
        assert t.n_box(2) == 0

    def test_seed_validation(self):
        with pytest.raises(ValidationError, match="seed"):
            sample_classical(MATCHED, 10, -5)
        with pytest.raises(ValidationError, match="trials"):
            sample_classical(MATCHED, -1, 5)

    def test_matched_frequencies_close_to_exact(self):
        t = sample_classical(MATCHED, 200000, 12)
        freq = t.counts / t.total
        exact = joint_distribution(MATCHED).table
        se = np.sqrt(exact * (1 - exact) / t.total)
        assert np.all(np.abs(freq - exact) <= 5 * se)

    def test_quantum_strong_limit(self):
        i = TwoLevelState(a1=1.0, a2=0.0)
        f = Postselection(0.0).state
        t = sample_quantum(i, MeasurementModel(1.0), f, 1000, 4)
        assert t.counts.tolist() == [[0, 1000], [0, 0]]

    def test_quantum_estimate_within_five_stderr(self):
        i = TwoLevelState.from_occupation(0.75)
        f = Postselection(math.pi / 3).state
        m = MeasurementModel(0.1)
        t = sample_quantum(i, m, f, 1_000_000, 2027)
        cv = ContextualValues.symmetric(0.1)
        mean, stderr = estimate_conditional_mean(t, cv, 2)
        exact = conditional_mean(joint_outcome_probs(i, m, f), cv, 2)
        assert abs(mean - exact) <= 5 * stderr


class TestTraceMode:
    def test_record_count_and_reproducibility(self):
        recs = sample_classical_trace(MATCHED, 500, 11)
        assert len(recs) == 500
        assert recs == sample_classical_trace(MATCHED, 500, 11)

    def test_trace_agrees_with_exact_distribution(self):
        recs = sample_classical_trace(MATCHED, 20000, 11)
        counts = CountTable.from_records(recs)
        assert not gof_test(counts, joint_distribution(MATCHED)).reject

    def test_quantum_trace_agrees_with_exact_distribution(self):
        i = TwoLevelState.from_occupation(0.75)
        f = Postselection(math.pi / 3).state
        m = MeasurementModel(0.1)
        recs = sample_quantum_trace(i, m, f, 20000, 13)
        counts = CountTable.from_records(recs)
        assert not gof_test(counts, joint_outcome_probs(i, m, f)).reject

    def test_certain_placement_no_switch(self):
        recs = sample_classical_trace(ClassicalParams(1.0, 0.5, 0.0, 0.0), 200, 2)
        assert all(r.final_box == 1 for r in recs)


class TestEstimator:
    def test_exact_proportional_counts(self):
        # counts exactly proportional to the joint table reproduce the
        # exact conditional mean; stderr follows the binomial formula
        counts = CountTable(np.array([[25, 30], [25, 20]]) * 10000)
        cv = ContextualValues(alpha_s=10.0, alpha_sbar=-10.0)
        mean, stderr = estimate_conditional_mean(counts, cv, 2)
        assert mean == pytest.approx(2.0, abs=1e-12)
        assert stderr == pytest.approx(20.0 * math.sqrt(0.6 * 0.4 / 500000), rel=1e-12)

    def test_balanced_counts_give_zero(self):
        counts = CountTable([[40, 70], [40, 70]])
        cv = ContextualValues.symmetric(0.25)
        mean, _ = estimate_conditional_mean(counts, cv, 2)
        assert mean == pytest.approx(0.0, abs=1e-12)

    def test_no_postselected_trials(self):
        counts = CountTable([[5, 0], [7, 0]])
        with pytest.raises(DomainError, match="no postselected trials"):
            estimate_conditional_mean(counts, ContextualValues.symmetric(0.5), 2)

    def test_bad_box(self):
        with pytest.raises(ValidationError, match="final_box"):
            estimate_conditional_mean(CountTable([[1, 1], [1, 1]]), ContextualValues.symmetric(0.5), 5)


class TestGof:
    def test_statistic_matches_scipy(self):
        scipy_stats = pytest.importorskip("scipy.stats")
        rng = np.random.default_rng(61)
        for _ in range(20):
            p = ClassicalParams(rng.uniform(0.2, 0.8), rng.uniform(0.2, 0.9), rng.uniform(0.1, 0.9), rng.uniform(0.1, 0.9))
            exact = joint_distribution(p)
            counts = sample_classical(p, 5000, int(rng.integers(1 << 32)))
            got = gof_test(counts, exact)
            ref = scipy_stats.chisquare(
                counts.counts.ravel(), exact.table.ravel() * counts.total
            )
            assert got.statistic == pytest.approx(float(ref.statistic), rel=1e-10)
            assert got.reject == (got.statistic > 16.266)

    def test_critical_value_is_the_chi2_point(self):
        scipy_stats = pytest.importorskip("scipy.stats")
        assert float(scipy_stats.chi2.isf(0.001, 3)) == pytest.approx(16.266, abs=1e-3)

    def test_insufficient_total(self):
        exact = joint_distribution(MATCHED)
        with pytest.raises(ValidationError, match="insufficient counts"):
            gof_test(CountTable([[10, 10], [10, 10]]), exact)

    def test_insufficient_expected_cell(self):
        tiny = JointDistribution([[1e-6, 0.5 - 1e-6], [0.25, 0.25]])
        counts = CountTable([[0, 500], [250, 250]])
        with pytest.raises(ValidationError, match="insufficient counts"):
            gof_test(counts, tiny)

    def test_calibration_over_100_seeds(self):
        exact = joint_distribution(MATCHED)
        rejections = sum(
            gof_test(sample_classical(MATCHED, 10000, 1000 + k), exact).reject
            for k in range(100)
        )
        assert rejections <= 1

    def test_power_against_perturbed_distribution(self):
        exact = joint_distribution(MATCHED)
        perturbed = np.array(exact.table, copy=True)
        perturbed[0, 1] += 0.05
        perturbed[1, 1] -= 0.05
        counts = sample_joint(JointDistribution(perturbed), 1_000_000, 99)
        assert gof_test(counts, exact).reject


class TestSweepSampling:
    def test_points_use_derived_keys(self):
        plist = [MATCHED, MATCHED]
        swept = sample_classical_sweep(plist, 300, 42)
        for k, table in enumerate(swept):
            assert table == sample_classical(MATCHED, 300, derive_stream_key(42, k))

    def test_empty_sweep(self):
        assert sample_classical_sweep([], 100, 1) == []
