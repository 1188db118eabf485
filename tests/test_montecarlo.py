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
    TrialTrace,
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
from twobox import montecarlo

MATCHED = ClassicalParams(p1=1.0, g=0.1, q=6 / 11, q0=4 / 9)
BLOCK = montecarlo._BLOCK
# trial counts on and around the block boundaries
BOUNDARY_NS = (0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3)


def philox(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=seed))


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

    @pytest.mark.parametrize(
        "signal, box, named",
        [
            ("S", True, "final_box"),
            ("S", np.True_, "final_box"),
            ("S", 0, "final_box"),
            ("Sbar", 3, "final_box"),
            ("S", [1], "final_box"),
            ("X", 1, "signal"),
        ],
    )
    def test_rejects_what_a_count_table_rejects(self, signal, box, named):
        with pytest.raises(ValidationError, match=named):
            TrialRecord(signal, box)


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

    def test_trial_count_must_fit_int64(self):
        # counts are int64, so every sampler refuses 2**63 trials before drawing any
        i, f = TwoLevelState.from_occupation(0.75), Postselection(math.pi / 3).state
        samplers = (
            lambda n: sample_joint(joint_distribution(MATCHED), n, 1),
            lambda n: sample_classical_trace(MATCHED, n, 1),
            lambda n: sample_quantum_trace(i, MeasurementModel(0.1), f, n, 1),
            lambda n: sample_classical_sweep([MATCHED], n, 1),
        )
        for sample in samplers:
            for n in (2**63, 10**400):
                with pytest.raises(ValidationError, match=r"trials must be an integer in \[0, 2\*\*63\)"):
                    sample(n)

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


class TestTrialTrace:
    def test_iterates_as_records(self):
        trace = TrialTrace([True, False, True], np.array([2, 1, 1], dtype=np.uint8))
        assert len(trace) == 3
        assert list(trace) == [TrialRecord("S", 2), TrialRecord("Sbar", 1), TrialRecord("S", 1)]

    def test_counts_by_columns_match_counts_by_records(self):
        trace = sample_classical_trace(ClassicalParams(0.6, 0.3, 0.5, 0.2), 3000, 4)
        assert CountTable.from_records(trace) == CountTable.from_records(list(trace))
        assert CountTable.from_records(trace).total == 3000

    def test_columns(self):
        trace = sample_quantum_trace(
            TwoLevelState.from_occupation(0.75), MeasurementModel(0.2), Postselection(1.0).state, 100, 3
        )
        assert trace.signal.dtype == np.bool_ and trace.final_box.dtype == np.uint8
        assert set(np.unique(trace.final_box).tolist()) <= {1, 2}

    def test_columns_are_read_only(self):
        box = np.array([1, 2], dtype=np.uint8)
        trace = TrialTrace(np.array([True, False]), box)
        with pytest.raises(ValueError):
            trace.final_box[0] = 2
        box[0] = 2  # the caller's array stays writable
        assert box.flags.writeable

    @pytest.mark.parametrize(
        "signal, box",
        [
            ([1, 0], [1, 2]),
            ([True, False], [1]),
            ([True, False], [1, 3]),
            ([True, False], [0, 1]),
            ([True, False], [1.0, 2.0]),
            ([True, False], [257, 1]),
            ([[True]], [[1]]),
        ],
    )
    def test_rejects_malformed_columns(self, signal, box):
        with pytest.raises(ValidationError):
            TrialTrace(np.array(signal), np.array(box))

    def test_equality(self):
        assert sample_classical_trace(MATCHED, 50, 1) != sample_classical_trace(MATCHED, 50, 2)
        assert sample_classical_trace(MATCHED, 0, 1) == TrialTrace(np.zeros(0, bool), np.zeros(0, np.uint8))


class TestBlockDraws:
    """Draws go block by block, yet consume the stream as the one-shot references below do."""

    def test_block_size(self):
        assert BLOCK == 1 << 16

    def test_draws_never_exceed_one_block(self, monkeypatch):
        sizes = []
        make = montecarlo._generator

        class Recording:
            def __init__(self, key):
                self.gen = make(key)

            def random(self, size):
                sizes.append(size if isinstance(size, int) else size[0])
                return self.gen.random(size)

        monkeypatch.setattr(montecarlo, "_generator", Recording)
        n = 3 * BLOCK + 5
        i, m, f = TwoLevelState.from_occupation(0.75), MeasurementModel(0.2), Postselection(1.0).state
        sample_joint(joint_distribution(MATCHED), n, 1)
        sample_classical_trace(MATCHED, n, 1)
        sample_quantum_trace(i, m, f, n, 1)
        assert max(sizes) == BLOCK
        assert sum(sizes) == 3 * n

    @pytest.mark.parametrize("n", BOUNDARY_NS)
    def test_sample_joint_equals_one_shot(self, n):
        dist = joint_distribution(ClassicalParams(0.6, 0.3, 0.5, 0.2))
        idx = np.searchsorted(np.cumsum(dist.table.ravel()), philox(5).random(n), side="right")
        expected = np.bincount(np.minimum(idx, 3), minlength=4).reshape(2, 2)
        assert sample_joint(dist, n, 5).counts.tolist() == expected.tolist()

    @pytest.mark.parametrize("n", BOUNDARY_NS)
    def test_classical_trace_equals_one_shot(self, n):
        p = ClassicalParams(0.6, 0.3, 0.5, 0.2)
        u = philox(5).random((n, 3))
        in_box1 = u[:, 0] < p.p1
        signal = u[:, 1] < np.where(in_box1, (1.0 + p.g) / 2.0, (1.0 - p.g) / 2.0)
        switched = u[:, 2] < np.where(signal, p.q, p.q0)
        trace = sample_classical_trace(p, n, 5)
        assert np.array_equal(trace.signal, signal)
        assert np.array_equal(trace.final_box, np.where(in_box1 ^ switched, 1, 2))

    @pytest.mark.parametrize("n", BOUNDARY_NS)
    def test_quantum_trace_equals_one_shot(self, n):
        i, m, f = TwoLevelState.from_occupation(0.75), MeasurementModel(0.2), Postselection(1.0).state
        dist = joint_outcome_probs(i, m, f)
        p_s = dist.p_signal("S")
        u = philox(5).random((n, 2))
        signal = u[:, 0] < p_s
        in_box2 = u[:, 1] < np.where(signal, dist.p("S", 2) / p_s, dist.p("Sbar", 2) / (1.0 - p_s))
        trace = sample_quantum_trace(i, m, f, n, 5)
        assert np.array_equal(trace.signal, signal)
        assert np.array_equal(trace.final_box, np.where(in_box2, 2, 1))


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
