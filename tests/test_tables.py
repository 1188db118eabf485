import json
import math

import numpy as np
import pytest

import twobox
from twobox import (
    BOXES,
    SIGNALS,
    ClassicalMatchedProtocol,
    ClassicalParams,
    ContextualValues,
    DomainError,
    MeasurementModel,
    Postselection,
    QuantumProtocol,
    TwoLevelState,
    ValidationError,
    conditional_mean,
    conditional_mean_quantum,
    joint_distribution,
    joint_outcome_probs,
    min_disturbance_for_value,
    sweep_metric,
)
from twobox import analysis, classical, contextual, errors, montecarlo, quantum, tables
from twobox.cli import _TRACE_ROW_ENDS, main, run
from twobox.tables import _cell, _flat_cells, _stack


def test_public_api_is_the_union_of_the_module_lists():
    names = twobox.__all__
    assert len(names) == len(set(names))
    for name in names:
        getattr(twobox, name)
    modules = (errors, contextual, tables, classical, quantum, analysis, montecarlo)
    assert set(names) == {"__version__"}.union(*(m.__all__ for m in modules))
    assert {"joint_tables", "outcome_tables"} <= set(names)


# Every public name. Adding or removing one is an API change: edit this list with it.
PUBLIC_API = [
    "BOXES", "ClassicalMatchedProtocol", "ClassicalParams", "ContextualValues", "CountTable", "DomainError",
    "GofResult", "JointDistribution", "MeasurementModel", "Postselection", "PowerLawFit", "ProjectorWeakValues",
    "QuantumProtocol", "ResponseMatrix", "SIGNALS", "SweepResult", "TrialTrace", "TwoBoxError", "TwoLevelState",
    "ValidationError", "__version__", "conditional_mean", "conditional_mean_quantum", "derive_stream_key",
    "estimate_conditional_mean", "expectation", "fc_match_params", "fit_power_law", "gof_test",
    "joint_distribution", "joint_outcome_probs", "joint_tables", "min_disturbance_for_value", "outcome_tables",
    "projector_weak_values", "quantum_postselection_shift", "richardson_extrapolate", "sample_classical",
    "sample_classical_sweep", "sample_classical_trace", "sample_joint", "sample_quantum", "sample_quantum_trace",
    "solve_cv", "sweep_metric", "unconditional_mean", "weak_limit_extrapolate", "weak_value",
]  # fmt: skip


def test_public_api_snapshot():
    assert sorted(twobox.__all__) == PUBLIC_API
    modules = (errors, contextual, tables, classical, quantum, analysis, montecarlo)
    exported = [name for m in modules for name in m.__all__]
    assert len(exported) == len(set(exported)), "a name is exported by two submodules"


def test_moved_names_stay_importable_from_classical():
    assert classical.JointDistribution is twobox.JointDistribution


def test_one_layout_for_cells_flat_cells_stacks_and_trace_rows():
    values = {(s, b): 10 * k + j for k, s in enumerate(SIGNALS) for j, b in enumerate(BOXES)}
    t = _stack(values["S", 1], values["Sbar", 1], values["S", 2], values["Sbar", 2])
    assert t.shape == (2, 2)
    for (signal, box), value in values.items():
        flat = int(_flat_cells(np.array([signal == "S"]), np.array([box], dtype=np.uint8))[0])
        assert t[_cell(signal, box)] == value
        assert t.ravel()[flat] == value
        assert _TRACE_ROW_ENDS[flat] == f",{signal},{box}\n"


def test_stack_broadcasts():
    t = _stack(np.zeros(3), 0.25, np.full((4, 1), 0.5), 0.25)
    assert t.shape == (4, 3, 2, 2)
    assert np.all(t.sum(axis=(-2, -1)) == 1.0)


_BIG = 10**400  # beyond the float range
_HUGE = 10**4999  # beyond Python's 4,300-digit limit on int-to-str conversion
_SAMPLE = {"mode": "sample", "protocol": "classical", "p1": 1.0, "g": 0.1, "q": 0.5, "q0": 0.4, "n": 10, "seed": 1}


@pytest.mark.parametrize(
    "call, shown",
    [
        (lambda: ClassicalParams(_BIG, 0.1, 0.5, 0.5), repr(_BIG)),
        (lambda: ClassicalMatchedProtocol(_BIG), repr(_BIG)),
        (lambda: MeasurementModel(_BIG), repr(_BIG)),
        (lambda: ContextualValues.symmetric(_BIG), repr(_BIG)),
        (lambda: Postselection(_BIG), repr(_BIG)),
        (lambda: TwoLevelState(_BIG, 0), repr(_BIG)),
        (lambda: min_disturbance_for_value(_BIG, 0.1), repr(_BIG)),
        (lambda: sweep_metric(QuantumProtocol(0.75, 1.0), "conditional_mean", [_BIG]), repr([_BIG])),
        (lambda: run(dict(_SAMPLE, mode="classical", p1=_HUGE)), "<int of 16607 bits>"),
        (lambda: run(dict(_SAMPLE, n=_HUGE)), "<int of 16607 bits>"),
        (lambda: run(dict(_SAMPLE, seed=_HUGE)), "<int of 16607 bits>"),
        (lambda: min_disturbance_for_value(1.5, 0.1, None), "None"),
        (lambda: min_disturbance_for_value(1.5, 0.1, "abc"), "'abc'"),
    ],
    ids=[
        "ClassicalParams", "ClassicalMatchedProtocol", "MeasurementModel", "ContextualValues.symmetric",
        "Postselection", "TwoLevelState", "min_disturbance_v", "sweep_metric",
        "run_p1", "run_n", "run_seed", "grid_resolution_None", "grid_resolution_str",
    ],
)
def test_values_without_a_float_or_a_repr_are_validation_errors(call, shown):
    # each call once raised a bare OverflowError, ValueError or TypeError; an int too long for repr shows its size
    with pytest.raises(ValidationError) as err:
        call()
    assert f"got {shown}" in str(err.value)


class TestPostselectionNeverOccurs:
    """Every entry point that conditions on a final box raises one message when it never occurs."""

    @pytest.mark.parametrize("box, p1", [(1, 0.0), (2, 1.0)])
    def test_classical(self, box, p1):
        dist = joint_distribution(ClassicalParams(p1=p1, g=0.5, q=0.0, q0=0.0))
        expected = f"postselection never occurs: P(final box {box}) = 0"
        with pytest.raises(DomainError) as err:
            conditional_mean(dist, ContextualValues.symmetric(0.5), box)
        assert str(err.value) == expected

    @pytest.mark.parametrize("cv", [None, ContextualValues(2.0, -1.0)])
    def test_quantum(self, cv):
        i, m, f = TwoLevelState(a1=0.0, a2=1.0), MeasurementModel(0.5), TwoLevelState(a1=1.0, a2=0.0)
        with pytest.raises(DomainError) as err:
            if cv is None:
                conditional_mean_quantum(i, m, f)
            else:  # custom weights go through the joint table
                conditional_mean(joint_outcome_probs(i, m, f), cv, 2)
        assert str(err.value) == "postselection never occurs: P(final box 2) = 0"

    @pytest.mark.parametrize("box, p1", [(1, 0.0), (2, 1.0)])
    def test_cli_classical_mode(self, tmp_path, capsys, box, p1):
        path = tmp_path / "cfg.json"
        cfg = {"mode": "classical", "p1": p1, "g": 0.5, "q": 0.0, "q0": 0.0, "final_box": box}
        path.write_text(json.dumps(cfg))
        assert main(["--config", str(path)]) == 3
        assert capsys.readouterr().err == f"error: postselection never occurs: P(final box {box}) = 0\n"

    @pytest.mark.parametrize("metric", ["postselection_probability", "conditional_mean"])
    def test_matched_family_always_postselects(self, metric):
        # cos(pi/2) is 6e-17 in floating point, and g = 1e-16 exceeds it within the recipe's slack
        protocol = analysis.ClassicalMatchedProtocol(math.pi / 2)
        values = analysis.sweep_metric(protocol, metric, [1e-16, 6e-17]).values
        assert np.all(np.isfinite(values)) and np.all(values > 0.0)
