"""The record contract: the ten records the fitting verbs build are
plain classes on tasks._Record, and behave as the frozen dataclasses
they replace did.

Each expected repr is the text the dataclass printed for the same
sample. Records compare by class and fields and hash by their fields;
assignment and deletion raise AttributeError; _replace runs __init__
again, so its checks hold; copies compare equal.
"""

import copy
import inspect
import pickle

import pytest

from fitts3d.constants import InteractionKind
from fitts3d.metrics import ModelKind, _Model
from fitts3d.regression import (ComparisonRow, ConditionTable, DesignMatrix,
                                ModelFit, StepwiseReport, StepwiseStep,
                                condition_matrix)
from fitts3d.tasks import Pose, TaskSpec, Trial
from fitts3d.trial_io import TrialLog

_TASK = TaskSpec(3, 5.0, 10, phi=45, theta=30.5, alpha=90, omega=15,
                 interaction=InteractionKind.MANIPULATION)
_FIT = ModelFit(("id",), {"intercept": 0.25, "id": 0.125}, 0.9, 12, 1.5, 15.0)
_STEP = StepwiseStep("enter", "A", 12.5, 0.001, 0.8)

_TASK_REPR = ("TaskSpec(F=3.0, W=5.0, A=10.0, phi=45.0, theta=30.5, alpha=90.0, "
              "omega=15.0, interaction=<InteractionKind.MANIPULATION: 'manipulation'>)")
_FIT_REPR = ("ModelFit(predictor_names=('id',), coefficients={'intercept': 0.25, "
             "'id': 0.125}, r2=0.9, n=12, ss_res=1.5, ss_tot=15.0, "
             "degenerate_variance=False, dropped=())")
_STEP_REPR = "StepwiseStep(action='enter', name='A', f_stat=12.5, p_value=0.001, r2=0.8)"

# (sample, its dataclass repr, whether every field is hashable)
SAMPLES = [
    (Pose((1, 2, 3), (0, 190, -30)),
     "Pose(position=(1.0, 2.0, 3.0), rotation=(0.0, -170.0, -30.0))", True),
    (_TASK, _TASK_REPR, True),
    (Trial(_TASK, 1, True), f"Trial(task={_TASK_REPR}, mt=1.0, success=True)", True),
    (TrialLog((_TASK,), (0, 0), (0.5, 0.75), (True, False)),
     f"TrialLog(tasks=({_TASK_REPR},), task_index=(0, 0), mt=(0.5, 0.75), "
     "success=(True, False))", True),
    (_Model(("id",), "translation", "rotation", "values"),
     "_Model(names=('id',), translation='translation', rotation='rotation', "
     "values='values')", True),
    (DesignMatrix(("a", "b"), [[1, 2], [3, 4.5]]),
     "DesignMatrix(names=('a', 'b'), values=((1.0, 2.0), (3.0, 4.5)))", True),
    (_FIT, _FIT_REPR, False),
    (_STEP, _STEP_REPR, True),
    (StepwiseReport((_STEP,), ("A",), {"A": 80.0}, 0.8, _FIT),
     f"StepwiseReport(steps=({_STEP_REPR},), selected=('A',), "
     f"contributions={{'A': 80.0}}, r2=0.8, fit={_FIT_REPR}, hit_round_cap=False)",
     False),
    (ComparisonRow(ModelKind.FITTS, fit=_FIT),
     f"ComparisonRow(kind=<ModelKind.FITTS: 'fitts'>, fit={_FIT_REPR}, error=None)",
     False),
]
_IDS = [type(sample).__name__ for sample, _, _ in SAMPLES]


@pytest.mark.parametrize("sample,text,_", SAMPLES, ids=_IDS)
def test_repr_is_the_dataclass_text(sample, text, _):
    assert repr(sample) == text


@pytest.mark.parametrize("sample", [s for s, _, _ in SAMPLES], ids=_IDS)
def test_fields_are_the_constructor_parameters(sample):
    cls = type(sample)
    assert cls._fields == tuple(inspect.signature(cls).parameters)


@pytest.mark.parametrize("sample,_,hashable", SAMPLES, ids=_IDS)
def test_equal_fields_give_an_equal_record(sample, _, hashable):
    same = type(sample)(*(getattr(sample, name) for name in sample._fields))
    assert same == sample and same is not sample
    assert not same != sample
    if hashable:
        assert hash(same) == hash(sample)
    else:  # a dict field, as the dataclass had
        with pytest.raises(TypeError):
            hash(sample)
    twin = type("Twin", (type(sample),), {})
    other = twin(*(getattr(sample, name) for name in sample._fields))
    assert other != sample and sample != other


@pytest.mark.parametrize("sample", [s for s, _, _ in SAMPLES], ids=_IDS)
def test_record_is_frozen(sample):
    name = sample._fields[0]
    before = getattr(sample, name)
    with pytest.raises(AttributeError):
        setattr(sample, name, None)
    with pytest.raises(AttributeError):
        delattr(sample, name)
    with pytest.raises(AttributeError):
        sample.not_a_field = 1
    assert getattr(sample, name) is before


@pytest.mark.parametrize("sample", [s for s, _, _ in SAMPLES], ids=_IDS)
def test_copies_round_trip(sample):
    for dup in (copy.copy(sample), copy.deepcopy(sample),
                pickle.loads(pickle.dumps(sample))):
        assert type(dup) is type(sample)
        assert dup == sample and repr(dup) == repr(sample)


def test_replace_runs_the_checks():
    assert _TASK._replace(W=2) == TaskSpec(3, 2, 10, 45, 30.5, 90, 15,
                                           InteractionKind.MANIPULATION)
    with pytest.raises(ValueError, match="F and W must be positive"):
        _TASK._replace(W=0)
    with pytest.raises(ValueError, match="task_index must index tasks"):
        SAMPLES[3][0]._replace(task_index=(0, 1))
    with pytest.raises(TypeError):
        _TASK._replace(no_such_field=1)


def test_trials_are_built_on_first_use():
    log = TrialLog((_TASK,), (0, 0), (0.5, 25.0), (True, False))
    assert "trials" not in vars(log)
    trials = log.trials
    assert trials == (Trial(_TASK, 0.5, True), Trial(_TASK, 25.0, False))
    assert log.trials is trials and vars(log)["trials"] is trials
    # the cached trials are no field: equality and repr ignore them
    assert log == TrialLog(*(getattr(log, name) for name in log._fields))
    assert "trials" not in repr(log)


def test_design_table_is_no_field():
    specs = [TaskSpec(3.0, 5.0, A) for A in (12.0, 24.0, 36.0)]
    table = ConditionTable(TrialLog(tuple(specs), (0, 1, 2, 2), (1.0, 1.5, 2.0, 2.5),
                                    (True,) * 4))
    X, _ = condition_matrix(table, ("A",))
    plain = DesignMatrix(X.names, X.values)
    assert X._table is not None and plain._table is None
    assert X == plain and hash(X) == hash(plain) and repr(X) == repr(plain)
    assert X._replace()._table is None
