"""Trial logs stated row by row, for tests.

trial_log turns (task, mt, success) rows into the TrialLog columns that
generate_trials and read_trials return: one spec per distinct task
object, in first-appearance order, so that equal specs differing in the
sign of a zero stay apart, as they do in a log written with both.
task_specs draws a TaskSpec at a few levels of each task variable.
"""

from hypothesis import strategies as st

from fitts3d import InteractionKind, TaskSpec, TrialLog

task_specs = st.builds(
    TaskSpec,
    F=st.sampled_from([2.0, 4.0]),
    W=st.sampled_from([2.0, 5.0]),
    A=st.sampled_from([0.0, 6.0, 12.0]),
    phi=st.sampled_from([0.0, 90.0, 225.0]),
    theta=st.sampled_from([0.0, 45.0]),
    alpha=st.sampled_from([0.0, 45.0]),
    omega=st.sampled_from([0.0, 7.5]),
    interaction=st.sampled_from(list(InteractionKind)))


def trial_log(rows) -> TrialLog:
    position, tasks, task_index, mts, successes = {}, [], [], [], []
    for task, mt, success in rows:
        k = position.get(id(task))
        if k is None:  # tasks holds the task, so its id stays unique
            k = position[id(task)] = len(tasks)
            tasks.append(task)
        task_index.append(k)
        mts.append(mt)
        successes.append(success)
    return TrialLog(tuple(tasks), tuple(task_index), tuple(mts), tuple(successes))
