"""Trial logs stated row by row, for tests.

trial_log turns (task, mt, success) rows into the TrialLog columns that
generate_trials and read_trials return: one spec per distinct task
object, in first-appearance order, so that equal specs differing in the
sign of a zero stay apart, as they do in a log written with both.
"""

from fitts3d import TrialLog


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
