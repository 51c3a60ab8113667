"""The names the command line parser offers as choices, and the values
they carry: experiments, interaction kinds with their timeouts, the
condition fields, the stepwise candidates and the report formats.

This module imports only enum, so the CLI builds its parser without
loading the layers a verb does not run.
"""

from enum import Enum

POINTING_TIMEOUT_S = 15.0
MANIPULATION_TIMEOUT_S = 20.0

# the fields that make up a condition, in TaskSpec declaration order
CONDITION_FIELDS = ("F", "W", "A", "phi", "theta", "alpha", "omega")

# the TaskSpec fields stepwise selection may take as candidate columns;
# the direction angle enters through its sine, matching the directional
# term of the angle-aware models
STEPWISE_CANDIDATES = CONDITION_FIELDS

TABLE_FORMAT = "table"
JSON_FORMAT = "json-like"
FORMATS = (TABLE_FORMAT, JSON_FORMAT)


class Experiment(str, Enum):
    E1 = "e1"
    E2 = "e2"
    E3 = "e3"
    E4 = "e4"


class InteractionKind(str, Enum):
    POINTING = "pointing"
    MANIPULATION = "manipulation"

    @property
    def timeout_s(self) -> float:
        if self is InteractionKind.POINTING:
            return POINTING_TIMEOUT_S
        return MANIPULATION_TIMEOUT_S
