"""Every function the benchmark tracer wraps must still exist.

perfbench/tracer.py looks fitts3d functions up by module and attribute
name; a rename would otherwise surface only in the benchmark's own
smoke run.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _wrapped():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return [(module, attr) for _, module, attr, _ in tracer.WRAPPED]


@pytest.mark.parametrize("module,attr", _wrapped())
def test_wrapped_name_resolves(module, attr):
    owner = importlib.import_module(module)
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner)
