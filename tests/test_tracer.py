"""The benchmark tracer's wrapped names exist in the engine.

``perfbench/tracer.py`` skips a traced name it cannot find and reports its
metrics as 0, so a rename in the engine would silently zero a layer's
numbers; this keeps every traced name resolvable.
"""

import importlib
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def tracer():
    sys.path.insert(0, str(PERFBENCH))
    try:
        yield importlib.import_module("tracer")
    finally:
        sys.path.remove(str(PERFBENCH))


def test_every_traced_function_resolves(tracer):
    missing = [f"{module}.{attr}" for _, module, attr in tracer.TRACED_FUNCTIONS
               if not callable(getattr(importlib.import_module(module), attr, None))]
    assert missing == []


def test_group_internals_the_tracer_patches_exist():
    from engelfit import group

    assert callable(group._bfs_closure)
    assert callable(group.GroupHandle.conjugacy_classes)
    assert isinstance(group.GroupHandle.fingerprint, property)
