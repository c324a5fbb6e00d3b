"""The benchmark's tracer patches fanov5 functions by name: each one must exist.

``perfbench/tracing.py`` looks every entry of ``TRACED``, and
``fanov5.linalg.subspaces``, up by name when a traced run starts, so a
function renamed or moved out of its module breaks every traced run.  This
catches it in the unit tests instead.
"""

import importlib
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import tracing  # noqa: E402

TARGETS = [(module, attr) for module, attr, _ in tracing.TRACED] + [("fanov5.linalg", "subspaces")]


@pytest.mark.parametrize("module, attr", TARGETS, ids=[f"{m}.{a}" for m, a in TARGETS])
def test_traced_function_exists(module, attr):
    assert callable(getattr(importlib.import_module(module), attr, None))
