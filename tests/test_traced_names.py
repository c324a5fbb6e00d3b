"""The benchmark reaches fanov5 by name: each name it uses must exist.

``perfbench/tracing.py`` looks every entry of ``TRACED``, and
``fanov5.linalg.subspaces``, up by name when a traced run starts, so a
function renamed or moved out of its module breaks every traced run.
``perfbench/workloads.py`` builds its inputs and runs its operations
through the names in ``WORKLOAD_ENTRIES``, so one that disappears (the
``make_rep`` alias, say) breaks every run.  This catches both in the unit
tests instead.
"""

import importlib
import sys
from pathlib import Path

import pytest

from fanov5.linalg import RationalField

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import tracing  # noqa: E402

TARGETS = [(module, attr) for module, attr, _ in tracing.TRACED] + [("fanov5.linalg", "subspaces")]

WORKLOAD_ENTRIES = [
    ("fanov5.quiver", "make_rep"),
    ("fanov5.bundles", "catalog"),
    ("fanov5.bundles", "twist"),
    ("fanov5.chow", "catalog_class"),
    ("fanov5.linalg", "PrimeField"),
]


@pytest.mark.parametrize("module, attr", TARGETS, ids=[f"{m}.{a}" for m, a in TARGETS])
def test_traced_function_exists(module, attr):
    assert callable(getattr(importlib.import_module(module), attr, None))


@pytest.mark.parametrize("module, attr", WORKLOAD_ENTRIES, ids=[f"{m}.{a}" for m, a in WORKLOAD_ENTRIES])
def test_workload_entry_exists(module, attr):
    assert callable(getattr(importlib.import_module(module), attr, None))


def test_workload_rational_field_exists():
    # linalg.QQ is the field value the workloads pass, not a callable
    qq = getattr(importlib.import_module("fanov5.linalg"), "QQ", None)
    assert isinstance(qq, RationalField) and callable(qq.normalize)
