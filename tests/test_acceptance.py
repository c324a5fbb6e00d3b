"""Acceptance suite: one test per claim of ``fanov5 verify paper``.

The claims live in :func:`fanov5.checklist.claims`, so the command and this
suite check the same headline values at exact equality: each claim passes
when its computation equals its expected value.  Property sweeps
and CLI behaviour that are not claims are tested in the module test files.
"""

import pytest

from fanov5.checklist import claims


@pytest.mark.parametrize("claim", claims(), ids=lambda claim: claim.name)
def test_claim(claim):
    assert claim.compute() == claim.expected
