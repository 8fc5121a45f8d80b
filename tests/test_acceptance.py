"""Acceptance gate: every criterion at its declared tolerance.

Runs the shared suite from hjkam.acceptance (the same one behind
``hjkam accept``) and prints one pass/fail line per criterion.
"""

import pytest

from hjkam.acceptance import CRITERIA, run


@pytest.mark.parametrize("criterion", CRITERIA,
                         ids=[fn.__name__.replace("criterion_", "") for fn in CRITERIA])
def test_acceptance(criterion):
    result = run(criterion)
    print(result.line())
    assert result.passed, result.detail
