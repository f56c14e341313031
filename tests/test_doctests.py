"""Doctest examples on the public API, wired into the tier-1 run.

CI additionally runs ``pytest --doctest-modules`` over the same
modules; this file keeps the examples exercised by the plain
``python -m pytest`` invocation too.
"""

import doctest

import pytest

import repro.api.config
import repro.api.dataframe
import repro.api.session
import repro.stats

DOCTESTED_MODULES = [
    repro.api.config,
    repro.api.session,
    repro.api.dataframe,
    repro.stats,
]


@pytest.mark.parametrize(
    "module", DOCTESTED_MODULES,
    ids=[m.__name__ for m in DOCTESTED_MODULES])
def test_module_doctests(module):
    result = doctest.testmod(module, verbose=False)
    assert result.attempted > 0, f"{module.__name__} has no doctests"
    assert result.failed == 0, (
        f"{result.failed} doctest failures in {module.__name__}")
