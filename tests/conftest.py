"""Fixtures shared across the test modules.

``cold_caches`` clears every ``functools`` cache in the loaded ``gassner``
modules, as the benchmark does before each command, so a test that counts
or records the work of a computation sees all of it.  ``breakdown_exact``
evaluates the two 28-letter breakdown words exactly once per session
(about 1.4 s each); the matrices are immutable, so tests may share them.
"""

import sys

import pytest


def clear_gassner_caches() -> None:
    for name, module in list(sys.modules.items()):
        if name == "gassner" or name.startswith("gassner."):
            for value in list(vars(module).values()):
                if hasattr(value, "cache_clear"):
                    value.cache_clear()


@pytest.fixture
def cold_caches():
    clear_gassner_caches()


@pytest.fixture(scope="session")
def breakdown_exact():
    """Exact images of ``BREAKDOWN_WORD_TEXTS`` on 4 strands, in order."""
    from gassner.braid import evaluate_exact, parse_word
    from gassner.search import BREAKDOWN_WORD_TEXTS

    return tuple(evaluate_exact(parse_word(text, 4)) for text in BREAKDOWN_WORD_TEXTS)
