import sys

import pytest

from covertt.semantics import Evaluator
from covertt.terms import Flags

sys.setrecursionlimit(100_000)


@pytest.fixture
def small_budget(monkeypatch):
    """Every evaluator built during the test gets a budget of 100 steps, so
    a 150-deep ``helpers.nested_identity`` exhausts it: evaluating it takes
    one step per application."""
    init = Evaluator.__init__

    def limited(self, globals_env=None, flags=Flags(), step_limit=None):
        init(self, globals_env, flags, 100)

    monkeypatch.setattr(Evaluator, "__init__", limited)
