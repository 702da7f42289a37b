from dataclasses import replace

import pytest
from hypothesis import HealthCheck, settings

from ucfreq import ratlp

settings.register_profile(
    "suite",
    deadline=None,  # exact-arithmetic cases vary widely in per-example cost
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@pytest.fixture
def off_by_one_value(monkeypatch):
    """`ratlp._simplex` returns every optimum's value plus one, with the
    assignment and the dual it found."""
    simplex = ratlp._simplex

    def patched(*args):
        outcome = simplex(*args)
        return replace(outcome, value=outcome.value + 1) if isinstance(outcome, ratlp.Optimal) else outcome

    monkeypatch.setattr(ratlp, "_simplex", patched)
