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
        kind, fields = simplex(*args)
        if kind is ratlp.Optimal:
            value, assignment, dual = fields
            fields = (value + 1, assignment, dual)
        return kind, fields

    monkeypatch.setattr(ratlp, "_simplex", patched)
