"""Test-wide settings: hypothesis draws the same examples on every run, and
no example is failed for taking long."""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")
