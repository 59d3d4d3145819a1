"""Shared hypothesis profile: fixed example order and no example database,
so property tests run the same examples on every machine and every run."""

from hypothesis import settings

settings.register_profile(
    "derandomized", derandomize=True, database=None, deadline=None, max_examples=200
)
settings.load_profile("derandomized")
