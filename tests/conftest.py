"""Shared hypothesis profile: fixed example order and no example database.

Derandomized does not mean the same examples in every run.  hypothesis
(6.155 at least; see ``_get_local_constants`` in
``hypothesis/internal/conjecture/providers.py``) pools the literal
constants of every loaded local module and now and then draws one of
them, so a test's examples depend on which test modules the run has
imported.  A failure seen in a full run may not recur when the test runs
alone: reproduce it in the same scope, or pin the example with
``@example``."""

from hypothesis import settings

settings.register_profile(
    "derandomized", derandomize=True, database=None, deadline=None, max_examples=200
)
settings.load_profile("derandomized")
