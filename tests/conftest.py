"""Shared test settings.

Hypothesis runs derandomised and without its example database, so every
run of the suite draws the same examples and leaves no state behind.
"""

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves
    pass
else:
    settings.register_profile("repeatable", derandomize=True, database=None, deadline=None)
    settings.load_profile("repeatable")
