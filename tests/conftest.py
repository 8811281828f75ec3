"""Shared test settings.

Every hypothesis property draws the same examples on every run, so a
failure in the suite reproduces on the next run.
"""

from hypothesis import settings

settings.register_profile("infospread", derandomize=True, deadline=None)
settings.load_profile("infospread")
