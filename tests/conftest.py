import os

from hypothesis import settings

# CI runs with HYPOTHESIS_PROFILE=ci: the same examples on every run, so a
# property failure there reproduces; local runs keep exploring.
settings.register_profile("ci", derandomize=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
