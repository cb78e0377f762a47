"""Hypothesis profiles.  ``HYPOTHESIS_PROFILE=ci`` derandomizes every
property test, so a failure seen in CI reproduces locally with the same
setting; each test keeps its own ``max_examples``."""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
