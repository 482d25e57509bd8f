"""Hypothesis profiles: `HYPOTHESIS_PROFILE=ci` fixes the examples drawn, so
the property suites cannot fail on one run and pass on the next."""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
