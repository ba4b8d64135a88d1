import os

from hypothesis import settings

# CI fuzzes the codec harder with HYPOTHESIS_PROFILE=ci; other runs keep
# hypothesis's default profile.
settings.register_profile("ci", max_examples=1000)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
