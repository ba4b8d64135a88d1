import os

from hypothesis import settings

# CI fuzzes the codec, quorum, round, acceptor, proposer and kv properties
# harder with HYPOTHESIS_PROFILE=ci: among them the proposer's read pool,
# its batched writes and its explicit retry round. Other runs keep
# hypothesis's default profile.
settings.register_profile("ci", max_examples=1000)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
