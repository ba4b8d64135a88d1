import os

from hypothesis import settings

# CI fuzzes the codec, quorum, round, acceptor, proposer, kv and checker
# properties harder with HYPOTHESIS_PROFILE=ci: among them the proposer's
# read pool, its batched writes and its explicit retry round, the
# incremental read pool against the reference scans, on its own
# (test_quorum.py::test_read_pool_agrees_with_the_reference_scans_after_every_reply)
# and in a read across attempts
# (test_proposer.py::test_read_across_attempts_answers_from_every_reply_delivered),
# the acceptor's read path, which must answer from the cell and keep it
# (test_acceptor.py::test_read_prepare_answers_from_the_cell_and_keeps_it),
# and the sequence checker's sorted sweeps against its pairwise reference
# (test_checker.py::test_sequence_sweeps_agree_with_the_pairwise_reference).
# Other runs keep hypothesis's default profile.
settings.register_profile("ci", max_examples=1000)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
