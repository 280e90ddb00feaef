import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from hypothesis import settings

# CI runs with --hypothesis-profile=ci: every Hypothesis test without its
# own budget, and every oracle-equivalence test through oracles.budget,
# draws ten times as many examples as a local run.
settings.register_profile("ci", max_examples=1000)
