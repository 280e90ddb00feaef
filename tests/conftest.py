import importlib.util
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

import pytest
from hypothesis import settings

# CI runs with --hypothesis-profile=ci: every Hypothesis test without its
# own budget, and every oracle-equivalence test through oracles.budget,
# draws ten times as many examples as a local run. A failure prints the
# @reproduce_failure blob that replays it under the same Hypothesis version.
settings.register_profile("ci", max_examples=1000, print_blob=True)


@pytest.fixture(scope="session")
def perfbench_scenes():
    """perfbench/scenes.py, the benchmark's scene generator, as a module."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "scenes.py"
    spec = importlib.util.spec_from_file_location("perfbench_scenes", path)
    scenes = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules
    sys.modules[spec.name] = scenes
    spec.loader.exec_module(scenes)
    return scenes
