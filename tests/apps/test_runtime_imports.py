"""What a Bronze Standard enactment imports: numpy, never scipy or networkx.

scipy and networkx are test-only dependencies (the references of
``tests/properties/test_transform_oracle.py`` and
``tests/properties/test_graph_oracle.py``).  A fresh interpreter imports
the package, enacts the workflow and reports which of their modules it
loaded at each step; pytest's own process cannot answer, because the
oracle tests may have imported both into it already.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[2] / "src"

ENACT_TWO_PAIRS = """
import json
import sys

def loaded():
    tops = ("scipy", "networkx")
    return sorted(m for m in sys.modules if m.split(".")[0] in tops)

import repro
after_import = loaded()
from repro import Engine, OptimizationConfig
from repro.apps.bronze_standard import BronzeStandardApplication
from repro.experiments.calibration import make_experiment_grid
from repro.util.rng import RandomStreams

engine = Engine()
streams = RandomStreams(seed=3)
grid = make_experiment_grid(engine, streams)
result = BronzeStandardApplication(engine, grid, streams).enact(
    OptimizationConfig.sp_dp(), n_pairs=2
)
assert len(result.output_values("accuracy_rotation")) == 1
print(json.dumps({"import": after_import, "enactment": loaded()}))
"""


@pytest.fixture(scope="module")
def loaded_modules():
    """Heavy modules loaded by ``import repro`` and by a 2-pair enactment."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", ENACT_TWO_PAIRS],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout)


def _named(modules, top):
    return [m for m in modules if m.split(".")[0] == top]


def test_bronze_enactment_imports_no_scipy(loaded_modules):
    assert _named(loaded_modules["enactment"], "scipy") == []


@pytest.mark.parametrize("step", ["import", "enactment"])
def test_no_networkx_on_the_run_path(loaded_modules, step):
    assert _named(loaded_modules[step], "networkx") == []
