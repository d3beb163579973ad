"""What a Bronze Standard enactment imports: numpy and networkx, never scipy.

scipy is a test-only dependency (the reference of
``tests/properties/test_transform_oracle.py``).  A fresh interpreter
enacts the workflow and reports which scipy modules it loaded; pytest's
own process cannot answer, because the oracle test may have imported
scipy into it already.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"

ENACT_TWO_PAIRS = """
import sys
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
print(",".join(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""


def test_bronze_enactment_imports_no_scipy():
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
    assert result.stdout.strip() == "", f"scipy modules imported: {result.stdout.strip()}"
