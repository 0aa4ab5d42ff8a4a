"""What a fresh interpreter loads when it imports the package.

The sampler, the baselines, the harness and the command line need numpy
alone.  scipy.optimize (``brentq``, for the tilted double well's optimum)
and scipy.stats (``rankdata``, for rankings) each cost more to import than
the rest of the package, so they are imported inside the functions that
call them.  The check runs in a subprocess because the test session has
long since imported both.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

SCRIPT = """
import json, sys
import bareopt, bareopt.cli
loaded = sorted(m for m in ("scipy.stats", "scipy.optimize") if m in sys.modules)
spec = bareopt.get_objective("double_well", 2)
table = bareopt.rank_algorithms({("a", "F1"): 1.0, ("b", "F1"): 1.0, ("c", "F1"): 0.5}, ["F1"])
print(json.dumps({"loaded_by_import": loaded,
                  "optimum_value": float(spec.optimum_value).hex(),
                  "ranks": table.ranks["F1"]}))
"""


def test_import_loads_no_scipy_submodule_and_the_lazy_calls_still_work():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", SCRIPT], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout)
    assert result["loaded_by_import"] == []
    # the tilted well's optimum, found by brentq: 2 * f(x*) with x* ~ -2.0245
    assert result["optimum_value"] == "-0x1.9c20f7611f8ebp-3"
    # the tie between a and b shares the averaged rank
    assert result["ranks"] == {"a": 2.5, "b": 2.5, "c": 1.0}
