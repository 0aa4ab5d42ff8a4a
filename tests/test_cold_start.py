"""The package runs on numpy alone.

No module imports scipy: the tilted double well's optimum comes from the
cubic formula and the ranks from the package's own average-rank count.  The
check runs in a fresh interpreter whose ``import scipy`` fails, because the
test session has long since imported scipy as the oracle of
``test_oracles.py``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

SCRIPT = """
import contextlib, io, json, sys
from pathlib import Path


class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} is blocked")
        return None


sys.meta_path.insert(0, NoScipy())
import bareopt, bareopt.cli
from bareopt.diagnostics import export_events_csv

out = Path(sys.argv[1])
spec = bareopt.get_objective("double_well", 2)
outcome, log = bareopt.record_run("bip", "double_well", 2, max_fes=2000, seed=0,
                                  overrides={"k": 5})
export_events_csv(log, out / "events.csv")
table = bareopt.rank_algorithms({("a", "F1"): 1.0, ("b", "F1"): 1.0, ("c", "F1"): 0.5}, ["F1"])
with contextlib.redirect_stdout(io.StringIO()):
    codes = [bareopt.cli.main(["experiment", "--algos", "bip,gbde", "--funcs", "F7",
                               "--dims", "2", "--trials", "1", "--max-fes", "200",
                               "--out", str(out)]),
             bareopt.cli.main(["rank", "--csv", str(out / "trials.csv"),
                               "--out", str(out)])]
print(json.dumps({"loaded": sorted(m for m in sys.modules if m.split(".")[0] == "scipy"),
                  "optimum_value": float(spec.optimum_value).hex(),
                  "evals_used": outcome.evals_used,
                  "csv_rows": len((out / "events.csv").read_text().splitlines()),
                  "ranks": table.ranks["F1"],
                  "codes": codes,
                  "ranked": sorted(json.loads((out / "ranks.json").read_text())["average_rank"])}))
"""


def test_the_package_runs_with_scipy_blocked(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", SCRIPT, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout)
    assert result["loaded"] == []
    # the tilted well's optimum, from the cubic formula: 2 * f(x*) with x* ~ -2.0245
    assert result["optimum_value"] == "-0x1.9c20f7611f8ebp-3"
    # a header plus at least one row per evaluation
    assert result["evals_used"] == 2000 and result["csv_rows"] >= 2001
    # the tie between a and b shares the averaged rank
    assert result["ranks"] == {"a": 2.5, "b": 2.5, "c": 1.0}
    assert result["codes"] == [0, 0]
    assert result["ranked"] == ["bip", "gbde"]
