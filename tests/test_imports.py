import os
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")

# run in a fresh interpreter: the test modules import scipy.stats themselves
PROBE = """
import sys
import loctimes, loctimes.cli, loctimes.harness
print(sorted({"scipy.stats", "scipy.optimize", "scipy.linalg"} & set(sys.modules)))
print(loctimes.rescaled_chi_discrete(1, 1.0, [0.0, 0.0, 0.0]))
print(loctimes.harness.halfspace_rate_infimum(loctimes.srw_generator(0, 2), (0, 1, 2), 1, 0.5))
"""


def test_import_loads_no_stats_optimize_or_linalg():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-c", PROBE],
                         env=env, capture_output=True, text=True, check=True).stdout
    loaded, chi, rate = out.splitlines()
    assert loaded == "[]"
    # rescaled_chi_discrete needs no scipy; the functions that import
    # scipy.optimize on first call still answer
    assert abs(float(chi)) < 1e-10
    assert 0.0 < float(rate) < float("inf")
