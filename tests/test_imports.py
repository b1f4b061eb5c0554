import ast
import os
import subprocess
import sys
from pathlib import Path

import loctimes

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


def test_public_api_is_pinned():
    # adding or removing an export is a deliberate edit of this list
    assert sorted(loctimes.__all__) == [
        "DensityEvaluation", "Generator", "RateSolution", "density", "density_batch",
        "density_certified", "density_quadrature", "density_rows", "density_tree",
        "density_tridiagonal", "density_upper_bound", "edge_kernel", "errors", "eta",
        "generator_from_triples", "ldp_probability_bound", "ldp_varadhan_bound", "rate_general",
        "rate_symmetric", "rescaled_chi_discrete", "rk_fixed_time_check", "rk_inner_density",
        "rk_outer_atom", "rk_outer_density", "sample_paths_fixed_time",
        "sample_paths_inverse_local_time", "sample_rk_profile_batch", "srw_generator",
        "validate_generator",
    ]
    assert all(hasattr(loctimes, name) for name in loctimes.__all__)


def test_harness_and_cli_use_no_private_density_name():
    # the routed density is reached through density_rows and the other
    # public names; the modules above the engine import none of its
    # underscore names
    package = Path(SRC) / "loctimes"
    for name in ("harness.py", "cli.py"):
        tree = ast.parse((package / name).read_text())
        imported = [alias.name for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom)
                    and (node.level, node.module) in ((1, "density"), (0, "loctimes.density"))
                    for alias in node.names]
        assert imported, name
        assert not [n for n in imported if n.startswith("_")], name
