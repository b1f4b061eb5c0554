"""Smoke tests of the benchmark itself (short mode).

    python3 -m pytest -q perfbench/tests

Each workload runs once untraced and once traced in ``--short`` mode (two
workers, small operations, the cheap part of the reach set), about a minute
in all on two CPUs.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import run  # noqa: E402
from tracer import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--short"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_short_run(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    kind = "per_layer" if trace else "end_to_end"
    expected = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert {k: v["unit"] for k, v in line["metrics"].items()} == expected
    values = {k: v["value"] for k, v in line["metrics"].items()}
    if trace:
        assert values["trace.layers_absent"] == 0
    else:
        assert all(v > 0 for v in values.values())


def test_spec_matches_code():
    import workloads

    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert list(workloads.WORKLOADS) == list(run.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == [
        tuple(m) for m in layers.PER_LAYER]
    assert SPEC["command"] == ["python3", "perfbench/run.py"]


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("density-sweep", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_tracer_patches_every_binding_and_reports_absent_layers():
    import loctimes
    import importlib

    density_mod = importlib.import_module("loctimes.density")
    flows_mod = importlib.import_module("loctimes.flows")
    original = flows_mod.flow_table
    tracer = Tracer(["flows.flow_table", "density.no_such_layer",
                     "density.DensityOnSimplex.__call__"]).install()
    try:
        assert density_mod.flow_table is flows_mod.flow_table is not original
        assert flows_mod.flow_table.cache_info() == original.cache_info()
        gen = loctimes.srw_generator(0, 2)
        loctimes.density_certified(gen, (0, 1, 2), 0, 2, [0.5, 0.7, 0.8])
        density_mod.DensityOnSimplex(gen, (0, 1, 2), 0, 2)([0.5, 0.7], 2.0)
    finally:
        tracer.uninstall()
    assert flows_mod.flow_table is original and density_mod.flow_table is original
    assert tracer.absent == ["density.no_such_layer"]
    summary = tracer.summary()
    assert summary["flows.flow_table"]["calls"] >= 2
    assert summary["density.DensityOnSimplex.__call__"]["calls"] == 1
