"""Benchmark of loctimes: throughput of its verification experiments and of
one-shot density requests, with deterministic correctness gates.

    python3 perfbench/run.py --workload verify-density --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the library is imported from ``src``.  One
run starts WORKERS measuring processes one after another, each with a share
of ``--seconds``, then evaluates the reach set (``reach.py``) in one more
process.  Workers ``k`` and ``k + STREAMS`` replay the same input stream, so
every operation both of them ran must give byte-identical output.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics (``layers.PER_LAYER``) with
``--trace 1``.  The full run record (environment, latency diagnostics, reach
set, statistical-check failures) is written to
``.perfbench_out/<workload>-seed<seed>-trace<trace>.json``.

End-to-end metrics.  A shared 2-CPU VM changes speed by 20-40% over minutes,
alike for interpreted Python and numpy work, so raw times of two runs
minutes apart differ by more than a program change worth catching.  Each worker therefore times a fixed reference routine that does
not use loctimes (``worker.reference_seconds``) before, during (every
``worker.REF_EVERY_S`` op seconds) and after its timed loop; the mean is the
worker's speed index, and its seconds are scaled to a machine on which the
routine takes REF_NOMINAL_S.  Raw values stay in the run record.

* ``ops_per_s``: timed operations completed per (scaled) second of operation
  time, over all workers (closed loop, one client, one process at a time,
  BLAS on one thread).
* ``setup_s``: median over the workers of the (scaled) time from process
  start to the first timed operation (imports, inputs, warm-up).
* ``peak_rss_mb``: median over the workers of the peak resident memory.
* ``ops_ok_frac``: share of the fixed gate set (the first ``min_ops`` inputs
  of each stream) plus the reach set that passed every correctness gate, each
  input counted once whatever the number of operations that fit in a run.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import layers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("verify-density", "verify-rayknight", "density-sweep")
WORKERS = 4
STREAMS = 2
DEADLINE_S = 170.0
REF_NOMINAL_S = 0.1


class RunError(Exception):
    """A worker or the reach process failed or ran out of time."""


def _read_steal():
    """(steal, total) CPU ticks of the machine from /proc/stat, if readable."""
    try:
        with open("/proc/stat") as fh:
            fields = [int(v) for v in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return fields[7] if len(fields) > 7 else 0, sum(fields)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _spawn(cmd, env, deadline) -> dict:
    """Run one child to completion (killed at the deadline); its last stdout
    line parsed as JSON."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RunError("no time left for " + " ".join(cmd[1:3]))
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise RunError(f"timed out: {' '.join(cmd[1:])}") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RunError(f"exit {proc.returncode}: {' '.join(cmd[1:])}")
    return json.loads(lines[-1])


def _percentiles(values):
    if not values:
        return {"count": 0}
    p90 = statistics.quantiles(values, n=10)[8] if len(values) > 1 else values[0]
    return {"count": len(values), "p50_ms": 1e3 * statistics.median(values),
            "p90_ms": 1e3 * p90}


def _speed(worker: dict) -> float:
    """Nominal-machine seconds per second of this worker (below 1 when the
    machine ran slower than nominal)."""
    return REF_NOMINAL_S / statistics.fmean(worker["ref_s"])


def measure(workload: str, seed: int, seconds: float, trace: bool, short: bool = False):
    """Run the workers and the reach set; (result line, run record)."""
    deadline = time.monotonic() + DEADLINE_S
    n_workers, n_streams = (2, 1) if short else (WORKERS, STREAMS)
    # worker outputs are overwritten run after run; only the record is kept
    out = ROOT / ".perfbench_out" / workload
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    steal_before = _read_steal()

    workers = []
    for k in range(n_workers):
        stream = k % n_streams
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
               "--seed", str(seed), "--stream", str(stream),
               "--seconds", repr(seconds / n_workers), "--trace", str(int(trace)),
               "--out", str(out / f"worker{k}")]
        if short:
            cmd.append("--short")
        result = _spawn(cmd + ["--spawned-at", repr(time.time())], env, deadline)
        result["stream"] = stream
        workers.append(result)
    reach_cmd = [sys.executable, str(HERE / "reach.py")] + (["--short"] if short else [])
    reach = _spawn(reach_cmd, env, deadline)
    steal_after = _read_steal()

    # gates: every op's own gates, then byte-identical replays per stream
    failed_ops = {(k, j) for k, w in enumerate(workers) for j, _ in w["failures"]}
    problems = [f"worker {k} {msg}" for k, w in enumerate(workers) for _, msg in w["failures"]]
    gate_ok = []
    for stream in range(n_streams):
        members = [k for k, w in enumerate(workers) if w["stream"] == stream]
        common = min(len(workers[k]["digests"]) for k in members)
        for j in range(common):
            digests = {workers[k]["digests"][j] for k in members}
            if len(digests) > 1:
                problems.append(f"stream {stream} op {j}: outputs differ between processes")
                failed_ops.update((k, j) for k in members)
        for j in range(workers[members[0]]["min_ops"]):
            gate_ok.append(all((k, j) not in failed_ops for k in members))
    reach_ok = [r["ok"] for r in reach]

    op_s = [t for w in workers for t in w["op_s"]]
    ops, op_seconds = len(op_s), sum(op_s)
    stats = {}
    for w in workers:
        for key, values in w["stats"].items():
            stats.setdefault(key, []).extend(values)
    if trace:
        mass_rel_err = statistics.fmean(stats.get("mass_rel_err", [0.0]))
        values, trace_info = layers.combine(
            [w["trace"] for w in workers], ops, op_seconds, mass_rel_err)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit, _ in layers.PER_LAYER}
    else:
        trace_info = None
        metrics = {
            "ops_per_s": {"value": ops / sum(sum(w["op_s"]) * _speed(w) for w in workers),
                          "unit": "1/s"},
            "setup_s": {"value": statistics.median(w["setup_s"] * _speed(w) for w in workers),
                        "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(w["peak_rss_mb"] for w in workers),
                            "unit": "MB"},
            "ops_ok_frac": {"value": (sum(gate_ok) + sum(reach_ok))
                            / (len(gate_ok) + len(reach_ok)), "unit": "ratio"},
        }
    correct = not problems and all(gate_ok)
    line = {"correct": correct, "attempted": ops, "failed": len(failed_ops),
            "metrics": metrics}

    steal = None
    if steal_before and steal_after:
        ticks = steal_after[1] - steal_before[1]
        steal = {"steal_ticks": steal_after[0] - steal_before[0], "total_ticks": ticks}
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "short": short, "result": line, "problems": problems,
        "timed_ok_frac": sum(gate_ok) / len(gate_ok),
        "reach": reach,
        "raw_ops_per_s": ops / op_seconds,
        "raw_setup_s": statistics.median(w["setup_s"] for w in workers),
        "latency_diagnostics": _percentiles(op_s),
        "stat_check_failures": {k[len("stat_fail."):]: sum(v) for k, v in stats.items()
                                if k.startswith("stat_fail.")},
        "stats": {k: statistics.fmean(v) for k, v in stats.items()
                  if not k.startswith("stat_fail.")},
        "workers": [{"stream": w["stream"], "setup_s": w["setup_s"], "ops": len(w["op_s"]),
                     "op_seconds": sum(w["op_s"]), "peak_rss_mb": w["peak_rss_mb"],
                     "reference_s": w["ref_s"], "speed": _speed(w),
                     "latency": _percentiles(w["op_s"])} for w in workers],
        "trace_info": trace_info,
        "environment": {
            "versions": workers[0]["versions"],
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "cpu_model": _cpu_model(),
            "blas_threads": {k: env[k] for k in
                             ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
            "cpu_steal": steal,
        },
    }
    out.mkdir(parents=True, exist_ok=True)
    with open(out.parent / f"{workload}-seed{seed}-trace{int(trace)}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    return line, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--short", action="store_true",
                        help="smoke mode: two workers, small operations, cheap reach set")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "loctimes" / "__init__.py").is_file():
        print(f"no loctimes sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        line, record = measure(args.workload, args.seed, args.seconds,
                               bool(args.trace), args.short)
    except RunError as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    for problem in record["problems"]:
        print(problem, file=sys.stderr)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
