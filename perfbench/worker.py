"""One measuring process of the loctimes benchmark.

Started by ``run.py``; imports the library from the checkout's ``src``,
generates its inputs, warms up, then runs timed operations of one workload
stream until its time budget is spent and at least the workload's
``min_ops`` operations are done.  Between operations, outside their timing,
it runs the checks and the reference routine that gives its speed index.
Prints one JSON object as its last line of standard output.

    python3 perfbench/worker.py --workload verify-density --seed 1 --stream 0 \
        --seconds 4 --trace 0 --spawned-at <time.time() of the parent> --out DIR
"""

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REF_EVERY_S = 1.0    # op seconds between two runs of the reference routine


def _import_library():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import loctimes

    if not Path(loctimes.__file__).resolve().is_relative_to(src.resolve()):
        raise ImportError(f"loctimes imported from {loctimes.__file__}, not from {src}")
    return loctimes


def _versions(loctimes) -> dict:
    import numpy
    import scipy

    blas = {}
    try:
        blas = dict(numpy.__config__.CONFIG["Build Dependencies"]["blas"])
    except (AttributeError, KeyError, TypeError):
        pass
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "loctimes": getattr(loctimes, "__version__", "unknown"),
        "blas": {k: blas.get(k) for k in ("name", "version")},
    }


def reference_seconds(np) -> float:
    """Time of a fixed routine that does not touch loctimes: interpreted
    Python, many small numpy calls and large-array numpy work, the mix the
    workloads run.  It is the worker's machine-speed index."""
    t0 = time.perf_counter()
    for _ in range(3):
        total, table = 0.0, {}
        for i in range(30000):
            total += (i * 0.5) ** 0.5
            table[i & 255] = total
        a = np.arange(3000, dtype=float) / 3000.0
        x = np.zeros(3)
        for i in range(2000):
            x = x + np.sqrt(a[i:i + 3])
        big = np.random.default_rng(0).random((400_000, 3))
        idx = np.flatnonzero(big[:, 0] > 0.3)
        for _ in range(4):
            big = big[idx[idx < big.shape[0]]] + 1.0
    return time.perf_counter() - t0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--stream", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--short", action="store_true")
    args = parser.parse_args(argv)

    loctimes = _import_library()
    import numpy
    import workloads
    from tracer import Tracer, calibrate_overhead
    import layers

    os.makedirs(args.out, exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](args.short, args.out)
    workload.warm_up()
    tracer = None
    if args.trace:
        tracer = layers.make_tracer(Tracer)
    setup_s = time.time() - args.spawned_at

    op_s, digests, failures, stats = [], [], [], {}
    ref_s = [reference_seconds(numpy)]
    since_ref = 0.0
    started = time.perf_counter()
    j = 0
    while j < workload.min_ops or time.perf_counter() - started < args.seconds:
        inp = workload.make_input(args.seed, args.stream, j)
        if tracer is not None:
            tracer.enabled = True
        t0 = time.perf_counter()
        try:
            out = workload.run(inp)
        except loctimes.errors.LoctimesError as exc:
            out = exc
        op_s.append(time.perf_counter() - t0)
        if tracer is not None:
            tracer.enabled = False
        since_ref += op_s[-1]
        if since_ref >= REF_EVERY_S:
            ref_s.append(reference_seconds(numpy))
            since_ref = 0.0
        if isinstance(out, loctimes.errors.LoctimesError):
            digest, failed, op_stats = "raised", [f"raised {type(out).__name__}: {out}"], {}
        else:
            digest, failed, op_stats = workload.check(inp, out)
        digests.append(digest)
        failures.extend([j, f"op {j}: {f}"] for f in failed)
        for key, value in op_stats.items():
            stats.setdefault(key, []).append(value)
        j += 1

    ref_s.append(reference_seconds(numpy))
    result = {
        "setup_s": setup_s,
        "ref_s": ref_s,
        "min_ops": workload.min_ops,
        "op_s": op_s,
        "digests": digests,
        "failures": failures,
        "stats": stats,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "versions": _versions(loctimes),
    }
    if tracer is not None:
        tracer.uninstall()
        result["trace"] = layers.reduce(tracer, calibrate_overhead())
        tracer.write_spans(os.path.join(args.out, "spans.csv.gz"))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
