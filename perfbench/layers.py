"""Traced layers of loctimes and the per-layer metrics reduced from them.

Standard library only: ``run.py`` reads the metric list without importing
numpy.  Every count and time is per timed operation of the traced run, so a
faster program does not change it merely by fitting more operations in.
"""

from typing import Dict, List, Tuple

LAYERS = (
    "harness.run_suite",
    "harness.expected_cell_masses",
    "density.density_certified",
    "density.torus_series",
    "density.density_quadrature",
    "density.density_tridiagonal",
    "density.DensityOnSimplex.__call__",
    "flows.flow_table",
    "bessel.edge_kernel",
    "bessel.edge_kernel_d",
    "bessel.bessel_i0",
    "bessel.bessel_i1",
    "rates.rate_general",
    "rates.density_upper_bound",
    "montecarlo.sample_paths_fixed_time",
    "montecarlo.sample_paths_inverse_local_time",
    "rayknight.sample_rk_profile_batch",
    "chain.simulate_fixed_time",
    "chain.simulate_inverse_local_time",
)

GROUPS = {
    "bessel": ("bessel.edge_kernel", "bessel.edge_kernel_d",
               "bessel.bessel_i0", "bessel.bessel_i1"),
    # everything below the experiment dispatch: its share of op time is how
    # much of an operation the traced layers explain
    "below_run_suite": tuple(l for l in LAYERS if l != "harness.run_suite"),
}

# (name, unit, better); the per-operation metrics of a traced run
PER_LAYER = (
    ("flows.flow_table.calls", "1/op", "lower"),
    ("flows.flow_table.misses", "1/op", "lower"),
    ("flows.flow_table.hit_ratio", "ratio", "higher"),
    ("flows.flow_table.cold_s", "s/op", "lower"),
    ("flows.flow_table.rows", "1/op", "lower"),
    ("density.density_certified.calls", "1/op", "lower"),
    ("density.density_certified.busy_s", "s/op", "lower"),
    ("density.density_certified.self_s", "s/op", "lower"),
    ("density.torus_series.calls", "1/op", "lower"),
    ("harness.expected_cell_masses.busy_s", "s/op", "lower"),
    ("harness.expected_cell_masses.density_calls", "1/op", "lower"),
    ("harness.expected_cell_masses.flagged_cells", "1/op", "lower"),
    ("harness.expected_cell_masses.excluded_cells", "1/op", "lower"),
    ("harness.expected_cell_masses.mass_rel_err", "ratio", "lower"),
    ("density.density_quadrature.calls", "1/op", "lower"),
    ("density.density_quadrature.busy_s", "s/op", "lower"),
    ("density.density_tridiagonal.calls", "1/op", "lower"),
    ("density.density_tridiagonal.busy_s", "s/op", "lower"),
    ("bessel.edge_kernel.calls", "1/op", "lower"),
    ("bessel.edge_kernel_d.calls", "1/op", "lower"),
    ("bessel.busy_s", "s/op", "lower"),
    ("rates.rate_general.calls", "1/op", "lower"),
    ("rates.rate_general.busy_s", "s/op", "lower"),
    ("rates.rate_general.iterations", "1/op", "lower"),
    ("rates.density_upper_bound.busy_s", "s/op", "lower"),
    ("montecarlo.sample_paths_fixed_time.busy_s", "s/op", "lower"),
    ("montecarlo.sample_paths_fixed_time.paths", "1/op", "higher"),
    ("montecarlo.sample_paths_fixed_time.jumps", "1/op", "lower"),
    ("montecarlo.sample_paths_inverse_local_time.busy_s", "s/op", "lower"),
    ("montecarlo.sample_paths_inverse_local_time.paths", "1/op", "higher"),
    ("montecarlo.sample_paths_inverse_local_time.jumps", "1/op", "lower"),
    ("rayknight.sample_rk_profile_batch.busy_s", "s/op", "lower"),
    ("rayknight.sample_rk_profile_batch.profiles", "1/op", "higher"),
    ("harness.run_suite.self_s", "s/op", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
    ("trace.layers_absent", "count", "lower"),
)


def make_tracer(tracer_cls):
    """An installed, disabled tracer over LAYERS with the observers that
    record counters."""
    tracer = None

    def observe(counter_fn):
        def observer(args, kwargs, result, index):
            try:
                counter_fn(result, index)
            except (AttributeError, TypeError, IndexError, ValueError, KeyError):
                # the layer's result changed shape: report, never crash
                name = counter_fn.__name__
                if name not in tracer.absent:
                    tracer.absent.append(name)
        return observer

    def flow_misses():
        return tracer.originals["flows.flow_table"].cache_info().misses

    last_misses = [0]

    def flows_flow_table_cache_info(table, index):
        misses = flow_misses()
        if misses > last_misses[0]:
            start, end = tracer.spans[index][1:3]
            tracer.count("flow_misses")
            tracer.count("flow_cold_s", end - start)
            tracer.count("flow_rows", table.counts.shape[0])
        last_misses[0] = misses

    def montecarlo_sample_paths_fixed_time(batch, index):
        tracer.count("fixed_paths", batch.local_times.shape[0])
        tracer.count("fixed_jumps", int(batch.jumps.sum()))

    def montecarlo_sample_paths_inverse_local_time(batch, index):
        tracer.count("inverse_paths", batch.local_times.shape[0])
        tracer.count("inverse_jumps", int(batch.jumps.sum()))

    def rayknight_sample_rk_profile_batch(result, index):
        tracer.count("profiles", result[1].shape[0])

    def rates_rate_general(solution, index):
        tracer.count("rate_iterations", solution.iterations)

    def harness_expected_cell_masses(result, index):
        _, excluded, flagged = result
        tracer.count("excluded_cells", excluded)
        tracer.count("flagged_cells", flagged)

    observers = {
        "flows.flow_table": observe(flows_flow_table_cache_info),
        "montecarlo.sample_paths_fixed_time": observe(montecarlo_sample_paths_fixed_time),
        "montecarlo.sample_paths_inverse_local_time":
            observe(montecarlo_sample_paths_inverse_local_time),
        "rayknight.sample_rk_profile_batch": observe(rayknight_sample_rk_profile_batch),
        "rates.rate_general": observe(rates_rate_general),
        "harness.expected_cell_masses": observe(harness_expected_cell_masses),
    }
    tracer = tracer_cls(LAYERS, observers).install()
    tracer.enabled = False
    try:
        last_misses[0] = flow_misses()
    except (AttributeError, KeyError):
        pass
    return tracer


def reduce(tracer, span_cost_s: float) -> dict:
    """Totals of one traced process; ``combine`` turns them into metrics."""
    counters = dict(tracer.counters)
    counters["cell_density_calls"] = float(sum(
        1 for i, span in enumerate(tracer.spans)
        if span[0] == "density.density_certified"
        and tracer.within(i, ("harness.expected_cell_masses",))))
    absent = list(tracer.absent)
    if "flows.flow_table" in tracer.originals and not hasattr(
            tracer.originals["flows.flow_table"], "cache_info"):
        absent.append("flows.flow_table.cache_info")
    return {
        "layers": tracer.summary(GROUPS),
        "counters": counters,
        "spans": len(tracer.spans),
        "span_cost_s": span_cost_s,
        "absent": absent,
    }


def combine(parts: List[dict], ops: int, op_seconds: float,
            mass_rel_err: float) -> Tuple[Dict[str, float], dict]:
    """Per-operation metrics from the traced processes of one run, and the
    names of absent layers with the share of op time the layers cover."""
    def total(layer, key):
        return sum(p["layers"].get(layer, {}).get(key, 0.0) for p in parts)

    def counter(name):
        return sum(p["counters"].get(name, 0.0) for p in parts)

    absent = sorted({name for p in parts for name in p["absent"]})
    flow_calls = total("flows.flow_table", "calls")
    misses = counter("flow_misses")
    per_op = {
        "flows.flow_table.calls": flow_calls,
        "flows.flow_table.misses": misses,
        "flows.flow_table.cold_s": counter("flow_cold_s"),
        "flows.flow_table.rows": counter("flow_rows"),
        "density.density_certified.calls": total("density.density_certified", "calls"),
        "density.density_certified.busy_s": total("density.density_certified", "busy_s"),
        "density.density_certified.self_s": total("density.density_certified", "self_s"),
        "density.torus_series.calls": total("density.torus_series", "calls"),
        "harness.expected_cell_masses.busy_s": total("harness.expected_cell_masses", "busy_s"),
        "harness.expected_cell_masses.density_calls": counter("cell_density_calls"),
        "harness.expected_cell_masses.flagged_cells": counter("flagged_cells"),
        "harness.expected_cell_masses.excluded_cells": counter("excluded_cells"),
        "density.density_quadrature.calls": total("density.density_quadrature", "calls"),
        "density.density_quadrature.busy_s": total("density.density_quadrature", "busy_s"),
        "density.density_tridiagonal.calls": total("density.density_tridiagonal", "calls"),
        "density.density_tridiagonal.busy_s": total("density.density_tridiagonal", "busy_s"),
        "bessel.edge_kernel.calls": total("bessel.edge_kernel", "calls"),
        "bessel.edge_kernel_d.calls": total("bessel.edge_kernel_d", "calls"),
        "bessel.busy_s": total("bessel", "busy_s"),
        "rates.rate_general.calls": total("rates.rate_general", "calls"),
        "rates.rate_general.busy_s": total("rates.rate_general", "busy_s"),
        "rates.rate_general.iterations": counter("rate_iterations"),
        "rates.density_upper_bound.busy_s": total("rates.density_upper_bound", "busy_s"),
        "montecarlo.sample_paths_fixed_time.busy_s":
            total("montecarlo.sample_paths_fixed_time", "busy_s"),
        "montecarlo.sample_paths_fixed_time.paths": counter("fixed_paths"),
        "montecarlo.sample_paths_fixed_time.jumps": counter("fixed_jumps"),
        "montecarlo.sample_paths_inverse_local_time.busy_s":
            total("montecarlo.sample_paths_inverse_local_time", "busy_s"),
        "montecarlo.sample_paths_inverse_local_time.paths": counter("inverse_paths"),
        "montecarlo.sample_paths_inverse_local_time.jumps": counter("inverse_jumps"),
        "rayknight.sample_rk_profile_batch.busy_s":
            total("rayknight.sample_rk_profile_batch", "busy_s"),
        "rayknight.sample_rk_profile_batch.profiles": counter("profiles"),
        "harness.run_suite.self_s": total("harness.run_suite", "self_s"),
    }
    metrics = {name: value / ops for name, value in per_op.items()}
    metrics["flows.flow_table.hit_ratio"] = (
        (flow_calls - misses) / flow_calls if flow_calls else 0.0)
    metrics["harness.expected_cell_masses.mass_rel_err"] = mass_rel_err
    metrics["trace.overhead_frac"] = (
        sum(p["spans"] * p["span_cost_s"] for p in parts) / op_seconds)
    metrics["trace.layers_absent"] = float(len(absent))
    info = {"layers_absent": absent,
            "coverage": total("below_run_suite", "busy_s") / op_seconds}
    return metrics, info
