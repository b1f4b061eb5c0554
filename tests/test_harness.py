import hashlib
import json
import math
import os
from itertools import combinations

import numpy as np
import pytest
from scipy.linalg import expm

from loctimes.chain import srw_generator, validate_generator
from loctimes.density import range_rates
from loctimes.errors import ConfigParseError, InsufficientConditionedError, NotSymmetricError
from loctimes.harness import (
    _chi2_sf,
    _grid_counts,
    _mean_var_z,
    _moments,
    _unit_rule,
    chi_square_shape_test,
    config_hash,
    expected_cell_masses,
    generator_from_config,
    halfspace_rate_infimum,
    is_canonical_two_state,
    ldp_probability_experiment,
    ldp_varadhan_experiment,
    linear_varadhan_supremum,
    load_config,
    log_mgf_exact,
    merge_cells,
    run_suite,
    two_state_event_probabilities,
    verify_density_mc,
    verify_rayknight_mc,
    wilson_upper,
    write_csv,
)
from loctimes.montecarlo import sample_paths_inverse_local_time
from loctimes.rates import eta, ldp_probability_bound

TWO_STATE = validate_generator([[0.0, 1.0], [1.0, 0.0]], (1, 2))


# ---------------------------------------------------------------------------
# configuration plumbing
# ---------------------------------------------------------------------------

def test_generator_from_config_forms(tmp_path):
    g = generator_from_config({"srw": [0, 3]})
    assert g.states == (0, 1, 2, 3)
    g = generator_from_config(
        {"states": [1, 2], "rates": [[1, 2, 1.0], [2, 1, 1.0]]})
    assert is_canonical_two_state(g)
    g = generator_from_config(
        {"states": ["a", "b"], "matrix": [[-1.0, 1.0], [2.0, -2.0]]})
    assert g.rates[1, 0] == 2.0
    path = tmp_path / "gen.json"
    path.write_text(json.dumps({"states": [1, 2], "rates": [[1, 2, 1.0], [2, 1, 1.0]]}))
    g = generator_from_config(str(path))
    assert g.n_states == 2


def test_generator_config_diagnostics():
    with pytest.raises(ConfigParseError, match="missing field"):
        generator_from_config({"states": [1, 2]})
    with pytest.raises(ConfigParseError, match="#1"):
        generator_from_config(
            {"states": [1, 2], "rates": [[1, 2, 1.0], [1, 0.5]]})
    with pytest.raises(ConfigParseError):
        generator_from_config([1, 2, 3])


def test_load_config_reports_position(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"experiments": [}')
    with pytest.raises(ConfigParseError, match="line 1"):
        load_config(str(bad))


def test_config_hash_is_stable():
    a = config_hash({"x": 1, "y": [1, 2]})
    b = config_hash({"y": [1, 2], "x": 1})
    assert a == b and len(a) == 16


def test_write_csv_header(tmp_path):
    path = tmp_path / "out.csv"
    write_csv(str(path), {"config_hash": "abc", "seed": 7}, ["a", "b"], [(1, 2.5)])
    lines = path.read_text().splitlines()
    assert lines[0] == "# config_hash=abc, seed=7"
    assert lines[1] == "a,b"
    assert lines[2] == "1,2.5"


# ---------------------------------------------------------------------------
# statistics helpers
# ---------------------------------------------------------------------------

def test_merge_cells_floors_expectations():
    obs = np.array([1.0, 1, 1, 1, 50, 2])
    exp = np.array([1.0, 1, 2, 2, 48, 3])
    obs_m, exp_m = merge_cells(obs, exp)
    assert np.all(exp_m >= 5.0)
    assert obs_m.sum() == obs.sum() and exp_m.sum() == exp.sum()


def test_chi_square_shape_test_on_exact_multinomial():
    rng = np.random.default_rng(0)
    masses = np.array([0.1, 0.25, 0.3, 0.2, 0.15])
    counts = rng.multinomial(200_000, masses)
    stat, dof, p, worst = chi_square_shape_test(counts, masses * 0.37)
    assert dof == 4 and p > 1e-3 and worst < 4.0


@pytest.mark.parametrize("dof", [1, 2, 48, 199])
@pytest.mark.parametrize("stat", [0.0, 1e-300, 0.5, 3.7, 47.0, 210.3, 1e4, math.inf])
def test_chi2_survival_function_matches_scipy_stats(dof, stat):
    from scipy.stats import chi2

    assert _chi2_sf(stat, dof) == float(chi2.sf(stat, dof))


@pytest.mark.parametrize("dof", [1, 2, 48, 199])
def test_chi_square_p_value_is_bit_identical_to_scipy_stats(dof):
    from scipy.stats import chi2

    rng = np.random.default_rng(dof)
    masses = rng.uniform(0.5, 1.5, dof + 1)
    counts = rng.multinomial(1000 * (dof + 1), masses / masses.sum())
    # the second pair is exactly proportional: the statistic is 0
    for observed, expected in ((counts, masses), (counts, counts * 0.5)):
        stat, got_dof, p, _ = chi_square_shape_test(observed, expected)
        assert got_dof == dof
        assert p == float(chi2.sf(stat, dof))
    assert stat == 0.0 and p == 1.0


def test_wilson_upper_bounds_proportion():
    assert wilson_upper(0, 1000) < 0.01
    assert wilson_upper(500, 1000) > 0.5
    assert wilson_upper(1000, 1000) == pytest.approx(1.0, abs=1e-12)


def test_two_state_probabilities_sum_to_one():
    for T in (0.1, 1.0, 5.0):
        assert sum(two_state_event_probabilities(T)) == pytest.approx(1.0, abs=1e-14)


def spawn_rngs(seed, n: int):
    """n independent substreams, deterministically derived from one seed."""
    return [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(n)]


def test_spawn_rngs_are_deterministic_and_distinct():
    a = [r.random(3).tolist() for r in spawn_rngs(99, 3)]
    b = [r.random(3).tolist() for r in spawn_rngs(99, 3)]
    assert a == b
    assert a[0] != a[1] != a[2]


# ---------------------------------------------------------------------------
# Monte Carlo law experiment
# ---------------------------------------------------------------------------

def test_verify_density_two_state_quick():
    report = verify_density_mc(TWO_STATE, 1, 2, (1, 2), 1.0, 150_000,
                               cells_per_axis=30, seed=101)
    assert report.diagnostics["p_value"] > 1e-3
    assert abs(report.diagnostics["conditioning_z"]) < 4.0
    assert abs(report.diagnostics["z_analytic"]) < 4.0
    assert report.passed
    # the density normalization must match the analytic event probability
    assert report.diagnostics["conditioning_quadrature"] == pytest.approx(
        math.exp(-1.0) * math.sinh(1.0), abs=1e-9)


def test_verify_density_three_state_quick():
    g = srw_generator(0, 2)
    report = verify_density_mc(g, 0, 2, (0, 1, 2), 2.0, 120_000,
                               cells_per_axis=5, seed=102)
    assert report.diagnostics["p_value"] > 1e-3
    assert abs(report.diagnostics["conditioning_z"]) < 4.0
    assert report.diagnostics["excluded_cells"] > 0


def test_verify_density_insufficient_conditioning():
    with pytest.raises(InsufficientConditionedError):
        verify_density_mc(TWO_STATE, 1, 2, (1, 2), 0.01, 2000, seed=1)


# ---------------------------------------------------------------------------
# Ray-Knight experiment
# ---------------------------------------------------------------------------

def test_trace_window_local_times_have_the_walk_on_z_means():
    # walk on Z from 0 stopped when its local time at b reaches h: E l_x is
    # h + b - max(0, x) below b and h from b up; the reflected walk on
    # [-1, 3] is the trace of the walk on Z there, so it has the same means
    b, h, n = 2, 1.0, 200_000
    g = srw_generator(-1, 3)
    (rng,) = spawn_rngs(31, 1)
    local = sample_paths_inverse_local_time(g, 0, b, h, n, rng).local_times
    for x in g.states:
        col = local[:, g.index(x)]
        if x == b:
            assert np.all(col == h)
            continue
        exact = h + b - max(0, x) if x < b else h
        z = (col.mean() - exact) / (col.std(ddof=1) / math.sqrt(n))
        assert abs(z) < 4.0, (x, col.mean(), exact, z)


def test_trace_window_matches_a_wide_window():
    # the same law on the sites -1..3 whether the walk runs on [-1, 3] or on
    # [-8, 10]: means, variances and the absorption atoms at 3 and -1
    b, h, n = 2, 1.0, 200_000
    narrow_rng, wide_rng = spawn_rngs(32, 2)
    narrow_gen, wide_gen = srw_generator(-1, 3), srw_generator(-8, 10)
    narrow = sample_paths_inverse_local_time(narrow_gen, 0, b, h, n, narrow_rng).local_times
    wide = sample_paths_inverse_local_time(wide_gen, 0, b, h, n, wide_rng).local_times
    for x in (-1, 0, 1, 3):
        x_narrow = narrow[:, narrow_gen.index(x)]
        x_wide = wide[:, wide_gen.index(x)]
        mz, vz = _mean_var_z(_moments(x_narrow), _moments(x_wide))
        assert abs(mz) < 4.0 and abs(vz) < 4.0, (x, mz, vz)
        if x in (-1, 3):
            p, q = (x_narrow == 0.0).mean(), (x_wide == 0.0).mean()
            z = (p - q) / math.sqrt(p * (1 - p) / n + q * (1 - q) / n)
            assert abs(z) < 4.0, (x, p, q, z)


def test_moments_match_numpy_and_the_fourth_power_moment():
    rng = np.random.default_rng(5)
    for shape in (0.3, 1.0, 2.5, 7.0):
        v = rng.gamma(shape, 1.0, 50_000)
        moments = _moments(v)
        assert moments.n == len(v)
        assert moments.mean == v.mean() and moments.var == v.var(ddof=1)
        c = v - v.mean()
        m2, m4 = (c * c).mean(), (c ** 4).mean()
        reference = math.sqrt(max(m4 - m2 * m2, 1e-300) / len(v))
        assert moments.var_se == pytest.approx(reference, rel=1e-12, abs=0.0)


def test_z_of_a_zero_standard_error():
    # equal statistics read z = 0, unequal ones an infinite z that fails
    zero, half = _moments(np.zeros(4)), _moments(np.full(4, 0.5))
    assert _mean_var_z(zero, zero) == (0.0, 0.0)
    mz, vz = _mean_var_z(zero, half)
    assert mz == -math.inf and vz == 0.0


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_rayknight_check_with_a_constant_site(seed):
    # at level 0.01 two samples almost surely both sit in the atom at 0 of
    # site 3 on both sides: its moments and the independence correlations
    # have zero standard error, and report 0 without a RuntimeWarning
    report = verify_rayknight_mc(pivot=2, level=0.01, n_samples=2, seed=seed)
    row = {r[0]: r for r in report.rows}[3]
    assert row[1:] == (0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    checks = {c.name: c for c in report.checks}
    for name in ("mean_z_site_3", "var_z_site_3",
                 "independence_corr_direct", "independence_corr_profile"):
        assert checks[name].passed and checks[name].value == 0.0
    assert all(not math.isnan(c.value) for c in report.checks)


@pytest.mark.parametrize("pivot", [1, 2, 3])
def test_rayknight_check_at_a_compared_pivot(pivot):
    # the default compared sites are 0, 1 and 3, so pivots 1 and 3 compare
    # the pivot itself, where both sides hold the level exactly
    report = verify_rayknight_mc(pivot=pivot, n_samples=5_000, seed=7)
    assert len(report.rows) == 3
    values = [c.value for c in report.checks]
    assert all(math.isfinite(v) for v in values)
    pivot_checks = [c for c in report.checks if c.name.endswith(f"_site_{pivot}")]
    assert len(pivot_checks) == (2 if pivot in (1, 3) else 0)
    assert all(c.passed and c.value == 0.0 for c in pivot_checks)
    assert report.passed


# ---------------------------------------------------------------------------
# LDP experiments
# ---------------------------------------------------------------------------

def test_halfspace_infimum_two_state():
    for theta in (0.6, 0.8, 0.95):
        value = halfspace_rate_infimum(TWO_STATE, (1, 2), 2, theta)
        assert value == pytest.approx(
            (math.sqrt(1.0 - theta) - math.sqrt(theta)) ** 2, abs=1e-12)


def test_halfspace_infimum_inactive_constraint():
    # with a low threshold the unconstrained minimum (uniform) is feasible
    value = halfspace_rate_infimum(TWO_STATE, (1, 2), 2, 0.3)
    assert value == pytest.approx(0.0, abs=1e-10)


# three states, killed at rate 0.4 out of state 0; its ground state puts
# about 0.41 of its mass on state 2
KILLED_THREE = validate_generator(
    [[0.0, 1.0, 0.3, 0.4], [1.0, 0.0, 0.5, 0.0], [0.3, 0.5, 0.0, 0.0],
     [0.4, 0.0, 0.0, 0.0]])


def _simplex_grid(n_per_axis):
    """Every mu on the 3-state simplex with coordinates in steps of
    1/n_per_axis, one row each."""
    i, j = np.meshgrid(np.arange(n_per_axis + 1), np.arange(n_per_axis + 1), indexing="ij")
    keep = i + j <= n_per_axis
    i, j = i[keep], j[keep]
    return np.stack([i, j, n_per_axis - i - j], axis=1) / n_per_axis


def _dirichlet_forms(Q, mus):
    roots = np.sqrt(mus)
    return np.einsum("pi,ij,pj->p", roots, Q, roots)


def test_halfspace_infimum_against_simplex_grid():
    Q = -KILLED_THREE.rates[:3, :3]
    mus = _simplex_grid(1000)
    forms = _dirichlet_forms(Q, mus)
    ground = float(np.linalg.eigvalsh(Q)[0])
    for theta, active in ((0.7, True), (0.2, False)):
        value = halfspace_rate_infimum(KILLED_THREE, (0, 1, 2), 2, theta)
        grid_min = float(forms[mus[:, 2] >= theta].min())
        # grid points are feasible, so the grid can only overshoot the infimum
        assert value <= grid_min + 1e-14
        assert value == pytest.approx(grid_min, abs=1e-5)
        if active:
            assert value > ground + 1e-2
        else:
            assert value == ground


def test_halfspace_infimum_degenerate_ground_state():
    # S = {0, 1} and {3, 4} of the walk on 0..4, with no rate between them:
    # two mirror-image blocks with one ground-state energy; the constraint
    # binds in the block of state 0, and the optimum stays inside it
    g = srw_generator(0, 4)
    S = (0, 1, 3, 4)
    Q = -g.submatrix(S)
    eigs = np.linalg.eigvalsh(Q)
    assert eigs[1] - eigs[0] < 1e-12
    for theta in (0.3, 0.9):
        value = halfspace_rate_infimum(g, S, 0, theta)
        assert value == pytest.approx(halfspace_rate_infimum(g, (0, 1), 0, theta), abs=1e-12)
    assert halfspace_rate_infimum(g, S, 0, 0.3) == pytest.approx(eigs[0], abs=1e-15)
    # the two-state block [[1, -1], [-1, 2]] at mu_0 = 0.9
    assert halfspace_rate_infimum(g, S, 0, 0.9) == pytest.approx(
        0.9 + 2 * 0.1 - 2 * math.sqrt(0.9 * 0.1), abs=1e-12)


def test_halfspace_infimum_single_state_and_edge_thresholds():
    g = srw_generator(0, 3)
    assert halfspace_rate_infimum(g, (1,), 1, 0.0) == 2.0
    assert halfspace_rate_infimum(g, (1,), 1, 1.0) == 2.0
    assert halfspace_rate_infimum(g, (1,), 1, 1.5) == math.inf
    assert halfspace_rate_infimum(KILLED_THREE, (0, 1, 2), 1, 1.0) == 1.5
    assert halfspace_rate_infimum(KILLED_THREE, (0, 1, 2), 1, 1.5) == math.inf
    with pytest.raises(ValueError, match="site 7 is not in the range"):
        halfspace_rate_infimum(KILLED_THREE, (0, 1, 2), 7, 0.5)
    with pytest.raises(ValueError, match="threshold must be finite"):
        halfspace_rate_infimum(KILLED_THREE, (0, 1, 2), 1, math.nan)


def test_halfspace_infimum_is_below_every_feasible_point():
    rng = np.random.default_rng(14)
    for _ in range(10):
        n = int(rng.integers(2, 5))
        upper = np.triu(rng.uniform(0.2, 1.5, (n + 1, n + 1)), 1)
        g = validate_generator(upper + upper.T)
        S, j, theta = tuple(range(n)), int(rng.integers(0, n)), rng.uniform(0.05, 0.95)
        value = halfspace_rate_infimum(g, S, j, theta)
        Q = -g.submatrix(S)
        # theta e_j + (1 - theta) nu has mass at least theta at j
        mus = (1.0 - theta) * rng.dirichlet(np.ones(n), size=20)
        mus[:, j] += theta
        assert value <= float(_dirichlet_forms(Q, mus).min())


def test_spectral_ldp_values_need_symmetric_rates():
    g = validate_generator([[0.0, 1.0, 0.0], [0.5, 0.0, 1.0], [0.0, 1.0, 0.0]])
    with pytest.raises(NotSymmetricError):
        halfspace_rate_infimum(g, (0, 1, 2), 1, 0.5)
    with pytest.raises(NotSymmetricError):
        linear_varadhan_supremum(g, (0, 1, 2), [0.0, 0.3, 0.1])
    # the rates on S = {1, 2} alone are symmetric
    assert linear_varadhan_supremum(g, (1, 2), [0.0, 0.3]) == pytest.approx(
        float(np.linalg.eigvalsh(np.diag([0.0, 0.3]) + g.submatrix((1, 2)))[-1]), abs=1e-15)


def test_symmetry_is_one_entrywise_test():
    # 1.000009 is within a relative 1e-5 of 1.0 but not within 1e-12: the
    # generator and its range rates must agree that this is not symmetric
    g = validate_generator([[0.0, 1.0], [1.000009, 0.0]])
    assert not g.is_symmetric()
    assert not range_rates(g, (0, 1)).symmetric
    with pytest.raises(NotSymmetricError):
        linear_varadhan_supremum(g, (0, 1), [0.0, 0.5])
    near = validate_generator([[0.0, 1.0], [1.0 + 1e-13, 0.0]])
    assert near.is_symmetric() and range_rates(near, (0, 1)).symmetric


@pytest.mark.parametrize("call", [
    lambda g: log_mgf_exact(g, 0, (0, 1, 1), [0.0, 0.3, 0.3], 2.0),
    lambda g: linear_varadhan_supremum(g, (0, 1, 1), [0.0, 0.3, 0.3]),
    lambda g: eta(g, (0, 1, 1)),
    lambda g: ldp_probability_bound(g, (0, 1, 1), 0.2, 2.0),
], ids=["log_mgf_exact", "linear_varadhan_supremum", "eta", "ldp_probability_bound"])
def test_a_repeated_label_in_S_raises(call):
    with pytest.raises(ValueError, match="range \\(0, 1, 1\\) repeats the label 1"):
        call(srw_generator(0, 2))


def test_linear_varadhan_supremum_against_simplex_grid():
    V = np.array([0.9, 0.1, 0.6])
    mus = _simplex_grid(1000)
    grid_max = float((mus @ V - _dirichlet_forms(-KILLED_THREE.rates[:3, :3], mus)).max())
    sup = linear_varadhan_supremum(KILLED_THREE, (0, 1, 2), list(V))
    assert sup >= grid_max - 1e-14
    assert sup == pytest.approx(grid_max, abs=1e-5)


def test_linear_varadhan_supremum_matches_grid():
    V = [0.0, 0.5]
    sup = linear_varadhan_supremum(TWO_STATE, (1, 2), V)
    mus = np.linspace(0.0, 1.0, 200_001)
    vals = 0.5 * mus - (np.sqrt(1 - mus) - np.sqrt(mus)) ** 2
    assert sup == pytest.approx(float(vals.max()), abs=1e-7)


def test_functional_as_dict_or_list():
    three = srw_generator(0, 2)
    listed, keyed = [0.0, 0.3, 0.1], {0: 0.0, 1: 0.3, 2: 0.1}
    assert linear_varadhan_supremum(three, (0, 1, 2), keyed) == \
        linear_varadhan_supremum(three, (0, 1, 2), listed)
    assert log_mgf_exact(three, 0, (0, 1, 2), keyed, 2.0) == \
        log_mgf_exact(three, 0, (0, 1, 2), listed, 2.0)
    # a JSON object has string keys; they name the same states
    string_keyed = {"0": 0.0, "1": 0.3, "2": 0.1}
    assert linear_varadhan_supremum(three, (0, 1, 2), string_keyed) == \
        linear_varadhan_supremum(three, (0, 1, 2), listed)
    assert log_mgf_exact(three, 0, (0, 1, 2), string_keyed, 2.0) == \
        log_mgf_exact(three, 0, (0, 1, 2), listed, 2.0)
    with pytest.raises(ConfigParseError, match="key '7' is not a state label"):
        linear_varadhan_supremum(three, (0, 1, 2), {"0": 0.0, "1": 0.3, "7": 0.1})
    for short_or_long in ([0.0, 0.3], [0.0, 0.3, 0.1, 0.2]):
        with pytest.raises(ValueError, match="V has"):
            linear_varadhan_supremum(three, (0, 1, 2), short_or_long)
        with pytest.raises(ValueError, match="V has"):
            log_mgf_exact(three, 0, (0, 1, 2), short_or_long, 2.0)


def test_log_mgf_exact_against_eigen_decomposition():
    V = [0.0, 0.5]
    T = 3.0
    M = TWO_STATE.rates + np.diag(V)
    w, U = np.linalg.eig(M)
    Uinv = np.linalg.inv(U)
    expTM = (U * np.exp(T * w)) @ Uinv
    expected = math.log(expTM[0, :].sum().real)
    assert log_mgf_exact(TWO_STATE, 1, (1, 2), V, T) == pytest.approx(expected, rel=1e-12)


def test_ldp_probability_experiment_quick():
    report = ldp_probability_experiment(TWO_STATE, 1, (1, 2), 2, 0.8, 5.0,
                                        100_000, seed=5)
    assert report.passed
    assert report.diagnostics["log_p_upper"] <= report.diagnostics["bound"]
    assert report.diagnostics["inf_rate"] == pytest.approx(0.2, abs=1e-8)


def test_ldp_varadhan_experiment_values():
    report = ldp_varadhan_experiment(TWO_STATE, 1, (1, 2), [0.0, 0.5], 5.0)
    assert report.passed
    assert report.diagnostics["log_mgf"] <= report.diagnostics["bound"]


# ---------------------------------------------------------------------------
# suite runner
# ---------------------------------------------------------------------------

def test_run_suite_writes_outputs(tmp_path):
    config = {
        "seed": 11,
        "experiments": [
            {
                "kind": "verify-density",
                "name": "two-state",
                "generator": {"states": [1, 2], "rates": [[1, 2, 1.0], [2, 1, 1.0]]},
                "start": 1, "endpoint": 2, "range": [1, 2],
                "T": 1.0, "samples": 60_000, "cells": 20,
            },
            {
                "kind": "ldp-varadhan",
                "name": "varadhan",
                "generator": {"states": [1, 2], "rates": [[1, 2, 1.0], [2, 1, 1.0]]},
                "start": 1, "S": [1, 2], "V": [0.0, 0.5], "T": 5.0,
            },
        ],
    }
    status = run_suite(config, str(tmp_path / "out"))
    assert status == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["all_passed"] is True
    assert len(summary["experiments"]) == 2
    csv_text = (tmp_path / "out" / "two-state.csv").read_text()
    assert csv_text.startswith("# config_hash=")
    assert "seed=11" in csv_text.splitlines()[0]


def test_run_suite_replay_is_bit_for_bit(tmp_path):
    config = {
        "seed": 13,
        "experiments": [{
            "kind": "verify-density",
            "name": "replay",
            "generator": {"states": [1, 2], "rates": [[1, 2, 1.0], [2, 1, 1.0]]},
            "start": 1, "endpoint": 2, "range": [1, 2],
            "T": 1.0, "samples": 40_000, "cells": 15,
        }],
    }
    run_suite(config, str(tmp_path / "a"))
    run_suite(config, str(tmp_path / "b"))
    assert (tmp_path / "a" / "replay.csv").read_bytes() == \
        (tmp_path / "b" / "replay.csv").read_bytes()
    assert (tmp_path / "a" / "summary.json").read_bytes() == \
        (tmp_path / "b" / "summary.json").read_bytes()
    # the summary entry carries the law check's diagnostics, the analytic
    # two-state values included
    entry = json.loads((tmp_path / "a" / "summary.json").read_text())["experiments"][0]
    assert list(entry) == [
        "name", "kind", "passed", "p_value", "conditioning_z", "n_samples", "n_conditioned",
        "chi2", "dof", "worst_cell_z", "conditioning_mc", "conditioning_quadrature",
        "excluded_cells", "flagged_cells", "no_jump", "switched", "returned", "z_analytic",
        "checks"]
    rows = (tmp_path / "a" / "replay.csv").read_text().splitlines()[2:]
    assert entry["n_samples"] == 40_000
    assert entry["n_conditioned"] == sum(int(r.split(",")[1]) for r in rows)
    assert entry["conditioning_mc"] == entry["n_conditioned"] / 40_000
    assert entry["excluded_cells"] == 0 and entry["flagged_cells"] == 0
    assert [c["name"] for c in entry["checks"]] == [
        "chi_square_p_value", "conditioning_probability_z", "conditioning_vs_analytic_z"]
    assert entry["checks"][0]["value"] == entry["p_value"]


def test_run_suite_rejects_unknown_kind(tmp_path):
    with pytest.raises(ConfigParseError):
        run_suite({"experiments": [{"kind": "nope"}]}, str(tmp_path / "o"))
    with pytest.raises(ConfigParseError):
        run_suite({"experiments": "x"}, str(tmp_path / "o2"))


TWO_STATE_SPEC = {"states": [1, 2], "rates": [[1, 2, 1.0], [2, 1, 1.0]]}
VARADHAN = {"kind": "ldp-varadhan", "generator": TWO_STATE_SPEC,
            "start": 1, "S": [1, 2], "V": [0.0, 0.5], "T": 5.0}


@pytest.mark.parametrize("experiments, message", [
    ([dict(VARADHAN, name="same"), dict(VARADHAN, name="same")], "'same' is already used"),
    ([dict(VARADHAN, name="../up")], "not a plain file name"),
    ([dict(VARADHAN, name="sub/dir")], "not a plain file name"),
    ([dict(VARADHAN, name=f"ok-{k}") for k in range(3)] + [{"kind": "nope"}],
     "#3: kind 'nope' is not one of"),
], ids=["duplicate", "parent-dir", "sub-dir", "unknown-kind-last"])
def test_run_suite_checks_every_experiment_before_running(tmp_path, experiments, message):
    out_dir = tmp_path / "o"
    with pytest.raises(ConfigParseError, match=message):
        run_suite({"experiments": experiments}, str(out_dir))
    assert not out_dir.exists() and not (tmp_path / "up.csv").exists()


LAW = {"kind": "verify-density", "name": "law", "generator": TWO_STATE_SPEC, "start": 1,
       "endpoint": 2, "range": [1, 2], "T": 1.0}
PROBABILITY = {"kind": "ldp-probability", "name": "halfspace", "generator": TWO_STATE_SPEC,
               "start": 1, "S": [1, 2], "state": 2, "threshold": 0.8, "T": 5.0}


@pytest.mark.parametrize("experiment, message", [
    (dict(LAW, cells=0), "'cells' must be at least 1, got 0"),
    (dict(LAW, cells=-2), "'cells' must be at least 1, got -2"),
    (dict(LAW, samples=0), "'samples' must be at least 1, got 0"),
    ({"kind": "verify-rayknight", "samples": 0}, "'samples' must be at least 2, got 0"),
    ({"kind": "verify-rayknight", "samples": 1}, "'samples' must be at least 2, got 1"),
    (dict(PROBABILITY, samples=-1), "'samples' must be at least 1, got -1"),
], ids=["cells-0", "cells-negative", "density-samples-0", "rayknight-samples-0",
        "rayknight-samples-1", "probability-samples-negative"])
def test_run_suite_rejects_a_bad_count(tmp_path, experiment, message):
    with pytest.raises(ConfigParseError, match=message):
        run_suite({"experiments": [experiment]}, str(tmp_path))
    assert not list(tmp_path.glob("*.csv"))


# sha256 of every file one run of this config writes; a change to a number or
# to the CSV layout of any of the four kinds shows here.  summary.json holds
# the config in its key order, so the entries are spelled out in full
PINNED_CONFIG = {"seed": 3, "experiments": [
    {"kind": "verify-density", "name": "law", "generator": TWO_STATE_SPEC, "start": 1,
     "endpoint": 2, "range": [1, 2], "T": 1.0, "samples": 20_000, "cells": 10},
    {"kind": "verify-rayknight", "name": "profile", "pivot": 2, "level": 1.0,
     "samples": 2_000},
    {"kind": "ldp-probability", "name": "halfspace", "generator": TWO_STATE_SPEC,
     "start": 1, "S": [1, 2], "state": 2, "threshold": 0.8, "T": 5.0, "samples": 20_000},
    {"kind": "ldp-varadhan", "name": "exponential", "generator": TWO_STATE_SPEC,
     "start": 1, "S": [1, 2], "V": [0.0, 0.5], "T": 5.0},
]}
PINNED_DIGESTS = {
    "exponential.csv": "7644721e0ec7eb06c670051d0259bb7a14726e203419291bf75991d3a75c6af7",
    "halfspace.csv": "7eff0499b1f3d53ea89960076d0cb860d2b58284304d3d480aa756020e699091",
    "law.csv": "5dea1b3f1793b3ca7c7559645163c1202331075ebe579db26b1cc4b2a314b5a5",
    "profile.csv": "71feca5453fcbf3d97dfaaef54dd729fdc67822d091ead6f5dc17ced7dcc32b3",
    "summary.json": "25b9e3eefb76130683b9c39344cb14b7ce3081d4f6f26220f4262f94f05eef5d",
}


def test_run_suite_output_of_every_kind_pinned(tmp_path):
    assert run_suite(PINNED_CONFIG, str(tmp_path)) == 0
    digests = {f: hashlib.sha256((tmp_path / f).read_bytes()).hexdigest()
               for f in sorted(os.listdir(tmp_path))}
    assert digests == PINNED_DIGESTS


def test_verify_density_asymmetric_chain():
    # end-to-end law check on a chain with direction-dependent rates; nothing
    # here is symmetric, so the series, the cell integration and the
    # simulation must agree on their own
    g = validate_generator(
        [[0.0, 1.3, 0.0], [0.6, 0.0, 0.9], [0.0, 1.7, 0.0]], (0, 1, 2))
    report = verify_density_mc(g, 0, 2, (0, 1, 2), 1.5, 300_000,
                               cells_per_axis=5, seed=401)
    assert report.diagnostics["p_value"] > 1e-3
    assert abs(report.diagnostics["conditioning_z"]) < 4.0


def exact_range_probability(gen, a, b, R, T):
    """P(range up to T is exactly R, endpoint b): inclusion-exclusion over
    the subsets S of R holding a and b, each term expm(T A_S)[a, b] of the
    chain killed outside S."""
    others = [x for x in R if x not in (a, b)]
    total = 0.0
    for k in range(len(others) + 1):
        for dropped in combinations(others, k):
            S = [x for x in R if x not in dropped]
            total += (-1) ** k * expm(T * gen.submatrix(S))[S.index(a), S.index(b)]
    return total


@pytest.mark.parametrize("gen, T, cells", [
    (srw_generator(0, 2), 2.0, 7),
    (validate_generator([[0.0, 1.3, 0.0], [0.6, 0.0, 0.9], [0.0, 1.7, 0.0]], (0, 1, 2)),
     1.5, 5),
])
def test_cell_masses_sum_to_exact_range_probability(gen, T, cells):
    report = verify_density_mc(gen, 0, 2, (0, 1, 2), T, 20_000,
                               cells_per_axis=cells, seed=5)
    exact = exact_range_probability(gen, 0, 2, (0, 1, 2), T)
    assert report.diagnostics["conditioning_quadrature"] == pytest.approx(exact, rel=1e-8)
    assert report.diagnostics["flagged_cells"] == 0
    assert report.diagnostics["excluded_cells"] == cells * (cells - 1) // 2


def test_cell_rules_on_cut_cells_and_the_disagreement_flag():
    # unit density: cell masses are the areas of the cells inside the simplex,
    # including a pentagon (cell [0, .5]^2 cut at total 0.8) and triangles
    edges = [np.linspace(0.0, 1.0, 3)] * 2
    masses, excluded, flagged = expected_cell_masses(
        lambda free: np.ones(len(free)), edges, 0.8)
    assert masses == pytest.approx(np.array([[0.23, 0.045], [0.045, 0.0]]), abs=1e-14)
    assert (excluded, flagged) == (1, 0)
    # a polynomial of low degree is integrated exactly, a kink is flagged
    line = [np.linspace(0.0, 1.0, 2)]
    masses, _, flagged = expected_cell_masses(lambda free: free[:, 0] ** 5, line, 1.0)
    assert masses[0] == pytest.approx(1.0 / 6.0, rel=1e-14) and flagged == 0
    _, _, flagged = expected_cell_masses(lambda free: np.abs(free[:, 0] - 0.5), line, 1.0)
    assert flagged == 1


def test_unit_rule_is_shared_and_read_only():
    nodes, weights = _unit_rule(6, 2)
    assert _unit_rule(6, 2)[0] is nodes
    assert nodes.shape == (36, 2) and weights.sum() == pytest.approx(1.0, rel=1e-14)
    for arr in (nodes, weights):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0.0


@pytest.mark.parametrize("total, cells, dim", [(2.0, 7, 2), (1.5, 6, 2), (0.3, 3, 2),
                                               (1.0, 30, 1), (2.0, 5, 1)])
def test_grid_counts_match_histogramdd_on_every_edge(total, cells, dim):
    # values exactly on each edge (0, the interior edges, the top edge), one
    # ulp to either side of it, random values, and values off the grid
    edges = np.linspace(0.0, total, cells + 1)
    on_edge = np.concatenate([edges, np.nextafter(edges, -np.inf),
                              np.nextafter(edges, np.inf), [-1.0, 2.0 * total]])
    rng = np.random.default_rng(7)
    axis = np.concatenate([on_edge, rng.uniform(0.0, total, 500)])
    grids = np.meshgrid(*([axis] * dim), indexing="ij")
    columns = [g.ravel() for g in grids]
    counts = _grid_counts(columns, [edges] * dim)
    expected, _ = np.histogramdd(np.stack(columns, axis=1), bins=[edges] * dim)
    assert counts.dtype == expected.dtype and counts.shape == expected.shape
    assert np.array_equal(counts, expected)
