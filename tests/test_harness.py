import hashlib
import importlib
import json
import math
import os
import threading
import time
import tracemalloc
from itertools import combinations

import numpy as np
import pytest

from loctimes.chain import srw_generator, validate_generator
from loctimes.density import range_rates
from loctimes import harness, montecarlo
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
    ldp_probability_experiment,
    ldp_varadhan_experiment,
    linear_varadhan_supremum,
    load_config,
    log_mgf_exact,
    merge_cells,
    range_probability,
    run_suite,
    verify_density_mc,
    verify_rayknight_mc,
    wilson_upper,
    write_csv,
)
from loctimes.montecarlo import _BLOCK, sample_paths_inverse_local_time
from loctimes.rates import eta, ldp_probability_bound

# the package exports a function named density, so fetch the module itself
density_module = importlib.import_module("loctimes.density")

TWO_STATE = validate_generator([[0.0, 1.0], [1.0, 0.0]], (1, 2))


# ---------------------------------------------------------------------------
# configuration plumbing
# ---------------------------------------------------------------------------

def test_generator_from_config_forms(tmp_path):
    g = generator_from_config({"srw": [0, 3]})
    assert g.states == (0, 1, 2, 3)
    g = generator_from_config(
        {"states": [1, 2], "rates": [[1, 2, 1.0], [2, 1, 1.0]]})
    assert g.states == (1, 2) and np.array_equal(g.rates, [[-1.0, 1.0], [1.0, -1.0]])
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


@pytest.mark.parametrize("T", [0.1, 1.0, 5.0])
def test_range_probability_is_the_two_state_closed_form(T):
    # from 1, the unit two-state chain has switched an odd number of times
    # with probability e^-T sinh T, and an even positive number e^-T (cosh T - 1)
    switched = range_probability(TWO_STATE, 1, 2, (1, 2), T)
    returned = range_probability(TWO_STATE, 1, 1, (1, 2), T)
    no_jump = range_probability(TWO_STATE, 1, 1, (1,), T)
    assert switched == pytest.approx(math.exp(-T) * math.sinh(T), rel=1e-13)
    assert returned == pytest.approx(math.exp(-T) * (math.cosh(T) - 1.0), rel=1e-13)
    assert no_jump == pytest.approx(math.exp(-T), rel=1e-15)
    assert no_jump + switched + returned == pytest.approx(1.0, abs=1e-14)


@pytest.mark.parametrize("T", [0.5, 3.0])
def test_range_probabilities_of_a_non_symmetric_chain_sum_to_one(T):
    # every range R holding the start and every endpoint b in R: the events
    # {range = R, X_T = b} partition the paths
    g = validate_generator([[0.0, 1.3, 0.4], [0.6, 0.0, 0.9], [2.0, 1.7, 0.0]])
    total = 0.0
    for size in range(3):
        for others in combinations((1, 2), size):
            R = (0, *others)
            total += sum(range_probability(g, 0, b, R, T) for b in R)
    assert total == pytest.approx(1.0, abs=1e-12)


def test_range_probability_checks_the_request():
    g = srw_generator(0, 2)
    with pytest.raises(ValueError, match="site 5 is not in the range"):
        range_probability(g, 0, 5, (0, 1, 2), 1.0)
    with pytest.raises(ValueError, match="repeats the label 1"):
        range_probability(g, 0, 2, (0, 1, 1, 2), 1.0)


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


def test_verify_density_integrates_the_tree_product_on_trees(monkeypatch):
    # the law check's cells read the routed rows: on the path 0-1-2 the
    # exact tree product, never the series; on a 3-cycle the series
    calls = []
    certified_rows = density_module._certified_rows

    def counted(*args, **kwargs):
        calls.append(args[0])
        return certified_rows(*args, **kwargs)

    def refused(*args, **kwargs):
        raise AssertionError("the law check entered the series on a tree")

    monkeypatch.setattr(density_module, "_certified_rows", refused)
    report = verify_density_mc(srw_generator(0, 2), 0, 2, (0, 1, 2), 2.0, 20_000,
                               cells_per_axis=3, seed=103)
    assert report.diagnostics["p_value"] > 1e-3
    cycle = validate_generator([[0.0, 1.0, 0.5], [0.5, 0.0, 1.0], [1.0, 0.5, 0.0]])
    monkeypatch.setattr(density_module, "_certified_rows", counted)
    report = verify_density_mc(cycle, 0, 2, (0, 1, 2), 1.0, 20_000, cells_per_axis=3,
                               seed=104)
    assert len(calls) == 1 and not calls[0].tree
    assert report.diagnostics["p_value"] > 1e-3


def test_verify_density_insufficient_conditioning():
    with pytest.raises(InsufficientConditionedError):
        verify_density_mc(TWO_STATE, 1, 2, (1, 2), 0.01, 2000, seed=1)


def _report_digest(report) -> str:
    data = json.dumps([report.rows, report.diagnostics, [c.__dict__ for c in report.checks]],
                      default=lambda v: v.item())
    return hashlib.sha256(data.encode()).hexdigest()


# several chunks of paths and a partial one, each chunk drawn from its own
# child of the seed; one lane and two, in whatever order they take the
# chunks, must give these bits
MULTI_BLOCK = 3 * _BLOCK + 1_234


VERIFY_DENSITY_DIGESTS = {
    0: "e920a78a31c22dec89a8c8948353508c077d13a3ba95ba83d2d0ccb918b4b0dc",
    1: "2a0e3934016d50558c3f903b6b3c4006003a8bd5308c7d27a6221afaf4fccf8f",
}
LDP_PROBABILITY_DIGESTS = {
    0: "b6b171897001cf5b9e259267494d9db73f8fa8a82042d9e206e9abff2997589a",
    1: "b1502860ddd9651eab383b1a20f4e9100ac42d900c82f57a4d234d4b2cc9f0a6",
}


@pytest.mark.parametrize("seed", sorted(VERIFY_DENSITY_DIGESTS))
def test_verify_density_over_several_blocks_pinned(seed):
    report = verify_density_mc(srw_generator(0, 2), 0, 2, (0, 1, 2), 2.0, MULTI_BLOCK,
                               seed=seed)
    assert _report_digest(report) == VERIFY_DENSITY_DIGESTS[seed]


@pytest.mark.parametrize("seed", sorted(LDP_PROBABILITY_DIGESTS))
def test_ldp_probability_over_several_blocks_pinned(seed):
    report = ldp_probability_experiment(srw_generator(0, 2), 0, (0, 1), 0, 0.6, 2.0,
                                        MULTI_BLOCK, seed=seed)
    assert _report_digest(report) == LDP_PROBABILITY_DIGESTS[seed]


def test_verify_density_memory_is_one_block(monkeypatch):
    # 16 blocks of paths held at once peak at about 67 MB; reduced one chunk
    # at a time on each of two lanes, the traced peak is about 20 MB (10 MB
    # per lane), whatever the number of chunks
    monkeypatch.setattr(montecarlo, "_lane_count", lambda: 2)
    g = srw_generator(0, 2)
    verify_density_mc(g, 0, 2, (0, 1, 2), 2.0, 2 * _BLOCK, seed=0)  # warm caches
    peaks = {}
    for blocks in (4, 16):
        tracemalloc.start()
        try:
            verify_density_mc(g, 0, 2, (0, 1, 2), 2.0, blocks * _BLOCK, seed=0)
            peaks[blocks] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[16] < 2 * 16 * 2 ** 20
    assert peaks[16] <= 1.05 * peaks[4]


def test_fixed_time_checks_do_not_depend_on_the_lanes(monkeypatch):
    # one lane, two lanes, and two lanes of which one sleeps before each of
    # its chunks (so the other takes chunks out of turn) give the pinned bits
    g = srw_generator(0, 2)
    draw = montecarlo._Lane.draw
    main = threading.current_thread()

    def draw_late(self, k, seed):
        if threading.current_thread() is main:
            time.sleep(0.2)
        return draw(self, k, seed)

    for lanes, late in ((1, False), (2, False), (2, True)):
        monkeypatch.setattr(montecarlo, "_lane_count", lambda: lanes)
        monkeypatch.setattr(montecarlo._Lane, "draw", draw_late if late else draw)
        report = verify_density_mc(g, 0, 2, (0, 1, 2), 2.0, MULTI_BLOCK, seed=1)
        assert _report_digest(report) == VERIFY_DENSITY_DIGESTS[1], (lanes, late)
        report = ldp_probability_experiment(g, 0, (0, 1), 0, 0.6, 2.0, MULTI_BLOCK, seed=1)
        assert _report_digest(report) == LDP_PROBABILITY_DIGESTS[1], (lanes, late)


@pytest.mark.parametrize("bad", [-1, 2.5])
def test_fixed_time_checks_reject_bad_sample_counts(bad):
    g = srw_generator(0, 2)
    with pytest.raises(ValueError, match="n_samples"):
        verify_density_mc(g, 0, 2, (0, 1, 2), 2.0, bad)
    with pytest.raises(ValueError, match="n_samples"):
        ldp_probability_experiment(g, 0, (0, 1), 0, 0.6, 2.0, bad)


@pytest.mark.parametrize("start, endpoint, range_", [
    (0, 0, [0]), (0, 2, [1, 2]), (0, 2, [0, 1]), (0, 2, [0, 1, 1, 2]),
], ids=["one-state", "start-outside", "endpoint-outside", "repeated"])
def test_verify_density_rejects_a_bad_range_before_drawing(monkeypatch, start, endpoint,
                                                           range_):
    def no_blocks(*args):
        raise AssertionError("a block was drawn")

    monkeypatch.setattr(harness, "fixed_time_chunks", no_blocks)
    with pytest.raises(ValueError, match="range_"):
        verify_density_mc(srw_generator(0, 2), start, endpoint, range_, 2.0, 1000)


@pytest.mark.parametrize("cells", [0, -1, 2.5, True])
def test_verify_density_rejects_bad_cell_counts(monkeypatch, cells):
    def no_blocks(*args):
        raise AssertionError("a block was drawn")

    monkeypatch.setattr(harness, "fixed_time_chunks", no_blocks)
    with pytest.raises(ValueError, match="cells_per_axis"):
        verify_density_mc(srw_generator(0, 2), 0, 2, (0, 1, 2), 2.0, 1000,
                          cells_per_axis=cells)


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
        reference = math.sqrt(max(m4 - m2 * m2, 0.0) / len(v))
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
    # have zero standard error, and report 0 without a RuntimeWarning.  Two
    # samples have m4 = m2^2, so every variance z is 0 or infinite, never a
    # huge finite number made of rounding error
    report = verify_rayknight_mc(pivot=2, level=0.01, n_samples=2, seed=seed)
    row = {r[0]: r for r in report.rows}[3]
    assert row[1:] == (0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    assert all(r[6] in (0.0, math.inf, -math.inf) for r in report.rows)
    checks = {c.name: c for c in report.checks}
    for name in ("mean_z_site_3", "var_z_site_3",
                 "independence_corr_direct", "independence_corr_profile"):
        assert checks[name].passed and checks[name].value == 0.0
    assert all(not math.isnan(c.value) for c in report.checks)


@pytest.mark.parametrize("bad", [-1, 0, 1, 2.5])
def test_rayknight_check_rejects_bad_sample_counts(bad):
    with pytest.raises(ValueError, match="n_samples"):
        verify_rayknight_mc(n_samples=bad)


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


# sha256 of the rows, diagnostics and checks of the Ray-Knight check, taken
# when its two sides ran one after the other: running them at once, each on
# its own stream, moves no bit
RAYKNIGHT_SETTINGS = {
    "default": {},
    "pivot-1": dict(pivot=1, level=0.5, n_samples=20_000),
    "pivot-4": dict(pivot=4, level=2.5, n_samples=30_001),
}
RAYKNIGHT_DIGESTS = {
    ("default", 0): "e49356b6acc0e8bfc746d70c35a8b6c20182bb1268caea0db5462a2f92e4f173",
    ("default", 1): "a6f98ffc888b42967d4234c2d65862b4d0259530cf6fa362142ae43ac99050fc",
    ("default", 2): "35192ebf2e0d30c1640ff1526a94400e707edfea1cbc6bf7c548f58465402398",
    ("default", 3): "da5cc9290f8e27244baeaac6451d05a9ba8b950ad9e2130b3ba0eba94d996b45",
    ("pivot-1", 0): "86451395eb8c0c047242f6260abf493d0df369e46d73ccc17a0cb5986ada94b7",
    ("pivot-1", 1): "654ba944a20931bfb60c00a96c199030d2bc1ba66c15ce1bb73f330464e2531e",
    ("pivot-1", 2): "281782d5038b2fef800075a059c804107505d1834a1c827033ae7a38b26191e4",
    ("pivot-1", 3): "0680ff57fa7b35c2dad95cdadd7c376723fe8236ad4c9e6fa5bc957c03bc5983",
    ("pivot-4", 0): "7cbbacddac90d8ced6994eecbb0d63ee43e11dbecebc02097dd2d3a6ec00e98d",
    ("pivot-4", 1): "440801f1389ce7b13fabd40930337ad5caa7698b16281af11f74e6ec89e9eaa3",
    ("pivot-4", 2): "747d1828ce12343bdc86b79bf399005268209aa0431079a38f0c291e58ec6429",
    ("pivot-4", 3): "e09a7069d78d44877cae3377e106c367e1d194c35fd17905a9e0ab684d685e33",
}


@pytest.mark.parametrize("setting, seed", sorted(RAYKNIGHT_DIGESTS))
def test_rayknight_check_output_pinned(setting, seed):
    report = verify_rayknight_mc(seed=seed, **RAYKNIGHT_SETTINGS[setting])
    assert _report_digest(report) == RAYKNIGHT_DIGESTS[setting, seed]


@pytest.mark.parametrize("late", ["sample_rk_profile_batch", "sample_paths_inverse_local_time"])
def test_rayknight_check_does_not_depend_on_scheduling(monkeypatch, late):
    # hold one side back so that the other finishes first: the report keeps
    # its bits whichever side ends first
    original = getattr(harness, late)

    def sleep_then_sample(*args, **kwargs):
        time.sleep(0.2)
        return original(*args, **kwargs)

    monkeypatch.setattr(harness, late, sleep_then_sample)
    report = verify_rayknight_mc(seed=2, **RAYKNIGHT_SETTINGS["pivot-1"])
    assert _report_digest(report) == RAYKNIGHT_DIGESTS["pivot-1", 2]


def test_rayknight_profile_side_runs_on_a_worker_thread(monkeypatch):
    threads = {}
    for name in ("sample_rk_profile_batch", "sample_paths_inverse_local_time"):
        def record(*args, _name=name, _original=getattr(harness, name), **kwargs):
            threads[_name] = threading.get_ident()
            return _original(*args, **kwargs)
        monkeypatch.setattr(harness, name, record)
    verify_rayknight_mc(n_samples=1_000, seed=0)
    assert threads["sample_paths_inverse_local_time"] == threading.get_ident()
    assert threads["sample_rk_profile_batch"] != threading.get_ident()


def _never(*args, **kwargs):
    raise AssertionError("a sampler ran")


@pytest.mark.parametrize("kwargs, message", [
    (dict(pivot=0), "need b >= 1, got 0"),
    (dict(level=math.nan), "h must be finite and positive, got nan"),
    (dict(level=-1), "h must be finite and positive, got -1"),
    (dict(pivot=0, level=-1), "need b >= 1, got 0"),
    (dict(pivot=2.5), "b must be a non-negative integer, got 2.5"),
], ids=["pivot-0", "level-nan", "level-negative", "pivot-before-level", "pivot-fraction"])
def test_rayknight_check_rejects_bad_arguments_before_sampling(monkeypatch, kwargs, message):
    # the profile sampler's own errors, raised on the calling thread before
    # either side draws a sample or a thread starts
    monkeypatch.setattr(harness, "sample_rk_profile_batch", _never)
    monkeypatch.setattr(harness, "sample_paths_inverse_local_time", _never)
    count = threading.active_count()
    with pytest.raises(ValueError) as info:
        verify_rayknight_mc(n_samples=100, **kwargs)
    assert type(info.value) is ValueError and str(info.value) == message
    assert threading.active_count() == count


class _DirectError(Exception):
    pass


class _ProfileError(Exception):
    pass


def _raise(error, delay=0.0):
    def sampler(*args, **kwargs):
        time.sleep(delay)
        raise error("side failed")
    return sampler


@pytest.mark.parametrize("direct, profile, expected", [
    (None, None, None),
    (_raise(_DirectError), None, _DirectError),
    (None, _raise(_ProfileError), _ProfileError),
    # the profile side ran first when the sides ran one after the other, so
    # its error wins even when it comes last
    (_raise(_DirectError), _raise(_ProfileError, delay=0.2), _ProfileError),
], ids=["none", "direct", "profile", "both"])
def test_rayknight_check_leaves_no_thread_behind(monkeypatch, direct, profile, expected):
    if direct is not None:
        monkeypatch.setattr(harness, "sample_paths_inverse_local_time", direct)
    if profile is not None:
        monkeypatch.setattr(harness, "sample_rk_profile_batch", profile)
    count = threading.active_count()
    if expected is None:
        verify_rayknight_mc(n_samples=1_000, seed=0)
    else:
        with pytest.raises(expected):
            verify_rayknight_mc(n_samples=1_000, seed=0)
    assert threading.active_count() == count


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


# symmetric on S = {0, 1}; the rate from 1 to 2 has no way back
ONE_WAY_OUT = validate_generator([[0.0, 1.0, 0.0], [1.0, 0.0, 0.5], [0.0, 0.0, 0.0]])


def test_ldp_experiments_take_a_chain_symmetric_on_S():
    assert not ONE_WAY_OUT.is_symmetric()
    report = ldp_probability_experiment(ONE_WAY_OUT, 0, (0, 1), 0, 0.6, 2.0, 20_000, seed=3)
    assert report.passed and report.diagnostics["n_hits"] > 0
    assert report.diagnostics["inf_rate"] == halfspace_rate_infimum(ONE_WAY_OUT, (0, 1), 0, 0.6)
    report = ldp_varadhan_experiment(ONE_WAY_OUT, 0, (0, 1), [0.0, 0.5], 2.0)
    assert report.passed
    assert report.diagnostics["log_mgf"] == log_mgf_exact(ONE_WAY_OUT, 0, (0, 1), [0.0, 0.5], 2.0)


def test_ldp_experiments_refuse_rates_on_S_that_are_not_symmetric(monkeypatch):
    def no_blocks(*args):
        raise AssertionError("a block was drawn")

    monkeypatch.setattr(harness, "fixed_time_chunks", no_blocks)
    with pytest.raises(NotSymmetricError, match="not symmetric"):
        ldp_probability_experiment(ONE_WAY_OUT, 0, (0, 1, 2), 0, 0.6, 2.0, 20_000)
    with pytest.raises(NotSymmetricError, match="not symmetric"):
        ldp_varadhan_experiment(ONE_WAY_OUT, 0, (0, 1, 2), [0.0, 0.5, 0.1], 2.0)


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
    # the summary entry carries the law check's diagnostics, the exact
    # conditioning probability included
    entry = json.loads((tmp_path / "a" / "summary.json").read_text())["experiments"][0]
    assert list(entry) == [
        "name", "kind", "passed", "p_value", "conditioning_z", "n_samples", "n_conditioned",
        "chi2", "dof", "worst_cell_z", "conditioning_mc", "conditioning_quadrature",
        "conditioning_exact", "flagged_cells", "z_analytic", "checks"]
    rows = (tmp_path / "a" / "replay.csv").read_text().splitlines()[2:]
    assert entry["n_samples"] == 40_000
    assert entry["n_conditioned"] == sum(int(r.split(",")[1]) for r in rows)
    assert entry["conditioning_mc"] == entry["n_conditioned"] / 40_000
    assert entry["flagged_cells"] == 0
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
    (dict(LAW, samples=20000.7, cells=3.9), "'samples' must be an integer, got 20000.7"),
    (dict(LAW, cells=3.9), "'cells' must be an integer, got 3.9"),
    ({"kind": "verify-rayknight", "pivot": 2.6}, "'pivot' must be an integer, got 2.6"),
    ({"kind": "verify-rayknight", "samples": True}, "'samples' must be an integer, got True"),
    ({"kind": "verify-rayknight", "pivot": "2"}, "'pivot' must be an integer, got '2'"),
    (dict(PROBABILITY, samples=math.inf), "'samples' must be an integer, got inf"),
    (dict(LAW, seed=2.6), "'seed' must be an integer, got 2.6"),
], ids=["cells-0", "cells-negative", "density-samples-0", "rayknight-samples-0",
        "rayknight-samples-1", "probability-samples-negative", "density-samples-fraction",
        "cells-fraction", "pivot-fraction", "samples-bool", "pivot-string",
        "samples-infinite", "seed-fraction"])
def test_run_suite_rejects_a_bad_count(tmp_path, experiment, message):
    with pytest.raises(ConfigParseError, match=message):
        run_suite({"experiments": [experiment]}, str(tmp_path))
    assert not list(tmp_path.glob("*.csv"))


def test_run_suite_takes_whole_numbers_written_as_floats(tmp_path):
    # a JSON number such as 2e3 is a float: a whole one is the same count
    as_int = {"kind": "verify-rayknight", "name": "p", "pivot": 2, "samples": 2_000, "seed": 4}
    as_float = dict(as_int, pivot=2.0, samples=2e3, seed=4.0)
    rows = []
    for k, exp in enumerate((as_int, as_float)):
        run_suite({"experiments": [exp]}, str(tmp_path / str(k)))
        rows.append((tmp_path / str(k) / "p.csv").read_text().splitlines()[1:])
    assert rows[0] == rows[1] and len(rows[0]) == 4


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
    "halfspace.csv": "26ff8d1e836e00a81eb1f1dc62463db31563d30a34fb3be19f18be81896b826a",
    "law.csv": "4be6b42bfa417ed4a1f0fc933eae83506fe0c114e506a759b3f5b66dae6dfe3b",
    "profile.csv": "71feca5453fcbf3d97dfaaef54dd729fdc67822d091ead6f5dc17ced7dcc32b3",
    "summary.json": "c4cd183ca638f53f5cfcc3954790aa822376ffe44ec22c1167fd5c6e493fe274",
}


def test_run_suite_output_of_every_kind_pinned(tmp_path):
    assert run_suite(PINNED_CONFIG, str(tmp_path)) == 0
    digests = {f: hashlib.sha256((tmp_path / f).read_bytes()).hexdigest()
               for f in sorted(os.listdir(tmp_path))}
    assert digests == PINNED_DIGESTS


# sha256 of every file a run of configs/demo.json writes: the 3-state 200,000-path law and the
# 200,000-path half-space bound are pinned nowhere else
DEMO_CONFIG = os.path.join(os.path.dirname(__file__), os.pardir, "configs", "demo.json")
DEMO_DIGESTS = {
    "exponential-bound.csv": "c0bd97132aca3dbb108b98cd718d004fe5735b066683baef882693bdc727458c",
    "halfspace-bound.csv": "61325573c59f4c747689c21cab07c7d5087d4ad5687655a73c042f3c793302b3",
    "profile-equivalence.csv": "e26339f7f4d74bc05c594a1c9553806acd77f946f49b2ea4f6fe9aa2c5f333fe",
    "summary.json": "9b046c583ed316aac9a8b80b0994baeac78c60bc3250e4ef1b17620778fe0197",
    "three-state-law.csv": "da678558447cc1368c8bb832ffa2b28617241686e6be0ceb51792df972777564",
}


def test_demo_config_output_pinned(tmp_path):
    assert run_suite(load_config(DEMO_CONFIG), str(tmp_path)) == 0
    digests = {f: hashlib.sha256((tmp_path / f).read_bytes()).hexdigest()
               for f in sorted(os.listdir(tmp_path))}
    assert digests == DEMO_DIGESTS


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


@pytest.mark.parametrize("gen, T, cells", [
    (srw_generator(0, 2), 2.0, 7),
    (validate_generator([[0.0, 1.3, 0.0], [0.6, 0.0, 0.9], [0.0, 1.7, 0.0]], (0, 1, 2)),
     1.5, 5),
    (srw_generator(0, 3), 2.0, 3),
])
def test_cell_masses_sum_to_exact_range_probability(gen, T, cells):
    # the range is every state, from the first to the last
    R, end = gen.states, gen.states[-1]
    report = verify_density_mc(gen, 0, end, R, T, 20_000, cells_per_axis=cells, seed=5)
    exact = report.diagnostics["conditioning_exact"]
    assert exact == range_probability(gen, 0, end, R, T)
    assert report.diagnostics["conditioning_quadrature"] == pytest.approx(exact, rel=1e-8)
    assert report.diagnostics["flagged_cells"] == 0
    assert len(report.rows) == cells ** (len(R) - 1)


def _unit_density(free):
    return np.ones(len(free))


def test_collapsed_rule_volumes_polynomials_and_the_disagreement_flag():
    # unit density: the cell [s0, s1] x [v0, v1] of the 2-simplex has volume
    # (v1 - v0) (s1^2 - s0^2) / 2
    s_edges, v_edges = np.linspace(0.0, 2.0, 4), np.linspace(0.0, 1.0, 3)
    masses, flagged = expected_cell_masses(_unit_density, [s_edges, v_edges])
    exact = np.outer(np.diff(s_edges ** 2) / 2, np.diff(v_edges))
    assert masses == pytest.approx(exact, rel=1e-14) and flagged == 0
    # in three dimensions the cell's volume is the integral of the Jacobian
    # s^2 (1 - v1): (s1^3 - s0^3) / 3 times the v1 integral of 1 - v1 times
    # the width in v2; the cells sum to the simplex volume T^3 / 6
    edges = [np.linspace(0.0, 1.5, 3), np.linspace(0.0, 1.0, 3), np.linspace(0.0, 1.0, 4)]
    masses, flagged = expected_cell_masses(_unit_density, edges)
    one_minus = np.diff(-(1.0 - edges[1]) ** 2 / 2)
    exact = (np.diff(edges[0] ** 3)[:, None, None] / 3 * one_minus[None, :, None]
             * np.diff(edges[2])[None, None, :])
    assert masses == pytest.approx(exact, rel=1e-14) and flagged == 0
    assert masses.sum() == pytest.approx(1.5 ** 3 / 6, rel=1e-14)
    # a polynomial of low degree in l is integrated exactly: over the
    # simplex l1 + l2 <= 1, l1^2 l2 integrates to 2! 1! / 5! = 1/60
    masses, flagged = expected_cell_masses(lambda free: free[:, 0] ** 2 * free[:, 1],
                                           [np.linspace(0.0, 1.0, 3)] * 2)
    assert masses.sum() == pytest.approx(1.0 / 60.0, rel=1e-13) and flagged == 0
    line = [np.linspace(0.0, 1.0, 2)]
    masses, flagged = expected_cell_masses(lambda free: free[:, 0] ** 5, line)
    assert masses[0] == pytest.approx(1.0 / 6.0, rel=1e-14) and flagged == 0
    # a kink is flagged
    _, flagged = expected_cell_masses(lambda free: np.abs(free[:, 0] - 0.5), line)
    assert flagged == 1


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_collapsed_nodes_map_back_into_their_own_cell(dim):
    T, cells = 2.0, 3
    edges = [np.linspace(0.0, T, cells + 1)] + [np.linspace(0.0, 1.0, cells + 1)] * (dim - 1)
    for n in harness._CELL_ORDERS:
        for flat, idx in enumerate(np.ndindex(*[cells] * dim)):
            lo = np.array([e[k] for e, k in zip(edges, idx)])
            hi = np.array([e[k + 1] for e, k in zip(edges, idx)])
            nodes, weights = harness._collapsed_rule(lo, hi, n)
            assert (nodes > 0.0).all() and (nodes.sum(axis=1) < T).all() and (weights > 0).all()
            counts = _grid_counts(harness._collapsed_coordinates(list(nodes.T), T), edges)
            assert counts.ravel()[flat] == len(nodes) == counts.sum()


def test_collapsed_coordinates_count_every_row():
    # a last coordinate of the smallest subnormal (its fraction rounds to 1,
    # the top edge) and free sums that round above T still land in a cell
    T, tiny = 2.0, 5e-324
    rows = np.array([
        [1.0, 0.5, tiny],
        [tiny, tiny, tiny],
        [T, np.nextafter(T, 0.0), np.nextafter(T, 0.0)],
        [np.nextafter(T, 0.0), tiny, 1e-300],
        [0.7, 0.6, 0.7],
    ])
    edges = [np.linspace(0.0, T, 8)] + [np.linspace(0.0, 1.0, 8)] * 2
    coords = harness._collapsed_coordinates(list(rows.T), T)
    assert coords[0].max() == T and all(((0.0 <= v) & (v <= 1.0)).all() for v in coords[1:])
    assert _grid_counts(coords, edges).sum() == len(rows)


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
