import json
import time

import numpy as np
import pytest

from loctimes.cli import main


@pytest.fixture()
def twostate(tmp_path):
    path = tmp_path / "twostate.json"
    path.write_text(json.dumps(
        {"states": [1, 2], "rates": [[1, 2, 1.0], [2, 1, 1.0]]}))
    return str(path)


def _complete_three_state(tmp_path):
    path = tmp_path / "complete.json"
    path.write_text(json.dumps({"states": [0, 1, 2], "rates": [
        [x, y, 1.0] for x in range(3) for y in range(3) if x != y]}))
    return str(path)


def test_density_command_prints_value_and_certificate(tmp_path, twostate, capsys):
    # the routing of density(): a tree support prints the exact product, any
    # other support the series value and its certificate
    status = main(["density", "--generator", twostate, "--R", "1,2",
                   "--a", "1", "--b", "2", "--l", "0.5,0.5"])
    out = capsys.readouterr().out
    assert status == 0
    assert out.startswith("0.4657596")
    assert out.splitlines()[1] == "exact tree product of Bessel kernels (no truncation to certify)"
    status = main(["density", "--generator", _complete_three_state(tmp_path), "--R", "0,1,2",
                   "--a", "0", "--b", "2", "--l", "0.5,0.7,0.8"])
    value, certificate = capsys.readouterr().out.splitlines()
    assert status == 0
    assert float(value) > 0.0
    assert certificate.startswith("certified truncation error <= ")


def test_density_command_bounds_an_underflowing_series_in_log_space(tmp_path, capsys):
    # no tree on (0, 1, 2), and the diagonal factor exp(-732) underflows:
    # the certificate is the log-space bound, not a false 0
    killed = tmp_path / "killed.json"
    killed.write_text(json.dumps({"states": [0, 1, 2, 3], "rates": [
        *([x, y, 0.1] for x in range(3) for y in range(3) if x != y),
        *([x, 3, 12.0] for x in range(3)), [3, 0, 1.0]]}))
    assert main(["density", "--generator", str(killed), "--R", "0,1,2", "--a", "0",
                 "--b", "1", "--l", "20,20,20"]) == 0
    value, certificate = capsys.readouterr().out.splitlines()
    assert float(value) > 0.0
    assert certificate.startswith("certified truncation error <= ")
    assert "<= 0.000e+00" not in certificate


def test_density_command_answers_a_tree_the_series_refuses(tmp_path, capsys):
    srw = tmp_path / "srw.json"
    srw.write_text(json.dumps({"srw": [0, 2]}))
    request = ["--R", "0,1,2", "--a", "0", "--b", "2", "--l", "20,20,20"]
    assert main(["density", "--generator", str(srw), *request]) == 0
    assert capsys.readouterr().out.startswith("0.004004140704\n")
    # the complete graph is no tree, and the series cannot certify it there
    assert main(["density", "--generator", _complete_three_state(tmp_path), *request]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: certified tail ")
    assert "Traceback" not in err and "nan" not in err


def test_bound_command(twostate, capsys):
    status = main(["bound", "--generator", twostate, "--R", "1,2",
                   "--a", "1", "--b", "2", "--l", "0.5,0.5"])
    assert status == 0
    assert float(capsys.readouterr().out.strip()) == pytest.approx(
        np.exp(2.5), rel=1e-9)


def test_rate_command(twostate, capsys):
    status = main(["rate", "--generator", twostate, "--mu", "0.75,0.25"])
    out = capsys.readouterr().out
    assert status == 0
    assert "value = 0.133974596" in out
    assert "dirichlet form" in out


@pytest.fixture()
def reversible_path(tmp_path):
    path = tmp_path / "path.json"
    path.write_text(json.dumps({"states": [0, 1, 2], "rates": [
        [0, 1, 2.0], [1, 0, 1.0], [1, 2, 0.5], [2, 1, 3.0]]}))
    return str(path)


def test_rate_command_on_a_reversible_chain_stops_at_the_first_check(reversible_path, capsys):
    status = main(["rate", "--generator", reversible_path, "--mu", "0.2,0.5,0.3"])
    assert status == 0
    assert "iterations = 1," in capsys.readouterr().out


def test_rate_command_refuses_a_mu_that_is_not_finite(reversible_path, capsys):
    # it printed `value = 0.5`, the nan state dropped from the support
    status = main(["rate", "--generator", reversible_path, "--mu", "nan,0.5,0.5"])
    captured = capsys.readouterr()
    assert status == 2 and captured.out == ""
    assert captured.err == "usage error: mu must be finite; got nan at state 0\n"


def test_ldp_command_halfspace(twostate, capsys):
    status = main(["ldp", "--generator", twostate, "--S", "1,2",
                   "--T", "10", "--mode", "prob", "--halfspace", "2:0.8"])
    out = capsys.readouterr().out
    assert status == 0
    assert "inf_rate = 0.2" in out


def test_malformed_generator_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(
        {"states": [1, 2], "rates": [[1, 2, 1.0], [2, 0.5]]}))
    status = main(["density", "--generator", str(bad), "--R", "1,2",
                   "--a", "1", "--b", "2", "--l", "0.5,0.5"])
    assert status == 2
    assert "#1" in capsys.readouterr().err


def test_unreadable_config_exits_2(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    status = main(["verify-density", "--config", str(missing)])
    assert status == 2


def test_simulate_is_deterministic(twostate, capsys):
    args = ["simulate", "--generator", twostate, "--start", "1",
            "--T", "2.0", "--samples", "500", "--seed", "42"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    assert capsys.readouterr().out == first


def test_simulate_hopeless_horizon_exits_1_at_once(tmp_path, capsys):
    srw = tmp_path / "srw.json"
    srw.write_text(json.dumps({"srw": [0, 2]}))
    start = time.perf_counter()
    status = main(["simulate", "--generator", str(srw), "--start", "0",
                   "--T", "1e308", "--samples", "2"])
    assert time.perf_counter() - start < 1.0
    assert status == 1
    assert capsys.readouterr().err.startswith("error: 2 paths refused before drawing")


def test_simulate_inverse_mode(twostate, capsys):
    status = main(["simulate", "--generator", twostate, "--start", "1",
                   "--pivot", "2", "--level", "0.5", "--samples", "1",
                   "--seed", "3"])
    out = capsys.readouterr().out
    assert status == 0
    assert "endpoint=2" in out


def test_simulate_inverse_mode_batch_output_pinned(tmp_path, capsys):
    # printed by the path-major sampler that preceded the site-major buffer;
    # the column means and deviations keep their summation order
    srw = tmp_path / "srw.json"
    srw.write_text(json.dumps({"srw": [0, 2]}))
    assert main(["simulate", "--generator", str(srw), "--start", "0", "--pivot", "2",
                 "--level", "1", "--samples", "5000", "--seed", "7"]) == 0
    assert capsys.readouterr().out == (
        "0,2.9683370889416083,2.8841405700835088\n"
        "1,1.9932996308930921,1.7405406353252846\n"
        "2,1.0,0.0\n")


def test_chi_discrete_zero_functional(capsys):
    status = main(["chi-discrete", "--radius", "2", "--alpha", "2.0"])
    assert status == 0
    assert abs(float(capsys.readouterr().out.strip())) < 1e-9


@pytest.mark.parametrize("box, name", [
    (["--radius", "-1"], "box_radius"),
    (["--radius", "1", "--dim", "0"], "dim"),
    (["--radius", "1", "--delta-weight", "inf"], "V")])
def test_chi_discrete_bad_box_exits_2(capsys, box, name):
    assert main(["chi-discrete", "--alpha", "1", *box]) == 2
    assert capsys.readouterr().err.startswith(f"usage error: {name} must")


def test_verify_density_cli_roundtrip(tmp_path, twostate, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "kind": "verify-density",
        "name": "cli-two-state",
        "generator": {"states": [1, 2], "rates": [[1, 2, 1.0], [2, 1, 1.0]]},
        "start": 1, "endpoint": 2, "range": [1, 2],
        "T": 1.0, "samples": 50_000, "cells": 20, "seed": 9,
    }))
    out_dir = tmp_path / "results"
    status = main(["verify-density", "--config", str(cfg), "--out", str(out_dir)])
    assert status == 0
    summary = json.loads((out_dir / "summary.json").read_text())
    assert summary["all_passed"] is True


def test_verify_density_config_without_seed_uses_seed_zero(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "kind": "verify-density", "name": "seedless",
        "generator": {"states": [1, 2], "rates": [[1, 2, 1.0], [2, 1, 1.0]]},
        "start": 1, "endpoint": 2, "range": [1, 2],
        "T": 1.0, "samples": 20_000, "cells": 10,
    }))
    out_dir = tmp_path / "results"
    assert main(["verify-density", "--config", str(cfg), "--out", str(out_dir)]) == 0
    assert "seed=0," in (out_dir / "seedless.csv").read_text().splitlines()[0]


def test_verify_density_five_state_range_exits_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "kind": "verify-density", "name": "five-state",
        "generator": {"srw": [0, 4]},
        "start": 0, "endpoint": 4, "range": [0, 1, 2, 3, 4], "T": 2.0, "seed": 1,
    }))
    status = main(["verify-density", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert status == 2
    err = capsys.readouterr().err
    assert "'five-state'" in err and "|R| <= 4" in err


@pytest.mark.parametrize("option, value, mode", [
    ("--samples", "0", []), ("--T", "0", []), ("--level", "-1", ["--pivot", "2"])],
    ids=["samples", "T", "level"])
def test_simulate_rejects_nonpositive_input(twostate, capsys, option, value, mode):
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--generator", twostate, "--start", "1", *mode, option, value])
    assert exc.value.code == 2
    assert f"argument {option}: must be finite and > 0" in capsys.readouterr().err


def test_simulate_single_path_format(twostate, capsys):
    status = main(["simulate", "--generator", twostate, "--start", "1",
                   "--T", "2.0", "--seed", "5"])
    lines = capsys.readouterr().out.splitlines()
    assert status == 0
    assert [line.split(",")[0] for line in lines[:2]] == ["1", "2"]
    local = {int(line.split(",")[0]): float(line.split(",")[1]) for line in lines[:2]}
    assert sum(local.values()) == pytest.approx(2.0, rel=1e-12)
    visited = sorted({x for x, v in local.items() if v > 0} | {1})
    assert lines[2].startswith("# endpoint=")
    assert lines[2].endswith(f" horizon=2.0 range={visited}")


@pytest.fixture()
def seeded_rayknight(tmp_path):
    cfg = tmp_path / "rk.json"
    cfg.write_text(json.dumps({"kind": "verify-rayknight", "name": "rk-seeded", "pivot": 2,
                               "level": 1.0, "samples": 2_000, "seed": 9}))
    return str(cfg)


def _csv_header(path) -> str:
    return path.read_text().splitlines()[0]


def test_verify_seed_option_replaces_config_seed(tmp_path, seeded_rayknight):
    out_dir = tmp_path / "seeded"
    assert main(["verify-rayknight", "--config", seeded_rayknight, "--out", str(out_dir)]) == 0
    # a run without --seed keeps the config's seed and its config hash
    assert _csv_header(out_dir / "rk-seeded.csv") == (
        "# config_hash=cd8836db0788e64b, seed=9, kind=verify-rayknight")
    out_dir = tmp_path / "overridden"
    assert main(["verify-rayknight", "--config", seeded_rayknight, "--out", str(out_dir),
                 "--seed", "5"]) == 0
    assert ", seed=5, " in _csv_header(out_dir / "rk-seeded.csv")
    summary = json.loads((out_dir / "summary.json").read_text())
    assert summary["config"]["seed"] == 5
    assert [exp["seed"] for exp in summary["config"]["experiments"]] == [5]


@pytest.mark.parametrize("command", ["verify-density", "verify-rayknight"])
@pytest.mark.parametrize("samples", ["0", "-5"])
def test_verify_rejects_nonpositive_samples(seeded_rayknight, capsys, command, samples):
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", seeded_rayknight, "--samples", samples])
    assert exc.value.code == 2
    assert "argument --samples: must be finite and > 0" in capsys.readouterr().err


@pytest.mark.parametrize("V", ["0.5", "0.5,0.1,0.2"], ids=["short", "long"])
def test_ldp_varadhan_rejects_V_of_wrong_length(twostate, capsys, V):
    status = main(["ldp", "--generator", twostate, "--S", "1,2", "--T", "5",
                   "--mode", "varadhan", "--V", V])
    assert status == 2
    assert "V has" in capsys.readouterr().err


@pytest.mark.parametrize("V", [[0.5], [0.0, 0.5, 0.1]], ids=["short", "long"])
def test_verify_config_with_V_of_wrong_length_exits_2(tmp_path, capsys, V):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"experiments": [{
        "kind": "ldp-varadhan", "name": "exponential",
        "generator": {"states": [1, 2], "rates": [[1, 2, 1.0], [2, 1, 1.0]]},
        "start": 1, "S": [1, 2], "V": V, "T": 5.0}]}))
    status = main(["verify-density", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert status == 2
    assert "'exponential': V has" in capsys.readouterr().err


def test_verify_config_with_string_keyed_V(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"experiments": [{
        "kind": "ldp-varadhan", "name": "d", "generator": {"srw": [0, 2]},
        "start": 0, "S": [0, 1, 2], "V": {"0": 0.0, "1": 0.3, "2": 0.1}, "T": 5.0,
        "samples": 2_000}]}))
    assert main(["verify-density", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0


@pytest.mark.parametrize("halfspace", ["2", "2:", "2:abc", "2:nan", "2:0.5:1"])
def test_ldp_halfspace_without_finite_threshold_exits_2(twostate, capsys, halfspace):
    status = main(["ldp", "--generator", twostate, "--S", "1,2", "--T", "10",
                   "--mode", "prob", "--halfspace", halfspace])
    assert status == 2
    assert "--halfspace needs STATE:THRESH" in capsys.readouterr().err


def test_verify_config_with_nan_horizon_exits_2(tmp_path, capsys):
    # json reads NaN; a sampler run to a NaN horizon would never stop
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "kind": "verify-density", "name": "nan-horizon", "generator": {"srw": [0, 2]},
        "start": 0, "endpoint": 2, "range": [0, 1, 2], "T": float("nan"), "samples": 1_000,
    }))
    assert '"T": NaN' in cfg.read_text()
    status = main(["verify-density", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert status == 2
    assert "'nan-horizon': need finite T > 0" in capsys.readouterr().err


@pytest.mark.parametrize("command, experiment, field", [
    ("verify-density", {"generator": {"srw": [0, 2]}, "start": 0, "endpoint": 2,
                        "range": [0, 1, 2], "T": 2.0, "cells": 0}, "'cells'"),
    ("verify-rayknight", {"samples": 1}, "'samples'"),
])
def test_verify_config_with_a_bad_count_exits_2(tmp_path, capsys, command, experiment, field):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(dict(experiment, kind=command, name="bad-count")))
    status = main([command, "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert status == 2
    assert capsys.readouterr().err.startswith(
        f"config error: experiment 'bad-count': {field} must be at least ")


@pytest.mark.parametrize("command, experiment, message", [
    ("verify-density", {"generator": {"srw": [0, 2]}, "start": 0, "endpoint": 2,
                        "range": [0, 1, 2], "T": 2.0, "samples": 20000.7, "cells": 3.9},
     "'samples' must be an integer, got 20000.7"),
    ("verify-rayknight", {"pivot": 2.6, "samples": 2000}, "'pivot' must be an integer, got 2.6"),
    ("verify-rayknight", {"samples": 2000.5}, "'samples' must be an integer, got 2000.5"),
    ("verify-rayknight", {"level": -1}, "h must be finite and positive, got -1.0"),
])
def test_verify_config_with_a_bad_number_exits_2(tmp_path, capsys, command, experiment,
                                                 message):
    # a count is not truncated (20000.7 samples on 3.9 cells used to run 20000
    # paths on a 3x3 grid, and pivot 2.6 ran pivot 2), and a bad level is a
    # config error, not a traceback from the worker thread
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(dict(experiment, kind=command, name="bad-count")))
    status = main([command, "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert status == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: experiment 'bad-count': {message}")
    assert not (tmp_path / "out" / "bad-count.csv").exists()


@pytest.mark.parametrize("document", ["[1, 2]", "3", '"config"', "null"])
def test_verify_config_that_is_not_an_object_exits_2(tmp_path, capsys, document):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(document)
    status = main(["verify-density", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert status == 2
    assert "must be a JSON object" in capsys.readouterr().err


@pytest.mark.parametrize("command, option, value", [
    ("density", "--a", "5"), ("density", "--l", "0.5"), ("density", "--R", "1,1"),
    ("bound", "--a", "5"), ("bound", "--l", "0.5"), ("bound", "--R", "1,1")])
def test_point_command_with_a_bad_request_exits_2(twostate, capsys, command, option, value):
    request = {"--R": "1,2", "--a": "1", "--b": "2", "--l": "0.5,0.5", option: value}
    status = main([command, "--generator", twostate,
                   *[text for item in request.items() for text in item]])
    assert status == 2
    assert capsys.readouterr().err.startswith("usage error: ")


def test_density_command_names_the_shape_of_a_wrong_length_point(tmp_path, capsys):
    srw = tmp_path / "srw.json"
    srw.write_text(json.dumps({"srw": [0, 2]}))
    assert main(["density", "--generator", str(srw), "--R", "0,1,2", "--a", "0", "--b", "2",
                 "--l", "0.5,0.7"]) == 2
    assert capsys.readouterr().err == (
        "usage error: local times must be an array of shape (P, 3); got shape (1, 2)\n")


def test_usage_and_config_errors_carry_their_own_labels(tmp_path, twostate, capsys):
    # a bad command-line request involves no config; a bad config document does
    request = ["--R", "1,2", "--a", "5", "--b", "2", "--l", "0.5,0.5"]
    assert main(["density", "--generator", twostate, *request]) == 2
    assert capsys.readouterr().err == "usage error: site 5 is not in the range (1, 2)\n"
    assert main(["ldp", "--generator", twostate, "--S", "1,2", "--T", "10"]) == 2
    assert capsys.readouterr().err.startswith("usage error: ldp prob needs")
    cfg = tmp_path / "cfg.json"
    cfg.write_text("[1, 2]")
    assert main(["verify-density", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith("config error: ")
    bad_generator = tmp_path / "gen.json"
    bad_generator.write_text('{"states": [1, 2]}')
    assert main(["density", "--generator", str(bad_generator), *request]) == 2
    assert capsys.readouterr().err.startswith("config error: ")


def test_ldp_halfspace_state_outside_S_exits_2(tmp_path, capsys):
    srw = tmp_path / "srw.json"
    srw.write_text(json.dumps({"srw": [0, 2]}))
    status = main(["ldp", "--generator", str(srw), "--S", "0,1,2", "--T", "2",
                   "--halfspace", "7:0.5"])
    assert status == 2
    assert capsys.readouterr().err == "usage error: site 7 is not in the range (0, 1, 2)\n"
    assert main(["ldp", "--generator", str(srw), "--S", "0,1,2", "--T", "2",
                 "--mode", "varadhan", "--V", "0,0.3,0.1"]) == 0
    assert "log-moment bound = " in capsys.readouterr().out


def test_generator_with_a_nan_rate_is_a_config_error(tmp_path, twostate, capsys):
    # json reads NaN; validate_generator refuses it
    bad_generator = tmp_path / "gen.json"
    bad_generator.write_text(json.dumps(
        {"states": [1, 2], "rates": [[1, 2, float("nan")], [2, 1, 1.0]]}))
    status = main(["density", "--generator", str(bad_generator), "--R", "1,2",
                   "--a", "1", "--b", "2", "--l", "0.5,0.5"])
    assert status == 2
    assert capsys.readouterr().err.startswith("config error: generator spec: rate nan")


def test_rate_command_with_a_short_mu_exits_2(twostate, capsys):
    assert main(["rate", "--generator", twostate, "--mu", "1.0"]) == 2
    assert "mu does not match" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["-1", "0", "nan", "inf"])
@pytest.mark.parametrize("command, rest", [
    ("density", ["--R", "1,2", "--a", "1", "--b", "2", "--l", "0.5,0.5"]),
    ("bound", ["--R", "1,2", "--a", "1", "--b", "2", "--l", "0.5,0.5"]),
    ("rate", ["--mu", "0.75,0.25"])],
    ids=["density", "bound", "rate"])
def test_tol_must_be_finite_and_positive(twostate, capsys, command, rest, value):
    with pytest.raises(SystemExit) as exc:
        main([command, "--generator", twostate, *rest, "--tol", value])
    assert exc.value.code == 2
    assert "argument --tol: must be finite and > 0" in capsys.readouterr().err
