"""End-to-end CLI behavior: config parsing, subcommands, exit codes."""

import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from ledsim import cli, harness
from ledsim import topology as topo
from ledsim.cli import COMMANDS, KNOWN_KEYS, ConfigError, main, parse_config_file
from ledsim.problems import SCALE_MAX


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _parse_kv(out):
    vals = {}
    for line in out.splitlines():
        if "=" in line:
            k, _, v = line.partition("=")
            vals[k] = v
    return vals


def _data_lines(path):
    """CSV rows with the echoed-config comment header stripped."""
    return [ln for ln in path.read_text().splitlines()
            if not ln.startswith("#")]


def _header(path):
    """The echoed-config header with its '# ' prefixes stripped."""
    return [ln[2:] for ln in path.read_text().splitlines() if ln.startswith("# ")]


# ---------------------------------------------------------------------------
# config files
# ---------------------------------------------------------------------------

def test_parse_config_file(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        "# comment\n"
        "topology.graph = ring   # trailing comment\n"
        "topology.n = 15\n"
        "\n"
        "hyperparameters.alpha = 0.1\n")
    values = parse_config_file(str(cfg))
    assert values == {"topology.graph": "ring", "topology.n": "15",
                      "hyperparameters.alpha": "0.1"}


def test_parse_config_rejects_unknown_key_with_line_number(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("topology.graph = ring\nnonsense.key = 1\n")
    with pytest.raises(ConfigError, match=r"bad\.cfg:2"):
        parse_config_file(str(cfg))


def test_parse_config_rejects_malformed_line(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("just some words\n")
    with pytest.raises(ConfigError, match=r"bad\.cfg:1"):
        parse_config_file(str(cfg))


def test_a_repeated_config_key_is_refused(tmp_path, capsys):
    cfg = tmp_path / "dup.cfg"
    cfg.write_text("harness.rounds = 5\n# rounds again\nharness.rounds = 7\n")
    with pytest.raises(ConfigError) as info:
        parse_config_file(str(cfg))
    assert str(info.value) == (f"{cfg}:3: key 'harness.rounds' repeated "
                               "(first set on line 1)")
    out = tmp_path / "dup.csv"
    code, _, err = _run(capsys, "--out", str(out), "run", "--config",
                        str(cfg), "--algo", "led", "--graph", "ring", "--n",
                        "5", "--runs", "1")
    assert code == 1 and not out.exists()
    assert err == f"error: {info.value}\n"


def test_cli_reports_config_errors_as_exit_1(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("nonsense.key = 1\n")
    code, _, err = _run(capsys, "--out", str(tmp_path / "o.csv"),
                        "run", "--config", str(cfg), "--algo", "led")
    assert code == 1
    assert "nonsense.key" in err


def test_cli_rejects_removed_weights_key(tmp_path, capsys):
    cfg = tmp_path / "w.cfg"
    cfg.write_text("topology.weights = metropolis\n")
    code, _, err = _run(capsys, "spectra", "--config", str(cfg),
                        "--graph", "ring", "--n", "5")
    assert code == 1
    assert "unknown key 'topology.weights'" in err
    assert _run(capsys, "spectra", "--graph", "ring", "--n", "5",
                "--weights", "metropolis")[0] == 1


def test_every_flag_maps_to_a_known_key():
    for command in COMMANDS.values():
        assert command.seed_key in KNOWN_KEYS
        assert set(command.flags.values()) <= KNOWN_KEYS


def test_known_keys_are_the_signature_keys_plus_the_undeclared_ones():
    # derived from SynthConfig, quadratic_problem, HyperParams and the graph
    # kinds' keys; a parameter added to one of them adds its key here
    assert KNOWN_KEYS == {
        "topology.graph", "topology.n", "topology.rows", "topology.cols",
        "topology.p", "topology.seed", "topology.lazy",
        "problem.kind", "problem.n_nodes", "problem.dim", "problem.n_samples",
        "problem.reg", "problem.sigma_u", "problem.sigma_h", "problem.sigma",
        "problem.feature_scale", "problem.mu", "problem.lip",
        "problem.heterogeneity", "problem.seed",
        "algorithm.id",
        "hyperparameters.alpha", "hyperparameters.beta",
        "hyperparameters.gamma", "hyperparameters.tau", "hyperparameters.p",
        "hyperparameters.zeta", "hyperparameters.eta_pd",
        "harness.rounds", "harness.num_runs", "harness.base_seed",
        "harness.cadence", "harness.target",
    }


@pytest.mark.parametrize("spelling,lazy", [
    ("1", True), ("true", True), ("Yes", True), ("on", True),
    ("0", False), ("false", False), ("no", False), ("OFF", False)])
def test_boolean_key_spellings(tmp_path, capsys, spelling, lazy):
    cfg = tmp_path / "l.cfg"
    cfg.write_text(f"topology.lazy = {spelling}\n")
    code, out, _ = _run(capsys, "spectra", "--config", str(cfg),
                        "--graph", "ring", "--n", "15")
    assert code == 0
    assert _parse_kv(out)["positive_definite"] == str(lazy).lower()


def test_bad_boolean_or_number_is_config_error(tmp_path, capsys):
    cfg = tmp_path / "l.cfg"
    cfg.write_text("topology.lazy = maybe\n")
    code, out, err = _run(capsys, "spectra", "--config", str(cfg),
                          "--graph", "ring", "--n", "15")
    assert code == 1 and out == ""
    assert "bad value for 'topology.lazy'" in err
    # flags are untyped: the value is checked with the key's cast
    code, out, err = _run(capsys, "spectra", "--graph", "ring", "--n", "abc")
    assert code == 1 and out == ""
    assert "bad value for 'topology.n'" in err


# ---------------------------------------------------------------------------
# spectra
# ---------------------------------------------------------------------------

def test_spectra_ring15(capsys):
    code, out, _ = _run(capsys, "spectra", "--graph", "ring", "--n", "15")
    assert code == 0
    vals = _parse_kv(out)
    assert vals["n"] == "15"
    assert float(vals["mixing_rate"]) == pytest.approx(0.9423636384284008,
                                                       abs=1e-12)
    assert vals["positive_definite"] == "false"
    assert float(vals["min_eigenvalue"]) == pytest.approx(-0.319, abs=1e-3)
    assert vals["symmetric"] == "true"
    assert vals["doubly_stochastic"] == "true"
    assert vals["primitive"] == "true"


def test_spectra_complete_graph(capsys):
    code, out, _ = _run(capsys, "spectra", "--graph", "complete", "--n", "8")
    assert code == 0
    assert float(_parse_kv(out)["mixing_rate"]) <= 1e-12


def test_spectra_lazy_flag_restores_positive_definiteness(capsys):
    code, out, _ = _run(capsys, "spectra", "--graph", "ring", "--n", "15",
                        "--lazy")
    assert code == 0
    vals = _parse_kv(out)
    assert vals["positive_definite"] == "true"
    assert float(vals["mixing_rate"]) == pytest.approx(0.971, abs=1e-3)


def test_spectra_invalid_graph_kind(capsys):
    code, _, err = _run(capsys, "spectra", "--graph", "moebius", "--n", "5")
    assert code == 1 and "moebius" in err


@pytest.mark.parametrize("argv,err", [
    # a grid without its sides used to read "grid requires rows*cols == n"
    (["--n", "4", "--cols", "2"], "error: missing required key 'topology.rows'\n"),
    (["--n", "4", "--rows", "2"], "error: missing required key 'topology.cols'\n"),
    # their product is n, so this used to fail as "graph is not connected"
    (["--n", "5", "--rows", "-1", "--cols", "-5"],
     "error: rows must be >= 1, got -1\n")])
def test_a_grid_side_names_its_key(capsys, argv, err):
    assert _run(capsys, "spectra", "--graph", "grid", *argv) == (1, "", err)


def test_erdos_renyi_that_never_connects_is_config_error(capsys):
    code, out, err = _run(capsys, "spectra", "--graph", "erdos_renyi",
                          "--n", "6", "--p", "0")
    assert code == 1 and out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert "topology.p" in err


@pytest.mark.parametrize("how", ["flag", "config"])
def test_a_negative_topology_seed_is_read_as_given(tmp_path, capsys, how):
    # any integer keys a draw; -1 used to fail the uint64 key's range check
    cfg = tmp_path / "seed.cfg"
    cfg.write_text("topology.seed = -1\n")
    args = (["--seed", "-1", "spectra"] if how == "flag"
            else ["spectra", "--config", str(cfg)])
    code, out, err = _run(capsys, *args, "--graph", "erdos_renyi", "--n", "6",
                          "--p", "0.5")
    assert code == 0 and err == ""
    want = topo.metropolis_weights(
        topo.build_graph("erdos_renyi", 6, p=0.5, seed=-1))
    assert _parse_kv(out)["mixing_rate"] == repr(want.mixing_rate)
    # a command that writes a CSV echoes the seed it read
    cfg.write_text("topology.seed = -1\ntopology.p = 0.5\n")
    out_path = tmp_path / "trace.csv"
    code, _, err = _run(capsys, "--out", str(out_path), "run", "--config",
                        str(cfg), "--algo", "led", *QUAD_ARGS,
                        "--graph", "erdos_renyi")
    assert code == 0 and err == ""
    assert "topology.seed = -1" in _header(out_path)


# ---------------------------------------------------------------------------
# synth
# ---------------------------------------------------------------------------

def test_synth_writes_dataset_csv(tmp_path, capsys):
    out_path = tmp_path / "data.csv"
    code, _, _ = _run(capsys, "--out", str(out_path), "synth",
                      "--n-nodes", "3", "--dim", "4", "--n-samples", "20")
    assert code == 0
    lines = _data_lines(out_path)
    assert lines[0] == "node,row,f0,f1,f2,f3,label"
    assert len(lines) == 1 + 3 * 20
    last = lines[-1].split(",")
    assert last[0] == "2" and last[1] == "19"
    assert last[-1] in ("-1", "1")


def test_synth_rejects_quadratic_problem_kind(tmp_path, capsys):
    cfg = tmp_path / "q.cfg"
    cfg.write_text("problem.kind = quadratic\n")
    out_path = tmp_path / "data.csv"
    code, _, err = _run(capsys, "--out", str(out_path), "synth",
                        "--config", str(cfg))
    assert code == 1
    assert "problem.kind" in err
    assert not out_path.exists()


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------

QUAD_ARGS = ["--problem-kind", "quadratic", "--graph", "ring", "--n", "6",
             "--alpha", "0.05", "--rounds", "40", "--runs", "1"]


def test_run_writes_trace_and_prints_finals(tmp_path, capsys):
    out_path = tmp_path / "trace.csv"
    code, out, _ = _run(capsys, "--out", str(out_path), "run",
                        "--algo", "led", *QUAD_ARGS)
    assert code == 0
    lines = _data_lines(out_path)
    assert lines[0] == "round,grad_norm_sq,consensus_err,fgap,vectors_per_link"
    assert len(lines) == 1 + 41
    vals = _parse_kv(out)
    assert vals["rounds"] == "40"
    assert float(vals["grad_norm_sq"]) >= 0
    # effective config is echoed as comment lines
    header = out_path.read_text().splitlines()[0]
    assert header.startswith("#")


def test_run_deterministic_data_rows_with_zero_noise(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    base = ["run", "--algo", "led", *QUAD_ARGS, "--sigma", "0"]
    assert _run(capsys, "--out", str(a), *base)[0] == 0
    code, _, _ = _run(capsys, "--out", str(b), *[
        arg if arg != "1" else "5" for arg in base])  # runs=5 instead of 1
    assert code == 0
    assert _data_lines(a) == _data_lines(b)


def test_run_centralized_on_ring_rejected(tmp_path, capsys):
    code, _, err = _run(capsys, "--out", str(tmp_path / "x.csv"), "run",
                        "--algo", "scaffold", *QUAD_ARGS)
    assert code == 1
    assert "complete" in err


def test_run_divergence_exit_code(tmp_path, capsys):
    code, out, _ = _run(capsys, "--out", str(tmp_path / "d.csv"), "run",
                        "--algo", "led", "--problem-kind", "quadratic",
                        "--graph", "ring", "--n", "6", "--alpha", "50.0",
                        "--rounds", "100", "--runs", "1")
    assert code == 2
    assert "diverged=true" in out


def test_run_diverged_at_initial_point_exits_2(tmp_path, capsys):
    cfg = tmp_path / "far.cfg"
    cfg.write_text("problem.feature_scale = 1e9\n")
    out_path = tmp_path / "d.csv"
    code, out, err = _run(capsys, "--out", str(out_path), "run", "--config",
                          str(cfg), "--algo", "led", "--graph", "ring",
                          "--n", "15", "--rounds", "5", "--runs", "1")
    assert code == 2 and out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert "initial point" in err
    # the effective config and the column names, and no rounds
    assert _data_lines(out_path) == [
        "round,grad_norm_sq,consensus_err,fgap,vectors_per_link"]
    assert "problem.feature_scale = 1e9" in _header(out_path)


@pytest.mark.parametrize("command", ["run", "tune"])
def test_a_reg_past_the_bound_names_its_key(tmp_path, capsys, command):
    # tune used to end in "error: math domain error", and run warned, then
    # reported divergence at the initial point
    cfg = tmp_path / "reg.cfg"
    cfg.write_text("problem.reg = 1e308\n")
    extra = ["--grid-points", "3"] if command == "tune" else []
    code, out, err = _run(capsys, "--out", str(tmp_path / "r.csv"), command,
                          "--config", str(cfg), "--algo", "led", "--graph",
                          "ring", "--n", "5", "--rounds", "3", "--runs", "1",
                          *extra)
    assert code == 1 and out == ""
    assert err.startswith("error: reg must be at most") and len(err.splitlines()) == 1
    assert not (tmp_path / "r.csv").exists()


@pytest.mark.parametrize("command", [
    ["tune", "--algo", "led", "--grid-points", "3"], ["tune", "--algo", "led"],
    ["compare", "--algos", "led,kgt"]])
def test_a_logistic_problem_with_l_zero_names_reg(tmp_path, capsys, command):
    # zero features and reg = 0 give L = 0, and the default grid's top 1/L
    # used to end in ZeroDivisionError; run needs no grid, so it still runs
    cfg = tmp_path / "zero.cfg"
    cfg.write_text("problem.feature_scale = 0\nproblem.reg = 0\n")
    base = ["--config", str(cfg), "--graph", "ring", "--n", "5", "--rounds",
            "3", "--runs", "1"]
    out_path = tmp_path / "z.csv"
    code, out, err = _run(capsys, "--out", str(out_path), *command, *base)
    assert code == 1 and out == ""
    assert err.startswith("error: L = 0") and len(err.splitlines()) == 1
    assert "reg > 0" in err
    assert not out_path.exists()
    assert _run(capsys, "--out", str(out_path), "run", "--algo", "led",
                *base)[0] == 0


@pytest.mark.parametrize("command", ["run", "tune"])
def test_a_lip_whose_set_up_overflows_names_its_bound(tmp_path, capsys,
                                                      command):
    # lip = 1e308 overflowed the node mean of the Hessians, with a warning,
    # then failed with "error: Eigenvalues did not converge"
    cfg = tmp_path / "lip.cfg"
    cfg.write_text("problem.lip = 1e308\n")
    code, out, err = _run(capsys, "--out", str(tmp_path / "l.csv"), command,
                          "--config", str(cfg), "--algo", "led",
                          "--problem-kind", "quadratic", "--graph", "ring",
                          "--n", "5", "--rounds", "3", "--runs", "1")
    assert code == 1 and out == ""
    assert err == "error: lip must be at most 1e+100, got 1e+308\n"
    assert not (tmp_path / "l.csv").exists()


def test_a_lip_mu_spread_past_1e12_names_both_keys(tmp_path, capsys):
    # lip = 1e17 on 15 nodes failed with "aggregate Hessian must be positive
    # definite", which names no key
    cfg = tmp_path / "spread.cfg"
    cfg.write_text("problem.lip = 1e17\n")
    code, out, err = _run(capsys, "--out", str(tmp_path / "s.csv"), "run",
                          "--config", str(cfg), "--algo", "led",
                          "--problem-kind", "quadratic", "--graph", "ring",
                          "--n", "15", "--rounds", "3", "--runs", "1")
    assert code == 1 and out == ""
    assert err == "error: need lip <= 1e12 * mu, got mu=0.1, lip=1e+17\n"
    assert not (tmp_path / "s.csv").exists()


# every key but the three kind selectors, each set alone to each value on
# top of a small base config
_SURFACE_KEYS = sorted(KNOWN_KEYS - {"topology.graph", "problem.kind",
                                     "algorithm.id"})
_SURFACE_VALUES = ("nan", "inf", "-inf", "-1", "0", "", "x", "1e-320", "3",
                   "1.5", "1e308", repr(SCALE_MAX),
                   repr(float(np.nextafter(SCALE_MAX, math.inf))), "1e17")


def test_every_config_key_and_value_ends_in_an_exit_code_not_a_traceback(
        tmp_path, capsys):
    # run and tune on both problem kinds, with a RuntimeWarning an error
    base = {"topology.graph": "ring", "topology.n": "5", "algorithm.id": "led",
            "harness.rounds": "3", "harness.num_runs": "2",
            "problem.n_samples": "20"}
    cases = [({key: value}, key) for key in _SURFACE_KEYS
             for value in _SURFACE_VALUES]
    cases += [({"problem.feature_scale": "0", "problem.reg": "0"}, "problem.reg")]
    out_path = tmp_path / "o.csv"
    failures = []
    for i, (values, key) in enumerate(cases):
        cfg = tmp_path / f"{i}.cfg"
        cfg.write_text("".join(f"{k} = {v}\n" for k, v in
                               {**base, **values}.items()))
        for kind in ("logistic", "quadratic"):
            for command in ("run", "tune"):
                with warnings.catch_warnings():
                    warnings.simplefilter("error", RuntimeWarning)
                    code, _, err = _run(capsys, "--out", str(out_path), command,
                                        "--config", str(cfg), "--problem-kind",
                                        kind)
                errors = [ln for ln in err.splitlines()
                          if ln.startswith("error:")]
                if (code not in (0, 1, 2) or "Traceback" in err
                        or len(errors) > 1 or (code == 1 and key.split(".")[-1]
                                               not in errors[0])):
                    failures.append((values, kind, command, code, err))
    assert failures == []


def test_run_writes_fractional_vector_averages_exactly(tmp_path, capsys):
    # scaffnew at p < 1 skips links at random, so runs send different counts
    cfg = tmp_path / "skips.cfg"
    cfg.write_text("hyperparameters.p = 0.5\n")
    out_path = tmp_path / "v.csv"
    code, out, _ = _run(capsys, "--out", str(out_path), "run", "--config",
                        str(cfg), "--algo", "scaffnew", "--problem-kind",
                        "quadratic", "--graph", "ring", "--n", "6", "--sigma",
                        "0.01", "--rounds", "20", "--runs", "3", "--cadence", "5")
    assert code == 0
    vectors = [ln.split(",")[-1] for ln in _data_lines(out_path)[1:]]
    assert vectors == ["0", "3", repr(16 / 3), "8", "10"]
    assert _parse_kv(out)["vectors_per_link"] == "10"


@pytest.mark.parametrize("flag,field", [
    ("--rounds", "rounds"), ("--runs", "num_runs"), ("--cadence", "cadence")])
def test_run_count_below_one_names_its_key(tmp_path, capsys, flag, field):
    code, out, err = _run(capsys, "--out", str(tmp_path / "x.csv"), "run",
                          "--algo", "led", *QUAD_ARGS, flag, "0")
    assert (code, out) == (1, "")
    assert err == f"error: {field} must be >= 1, got 0\n"
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_run_jobs_below_one_is_error(tmp_path, capsys, jobs):
    code, out, err = _run(capsys, "--jobs", jobs, "--out",
                          str(tmp_path / "x.csv"), "run", "--algo", "led",
                          *QUAD_ARGS)
    assert code == 1 and out == ""
    assert "jobs must be >= 1" in err
    assert not (tmp_path / "x.csv").exists()


def test_run_missing_algo_is_config_error(tmp_path, capsys):
    code, _, err = _run(capsys, "--out", str(tmp_path / "x.csv"), "run",
                        *QUAD_ARGS)
    assert code == 1 and "algorithm.id" in err


def test_run_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        "topology.graph = ring\ntopology.n = 6\n"
        "problem.kind = quadratic\nproblem.n_nodes = 6\n"
        "algorithm.id = led\n"
        "hyperparameters.alpha = 0.05\n"
        "harness.rounds = 10\nharness.num_runs = 1\n")
    out_path = tmp_path / "t.csv"
    code, out, _ = _run(capsys, "--out", str(out_path), "run",
                        "--config", str(cfg), "--rounds", "25")
    assert code == 0
    assert _parse_kv(out)["rounds"] == "25"  # flag overrides the file


def test_run_header_echoes_defaults(tmp_path, capsys):
    out_path = tmp_path / "trace.csv"
    assert _run(capsys, "--out", str(out_path), "--seed", "3", "run",
                "--algo", "led", *QUAD_ARGS)[0] == 0
    header = _header(out_path)
    for line in ("hyperparameters.tau = 1", "harness.cadence = 1",
                 "problem.sigma = 0.0", "harness.base_seed = 3",
                 "hyperparameters.alpha = 0.05", "problem.n_nodes = 6"):
        assert line in header
    # optional keys left unset are omitted
    assert not any(ln.startswith(("hyperparameters.beta", "hyperparameters.zeta",
                                  "topology.p ")) for ln in header)


def test_header_lists_only_read_keys_and_warns_on_the_rest(tmp_path, capsys):
    # run has no target; compare reads no algorithm.id
    out_path = tmp_path / "trace.csv"
    code, _, err = _run(capsys, "--out", str(out_path), "run", "--algo", "led",
                        *QUAD_ARGS, "--target", "5")
    assert code == 0
    assert not any(ln.startswith("harness.target") for ln in _header(out_path))
    assert err == "warning: run does not read 'harness.target'\n"
    cfg = tmp_path / "c.cfg"
    cfg.write_text("algorithm.id = scaffold\n")
    code, _, err = _run(capsys, "--out", str(out_path), "compare", "--config",
                        str(cfg), "--algos", "led", *QUAD_ARGS,
                        "--target", "1e300")
    assert code == 0
    assert not any(ln.startswith("algorithm.id") for ln in _header(out_path))
    assert "harness.target = 1e300" in _header(out_path)
    assert err == "warning: compare does not read 'algorithm.id'\n"


def test_a_method_reads_only_its_own_hyperparameters(tmp_path, capsys):
    # led reads no gamma, which used to be echoed into the header unwarned
    out_path = tmp_path / "trace.csv"
    code, _, err = _run(capsys, "--out", str(out_path), "run", "--algo", "led",
                        "--problem-kind", "quadratic", "--graph", "complete",
                        "--n", "5", "--gamma", "5")
    assert code == 0
    assert err == "warning: run does not read 'hyperparameters.gamma'\n"
    assert {ln.split(" = ")[0] for ln in _header(out_path)
            if ln.startswith("hyperparameters.")} == {
        "hyperparameters.alpha", "hyperparameters.tau"}
    # compare reads every key that one of its methods reads
    code, _, err = _run(capsys, "--out", str(out_path), "compare", "--algos",
                        "led,fedgate", "--problem-kind", "quadratic",
                        "--graph", "complete", "--n", "5", "--gamma", "5",
                        "--rounds", "5", "--runs", "1")
    assert code == 0 and err == ""
    assert "hyperparameters.gamma = 5" in _header(out_path)


@pytest.mark.parametrize("graph,read", [
    ("ring", set()), ("grid", {"topology.rows", "topology.cols"}),
    ("erdos_renyi", {"topology.p", "topology.seed"})])
def test_a_graph_kind_reads_only_its_own_keys(tmp_path, capsys, graph, read):
    # every kind used to read all four keys and echo them, unwarned
    keys = {"topology.rows": 2, "topology.cols": 3, "topology.p": 0.9,
            "topology.seed": 7}
    cfg = tmp_path / "g.cfg"
    cfg.write_text("".join(f"{key} = {val}\n" for key, val in keys.items()))
    out_path = tmp_path / "trace.csv"
    code, _, err = _run(capsys, "--out", str(out_path), "run", "--config",
                        str(cfg), "--algo", "led", *QUAD_ARGS, "--graph", graph)
    assert code == 0
    assert err == "".join(f"warning: run does not read {key!r}\n"
                          for key in sorted(keys.keys() - read))
    header = dict(ln.split(" = ") for ln in _header(out_path))
    assert {key: header[key] for key in keys if key in header} == {
        key: str(keys[key]) for key in read}


def test_analysis_forms_are_not_cli_methods(tmp_path, capsys):
    for algo in ("ed", "uda_ed"):
        out_path = tmp_path / f"{algo}.csv"
        code, out, err = _run(capsys, "--out", str(out_path), "run",
                              "--algo", algo, *QUAD_ARGS)
        assert code == 1 and out == ""
        assert f"unknown algorithm '{algo}'" in err
        assert not out_path.exists()


# per subcommand: flags that set config keys, then flags that set none
SUBCOMMAND_ARGS = {
    "synth": (["--n-nodes", "2", "--dim", "3", "--n-samples", "4"], []),
    "run": (["--algo", "led", *QUAD_ARGS, "--cadence", "3"], []),
    "tune": (["--algo", "led", *QUAD_ARGS, "--target", "1e-3"],
             ["--grid-points", "3"]),
    "compare": ([*QUAD_ARGS, "--tau", "2", "--target", "1e-3"],
                ["--algos", "led,local_dsgd"]),
}


@pytest.mark.parametrize("command", sorted(SUBCOMMAND_ARGS))
def test_echoed_header_reproduces_output_as_config(tmp_path, capsys, command):
    keyed, other = SUBCOMMAND_ARGS[command]
    first, again = tmp_path / "first.csv", tmp_path / "again.csv"
    assert _run(capsys, "--out", str(first), "--seed", "5", command,
                *keyed, *other)[0] == 0
    cfg = tmp_path / "echo.cfg"
    cfg.write_text("\n".join(_header(first)) + "\n")
    assert _run(capsys, "--out", str(again), command, "--config", str(cfg),
                *other)[0] == 0
    assert again.read_bytes() == first.read_bytes()


# ---------------------------------------------------------------------------
# tune / compare
# ---------------------------------------------------------------------------

def test_tune_writes_grid_table(tmp_path, capsys):
    out_path = tmp_path / "tune.csv"
    code, out, _ = _run(capsys, "--out", str(out_path), "tune",
                        "--algo", "led", "--problem-kind", "quadratic",
                        "--graph", "ring", "--n", "6", "--rounds", "200",
                        "--runs", "1", "--target", "1e-8",
                        "--grid-points", "5")
    assert code == 0
    lines = _data_lines(out_path)
    assert lines[0] == "alpha,rounds_to_target,diverged"
    assert len(lines) == 1 + 5
    assert "best_alpha=" in out


@pytest.mark.parametrize("points", ["0", "-3"])
def test_tune_rejects_grid_points_below_one(tmp_path, capsys, monkeypatch,
                                            points):
    # 0 used to tune the default 20-point grid; -3 failed inside numpy
    runs = []
    monkeypatch.setattr(harness, "_run_share", lambda *a: runs.append(a))
    out_path = tmp_path / "tune.csv"
    code, out, err = _run(capsys, "--out", str(out_path), "tune",
                          "--algo", "led", *QUAD_ARGS, "--grid-points", points)
    assert code == 1
    assert f"--grid-points must be >= 1, got {points}" in err
    assert out == "" and not out_path.exists() and not runs


def test_compare_table(tmp_path, capsys):
    out_path = tmp_path / "cmp.csv"
    code, out, _ = _run(capsys, "--out", str(out_path), "compare",
                        "--algos", "led,local_dsgd",
                        "--problem-kind", "quadratic", "--graph", "ring",
                        "--n", "6", "--tau", "3", "--rounds", "300",
                        "--runs", "1", "--target", "1e-6")
    assert code == 0
    lines = _data_lines(out_path)
    assert lines[0] == "algorithm,alpha,rounds_to_target,vectors_to_target"
    assert len(lines) == 3
    assert "led:" in out


def test_tune_reports_every_point_unpruned(tmp_path, capsys, monkeypatch):
    results = []

    def tune_and_keep(*args, **kwargs):
        results.append(harness.tune_to_target(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(cli, "tune_to_target", tune_and_keep)
    code, _, _ = _run(capsys, "--out", str(tmp_path / "tune.csv"), "tune",
                      "--algo", "led", *QUAD_ARGS, "--target", "1e-6",
                      "--grid-points", "6")
    assert code == 0
    assert len(results[0].points) == 6
    assert not any(p.pruned for p in results[0].points)


# data rows that ledsim wrote before an unpruned tune deferred its error
# metric: a logistic grid with points that reach the target and points that
# do not, and CI's quadratic grid whose two largest stepsizes diverge
_GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("name,args", [
    ("tune_logistic_ring6",
     ["--algo", "led", "--graph", "ring", "--n", "6", "--tau", "10",
      "--rounds", "120", "--runs", "2", "--grid-points", "6"]),
    ("tune_led_server_diverging",
     ["--algo", "led_server", "--problem-kind", "quadratic", "--graph",
      "complete", "--n", "6", "--gamma", "30", "--sigma", "0.01", "--rounds",
      "200", "--cadence", "3", "--runs", "3", "--target", "1e-3",
      "--grid-points", "6"])])
def test_tune_rows_equal_the_stored_rows(tmp_path, capsys, name, args):
    out_path = tmp_path / "tune.csv"
    code, _, _ = _run(capsys, "--out", str(out_path), "tune", *args)
    assert code == 0
    want = (_GOLDEN / f"{name}.csv").read_text().splitlines()
    assert _data_lines(out_path) == want


def test_compare_builds_the_problem_once(tmp_path, capsys, monkeypatch):
    calls = []
    synth = cli.synth_logistic
    monkeypatch.setattr(cli, "synth_logistic",
                        lambda *a: calls.append(a) or synth(*a))
    code, out, _ = _run(capsys, "--out", str(tmp_path / "cmp.csv"), "compare",
                        "--algos", "led,local_dsgd,kgt", "--graph", "ring",
                        "--n", "6", "--tau", "2", "--rounds", "10",
                        "--runs", "1")
    assert code == 0 and out.count("rounds=") == 3
    assert len(calls) == 1


def test_compare_rejects_unknown_algorithm_before_tuning(tmp_path, capsys,
                                                         monkeypatch):
    runs = []
    monkeypatch.setattr(harness, "_run", lambda *a: runs.append(a))
    code, out, err = _run(capsys, "--out", str(tmp_path / "c.csv"), "compare",
                          "--algos", "led,bogus", *QUAD_ARGS)
    assert code == 1 and "unknown algorithm 'bogus'" in err
    assert out == "" and len(runs) == 0


def test_compare_rejects_centralized_on_ring_before_tuning(tmp_path, capsys,
                                                          monkeypatch):
    runs = []
    monkeypatch.setattr(harness, "_run", lambda *a: runs.append(a))
    out_path = tmp_path / "c.csv"
    code, out, err = _run(capsys, "--out", str(out_path), "compare",
                          "--algos", "led,scaffold", *QUAD_ARGS)
    assert code == 1
    assert "scaffold" in err and "complete" in err
    assert out == "" and not out_path.exists()
    assert len(runs) == 0


def test_run_explicit_zero_beta_is_config_error(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("hyperparameters.beta = 0\n")
    out_path = tmp_path / "t.csv"
    code, _, err = _run(capsys, "--out", str(out_path), "run",
                        "--config", str(cfg), "--algo", "led", *QUAD_ARGS)
    assert code == 1
    assert "beta" in err
    assert not out_path.exists()


@pytest.mark.parametrize("flag,value", [("--alpha", "nan"), ("--alpha", "inf"),
                                        ("--alpha", "0"), ("--gamma", "nan"),
                                        ("--gamma", "-1")])
def test_run_rejects_a_bad_stepsize(tmp_path, capsys, monkeypatch, flag,
                                    value):
    # --alpha nan used to run every round and exit 2, --gamma nan exit 0;
    # led does not read gamma, the server-workers fedgate does
    runs = []
    monkeypatch.setattr(harness, "_run_share", lambda *a: runs.append(a))
    out_path = tmp_path / "x.csv"
    algo = (["fedgate", *QUAD_ARGS, "--graph", "complete"] if flag == "--gamma"
            else ["led", *QUAD_ARGS])
    code, out, err = _run(capsys, "--out", str(out_path), "run", "--algo",
                          *algo, flag, value)
    assert code == 1 and out == ""
    assert f"error: {flag[2:]} must be positive and finite, got" in err
    assert not out_path.exists() and not runs


@pytest.mark.parametrize("args,key", [
    (["--problem-kind", "quadratic", "--sigma", "-1"], "sigma"),
    (["--problem-kind", "quadratic", "--sigma", "nan"], "sigma"),
    (["--sigma", "nan"], "sigma"),
    (["--sigma-h", "inf"], "sigma_h"),
    (["--problem-kind", "quadratic", "--config", "heterogeneity.cfg"],
     "heterogeneity"),
    (["--config", "dim.cfg"], "dim")])
def test_run_rejects_a_bad_problem_config(tmp_path, capsys, monkeypatch, args,
                                          key):
    # each used to run: a quadratic --sigma -1 or nan on exact gradients
    # (exit 0), heterogeneity nan to exit 2, and the rest to exit 0
    (tmp_path / "heterogeneity.cfg").write_text("problem.heterogeneity = nan\n")
    (tmp_path / "dim.cfg").write_text("problem.dim = 0\n")
    monkeypatch.chdir(tmp_path)
    runs = []
    monkeypatch.setattr(harness, "_run_share", lambda *a: runs.append(a))
    code, out, err = _run(capsys, "--out", "x.csv", "run", "--algo", "led",
                          "--graph", "ring", "--n", "5", "--runs", "2",
                          "--rounds", "20", *args)
    assert code == 1 and out == ""
    assert err.startswith(f"error: {key} must be ") and err.count("\n") == 1
    assert not (tmp_path / "x.csv").exists() and not runs


@pytest.mark.parametrize("args,message", [
    (["--problem-kind", "foo"],
     "unknown problem kind 'foo': 'problem.kind' is logistic or quadratic"),
    (["--config", "nodes.cfg", "--n", "6"],
     "problem.n_nodes must match topology.n")], ids=["kind", "n_nodes"])
def test_run_rejects_a_bad_problem_kind_or_node_count(tmp_path, capsys,
                                                      monkeypatch, args,
                                                      message):
    (tmp_path / "nodes.cfg").write_text("problem.n_nodes = 5\n")
    monkeypatch.chdir(tmp_path)
    code, out, err = _run(capsys, "--out", "x.csv", "run", "--algo", "led",
                          "--graph", "ring", "--rounds", "5", "--runs", "1",
                          *args)
    assert code == 1 and out == ""
    assert err == f"error: {message}\n"
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("command", [["tune", "--algo", "led"],
                                     ["compare", "--algos", "led,kgt"]])
@pytest.mark.parametrize("target", ["nan", "-0.001"])
def test_tune_and_compare_reject_a_bad_target(tmp_path, capsys, monkeypatch,
                                              command, target):
    # tune --target nan used to print best_alpha=not_achieved and exit 0
    runs = []
    monkeypatch.setattr(harness, "_run_share", lambda *a: runs.append(a))
    out_path = tmp_path / "t.csv"
    code, out, err = _run(capsys, "--out", str(out_path), *command,
                          *QUAD_ARGS, "--target", target)
    assert code == 1 and out == ""
    assert "error: target must be >= 0, got" in err
    assert not out_path.exists() and not runs


@pytest.mark.parametrize("command", [
    ["synth", "--n-nodes", "2", "--dim", "2", "--n-samples", "5"],
    ["run", "--algo", "led", *QUAD_ARGS],
    ["tune", "--algo", "led", *QUAD_ARGS],
    ["compare", "--algos", "led,kgt", *QUAD_ARGS]])
@pytest.mark.parametrize("out", ["dir", "missing/x.csv", ""])
def test_a_bad_out_fails_before_any_round(tmp_path, capsys, monkeypatch,
                                          command, out):
    # a directory used to end in a traceback, and a missing directory in
    # exit 1, each only after the last round
    monkeypatch.chdir(tmp_path)
    (tmp_path / "dir").mkdir()
    runs = []
    monkeypatch.setattr(harness, "_run_share", lambda *a: runs.append(a))
    code, stdout, err = _run(capsys, "--out", out, *command)
    assert code == 1 and stdout == ""
    assert err.startswith(f"error: --out {out!r} is ") and err.count("\n") == 1
    assert not runs and not any((tmp_path / "dir").iterdir())


def test_an_out_that_fails_at_write_time_is_one_error_line(tmp_path, capsys):
    # the directory exists, but no file system takes a 300-byte name
    out_path = tmp_path / ("x" * 300)
    code, stdout, err = _run(capsys, "--out", str(out_path), "run", "--algo",
                             "led", *QUAD_ARGS)
    assert code == 1 and stdout == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_compare_empty_algo_list(tmp_path, capsys):
    code, _, err = _run(capsys, "--out", str(tmp_path / "c.csv"), "compare",
                        "--algos", " , ")
    assert code == 1 and "nonempty" in err


def test_compare_huge_target_round_zero(tmp_path, capsys):
    out_path = tmp_path / "cmp.csv"
    code, _, _ = _run(capsys, "--out", str(out_path), "compare",
                      "--algos", "led", "--problem-kind", "quadratic",
                      "--graph", "ring", "--n", "6", "--rounds", "5",
                      "--runs", "1", "--target", "1e300")
    assert code == 0
    row = _data_lines(out_path)[1].split(",")
    assert int(row[2]) == 0


# ---------------------------------------------------------------------------
# argument surface
# ---------------------------------------------------------------------------

def test_usage_error_exit_code(capsys):
    assert main(["bogus-subcommand"]) == 1


def test_missing_subcommand_is_usage_error(capsys):
    assert main([]) == 1
