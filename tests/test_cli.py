"""End-to-end CLI behavior: config parsing, subcommands, exit codes."""

import numpy as np
import pytest

from ledsim import harness
from ledsim.cli import COMMANDS, KNOWN_KEYS, ConfigError, main, parse_config_file


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


def test_compare_rejects_centralized_on_ring_before_tuning(tmp_path, capsys,
                                                          monkeypatch):
    runs = []
    monkeypatch.setattr(harness, "run_experiment",
                        lambda *a, **k: runs.append(a))
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
