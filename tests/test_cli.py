"""CLI parsing, dispatch, exit statuses, determinism, and the golden trace."""

import importlib.resources
import json
from pathlib import Path

import pytest

from infospread import cli, netdiff
from infospread.errors import UsageError

NETWORK10 = str(importlib.resources.files("infospread.data") / "network10.csv")
GOLDEN = Path(__file__).parent / "golden" / "gossip_trace_10node_seed42.csv"

GOSSIP_ARGS = ["gossip", "simulate", "--network", NETWORK10,
               "--p_select", "0.5", "--p_drop", "0.1", "--p_loss", "0.2",
               "--p_gain", "0.8", "--rounds", "100", "--seed", "42",
               "--informed", "0", "--quiet"]


# -- parsing ----------------------------------------------------------------

def test_preset_fills_sir_parameters():
    config = cli.parse_args(["sir", "--preset", "fig6b", "--out", "o.csv"])
    p = config.params
    assert (p["beta"], p["alpha"], p["mu"], p["n"]) == (0.20, 0.10, 0.0, 1.0)
    assert config.out == "o.csv"


def test_explicit_flag_overrides_preset():
    config = cli.parse_args(["sir", "--preset", "fig6b", "--mu", "0.05"])
    assert config.params["mu"] == 0.05
    assert config.params["beta"] == 0.20


def test_missing_subcommand_is_usage_error():
    with pytest.raises(UsageError):
        cli.parse_args([])


def test_out_of_range_probability_names_the_flag():
    with pytest.raises(UsageError) as err:
        cli.parse_args(["gossip", "--p_select", "1.5"])
    assert "p_select" in str(err.value)


def test_missing_action_is_usage_error():
    with pytest.raises(UsageError) as err:
        cli.parse_args(["gossip", "--p_select", "0.5"])
    assert "action" in str(err.value)


def test_unknown_flag_exits_2():
    assert cli.main(["sir", "--bogus", "1"]) == 2


def test_missing_input_file_exits_3(tmp_path):
    status = cli.main(["gossip", "simulate", "--network",
                       str(tmp_path / "nope.csv"), "--p_select", "0.5",
                       "--p_drop", "0.1", "--p_loss", "0.2", "--p_gain", "0.8",
                       "--rounds", "5"])
    assert status == 3


def test_negative_seed_is_usage_error():
    with pytest.raises(UsageError):
        cli.parse_args(["sir", "--preset", "fig6b", "--seed", "-1"])


def test_config_file_merges_and_flags_win(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"p_select": 0.5, "p_drop": 0.1, "p_loss": 0.2,
                               "p_gain": 0.8, "seed": 9}))
    config = cli.parse_args(["gossip", "matrix", "--config", str(cfg),
                             "--p_drop", "0.3"])
    assert config.params["p_drop"] == 0.3   # flag wins
    assert config.params["p_select"] == 0.5  # from config file
    assert config.seed == 9


def test_default_p_ext_is_echoed(tmp_path):
    out = tmp_path / "m.csv"
    status = cli.main(["gossip", "matrix", "--p_select", "0.5", "--p_drop",
                       "0.1", "--p_loss", "0.2", "--p_gain", "0.8",
                       "--out", str(out), "--quiet"])
    assert status == 0
    manifest = json.loads(Path(f"{out}.manifest.json").read_text())
    assert manifest["parameters"]["p_ext"] == 0.4
    assert manifest["seed"] == 0


def test_tie_gain_to_loss_flag():
    config = cli.parse_args(["gossip", "matrix", "--p_select", "0.5",
                             "--p_drop", "0.1", "--p_loss", "0.2",
                             "--tie_gain_to_loss"])
    assert config.params["p_gain"] == 0.8


def test_rd_init_profile_validation():
    with pytest.raises(UsageError):
        cli.parse_args(["rd", "--init", "blob", "--out", "x"])
    config = cli.parse_args(["rd", "--init", "uniform:0.25", "--out", "x"])
    assert config.params["init"] == "uniform:0.25"


# -- dispatch and exit statuses ------------------------------------------------

def test_cfl_violation_exits_1_with_stability_error(tmp_path, capsys):
    status = cli.main(["rd", "--dt", "0.01", "--dx", "0.1", "--D", "1.0",
                       "--out", str(tmp_path / "rd"), "--quiet"])
    assert status == 1
    err = capsys.readouterr().err
    assert err.startswith("error: StabilityError:")
    assert "\n" not in err.rstrip("\n")


def test_reducible_chain_exits_1(tmp_path, capsys):
    status = cli.main(["gossip", "stationary", "--p_select", "0.5",
                       "--p_drop", "0.1", "--p_loss", "0.2", "--p_gain", "0.8",
                       "--p_ext", "0.0", "--out", str(tmp_path / "pi.csv")])
    assert status == 1
    assert "ReducibleChainError" in capsys.readouterr().err


def test_out_of_range_informed_index_exits_1(tmp_path, capsys):
    args = list(GOSSIP_ARGS)
    args[args.index("--informed") + 1] = "99"
    out = tmp_path / "trace.csv"
    assert cli.main(args + ["--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ParamRangeError:")
    assert "99" in err and "n=10" in err
    assert "\n" not in err.rstrip("\n")
    assert not out.exists()


def one_error_line(capsys, prefix):
    err = capsys.readouterr().err
    assert err.startswith(prefix), err
    assert "\n" not in err.rstrip("\n"), err
    return err


def test_non_utf8_network_exits_1(tmp_path, capsys):
    path = tmp_path / "net.csv"
    path.write_bytes(b"0,\xe9\n1,0\n")
    assert cli.main(["network", "eigen", "--network", str(path)]) == 1
    one_error_line(capsys, "error: EntryRangeError:")


def test_network_directory_exits_3(tmp_path, capsys):
    assert cli.main(["network", "centrality", "--network", str(tmp_path),
                     "--horizon", "2"]) == 3
    one_error_line(capsys, "error: IsADirectoryError:")


def test_empty_network_exits_1_naming_the_cause(tmp_path, capsys):
    path = tmp_path / "net.csv"
    path.write_text("")
    assert cli.main(["network", "eigen", "--network", str(path)]) == 1
    err = one_error_line(capsys, "error: DimensionError:")
    assert "at least one node" in err


def test_malformed_config_json_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text('{"h": ')
    assert cli.main(["sir", "--preset", "fig6b", "--config", str(cfg)]) == 2
    one_error_line(capsys, "usage error: --config")


def test_non_numeric_config_value_exits_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"dx": "abc"}))
    assert cli.main(["rd", "--config", str(cfg), "--out", str(tmp_path / "rd")]) == 2
    err = one_error_line(capsys, "usage error: --dx")
    assert "abc" in err


def test_sir_run_writes_csv_and_manifest(tmp_path):
    out = tmp_path / "sir.csv"
    status = cli.main(["sir", "--preset", "fig6b", "--horizon", "10",
                       "--out", str(out), "--quiet"])
    assert status == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "t,S,I,R"
    assert len(lines) == 1002  # header + 1001 states
    manifest = json.loads(Path(f"{out}.manifest.json").read_text())
    assert manifest["parameters"]["preset"] == "fig6b"
    assert not list(tmp_path.glob("*.tmp"))


def test_network_gen_roundtrips_through_centrality(tmp_path):
    net_path = tmp_path / "net.csv"
    assert cli.main(["network", "gen", "--n", "6", "--density", "0.7",
                     "--seed", "5", "--out", str(net_path), "--quiet"]) == 0
    out = tmp_path / "dc.csv"
    assert cli.main(["network", "centrality", "--network", str(net_path),
                     "--horizon", "3", "--out", str(out), "--quiet"]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "node,centrality"
    assert len(lines) == 7


def test_network_gen_writes_write_network_csv_bytes(tmp_path):
    out = tmp_path / "gen.csv"
    assert cli.main(["network", "gen", "--n", "40", "--density", "0.2",
                     "--seed", "8", "--out", str(out), "--quiet"]) == 0
    expected = tmp_path / "lib.csv"
    netdiff.write_network_csv(expected,
                              netdiff.generate_random_network(40, 0.2, 8))
    assert out.read_bytes() == expected.read_bytes()


def test_network_eigen_reports_eigenvalue_in_manifest(tmp_path):
    net_path = tmp_path / "net.csv"
    cli.main(["network", "gen", "--n", "5", "--density", "0.9", "--seed", "3",
              "--out", str(net_path), "--quiet"])
    out = tmp_path / "eig.csv"
    assert cli.main(["network", "eigen", "--network", str(net_path),
                     "--out", str(out), "--quiet"]) == 0
    manifest = json.loads(Path(f"{out}.manifest.json").read_text())
    assert float(manifest["results"]["eigenvalue"]) > 0


def test_fastslow_writes_qss_columns(tmp_path):
    out = tmp_path / "fs.csv"
    assert cli.main(["fastslow", "--epsilon", "0.1", "--horizon", "10",
                     "--out", str(out), "--quiet"]) == 0
    assert out.read_text().splitlines()[0] == "t,S,I_eps,I_qss"


def test_funds_reports_write_csv_and_json(tmp_path):
    out = tmp_path / "prov.csv"
    assert cli.main(["funds", "provinces", "--out", str(out), "--quiet"]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "province,family_count,fund_count,pct_of_funds,pct_of_assets"
    assert len(lines) == 9
    doc = json.loads((tmp_path / "prov.json").read_text())
    assert len(doc["rows"]) == 8


def test_funds_summarize_show_reference(tmp_path, capsys):
    out = tmp_path / "sum.csv"
    status = cli.main(["funds", "summarize", "--group_by", "category",
                       "--value", "performance", "--out", str(out),
                       "--show_reference", "--quiet"])
    assert status == 0
    assert "reference" in capsys.readouterr().out


def test_stdout_emission_without_out(capsys):
    assert cli.main(["gossip", "matrix", "--p_select", "1", "--p_drop", "0",
                     "--p_loss", "0", "--p_gain", "1"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "from,to00,to01,to10,to11"


# -- determinism -----------------------------------------------------------------

def test_identical_invocations_are_byte_identical(tmp_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name / "trace.csv"
        assert cli.main(GOSSIP_ARGS + ["--out", str(out)]) == 0
        outs.append(out)
    assert outs[0].read_bytes() == outs[1].read_bytes()
    m0 = Path(f"{outs[0]}.manifest.json").read_bytes()
    m1 = Path(f"{outs[1]}.manifest.json").read_bytes()
    assert m0 == m1


def test_sir_runs_are_byte_identical(tmp_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / f"{name}.csv"
        assert cli.main(["sir", "--preset", "fig6c", "--horizon", "50",
                         "--out", str(out), "--quiet"]) == 0
        outs.append(out)
    assert outs[0].read_bytes() == outs[1].read_bytes()


def test_golden_ten_node_gossip_trace(tmp_path):
    out = tmp_path / "trace.csv"
    assert cli.main(GOSSIP_ARGS + ["--out", str(out)]) == 0
    assert out.read_bytes() == GOLDEN.read_bytes()
