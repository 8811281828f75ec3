"""CLI parsing, dispatch, exit statuses, determinism, and the golden trace."""

import contextlib
import errno
import hashlib
import importlib.resources
import io
import json
import os
import resource
import shutil
import signal
import stat
import subprocess
import sys
import tempfile
import time
from itertools import islice
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from infospread import cli, epi_sir, fundstats, netdiff, rdwave
from infospread.errors import ParamError, UsageError, check
from oracles import traced_peak

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
                               "p_gain": 0.8, "seed": 9.0, "quiet": True}))
    config = cli.parse_args(["gossip", "matrix", "--config", str(cfg),
                             "--p_drop", "0.3"])
    assert config.params["p_drop"] == 0.3   # flag wins
    assert config.params["p_select"] == 0.5  # from config file
    assert config.seed == 9 and type(config.seed) is int  # a whole float is an int
    assert config.quiet is True


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


# The tie sets p_gain = 1 - p_loss over any given p_gain, and an omitted p_ext
# defaults to p_select * p_gain; the tie itself is not echoed.
@pytest.mark.parametrize("via_config", [False, True], ids=["flags", "config"])
@pytest.mark.parametrize("p_ext", [None, 0.25], ids=["p_ext-omitted", "p_ext-given"])
@pytest.mark.parametrize("tie, p_gain, expected_gain", [
    (False, 0.3, 0.3), (True, 0.3, 0.8), (True, None, 0.8),
], ids=["untied", "tie-over-p_gain", "tie"])
def test_gossip_manifest_echoes_the_effective_gain(tie, p_gain, expected_gain, p_ext,
                                                    via_config):
    given = {"p_select": 0.5, "p_drop": 0.1, "p_loss": 0.2, "p_gain": p_gain,
             "p_ext": p_ext, "tie_gain_to_loss": tie or None}
    given = {name: value for name, value in given.items() if value is not None}
    argv = ["gossip", "matrix", "--out", "m.csv", "--quiet"]
    if not via_config:
        for name, value in given.items():
            argv += [f"--{name}"] if value is True else [f"--{name}", str(value)]
    status, _, err, files = invoke(argv, given if via_config else None)
    assert status == 0, err
    echoed = json.loads(files["m.csv.manifest.json"])["parameters"]
    assert echoed["p_gain"] == expected_gain
    assert echoed["p_ext"] == (0.5 * expected_gain if p_ext is None else p_ext)
    assert "tie_gain_to_loss" not in echoed

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
    # An index outside the network is a parameter outside its domain: exit
    # 2.  A huge index is shown in scientific form, as errors.check shows one.
    for index, shown in [("99", "99"), ("1" + "0" * 400, "1e+400")]:
        args = list(GOSSIP_ARGS)
        args[args.index("--informed") + 1] = index
        out = tmp_path / "trace.csv"
        assert cli.main(args + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == ("usage error: --informed must be node indices in [0, n) "
                       f"for n=10, got {shown}\n")
        assert "\n" not in err.rstrip("\n")
        assert len(err) <= 120, err
        assert not out.exists()


def one_error_line(capsys, prefix):
    err = capsys.readouterr().err
    assert err.startswith(prefix), err
    assert "\n" not in err.rstrip("\n"), err
    return err


def test_non_utf8_network_exits_1(tmp_path, capsys):
    path = tmp_path / "net.csv"
    for text, line in [(b"0,\xe9\n1,0\n", 1), (b"0,1\n\xff,0\n", 2)]:
        path.write_bytes(text)
        assert cli.main(["network", "eigen", "--network", str(path)]) == 1
        err = one_error_line(capsys, "error: RowError: ")
        assert err == f"error: RowError: line {line}: text is not UTF-8\n"


FUND_HEADER = ",".join(fundstats.CSV_COLUMNS).encode()


@pytest.mark.parametrize("text, error", [
    (FUND_HEADER + b"\nF1,fam\xff,KZN,A,black,F,1,0.5\n",
     "RowError: line 2: text is not UTF-8"),
    (FUND_HEADER + b"\nF1," + b"x" * 200_000 + b",KZN,A,black,F,1,0.5\n",
     "RowError: line 2: field larger than field limit"),
    (b"\xff\n" + FUND_HEADER + b"\n", "SchemaError: line 1: text is not UTF-8"),
], ids=["non-utf8-cell", "oversized-cell", "non-utf8-before-header"])
def test_unreadable_fund_csv_exits_1_with_one_line(tmp_path, capsys, text, error):
    path = tmp_path / "funds.csv"
    path.write_bytes(text)
    assert cli.main(["funds", "summarize", "--input", str(path)]) == 1
    one_error_line(capsys, f"error: {error}")


# 2x2 all-ones: the walk-count vector w^t 1 has entries 2^t, so the running
# sum of terms 1..t has entries 2^(t+1) - 2 and leaves the float range at
# t=1023, for horizon 1023 and 1024 alike.
@pytest.mark.parametrize("horizon", ["1023", "1024"])
def test_overflowing_centrality_exits_1_with_one_line(tmp_path, horizon):
    (tmp_path / "net.csv").write_text("1,1\n1,1\n")
    done = python_m("infospread", "network", "centrality", "--network", "net.csv",
                    "--horizon", horizon, "--out", "dc.csv", cwd=tmp_path)
    assert done.returncode == 1
    assert_one_line(done.stderr, "error: OverflowError: ")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["net.csv"]


@pytest.mark.parametrize("n", [10, 200])
def test_centrality_never_forms_the_hearing_matrix(tmp_path, monkeypatch, n):
    if n == 10:
        path = NETWORK10
    else:
        path = str(tmp_path / "net.csv")
        netdiff.write_network_csv(path, netdiff.generate_random_network(n, 0.1, seed=n))
    net = netdiff.read_network_csv(path)
    expected = netdiff.diffusion_centrality(net, 4)
    row_sums = netdiff.hearing_matrix(net, 4).sum(axis=1)
    np.testing.assert_allclose(expected, row_sums, rtol=1e-12, atol=0)

    def forbidden(*args):
        raise AssertionError("the CLI formed the hearing matrix")

    monkeypatch.setattr(netdiff, "hearing_matrix", forbidden)
    monkeypatch.setattr(netdiff, "centrality_report", forbidden)
    out = tmp_path / "dc.csv"
    assert cli.main(["network", "centrality", "--network", path, "--horizon", "4",
                     "--out", str(out), "--quiet"]) == 0
    rows = [f"{i},{x!r}" for i, x in enumerate(expected.tolist())]
    assert out.read_text() == "\n".join(["node,centrality", *rows]) + "\n"


@contextlib.contextmanager
def piped(data: bytes):
    """A /dev/fd path to the read end of a pipe that holds ``data``."""
    read, write = os.pipe()
    try:
        with os.fdopen(write, "wb") as fh:
            fh.write(data)  # under the pipe buffer, so it does not block
        yield f"/dev/fd/{read}"
    finally:
        os.close(read)


@pytest.mark.parametrize("text, error", [
    (b"0,1\nx,0\n",
     "RowError: line 2: could not convert string 'x' to float64 at column 1."),
    (b"0,1\n\n1\n\xff,0\n", "DimensionError: line 3: ragged row of width 1, expected 2"),
    (b"0,1\n\xff,0\n", "RowError: line 2: text is not UTF-8"),
], ids=["non-number", "ragged", "not-utf8"])
def test_piped_network_names_its_faulty_line(tmp_path, capsys, text, error):
    path = tmp_path / "net.csv"
    path.write_bytes(text)
    assert cli.main(["network", "eigen", "--network", str(path)]) == 1
    assert one_error_line(capsys, "error: ") == f"error: {error}\n"
    with piped(text) as pipe:
        assert cli.main(["network", "eigen", "--network", pipe]) == 1
    assert one_error_line(capsys, "error: ") == f"error: {error}\n"


def test_piped_network_reads_like_its_file(tmp_path):
    text = Path(NETWORK10).read_bytes()
    with piped(text) as pipe:
        assert cli.main(["network", "centrality", "--network", pipe, "--horizon", "4",
                         "--out", str(tmp_path / "piped.csv"), "--quiet"]) == 0
    assert cli.main(["network", "centrality", "--network", NETWORK10, "--horizon", "4",
                     "--out", str(tmp_path / "file.csv"), "--quiet"]) == 0
    assert (tmp_path / "piped.csv").read_bytes() == (tmp_path / "file.csv").read_bytes()


def test_piped_funds_report_matches_its_file(tmp_path):
    with piped(Path(FUNDS).read_bytes()) as pipe:
        assert cli.main(["funds", "provinces", "--input", pipe,
                         "--out", str(tmp_path / "piped.csv"), "--quiet"]) == 0
    assert cli.main(["funds", "provinces", "--input", FUNDS,
                     "--out", str(tmp_path / "file.csv"), "--quiet"]) == 0
    for suffix in (".csv", ".json"):
        assert (tmp_path / f"piped{suffix}").read_bytes() == \
            (tmp_path / f"file{suffix}").read_bytes()


def test_piped_funds_name_their_faulty_line(tmp_path, capsys):
    text = FUND_HEADER + b"\nF1,fam,KZN,A,black,F,1,0.5\nF2,fam,Atlantis,A,black,F,1,0.5\n"
    error = "error: RowError: line 3: unknown province 'Atlantis'\n"
    path = tmp_path / "funds.csv"
    path.write_bytes(text)
    assert cli.main(["funds", "provinces", "--input", str(path)]) == 1
    assert one_error_line(capsys, "error: ") == error
    with piped(text) as pipe:
        assert cli.main(["funds", "provinces", "--input", pipe]) == 1
    assert one_error_line(capsys, "error: ") == error


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


@pytest.mark.parametrize("text", ["", "\n\n"], ids=["empty", "blank-only"])
def test_network_without_rows_prints_one_line_and_no_warning(tmp_path, text):
    (tmp_path / "net.csv").write_text(text)
    done = python_m("infospread", "network", "eigen", "--network", "net.csv",
                    cwd=tmp_path)
    assert done.returncode == 1
    assert done.stderr == "error: DimensionError: network needs at least one node\n"


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



@pytest.mark.parametrize("action", ["summarize", "provinces", "demographics"])
def test_funds_manifest_lists_every_file_written(action):
    status, _, err, files = invoke(["funds", action, "--out", "r.csv", "--quiet"])
    assert status == 0, err
    manifest = json.loads(files.pop("r.csv.manifest.json"))
    assert sorted(manifest["outputs"]) == sorted(files) == ["r.csv", "r.json"]


def test_funds_out_on_the_json_mirror_path_exits_2():
    # The mirror is --out with the suffix .json; it would overwrite the report.
    status, _, err, files = invoke(["funds", "summarize", "--out", "r.json"])
    assert status == 2
    assert_one_line(err, "usage error: --out ")
    assert not files

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


# -- CSV writer ------------------------------------------------------------------
#
# The row-wise writer the column writer replaced, verbatim; the column writer
# must write the same bytes for the same table.

def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return str(bool(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _csv_text(header, rows) -> str:
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(cell) for cell in row) for row in rows)
    return "\n".join(lines) + "\n"


FLOATS = st.one_of(st.sampled_from([-0.0, 0.0, 5e-324, 1e300, 1 / 3, 1 - 2 ** -53,
                                    float("nan"), float("inf")]),
                   st.floats(width=64))
INT64 = st.integers(np.iinfo(np.int64).min, np.iinfo(np.int64).max)


def column(rows):
    """A column of ``rows`` cells, as a handler passes it."""
    return st.one_of(
        st.lists(FLOATS, min_size=rows, max_size=rows).map(np.array),
        st.lists(INT64, min_size=rows, max_size=rows).map(
            lambda xs: np.array(xs, dtype=np.int64)),
        st.integers(-5, 5).map(lambda start: range(start, start + rows)),
        st.lists(st.text(max_size=3), min_size=rows, max_size=rows))


@given(st.integers(0, 3).flatmap(lambda rows: st.lists(column(rows), min_size=1,
                                                       max_size=4)))
def test_column_writer_matches_row_writer(columns):
    header = [f"c{k}" for k in range(len(columns))]
    assert "".join(cli._csv_chunks(header, columns)) == _csv_text(header, zip(*columns))


def whole_csv_text(header, columns) -> str:
    """The whole-text writer that ``_csv_chunks`` replaced, verbatim."""
    cells = [map(str, map(c.item, range(c.size)) if isinstance(c, np.ndarray) else c)
             for c in columns]
    lines = [",".join(header), *map(",".join, zip(*cells, strict=True)), ""]
    return "\n".join(lines)


CHUNK = cli._CHUNK_ROWS


@pytest.mark.parametrize("rows", [0, 1, CHUNK - 1, CHUNK, CHUNK + 1])
def test_chunks_join_to_the_whole_text_writer(rows):
    rng = np.random.default_rng(rows)
    int64 = np.iinfo(np.int64)
    columns = [rng.standard_normal(rows),
               rng.integers(int64.min, int64.max, rows, dtype=np.int64, endpoint=True),
               range(-3, rows - 3),
               [f"s\u00e4{k}" for k in range(rows)]]
    header = ("float", "int64", "range", "str")
    chunks = list(cli._csv_chunks(header, columns))
    assert chunks[0] == "float,int64,range,str\n"
    assert len(chunks) == 1 + -(-rows // CHUNK)
    assert all(chunk.endswith("\n") and chunk.count("\n") <= CHUNK for chunk in chunks)
    # Compared as lines: pytest's diff of two texts of thousands of lines
    # did not finish in 4 minutes.
    assert "".join(chunks).split("\n") == whole_csv_text(header, columns).split("\n")


SLICE = cli._SLICE_CELLS
# Cells whose text is easy to get wrong: signed zeros, nan, the infinities,
# subnormals and the extremes of each float width.
SPECIAL64 = [-0.0, 0.0, np.nan, np.inf, -np.inf, 5e-324, -2.0 ** -1022 * (1 - 2 ** -52),
             2.0 ** -1022, 1.7976931348623157e308, 0.1, 1 / 3]
SPECIAL32 = [-0.0, np.nan, np.inf, -np.inf, 1e-45, 1.1754942e-38, 3.4028235e38, 0.1]


@pytest.mark.parametrize("rows", [0, 1, SLICE - 1, SLICE, SLICE + 1, CHUNK + SLICE + 1])
def test_ndarray_columns_read_in_slices_give_each_cell_its_item_text(rows):
    rng = np.random.default_rng(rows)
    int64 = np.iinfo(np.int64)
    f64 = rng.standard_normal(rows) * 10.0 ** rng.integers(-320, 300, rows)
    f64[:len(SPECIAL64)] = SPECIAL64[:rows]
    f32 = rng.standard_normal(rows).astype(np.float32)
    f32[:len(SPECIAL32)] = np.array(SPECIAL32, dtype=np.float32)[:rows]
    columns = [f64, f32,
               rng.integers(int64.min, int64.max, rows, dtype=np.int64, endpoint=True),
               rng.random(rows) < 0.5,
               f64[::-1]]  # a view with a negative stride
    header = ("f64", "f32", "int64", "bool", "reversed")
    expected = ["f64,f32,int64,bool,reversed", *(",".join(str(c.item(k)) for c in columns)
                                                   for k in range(rows)), ""]
    # Compared as lines, like the test above.
    assert "".join(cli._csv_chunks(header, columns)).split("\n") == expected


def out_config(out) -> cli.RunConfig:
    """The config of a run whose --out is ``out``, for the writer alone."""
    return cli.RunConfig(subcommand="sir", action=None, seed=0, out=str(out),
                         quiet=True, params={})


def test_writer_memory_is_flat_in_row_count(tmp_path):
    def peak(rows):
        columns = [np.linspace(0.0, 1.0, rows) + k / 3 for k in range(4)]
        out = tmp_path / f"{rows}.csv"
        return traced_peak(lambda: cli._write_files(out_config(out), [
            (out, cli._csv_chunks(("t", "S", "I", "R"), columns))]))[1]

    assert abs(peak(10 ** 5) - peak(10 ** 4)) < 2 ** 20


def test_sir_memory_beyond_its_trajectory_is_flat_in_horizon(tmp_path):
    def peak(horizon):
        return traced_peak(cli.main, ["sir", "--preset", "fig6b", "--horizon",
                                      str(horizon), "--out", str(tmp_path / "sir.csv"),
                                      "--quiet"])[1]

    # The trajectory itself is four float arrays of one cell per step (h = 0.01).
    trajectory = 4 * 8 * (50_000 - 5_000)
    assert abs(peak(500) - peak(50) - trajectory) < 2 ** 20


# CLI jobs, each a string of arguments, in a fresh process, which prints the
# rise of its peak resident set over what importing the CLI took.
# ru_maxrss is in KiB on Linux and in bytes on macOS.
JOBS_PEAK_RSS = """
import resource, sys
from infospread import cli

def peak():
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return rss if sys.platform == "darwin" else rss * 1024

base = peak()
for job in sys.argv[1:]:
    assert cli.main([*job.split(), "--quiet"]) == 0
print(peak() - base)
"""


# Linux carries a process's peak resident set over fork and exec, so a child
# of the test process starts at the test process's own size, which can hide
# the jobs' rise altogether.  A bare interpreter spawns the jobs' process
# instead, and its size is below what importing the CLI takes.
SPAWN = "import subprocess, sys; sys.exit(subprocess.run(sys.argv[1:]).returncode)"


def jobs_peak_rss(cwd, *jobs) -> int:
    done = subprocess.run([sys.executable, "-c", SPAWN,
                           sys.executable, "-c", JOBS_PEAK_RSS, *jobs], cwd=cwd,
                          env={**os.environ,
                               "PYTHONPATH": str(Path(cli.__file__).parents[1])},
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return int(done.stdout)


def test_network_jobs_peak_rss_is_a_few_mebibytes_over_the_import(tmp_path):
    # The benchmark's network jobs.  A dense n-by-n matrix alone would be
    # 30.5 MiB; the 40k kept cells take under half a MiB.
    assert jobs_peak_rss(
        tmp_path,
        "network gen --n 2000 --density 0.01 --seed 1 --out net.csv",
        "network centrality --network net.csv --horizon 5 --out dc.csv",
        "network eigen --network net.csv --out eig.csv") < 12 * 2 ** 20


def test_field_jobs_peak_rss_is_a_few_mebibytes_over_the_import(tmp_path):
    # The benchmark's field-dynamics jobs: 3.8 MiB.  The largest output is
    # sir's four columns of 50,001 cells; turning each whole column into
    # Python floats at once, not a slice at a time, rose to 11.4 MiB.
    assert jobs_peak_rss(
        tmp_path,
        "sir --preset fig6b --h 0.01 --horizon 500 --out sir.csv",
        "rd --out wave",
        "fastslow --epsilon 1e-3 --out fs.csv") < 6 * 2 ** 20


def test_fund_jobs_peak_rss_is_a_few_mebibytes_over_the_import(tmp_path):
    # The benchmark's four big report jobs on a 50k-row file like its own,
    # whose table alone is about 11 MiB: 15.9-16.6 MiB over three runs,
    # against 18.1 MiB when csv.reader split every row and 8192 rows were
    # checked at a time.
    rng = np.random.default_rng(9)
    province = rng.integers(0, len(fundstats.PROVINCES), 50_000)
    lines = [",".join(fundstats.CSV_COLUMNS)] + [
        f"F{k:06d},P{p}_family_{k % 120:03d},{fundstats.PROVINCES[p]},{'ABCDEFGHIJ'[k % 10]},"
        f"{fundstats.RACES[k % 3]},{fundstats.GENDERS[k // 3 % 3]},{x:.2f},{y:.4f}"
        for k, (p, x, y) in enumerate(zip(province.tolist(),
                                          rng.lognormal(3.5, 1.2, 50_000).tolist(),
                                          rng.normal(0.08, 0.2, 50_000).tolist()))]
    (tmp_path / "funds.csv").write_text("\n".join(lines) + "\n")
    report = "--input funds.csv --out report.csv"
    assert jobs_peak_rss(
        tmp_path,
        f"funds summarize --group_by category --value performance {report}",
        f"funds summarize --group_by family --value assets {report}",
        f"funds provinces {report}",
        f"funds demographics {report}") < 18 * 2 ** 20


def test_a_chunk_that_raises_leaves_no_file(tmp_path):
    out = tmp_path / "out.csv"
    with pytest.raises(ValueError):  # zip(strict=True) on unequal columns
        cli._write_files(out_config(out),
                         [(out, cli._csv_chunks(("a", "b"), ([1, 2, 3], [1, 2])))])
    assert not list(tmp_path.iterdir())


def test_a_failing_output_exits_with_its_status_and_leaves_no_file(
        tmp_path, monkeypatch, capsys):
    def chunks(header, columns):
        yield ",".join(header) + "\n"
        raise OverflowError("output left the float range")

    monkeypatch.setattr(cli, "_csv_chunks", chunks)
    assert cli.main(["sir", "--preset", "fig6b", "--horizon", "1",
                     "--out", str(tmp_path / "sir.csv")]) == 1
    assert_one_line(capsys.readouterr().err, "error: OverflowError: output left ")
    assert not list(tmp_path.iterdir())


# -- python -m ---------------------------------------------------------------------

def python_m(module, *argv, cwd):
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    return subprocess.run([sys.executable, "-m", module, *argv], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("module", ["infospread", "infospread.cli"])
def test_python_m_runs_the_cli(module, tmp_path):
    bad = python_m(module, "sir", "--beta", "nan", "--alpha", "0.1", cwd=tmp_path)
    assert bad.returncode == 2
    assert "usage error: --beta must be" in bad.stderr
    ok = python_m(module, "sir", "--preset", "fig6b", "--horizon", "1", cwd=tmp_path)
    assert ok.returncode == 0, ok.stderr
    assert ok.stdout.startswith("t,S,I,R\n")
    assert len(bad.stderr.splitlines()) == 1, bad.stderr


# Python's own encoding for files and stdout follows the locale: ASCII under
# the C locale once its UTF-8 coercion and UTF-8 mode are switched off.
ASCII_LOCALE = {"LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"}
UTF8_MODE = {"PYTHONUTF8": "1"}


def cli_env(locale):
    """The environment of a CLI subprocess under the locale settings
    ``locale``, with none of the caller's own."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(("LC_", "LANG", "PYTHONUTF8", "PYTHONCOERCE",
                                "PYTHONIOENCODING"))}
    return {**env, "PYTHONPATH": str(Path(cli.__file__).parents[1]), **locale}


def run_under(locale, argv, cwd):
    """(exit status, stdout bytes, stderr) of ``python -m infospread``
    under the locale settings ``locale``."""
    done = subprocess.run([sys.executable, "-m", "infospread", *argv], cwd=cwd,
                          env=cli_env(locale), capture_output=True, timeout=120)
    return done.returncode, done.stdout, done.stderr.decode(errors="replace")


@pytest.mark.parametrize("argv", [
    ["funds", "summarize", "--input", "funds.csv", "--group_by", "family",
     "--value", "assets"],
    ["sir", "--preset", "fig6b", "--horizon", "50"],
], ids=["funds", "sir"])
def test_outputs_are_the_same_utf8_bytes_under_an_ascii_locale(argv, tmp_path):
    lines = fundstats.bundled_fixture_path().read_text(encoding="utf-8").splitlines()
    rows = [line for line in lines if line and not line.startswith("#")]
    rows[1] = rows[1].replace(rows[1].split(",")[1], "B\u00e4cker-\u2026", 1)
    # A quoted family sends the rows to csv.reader, which reads them row by row.
    rows[2] = rows[2].replace(rows[2].split(",")[1], '"B\u00e4cker, S\u00f6hne"', 1)
    (tmp_path / "funds.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")
    got = {}
    for name, env in [("ascii", ASCII_LOCALE), ("utf8", UTF8_MODE)]:
        status, stdout, err = run_under(env, argv, tmp_path)
        assert status == 0, err
        status, _, err = run_under(env, [*argv, "--out", f"{name}.csv", "--quiet"],
                                   tmp_path)
        assert status == 0, err
        got[name] = stdout, (tmp_path / f"{name}.csv").read_bytes()
    assert got["ascii"] == got["utf8"]
    stdout, written = got["ascii"]
    assert stdout == written
    if argv[0] == "funds":
        assert "B\u00e4cker-\u2026".encode() in written
        assert "B\u00e4cker, S\u00f6hne".encode() in written


def test_a_reader_that_stops_early_ends_the_run_quietly(tmp_path):
    # 200 001 rows, far more than a pipe holds, so most writes find it closed.
    proc = subprocess.Popen(
        [sys.executable, "-m", "infospread", "sir", "--preset", "fig6b",
         "--horizon", "2000"], cwd=tmp_path, env=cli_env(UTF8_MODE),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.readline() == b"t,S,I,R\n"
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert proc.returncode == 0
    assert err == b""


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


def test_gossip_fraction_column_is_the_count_over_n(tmp_path):
    net = tmp_path / "net7.csv"
    net.write_text("".join(",".join("0.0" if i == j else "0.5" for j in range(7)) + "\n"
                           for i in range(7)))
    out = tmp_path / "trace.csv"
    assert cli.main(["gossip", "simulate", "--network", str(net), *GOSSIP_ARGS[4:],
                     "--out", str(out)]) == 0
    header, *rows = [line.split(",") for line in out.read_text().splitlines()]
    assert header == ["round", "informed_count", "informed_fraction"]
    assert len(rows) == 101 and len({count for _, count, _ in rows}) > 1
    for _, count, fraction in rows:
        assert fraction == repr(int(count) / 7)


# -- exit contract -----------------------------------------------------------------
#
# Invocations run in a fresh working directory holding copies of the bundled
# network (net10.csv) and fund sample (funds.csv) and, if given, a config
# file cfg.json, so the paths echoed in manifests are the same wherever the
# tests run.

FUNDS = str(importlib.resources.files("infospread.data") / "funds_sample.csv")
INPUTS = ("net10.csv", "funds.csv", "cfg.json")


def invoke(argv, config=None):
    """(exit status, stdout, stderr, {output name: bytes}) of one cli.main
    call in a fresh working directory."""
    out, err = io.StringIO(), io.StringIO()
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            shutil.copy(NETWORK10, "net10.csv")
            shutil.copy(FUNDS, "funds.csv")
            if config is not None:
                Path("cfg.json").write_text(json.dumps(config))
                argv = [*argv, "--config", "cfg.json"]
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                status = cli.main(argv)
            files = {path.name: path.read_bytes() for path in sorted(Path(".").iterdir())
                     if path.name not in INPUTS}
        finally:
            os.chdir(home)
    return status, out.getvalue(), err.getvalue(), files


def assert_one_line(err, prefix):
    assert err.startswith(prefix), err
    assert len(err.splitlines()) == 1, err


PROBS = ["--p_select", "0.5", "--p_drop", "0.1", "--p_loss", "0.2"]

# sha256 over the name and bytes of every output file, recorded with the
# parameter checks still hand-written in cli.py; the table-driven parser and
# the model-side checks must reproduce them byte for byte.
PINNED = {
    "network-gen": (
        ["network", "gen", "--n", "12", "--density", "0.4", "--seed", "7",
         "--out", "gen.csv"],
        "22d99a869b6931ad48bf2b2f071cd8955127c4475ce8630c709bccf223118a3b"),
    # Re-pinned once for row sums added left to right over each row's kept
    # cells (the BLAS mat-vec's bytes depended on its kernel); they moved
    # in the last bit or two.
    "network-centrality": (
        ["network", "centrality", "--network", "net10.csv", "--horizon", "4",
         "--out", "dc.csv"],
        "d53da520b23b28452eec000fc62aa50bc49a7e311d70dc8edf550ebab7e19d2e"),
    "network-eigen": (
        ["network", "eigen", "--network", "net10.csv", "--out", "eig.csv"],
        "979adb0af42fce9ce0c48ea2bc74cadd2ded282749ce756d64c4190f6af27c95"),
    "gossip-matrix": (
        ["gossip", "matrix", *PROBS, "--p_gain", "0.8", "--out", "m.csv"],
        "94cdd12e908931a19191a1c4c969a5f158c836c7e9e9f57abf7d13abcb7f8905"),
    # Re-pinned once for the closed-form stationary law: pi(00) is 0.0, where
    # the LAPACK solve printed -4.163336342344337e-17.
    "gossip-stationary": (
        ["gossip", "stationary", *PROBS, "--p_gain", "0.8", "--p_ext", "0.3",
         "--out", "pi.csv"],
        "9b8bafb957d9678acf035cabc8fe7a8c876f96009c12df198d69e8386394ca89"),
    "gossip-simulate": (
        ["gossip", "simulate", "--network", "net10.csv", *PROBS, "--p_gain", "0.8",
         "--rounds", "30", "--seed", "42", "--informed", "3,0", "--out", "trace.csv"],
        "901c09a1bf4cf70ef9951211d2f10f014d8b188e8595ef0c7a663e3dfd5c706c"),
    "gossip-tie-with-p_gain": (
        ["gossip", "matrix", *PROBS, "--p_gain", "0.3", "--tie_gain_to_loss",
         "--out", "tie.csv"],
        "ee833dea49320001f51e273d7e066ff0f2d839c118b1fa28c64db6604f59a04b"),
    "sir-preset": (
        ["sir", "--preset", "fig6c", "--horizon", "20", "--out", "sir.csv"],
        "303e27c5b104e8ab095bef528bb2bf4ea851d8339db57da1e4c100f0ca432461"),
    "sir-rates": (
        ["sir", "--beta", "0.5", "--alpha", "0.1", "--mu", "0.05", "--n", "1",
         "--i0", "1e-3", "--horizon", "20", "--out", "sir.csv"],
        "b15ecca48d6cd03d42640253ccd5c0b56cc96277a799bd2aa5998690cc0c5fb8"),
    "sir-config": (
        ["sir", "--h", "0.02", "--out", "sir.csv"],
        "9cdb434c5ccda3f0ebb230e16ef99b4cae217474bd5b931f6be245dbadd6c4b8"),
    "rd": (
        ["rd", "--length", "4", "--horizon", "1", "--snapshot_every", "100",
         "--out", "wave"],
        "b48dbab5256a8edc546b2609d5195f0165f0da85837624daaf21a2241c7d3534"),
    # Rates other than 1, so every operation of the rate r*u*(1 - u/K) runs:
    # the kernel leaves out r*u at r = 1 and u/K at K = 1.  Recorded with
    # the kernel that applied both at every rate.
    "rd-rates": (
        ["rd", "--r", "0.5", "--K", "2", "--length", "4", "--horizon", "1",
         "--snapshot_every", "100", "--out", "wave"],
        "d1c767125da1edc941f505cde7a2674289cabac2906255adb4b263a147ec66e8"),
    # The default 2001-node grid for 5000 steps: many finiteness-check
    # intervals, and the subnormal values ahead of the front.  Recorded with
    # the kernel that checked every step.
    "rd-default-grid": (
        ["rd", "--horizon", "10", "--snapshot_every", "1000", "--out", "wave"],
        "a40b10f690924bc4493d18802cdcf0f1bd6089d310c5615dcee6ecea2f6d8425"),
    "fastslow": (
        ["fastslow", "--epsilon", "0.05", "--horizon", "10", "--out", "fs.csv"],
        "2e7c1f3969cd9ecbbef80a036eb36a094f104f31b5a722d52476057cbac27d53"),
    # The benchmark's epsilon: I decays into the subnormal range and stays
    # at 58 * 2**-1074 from t = 4.4 while S keeps moving.  Recorded with the
    # loop that stepped I through every substep.
    "fastslow-subnormal": (
        ["fastslow", "--epsilon", "1e-3", "--horizon", "10", "--out", "fs.csv"],
        "eb3fee635bde9849ca1fa698b6171ae08a7225fb138eac6748872abc830fd345"),
    # The funds digests cover a manifest whose outputs list the JSON mirror;
    # the report and mirror bytes are the ones first recorded.
    "funds-summarize": (
        ["funds", "summarize", "--group_by", "family", "--value", "assets",
         "--out", "sum.csv"],
        "43dd19c748ade816f0758e68bcee756f6aaa5ce3291d971d569114b53833508e"),
    "funds-provinces": (
        ["funds", "provinces", "--out", "prov.csv"],
        "daf1c01eee8ae833c3b49179e1a45763df73fcdced7f7988bd6bce0f15d3b403"),
    "funds-demographics": (
        ["funds", "demographics", "--out", "demo.csv"],
        "b1c7fa9967151e28a31d5939421c617427515780f9406f7e826c4c2380b2b4c6"),
}
PINNED_CONFIG = {"preset": "fig6d", "horizon": 5, "i0": 0.01, "quiet": True}


def pinned_digest(key) -> str:
    """The digest of PINNED[key]'s run through cli.main."""
    argv, _ = PINNED[key]
    config = PINNED_CONFIG if key == "sir-config" else None
    status, _, err, files = invoke([*argv, "--quiet"], config)
    assert status == 0, err
    digest = hashlib.sha256()
    for name, data in files.items():
        digest.update(name.encode() + b"\0" + data)
    return digest.hexdigest()


@pytest.mark.parametrize("key", sorted(PINNED))
def test_outputs_match_pinned_digests(key):
    assert pinned_digest(key) == PINNED[key][1]


def print_digests():
    """Print, as JSON, every pinned digest and the golden trace run's
    sha256, each run through cli.main in this process."""
    digests = {key: pinned_digest(key) for key in sorted(PINNED)}
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "trace.csv"
        assert cli.main(GOSSIP_ARGS + ["--out", str(out)]) == 0
        digests["golden"] = hashlib.sha256(out.read_bytes()).hexdigest()
    print(json.dumps(digests))


# The kernels numpy and OpenBLAS pick by CPU: OpenBLAS's for an x86-64 CPU
# without AVX2, and numpy's loops without the AVX-512 (x86-64-v4) ones.
KERNELS = {"default": {}, "sandybridge": {"OPENBLAS_CORETYPE": "Sandybridge"},
           "no-avx512": {"NPY_DISABLE_CPU_FEATURES": "X86_V4"}}


def test_pinned_bytes_do_not_depend_on_the_cpu_kernels():
    expected = {key: digest for key, (_, digest) in PINNED.items()}
    expected["golden"] = hashlib.sha256(GOLDEN.read_bytes()).hexdigest()
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_CORETYPE", "NPY_DISABLE_CPU_FEATURES")}
    env["PYTHONPATH"] = os.pathsep.join([str(Path(cli.__file__).parents[1]),
                                         str(Path(__file__).parent)])
    children = {
        name: subprocess.Popen(
            [sys.executable, "-c", "import test_cli; test_cli.print_digests()"],
            env={**env, **kernel}, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        for name, kernel in KERNELS.items()}
    differ = {}
    for name, child in children.items():
        out, err = child.communicate(timeout=300)
        assert child.returncode == 0, (name, err.decode(errors="replace"))
        got = json.loads(out)
        differ[name] = sorted(key for key in expected if got.get(key) != expected[key])
    assert differ == {name: [] for name in KERNELS}


def test_stationary_bytes_do_not_depend_on_the_blas_kernel(tmp_path):
    # Sandybridge is the kernel OpenBLAS picks on an x86-64 CPU without AVX2;
    # a LAPACK solve gave it other bytes than the default kernel's.
    argv = ["gossip", "stationary", *PROBS, "--p_gain", "0.8", "--p_ext", "0.3"]
    outputs = []
    for kernel in ({}, {"OPENBLAS_CORETYPE": "Sandybridge"}):
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
        env["PYTHONPATH"] = str(Path(cli.__file__).parents[1])
        done = subprocess.run([sys.executable, "-m", "infospread", *argv],
                              cwd=tmp_path, env={**env, **kernel},
                              capture_output=True, timeout=120)
        assert done.returncode == 0, done.stderr
        outputs.append(done.stdout)
    assert outputs[0] == outputs[1]
    assert outputs[0].startswith(b"state,probability\n00,0.0\n")


RUNS = ["--p_drop", "0.1", "--p_loss", "0.2", "--p_gain", "0.8"]
SIMULATE = ["gossip", "simulate", "--network", "net10.csv", "--p_select", "0.5",
            *RUNS, "--rounds", "5"]

# One invocation per usage check the hand-written parser made, each with a
# single fault; all of them exited 2 there and must still exit 2.
SINGLE_FAULTS = {
    "config value of the wrong type": (["sir", "--preset", "fig6b"], {"h": "abc"}),
    "required flag missing": (["network", "gen", "--density", "0.5"], None),
    "probability out of range": (["gossip", "matrix", "--p_select", "1.5", *RUNS], None),
    "nonpositive size": (["rd", "--dx", "0", "--out", "wave"], None),
    "action missing": (["network"], None),
    "unknown action": (["network", "bogus"], None),
    "subcommand missing": ([], None),
    "config not JSON": (["sir", "--preset", "fig6b"], '{"h": '),
    "config not an object": (["sir", "--preset", "fig6b"], [1]),
    "seed out of range": (["sir", "--preset", "fig6b", "--seed", "-1"], None),
    "network size below 1": (["network", "gen", "--n", "0", "--density", "0.5"], None),
    "density above 1": (["network", "gen", "--n", "5", "--density", "1.5"], None),
    "centrality horizon below 1": (["network", "centrality", "--network", "net10.csv",
                                    "--horizon", "0"], None),
    "max_iter below 1": (["network", "eigen", "--network", "net10.csv",
                          "--max_iter", "0"], None),
    "p_select missing": (["gossip", "matrix", *RUNS], None),
    "p_gain missing without the tie": (["gossip", "matrix", *PROBS], None),
    "p_loss missing with the tie": (["gossip", "matrix", "--p_select", "0.5",
                                     "--p_drop", "0.1", "--tie_gain_to_loss"], None),
    "rounds below 1": ([*SIMULATE[:-1], "0"], None),
    "informed not integers": ([*SIMULATE, "--informed", "a"], None),
    "informed empty": ([*SIMULATE, "--informed", ","], None),
    "unknown preset in config": (["sir"], {"preset": "zzz"}),
    "negative rate": (["sir", "--preset", "fig6b", "--mu", "-1"], None),
    "population not positive": (["sir", "--preset", "fig6b", "--n", "0"], None),
    "negative reaction rate": (["rd", "--r", "-1", "--out", "wave"], None),
    "snapshot_every below 1": (["rd", "--snapshot_every", "0", "--out", "wave"], None),
    "unknown init profile": (["rd", "--init", "blob", "--out", "wave"], None),
    "uniform init not a number": (["rd", "--init", "uniform:x", "--out", "wave"], None),
    "negative fast-slow rate": (["fastslow", "--beta", "-1"], None),
    "epsilon above 1": (["fastslow", "--epsilon", "2"], None),
    "layer_time past the horizon": (["fastslow", "--layer_time", "40"], None),
    "rd without --out": (["rd"], None),
    "config true for an integer": (SIMULATE[:-2], {"rounds": True}),
    "config true for a number": (["sir", "--preset", "fig6b"], {"h": True}),
    "config fraction for an integer": (["sir", "--preset", "fig6b"], {"seed": 1e-300}),
    "config string for a bool": (["sir", "--preset", "fig6b"], {"quiet": "no"}),
    "config number for a bool": (["gossip", "matrix", *PROBS],
                                 {"tie_gain_to_loss": 1}),
    "unknown config key": (["fastslow"], {"epsilonn": 0.5}),
    "config key of another subcommand": (["sir", "--preset", "fig6b"], {"epsilon": 0.5}),
    "manifest as a config": (["fastslow"], {"subcommand": "fastslow",
                                            "parameters": {"epsilon": 0.5}}),
    "flag of another action": (["network", "centrality", "--network", "net10.csv",
                                "--horizon", "3", "--n", "5"], None),
    "flag of another gossip action": (["gossip", "stationary", *PROBS, "--p_gain", "0.8",
                                       "--rounds", "5"], None),
    "config informed list with a bool": (SIMULATE, {"informed": [0, True]}),
}


@pytest.mark.parametrize("case", sorted(SINGLE_FAULTS))
def test_single_fault_exits_2_with_one_line(case, tmp_path):
    argv, config = SINGLE_FAULTS[case]
    if isinstance(config, str):  # malformed JSON text
        path = tmp_path / "bad.json"
        path.write_text(config)
        argv, config = [*argv, "--config", str(path)], None
    status, _, err, files = invoke(argv, config)
    assert status == 2
    assert_one_line(err, "usage error: ")
    assert not files


# Parameters outside their domain (non-finite, wrong type, over a work bound)
# and the message fragment naming them.  Before the model types checked every
# parameter, each of these ended in a traceback, ran without bound, or exited
# 1 with the wrong diagnosis.  A huge integer is shown in scientific form, not
# as hundreds of digits the user never typed.
BAD_PARAMETERS = {
    "rd --dx nan": (["rd", "--dx", "nan", "--out", "wave"], None, "--dx"),
    "sir --h inf": (["sir", "--preset", "fig6b", "--h", "inf"], None, "--h"),
    "sir --horizon below one step": (["sir", "--preset", "fig6b", "--horizon", "0.001"],
                                     None, "--horizon"),
    "sir --horizon 1e300": (["sir", "--preset", "fig6b", "--horizon", "1e300"], None,
                            "MAX_STEPS"),
    "sir --beta nan": (["sir", "--preset", "fig6b", "--beta", "nan"], None, "--beta"),
    "fastslow --i0 nan": (["fastslow", "--i0", "nan"], None, "--i0"),
    "sir --i0 nan": (["sir", "--preset", "fig6b", "--i0", "nan"], None, "--i0"),
    "sir --r0 nan": (["sir", "--preset", "fig6b", "--r0", "nan"], None, "--r0"),
    "network eigen --tol nan": (["network", "eigen", "--network", "net10.csv",
                                 "--tol", "nan"], None, "--tol"),
    "preset not a string": (["sir"], {"preset": [1]}, "--preset must be a string, got [1]"),
    "network not a string": (["network", "eigen"], {"network": 7}, "--network must be a string"),
    "out not a string": (["sir", "--preset", "fig6b"], {"out": 5}, "--out must be a string"),
    "group_by not a string": (["funds", "summarize"], {"group_by": 3},
                              "--group_by must be a string"),
    "rd --length 1e300": (["rd", "--length", "1e300", "--out", "wave"], None,
                          "MAX_NODE_STEPS"),
    "rd --dx 1e-300 --dt 1e-300": (["rd", "--dx", "1e-300", "--dt", "1e-300",
                                    "--out", "wave"], None, "MAX_NODE_STEPS"),
    "fastslow --h 1e-300": (["fastslow", "--h", "1e-300"], None, "MAX_SUBSTEPS"),
    "fastslow --epsilon 1e-9": (["fastslow", "--epsilon", "1e-9"], None, "MAX_SUBSTEPS"),
    "fastslow --h past layer_time": (["fastslow", "--h", "1e300"], None, "--layer_time"),
    "network gen --n 1e11": (["network", "gen", "--n", "100000000000", "--density", "0.5"],
                             None, "--n must be such that n*n <= MAX_CELLS"),
    "gossip rounds 1e300": (SIMULATE[:-2], {"rounds": 1e300}, "MAX_CONTACTS"),
    "network centrality --horizon 1e300": (["network", "centrality", "--network",
                                            "net10.csv"], {"horizon": 1e300},
                                           "--horizon must be such that horizon*n*n"),
    "seed 1e300": (["sir", "--preset", "fig6b"], {"seed": 1e300},
                   "--seed must be a 64-bit nonnegative integer, got 1e+300"),
    "network centrality --horizon 10**400": (["network", "centrality", "--network",
                                              "net10.csv", "--horizon", str(10 ** 400)],
                                             None, "--horizon must be such that horizon*n*n"),
    "rd --D negative": (["rd", "--D", "-1", "--out", "wave"], None, "--D must be positive"),
    "rd uniform nan": (["rd", "--init", "uniform:nan", "--out", "wave"], None,
                       "initial field must be finite"),
    "rd uniform inf": (["rd", "--init", "uniform:inf", "--out", "wave"], None,
                       "initial field must be finite"),
    # beta*S* = 0 at S* = (alpha + mu)/beta: the informed QSS state I* has no
    # limit there.  This ended in a ZeroDivisionError traceback.
    "fastslow --alpha 0 --mu 0": (["fastslow", "--alpha", "0", "--mu", "0",
                                   "--horizon", "1", "--layer_time", "0.5"], None,
                                  "--alpha must be such that beta*S* > 0"),
    "fastslow alpha + mu negligible": (["fastslow", "--alpha", "1e-320", "--mu", "0",
                                        "--beta", "1e10"], None, "--alpha"),
}


@pytest.mark.parametrize("case", sorted(BAD_PARAMETERS))
def test_bad_parameter_exits_2_with_one_line(case):
    argv, config, fragment = BAD_PARAMETERS[case]
    status, _, err, files = invoke(argv, config)
    assert status == 2
    assert_one_line(err, "usage error: ")
    assert fragment in err
    assert len(err) <= 120, err
    assert not files


@pytest.mark.parametrize("value, shown", [(int(1e300), "1e+300"), (10 ** 400, "1e+400"),
                                          (-3 * 10 ** 400 - 1, "-3e+400"),
                                          (10 ** 16, "10000000000000000"), (0.5, "0.5")])
def test_check_shows_a_huge_int_in_scientific_form(value, shown):
    with pytest.raises(ParamError) as info:
        check(False, "horizon", value, "small")
    assert str(info.value) == f"horizon must be small, got {shown}"


def test_numerically_reducible_chain_exits_1():
    status, _, err, _ = invoke(["gossip", "stationary", "--p_select", "1e-300", *RUNS])
    assert status == 1
    assert_one_line(err, "error: ReducibleChainError: ")


def test_fast_slow_overflow_exits_1_with_stiffness_error():
    # Float arithmetic overflows to inf without raising, so the blow-up is
    # caught by the finiteness test after each output step's substeps.
    status, _, err, files = invoke(["fastslow", "--s0", "1e308", "--out", "fs.csv"])
    assert status == 1
    assert_one_line(err, "error: StiffnessError: fast layer unresolved near t=")
    assert not files


def test_config_keys_of_the_subcommand_and_common_flags_are_accepted():
    # gossip's --network belongs to another action than stationary; --config
    # itself is a common flag.
    config = {"network": "net10.csv", "config": None, "quiet": True}
    status, _, err, _ = invoke(["gossip", "stationary", *PROBS, "--p_gain", "0.8"],
                               config)
    assert (status, err) == (0, "")


def test_a_flag_of_another_action_names_the_flag_and_the_action():
    status, _, err, _ = invoke(["network", "centrality", "--network", "net10.csv",
                                "--horizon", "3", "--n", "5"])
    assert (status, err) == (2, "usage error: --n is not a flag of network centrality\n")


def test_a_negative_float_literal_is_the_value_of_its_flag():
    argv = ["fastslow", "--horizon", "1", "--layer_time", "0.5", "--out", "fs.csv"]
    status, _, err, files = invoke([*argv, "--s0", "-1e-3"])
    assert status == 0, err
    assert invoke([*argv, "--s0=-1e-3"])[3] == files
    status, _, err, _ = invoke(["fastslow", "--beta", "-inf"])
    assert (status, err) == (2, "usage error: --beta must be nonnegative and finite, "
                                "got -inf\n")


# One invocation of each subcommand and action, some flags left at their
# defaults, which the manifest echoes too.
ROUND_TRIPS = {
    "network gen": ["network", "gen", "--n", "12", "--density", "0.4", "--seed", "7"],
    "network centrality": ["network", "centrality", "--network", "net10.csv",
                           "--horizon", "4"],
    "network eigen": ["network", "eigen", "--network", "net10.csv"],
    "gossip matrix": ["gossip", "matrix", *PROBS, "--p_gain", "0.8"],
    "gossip stationary": ["gossip", "stationary", *PROBS, "--tie_gain_to_loss"],
    "gossip simulate": [*SIMULATE, "--seed", "42", "--informed", "3,0"],
    "sir": ["sir", "--preset", "fig6c", "--horizon", "20"],
    "rd": ["rd", "--length", "4", "--horizon", "1", "--snapshot_every", "100",
           "--init", "uniform:0.5"],
    "fastslow": ["fastslow", "--epsilon", "0.05", "--horizon", "10"],
    "funds summarize": ["funds", "summarize", "--group_by", "family", "--value", "assets"],
    "funds provinces": ["funds", "provinces", "--input", "funds.csv"],
    "funds demographics": ["funds", "demographics"],
}


@pytest.mark.parametrize("form", sorted(ROUND_TRIPS))
def test_a_manifest_reproduces_its_run(form):
    out = ["--out", "wave" if form == "rd" else "o.csv", "--quiet"]
    status, _, err, files = invoke([*ROUND_TRIPS[form], *out])
    assert status == 0, err
    manifest = json.loads(files[f"{out[1]}.manifest.json"])
    config = {**manifest["parameters"], "seed": manifest["seed"]}
    argv = [manifest["subcommand"], *filter(None, [manifest["action"]]), *out]
    status, _, err, again = invoke(argv, config)
    assert status == 0, err
    assert again == files


@pytest.mark.parametrize("through", ["afile/x.csv", "afile/sub/x.csv"])
def test_an_output_path_through_a_file_is_named(tmp_path, through):
    (tmp_path / "afile").write_text("")
    out = tmp_path / through
    status, _, err, _ = invoke(["sir", "--preset", "fig6b", "--horizon", "1",
                                "--out", str(out)])
    assert status == 3
    assert_one_line(err, "error: ")
    assert f"for the output path {str(out)!r}" in err
    assert (tmp_path / "afile").read_text() == ""


def test_directory_as_output_exits_3():
    status, _, err, _ = invoke(["sir", "--preset", "fig6b", "--horizon", "1",
                                "--out", ""])
    assert status == 3
    assert_one_line(err, "error: IsADirectoryError: ")


SIR_OUT = ["sir", "--preset", "fig6b", "--horizon", "1", "--quiet", "--out"]
RD_OUT = ["rd", "--length", "4", "--horizon", "1", "--snapshot_every", "100",
          "--quiet", "--out"]
PROV_OUT = ["funds", "provinces", "--quiet", "--out"]


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)],
                         ids=["umask-022", "umask-077"])
def test_outputs_get_the_mode_open_would_create(tmp_path, monkeypatch, umask, mode):
    monkeypatch.chdir(tmp_path)
    old = os.umask(umask)
    try:
        for argv in (["funds", "provinces", "--quiet", "--out", "prov.csv"],
                     [*RD_OUT, "wave"]):
            assert cli.main(argv) == 0
    finally:
        os.umask(old)
    modes = {p.name: stat.S_IMODE(p.stat().st_mode) for p in tmp_path.iterdir()}
    assert {"prov.csv", "prov.json", "prov.csv.manifest.json",
            "wave_0000.csv", "wave_0001.csv", "wave.manifest.json"} <= set(modes)
    assert set(modes.values()) == {mode}, modes


@pytest.mark.parametrize("fifo, out, named", [
    ("sir.csv", "sir.csv", "sir.csv"),
    ("sir.csv.manifest.json", "sir.csv", "sir.csv.manifest.json"),
    ("data.csv", "link.csv", "link.csv"),  # link.csv -> data.csv
    ("wave_0001.csv", "wave", "wave_0001.csv"),
    ("prov.json", "prov.csv", "prov.json"),  # the JSON mirror of funds' CSV
])
def test_an_output_that_is_not_a_regular_file_exits_3_untouched(
        tmp_path, monkeypatch, capsys, fifo, out, named):
    monkeypatch.chdir(tmp_path)
    os.mkfifo(fifo)
    if out == "link.csv":
        os.symlink(fifo, out)
    argv = {"wave": RD_OUT, "prov.csv": PROV_OUT}.get(out, SIR_OUT)
    assert cli.main([*argv, out]) == 3
    err = one_error_line(capsys, "error: OSError: output path is not a regular file: ")
    assert repr(named) in err
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)
    # Every output is checked before the first is written: the run leaves
    # no file behind, not even the CSV or snapshot before the refused one.
    assert sorted(os.listdir()) == sorted({fifo, out} if out == "link.csv" else {fifo})


GEN_OUT = ["network", "gen", "--n", "12", "--density", "0.4", "--quiet", "--out"]


def listing():
    """{name: (inode, bytes)} of the working directory: a file renamed over,
    even with the same bytes, gets a new inode."""
    return {p.name: (p.stat().st_ino, p.read_bytes()) for p in Path(".").iterdir()}


# ``failing`` counts the run's files in the order they are written: the
# CSV (or the six rd snapshots), funds' JSON mirror, then the manifest.
@pytest.mark.parametrize("argv, out, failing", [
    (SIR_OUT, "sir.csv", 0), (SIR_OUT, "sir.csv", 1),
    (PROV_OUT, "prov.csv", 0), (PROV_OUT, "prov.csv", 1), (PROV_OUT, "prov.csv", 2),
    (RD_OUT, "wave", 0), (RD_OUT, "wave", 3), (RD_OUT, "wave", 6),
    (GEN_OUT, "gen.csv", 0), (GEN_OUT, "gen.csv", 1),
], ids=["sir-csv", "sir-manifest", "prov-csv", "prov-json", "prov-manifest",
        "rd-first", "rd-middle", "rd-manifest", "gen-csv", "gen-manifest"])
def test_a_write_that_fails_at_any_file_leaves_the_directory_as_it_was(
        tmp_path, monkeypatch, capsys, argv, out, failing):
    monkeypatch.chdir(tmp_path)
    assert cli.main([*argv, out, "--seed", "1"]) == 0  # the earlier run
    before = listing()
    real = os.fdopen
    opened = []

    def fdopen(fd, *args, **kwargs):
        # The staged file of output number ``failing`` takes a few bytes,
        # then the disk is full.
        fh = real(fd, *args, **kwargs)
        opened.append(fd)
        if len(opened) == failing + 1:
            fh.write("partial")
            fh.close()
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return fh

    monkeypatch.setattr(os, "fdopen", fdopen)
    assert cli.main([*argv, out]) == 3
    one_error_line(capsys, f"error: OSError: [Errno {errno.ENOSPC}] ")
    assert listing() == before
    assert len(opened) == failing + 1


def test_an_interrupt_while_writing_propagates_and_leaves_no_file(
        tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    real = cli._csv_chunks
    started = []

    def chunks(header, columns):
        started.append(header)
        yield ",".join(header) + "\n"
        if len(started) == 3:  # two snapshots are staged by now
            raise KeyboardInterrupt
        yield from islice(real(header, columns), 1, None)

    monkeypatch.setattr(cli, "_csv_chunks", chunks)
    with pytest.raises(KeyboardInterrupt):
        cli.main([*RD_OUT, "wave"])
    assert len(started) == 3
    assert os.listdir() == []


def test_a_rename_that_fails_partway_leaves_no_temporary_file(
        tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    real = os.replace
    renamed = []

    def replace(src, dst):
        renamed.append(dst)
        if len(renamed) == 2:
            raise OSError(errno.EIO, os.strerror(errno.EIO))
        real(src, dst)

    monkeypatch.setattr(os, "replace", replace)
    assert cli.main([*PROV_OUT, "prov.csv"]) == 3
    one_error_line(capsys, "error: OSError: ")
    # The one window: the CSV renamed before the failure stays; the JSON
    # mirror and the manifest, renamed last, do not appear.
    assert os.listdir() == ["prov.csv"]


@pytest.mark.parametrize("renames", [1, 2, 3])
def test_an_interrupt_right_after_a_rename_propagates_and_leaves_no_staged_file(
        tmp_path, monkeypatch, renames):
    # The interrupt lands between a rename and the cleanup's record of it, so
    # the cleanup meets a staged name that is already gone.
    monkeypatch.chdir(tmp_path)
    real = os.replace
    renamed = []

    def replace(src, dst):
        real(src, dst)
        renamed.append(dst.name)
        if len(renamed) == renames:
            raise KeyboardInterrupt

    monkeypatch.setattr(os, "replace", replace)
    with pytest.raises(KeyboardInterrupt):
        cli.main([*PROV_OUT, "prov.csv"])
    assert sorted(os.listdir()) == sorted(renamed)


@pytest.mark.parametrize("files", [1, 2, 3])
def test_an_interrupt_right_after_a_staged_open_propagates_and_leaves_no_file(
        tmp_path, monkeypatch, files):
    # The interrupt lands once the staged file exists, before the run holds
    # its descriptor: only the name, staged first, tells the cleanup of it.
    monkeypatch.chdir(tmp_path)
    real = os.open
    created = []

    def open_(path, flags, *args, **kwargs):
        fd = real(path, flags, *args, **kwargs)
        if flags & os.O_CREAT and str(path).endswith(".tmp"):
            created.append(path)
            if len(created) == files:
                os.close(fd)
                raise KeyboardInterrupt
        return fd

    monkeypatch.setattr(os, "open", open_)
    with pytest.raises(KeyboardInterrupt):
        cli.main([*PROV_OUT, "prov.csv"])
    assert len(created) == files
    assert os.listdir() == []


def test_sigterm_ends_a_run_with_143_and_leaves_no_staged_file(tmp_path):
    # The handler belongs to the console entry alone: main leaves it as it is.
    handler = signal.getsignal(signal.SIGTERM)
    assert cli.main(["sir", "--preset", "fig6b", "--horizon", "1", "--quiet"]) == 0
    assert signal.getsignal(signal.SIGTERM) is handler
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    proc = subprocess.Popen(
        [sys.executable, "-m", "infospread", "rd", "--length", "40", "--horizon", "20",
         "--snapshot_every", "20", "--out", str(tmp_path / "w")],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    try:
        deadline = time.monotonic() + 60
        while not list(tmp_path.glob(".*.tmp")):
            assert proc.poll() is None, "the run ended before it staged a file"
            assert time.monotonic() < deadline
            time.sleep(0.001)
        proc.send_signal(signal.SIGTERM)
        _, err = proc.communicate(timeout=60)
    finally:
        proc.kill()
        proc.wait()
    assert proc.returncode == 143, err
    assert err == b""
    assert os.listdir(tmp_path) == []


def exhaust_memory(*args, **kwargs):
    # 4 EiB, past any address space: the allocation fails at once.
    np.empty(1 << 62, dtype=np.uint8)


@pytest.mark.parametrize("where", ["layer", "writing"])
def test_running_out_of_memory_exits_1_with_one_line(tmp_path, monkeypatch, capsys,
                                                     where):
    monkeypatch.chdir(tmp_path)
    if where == "layer":
        monkeypatch.setattr(rdwave, "rd_integrate", exhaust_memory)
    else:
        real = cli._csv_chunks
        started = []

        def chunks(header, columns):
            started.append(header)
            if len(started) == 3:  # two snapshots are staged by now
                exhaust_memory()
            yield from real(header, columns)

        monkeypatch.setattr(cli, "_csv_chunks", chunks)
    assert cli.main([*RD_OUT, "wave"]) == 1
    # numpy raises a MemoryError subclass that it names MemoryError.
    one_error_line(capsys, "error: MemoryError: Unable to allocate ")
    assert os.listdir() == []


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc")
def test_a_process_out_of_address_space_exits_1_with_one_line(tmp_path):
    # A density-1 network of 10^4 nodes needs gigabytes; the child may map
    # only 256 MiB beyond what importing the CLI took.  One BLAS thread, so
    # that the probe and the run map the same thread stacks.
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1]),
           "OPENBLAS_NUM_THREADS": "1"}
    probe = subprocess.run(
        [sys.executable, "-c", "import infospread.cli; "
         "print(open('/proc/self/status').read())"],
        env=env, capture_output=True, text=True, timeout=120, check=True)
    peak = next(int(line.split()[1]) for line in probe.stdout.splitlines()
                if line.startswith("VmPeak:")) * 1024
    limit = peak + 256 * 2 ** 20

    def cap_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    done = subprocess.run(
        [sys.executable, "-m", "infospread", "network", "gen", "--n", "10000",
         "--density", "1", "--out", str(tmp_path / "net.csv")],
        env=env, preexec_fn=cap_address_space, capture_output=True, text=True,
        timeout=120)
    assert done.returncode == 1, done.stderr
    assert len(done.stderr.splitlines()) == 1, done.stderr
    assert done.stderr.startswith("error: MemoryError: "), done.stderr
    assert os.listdir(tmp_path) == []


def test_each_output_target_is_resolved_once(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    real = cli._output_target
    resolved = []
    monkeypatch.setattr(cli, "_output_target",
                        lambda path: resolved.append(str(path)) or real(path))
    assert cli.main([*PROV_OUT, "prov.csv"]) == 0
    assert sorted(resolved) == ["prov.csv", "prov.csv.manifest.json", "prov.json"]


@pytest.mark.parametrize("target", ["data/sir.csv", "data/new.csv"],
                         ids=["existing", "dangling"])
def test_an_output_symlink_stays_a_link_to_the_file_written(tmp_path, monkeypatch,
                                                            target):
    monkeypatch.chdir(tmp_path)
    assert cli.main([*SIR_OUT, "plain.csv"]) == 0
    os.mkdir("data")
    Path("data/sir.csv").write_text("old")
    os.symlink(target, "link.csv")
    assert cli.main([*SIR_OUT, "link.csv"]) == 0
    assert os.readlink("link.csv") == target
    assert Path(target).read_bytes() == Path("plain.csv").read_bytes()
    assert sorted(os.listdir("data")) == sorted({"sir.csv", Path(target).name})


@pytest.mark.parametrize("argv, error", [
    (["network", "eigen", "--network", "net10.csv/x.csv"], "NotADirectoryError"),
    (["funds", "provinces", "--input", "funds.csv/x.csv"], "NotADirectoryError"),
    (["sir", "--config", "net10.csv/x.json"], "NotADirectoryError"),
    (["sir", "--preset", "fig6b", "--horizon", "1", "--out", "net10.csv/x.csv"],
     "FileExistsError"),
    (["network", "eigen", "--network", "n" * 300 + ".csv"], "OSError"),
], ids=["network", "input", "config", "out", "long-name"])
def test_a_file_that_cannot_be_opened_exits_3(argv, error):
    status, _, err, files = invoke(argv)
    assert status == 3
    assert_one_line(err, f"error: {error}: ")
    assert not files


# Small, fast base invocations per subcommand; the fuzz below replaces or
# drops one of their flags at a time, or gives --config itself a fuzz value.
FUZZ_BASES = [
    ["network", "gen", "--n", "5", "--density", "0.5"],
    ["network", "centrality", "--network", "net10.csv", "--horizon", "3"],
    ["network", "eigen", "--network", "net10.csv", "--tol", "1e-10", "--max_iter", "50"],
    ["gossip", "simulate", "--network", "net10.csv", *PROBS, "--p_gain", "0.8",
     "--p_ext", "0.3", "--rounds", "5", "--informed", "0,1"],
    ["gossip", "stationary", *PROBS, "--tie_gain_to_loss", "--quiet"],
    ["sir", "--preset", "fig6b", "--beta", "0.3", "--alpha", "0.1", "--mu", "0.01",
     "--n", "1", "--s0", "0.99", "--i0", "0.01", "--r0", "0", "--h", "0.01",
     "--horizon", "1"],
    ["rd", "--D", "1", "--r", "1", "--K", "1", "--dx", "0.1", "--dt", "0.002",
     "--length", "2", "--horizon", "0.1", "--init", "step", "--snapshot_every", "10"],
    ["fastslow", "--beta", "0.1", "--alpha", "0.2", "--mu", "0.05", "--n", "1",
     "--epsilon", "0.1", "--h", "0.05", "--horizon", "1", "--layer_time", "0.5",
     "--s0", "0.8", "--i0", "0.2"],
    ["funds", "summarize", "--input", "funds.csv", "--group_by", "category",
     "--value", "performance", "--show_reference"],
]
FUZZ_BASES = [[*base, "--seed", "1", "--out", "wave" if base[0] == "rd" else "o.csv"]
              for base in FUZZ_BASES]
# (base, index of the flag whose value is replaced; None: add --config)
FUZZ_SLOTS = [(b, i) for b, base in enumerate(FUZZ_BASES)
              for i in [*(i for i, token in enumerate(base) if token.startswith("--")),
                        None]]
ABSENT = object()  # drop the flag instead of replacing its value
FUZZ_VALUES = [float("nan"), float("inf"), float("-inf"), -1, 0, 1e-300, 1e300,
               "abc", "", None, True, [1], {}, ABSENT]


@settings(max_examples=500)
@given(slot=st.sampled_from(FUZZ_SLOTS), value=st.sampled_from(FUZZ_VALUES),
       as_config=st.booleans(), unknown=st.sampled_from([None, None, "x", "_"]))
@example(slot=(4, FUZZ_BASES[4].index("--p_loss")), value=ABSENT, as_config=False,
         unknown=None)
def test_any_single_replacement_keeps_the_exit_contract(slot, value, as_config,
                                                         unknown):
    """``unknown``, when set, is appended to the key of a config value,
    which makes it no flag: exit 2 whatever the value."""
    base, i = slot
    argv = list(FUZZ_BASES[base])
    token = value if isinstance(value, str) or value is ABSENT else json.dumps(value)
    config = None
    if i is None:
        if value is not ABSENT:
            argv += ["--config", token]
    else:
        # A bool flag is one token; a valued flag is two.
        width = 1 if i + 1 == len(argv) or argv[i + 1].startswith("--") else 2
        name = argv[i][2:]
        if value is ABSENT:
            del argv[i:i + width]
        elif as_config or width == 1:
            config = {name: value}
            del argv[i:i + width]
        else:
            argv[i + 1] = token
    if unknown is not None and config is not None:
        config = {name + unknown: value}
    status, _, err, _ = invoke(argv, config)
    if unknown is not None and config is not None:
        assert status == 2
        assert_one_line(err, "usage error: --config key ")
    assert status in (0, 1, 2, 3)
    assert len(err.splitlines()) <= 1, err


# -- file contents ----------------------------------------------------------------
# Each input file the CLI reads, fuzzed as raw bytes and as a valid file with a
# few bytes inserted or overwritten.  Every run exits 0, or with the statuses
# its file can cause and one diagnosis line.

FUND_LINES = Path(FUNDS).read_bytes().splitlines(keepends=True)
FILE_CASES = {
    "network": (["network", "eigen", "--network", "in.csv", "--max_iter", "200"],
                Path(NETWORK10).read_bytes(), (0, 1)),
    "funds": (["funds", "summarize", "--input", "in.csv", "--group_by", "province"],
              b"".join(FUND_LINES[:9]), (0, 1)),
    "config": (["sir", "--config", "in.csv"],
               json.dumps({"preset": "fig6b", "h": 0.01, "horizon": 1.0,
                           "i0": 0.001, "seed": 3}).encode(), (0, 1, 2)),
}
PREFIXES = {1: "error: ", 2: "usage error: "}


def run_on_file(argv, data):
    """(exit status, stderr) of one cli.main call reading ``data`` as in.csv."""
    out, err = io.StringIO(), io.StringIO()
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            Path("in.csv").write_bytes(data)
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                status = cli.main(argv)
        finally:
            os.chdir(home)
    return status, err.getvalue()


@st.composite
def file_contents(draw, valid):
    """Raw bytes, or ``valid`` with one to three byte strings inserted or
    written over it."""
    if draw(st.booleans()):
        return draw(st.binary(max_size=300))
    data = bytearray(valid)
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, len(data)))
        chunk = draw(st.binary(min_size=1, max_size=4))
        if draw(st.booleans()):
            data[at:at] = chunk
        else:
            data[at:at + len(chunk)] = chunk
    return bytes(data)


@pytest.mark.parametrize("case", sorted(FILE_CASES))
def test_any_file_content_keeps_the_exit_contract(case, monkeypatch):
    argv, valid, statuses = FILE_CASES[case]
    # A digit inserted into the config's horizon or h could ask for up to
    # MAX_STEPS steps; a smaller bound keeps every run short and still takes
    # the same code path (a usage error past the bound).
    monkeypatch.setattr(epi_sir, "MAX_STEPS", 100_000)
    assert run_on_file(argv, valid) == (0, "")

    @settings(max_examples=250, deadline=None)
    @given(data=file_contents(valid))
    @example(data=b"\xff")
    @example(data=b"[" * 100_000)
    @example(data=valid.replace(b",", b",\x00", 1))
    def check(data):
        status, err = run_on_file(argv, data)
        assert status in statuses, (status, err)
        if status:
            assert_one_line(err, PREFIXES[status])
        else:
            assert err == ""

    check()
