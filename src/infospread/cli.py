"""Command-line front end binding all modules.

Exit statuses: 0 ok, 1 model error, 2 usage error or a parameter outside its
domain, 3 missing input file (or a directory given as a file), or an output
that cannot be written or whose existing target is not a regular file.
Flags are declared once, in ``_SUBCOMMANDS``; parameter domains are checked
by the model types alone.
Every file-writing invocation also writes a sidecar ``<out>.manifest.json``
echoing the effective parameters, including defaulted ones, so identical
config and seed reproduce identical bytes.  A run's files are staged under
temporary names and renamed into place, the manifest last, only once all
are written, so they appear together or not at all.  Each CSV cell is
``str`` of its Python scalar: ``repr`` for a float.
Outputs are written in chunks of bounded size, as UTF-8 whatever the locale,
so a file and stdout carry the same bytes.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import re
import signal
import stat
import sys
from dataclasses import dataclass, fields, replace
from itertools import chain, islice
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import epi_sir, fundstats, gossip, netdiff, rdwave
from .errors import ModelError, ParamError, UsageError, shown

__all__ = ["RunConfig", "parse_args", "run", "main", "app"]

_GOSSIP_PROBS = ("p_select", "p_drop", "p_loss", "p_gain", "p_ext")


@dataclass(frozen=True)
class RunConfig:
    """Fully validated invocation: one subcommand, merged parameters."""

    subcommand: str
    action: str | None
    seed: int
    out: str | None
    quiet: bool
    params: dict


class _Flag(NamedTuple):
    """A flag's kind (int, float, str or bool), its default, the actions
    that use it (None: every action), and whether they require it."""

    kind: type
    default: object = None
    actions: tuple | None = None
    required: bool = False
    help: str | None = None
    choices: tuple | None = None


_COMMON = {
    "seed": _Flag(int, 0, help="deterministic run seed (default 0)"),
    "out": _Flag(str, help="output CSV path (rd: output prefix)"),
    "config": _Flag(str, help="JSON file merged with flags; flags win"),
    "quiet": _Flag(bool, False, help="suppress informational output"),
}

# Each subcommand: (help, actions or None, {flag name: _Flag}), in help order.
_SUBCOMMANDS = {
    "network": (
        "contact-network generation and centrality", ("gen", "centrality", "eigen"), {
            "n": _Flag(int, actions=("gen",), required=True),
            "density": _Flag(float, actions=("gen",), required=True),
            "network": _Flag(str, actions=("centrality", "eigen"), required=True,
                             help="input network CSV (headerless n x n)"),
            "horizon": _Flag(int, actions=("centrality",), required=True),
            "tol": _Flag(float, 1e-10, actions=("eigen",)),
            "max_iter": _Flag(int, 10000, actions=("eigen",)),
        }),
    # p_gain is required unless tied to p_loss; parse_args reports it missing.
    "gossip": (
        "pair-wise exchange chain and population runs",
        ("matrix", "stationary", "simulate"), {
            **{name: _Flag(float, required=name in ("p_select", "p_drop", "p_loss"))
               for name in _GOSSIP_PROBS},
            "tie_gain_to_loss": _Flag(bool, False, help="force p_gain = 1 - p_loss"),
            "network": _Flag(str, actions=("simulate",), required=True),
            "rounds": _Flag(int, actions=("simulate",), required=True),
            "informed": _Flag(str, "0", actions=("simulate",),
                              help="comma-separated initially informed node indices"),
        }),
    # A preset supplies beta, alpha, mu and n; s0 defaults to n - i0 - r0.
    "sir": ("compartment contagion trajectory", None, {
        "preset": _Flag(str, choices=tuple(sorted(epi_sir.PRESETS))),
        "beta": _Flag(float, required=True),
        "alpha": _Flag(float, required=True),
        "mu": _Flag(float, 0.0),
        "n": _Flag(float, 1.0),
        "s0": _Flag(float),
        "i0": _Flag(float, 1e-3),
        "r0": _Flag(float, 0.0),
        "h": _Flag(float, 0.01),
        "horizon": _Flag(float, 200.0),
    }),
    "rd": ("reaction-diffusion field snapshots", None, {
        "D": _Flag(float, 1.0),
        "r": _Flag(float, 1.0),
        "K": _Flag(float, 1.0),
        "dx": _Flag(float, 0.1),
        "dt": _Flag(float, 0.002),
        "length": _Flag(float, 200.0),
        "horizon": _Flag(float, 80.0),
        "init": _Flag(str, "step", help="initial profile: step | uniform:<value>"),
        "snapshot_every": _Flag(int, 500),
    }),
    # Defaults are the documented subcritical preset: the uninformed branch
    # is uniformly attracting there, so the QSS deviation shrinks with
    # epsilon (supercritical rates spike to order 1/epsilon instead).
    # rdwave.FastSlowConfig defaults s0 to n - i0.
    "fastslow": ("fast-slow sweep against the QSS limit", None, {
        "beta": _Flag(float, 0.1),
        "alpha": _Flag(float, 0.2),
        "mu": _Flag(float, 0.05),
        "n": _Flag(float, 1.0),
        "epsilon": _Flag(float, 0.1),
        "h": _Flag(float, 0.05),
        "horizon": _Flag(float, 30.0),
        "layer_time": _Flag(float, 5.0),
        "s0": _Flag(float),
        "i0": _Flag(float, 0.2),
    }),
    "funds": (
        "fund record reports", ("summarize", "provinces", "demographics"), {
            "input": _Flag(str, help="fund CSV (default: bundled synthetic sample)"),
            "group_by": _Flag(str, "category", actions=("summarize",)),
            "value": _Flag(str, "performance", actions=("summarize",)),
            "show_reference": _Flag(bool, False,
                                    help="also print the published reference table"),
        }),
}

# Model parameter names that differ from their flag's name.
_FLAG_NAMES = {"d_coeff": "D", "r_rate": "r", "k_cap": "K", "n_total": "n"}


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse takes a token that starts with "-" for a flag unless it
        # looks like -5 or -.5; every negative float literal is a value here,
        # so "--s0 -1e-3" runs and "--beta -inf" fails the flag's own check.
        self._negative_number_matcher = re.compile(
            r"-(\d+\.?\d*|\.\d+)(e[-+]?\d+)?$|-(inf|infinity|nan)$", re.IGNORECASE)

    def error(self, message):
        raise UsageError(message)


def _add_flags(parser: argparse.ArgumentParser, flags: dict) -> None:
    # Values stay strings here; _convert turns flag and config values alike.
    for name, flag in flags.items():
        if flag.kind is bool:
            parser.add_argument(f"--{name}", action="store_true", default=None,
                                help=flag.help)
        else:
            parser.add_argument(f"--{name}", choices=flag.choices, help=flag.help)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="infospread",
                     description="Deterministic information-diffusion simulators")
    sub = parser.add_subparsers(dest="subcommand")
    for name, (text, actions, flags) in _SUBCOMMANDS.items():
        subparser = sub.add_parser(name, help=text)
        _add_flags(subparser, _COMMON)
        if actions:
            subparser.add_argument("action", nargs="?", choices=actions,
                                   metavar="{" + ",".join(actions) + "}")
        _add_flags(subparser, flags)
    return parser


def _convert(name: str, flag: _Flag, value):
    """A flag or config value converted to the flag's kind; a value of the
    wrong type, or not among the flag's choices, is a usage error."""
    if flag.kind is bool:
        if not isinstance(value, bool):
            raise UsageError(f"--{name} must be true or false, got {value!r}")
        return value
    if flag.kind is str:
        if not isinstance(value, str):
            raise UsageError(f"--{name} must be a string, got {value!r}")
    else:
        noun = "an integer" if flag.kind is int else "a number"
        # JSON true is not 1, and 2.5 or 1e-300 is not an integer (5.0 is).
        if isinstance(value, bool) or (flag.kind is int and isinstance(value, float)
                                       and not value.is_integer()):
            raise UsageError(f"--{name} must be {noun}, got {value!r}")
        try:
            value = flag.kind(value)
        except (TypeError, ValueError, OverflowError):
            raise UsageError(f"--{name} must be {noun}, got {value!r}") from None
    if flag.choices and value not in flag.choices:
        raise UsageError(f"--{name} must be one of {list(flag.choices)}")
    return value


def _read_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        cfg = json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
        raise UsageError(f"--config is not valid JSON: {exc}") from None
    except RecursionError:
        raise UsageError("--config nests too deeply to read") from None
    if not isinstance(cfg, dict):
        raise UsageError("--config must contain a JSON object")
    return cfg


def _uniform_init(init: str) -> float | None:
    """The value of an ``--init`` of ``uniform:<value>``, or None for
    ``step``; any other text is a usage error."""
    if init == "step":
        return None
    if not init.startswith("uniform:"):
        raise UsageError(f"--init must be 'step' or 'uniform:<value>', got {init!r}")
    try:
        value = float(init.split(":", 1)[1])
    except ValueError:
        raise UsageError(f"--init uniform value is not a number: {init!r}") from None
    return value


def _informed(text: str) -> list[int]:
    try:
        nodes = sorted({int(tok) for tok in text.split(",") if tok.strip() != ""})
    except ValueError:
        raise UsageError(
            f"--informed must be comma-separated integers, got {text!r}") from None
    if not nodes:
        raise UsageError("--informed must name at least one node")
    return nodes


def parse_args(argv=None) -> RunConfig:
    args = _parser().parse_args(argv)
    if args.subcommand is None:
        raise UsageError("a subcommand is required: " + "|".join(_SUBCOMMANDS))
    cfg = _read_config(args.config)
    _, actions, flags = _SUBCOMMANDS[args.subcommand]
    unknown = sorted(cfg.keys() - flags.keys() - _COMMON.keys())
    if unknown:
        raise UsageError(f"--config key {unknown[0]!r} is not a flag of {args.subcommand}")
    informed = cfg.get("informed")
    if isinstance(informed, list):  # as a manifest echoes it
        if not all(type(i) is int for i in informed):
            raise UsageError(f"--informed must be a list of integers, got {informed!r}")
        cfg["informed"] = ",".join(map(str, informed))
    defaults: dict = {}

    def pick(name: str, flag: _Flag):
        # Flag value, else config value (null counts as absent), else default.
        value = getattr(args, name)
        if value is None:
            value = cfg.get(name)
        if value is None:
            return defaults.get(name, flag.default)
        return _convert(name, flag, value)

    seed = pick("seed", _COMMON["seed"])
    if not 0 <= seed < 2 ** 64:
        raise UsageError("--seed must be a 64-bit nonnegative integer, "
                         f"got {shown(seed)}")
    out = pick("out", _COMMON["out"])
    quiet = pick("quiet", _COMMON["quiet"])
    if args.subcommand == "sir":
        preset = pick("preset", flags["preset"])
        if preset is not None:
            p = epi_sir.PRESETS[preset]
            defaults = {"beta": p.beta, "alpha": p.alpha, "mu": p.mu, "n": p.n_total}

    # Flags that every action uses are read, and gossip's probabilities
    # checked, before the action, so a bad value is reported even when the
    # action is missing.
    params = {name: pick(name, flag) for name, flag in flags.items()
              if flag.actions is None}
    if args.subcommand == "gossip":
        try:
            for name in _GOSSIP_PROBS:
                if params[name] is not None:
                    gossip.ExchangeParams.check(name, params[name])
        except ParamError as exc:
            raise UsageError(f"--{exc}") from None
    action = args.action if actions else None
    if actions and action is None:
        raise UsageError(f"{args.subcommand} requires an action: " + "|".join(actions))
    for name, flag in flags.items():
        if flag.actions and action not in flag.actions and getattr(args, name) is not None:
            raise UsageError(f"--{name} is not a flag of {args.subcommand} {action}")
    params.update((name, pick(name, flag)) for name, flag in flags.items()
                  if flag.actions and action in flag.actions)
    for name, flag in flags.items():
        if flag.required and name in params and params[name] is None:
            raise UsageError(f"--{name} is required")

    if args.subcommand == "gossip":
        if params.pop("tie_gain_to_loss"):
            params["p_gain"] = 1.0 - params["p_loss"]  # overrides a given p_gain
        elif params["p_gain"] is None:
            raise UsageError("--p_gain is required unless --tie_gain_to_loss is set")
        # Every probability is in [0, 1] by now; this only echoes the default p_ext.
        params["p_ext"] = gossip.ExchangeParams(
            **{k: params[k] for k in _GOSSIP_PROBS}).p_ext
        if action == "simulate":
            params["informed"] = _informed(params["informed"])
    elif args.subcommand == "sir" and params["s0"] is None:
        params["s0"] = params["n"] - params["i0"] - params["r0"]
    elif args.subcommand == "rd":
        _uniform_init(params["init"])
    return RunConfig(subcommand=args.subcommand, action=action, seed=seed,
                     out=out, quiet=quiet, params=params)


# ---------------------------------------------------------------------------
# output helpers

# Rows per chunk of CSV text, so the memory an output takes is bounded by a
# chunk rather than growing with its row count.
_CHUNK_ROWS = 4096

# Cells of an ndarray column turned into Python scalars at a time.
_SLICE_CELLS = 256


def _cells(column):
    """The cells of a column; an ndarray's as Python scalars, read a slice
    of ``_SLICE_CELLS`` at a time with ``tolist``, which gives the same
    scalars as ``item`` a cell at a time at a fraction of the calls."""
    if not isinstance(column, np.ndarray):
        return column
    return chain.from_iterable(column[k:k + _SLICE_CELLS].tolist()
                               for k in range(0, len(column), _SLICE_CELLS))


def _csv_chunks(header, columns):
    """CSV text of equal-length columns (1-D ndarrays, ranges, or lists of
    ints, floats or strings) in chunks: the header line, then up to
    ``_CHUNK_ROWS`` rows at a time, each chunk ending in a newline.  An
    ndarray's cells are read a slice at a time (``_cells``), so no whole
    column of Python scalars is alive at once."""
    yield ",".join(header) + "\n"
    rows = map(",".join, zip(*(map(str, _cells(c)) for c in columns), strict=True))
    while lines := list(islice(rows, _CHUNK_ROWS)):
        lines.append("")  # the chunk's last newline, without a second copy
        yield "\n".join(lines)


def _output_target(path) -> Path:
    """The file an output at ``path`` writes: ``path`` itself, or a
    symlink's target, the link being kept.  An existing target that is not
    a regular file (a directory, a FIFO, a device) is refused."""
    path = target = Path(path)
    try:
        st = os.lstat(path)
    except OSError:  # none yet, or a path through a file: mkdir reports it
        st = None
    if st is not None and stat.S_ISLNK(st.st_mode):
        target = Path(os.path.realpath(path))
        try:
            st = os.stat(target)
        except FileNotFoundError:  # a dangling link: its target is created
            st = None
    if st is not None and not stat.S_ISREG(st.st_mode):
        if stat.S_ISDIR(st.st_mode):
            raise IsADirectoryError(f"output path is a directory: {str(path)!r}")
        raise OSError(f"output path is not a regular file: {str(path)!r}")
    return target


def _write_stdout(chunks) -> None:
    """Write text chunks to stdout as the UTF-8 bytes a file would hold,
    whatever the locale's encoding.  A text-only stream (one without a
    ``buffer``, such as ``io.StringIO``) takes the text itself.  If the
    reader closes the pipe early (``| head``), the rest is dropped."""
    buffer = getattr(sys.stdout, "buffer", None)
    if buffer is None:
        sys.stdout.writelines(chunks)
        return
    try:
        sys.stdout.flush()  # text printed earlier goes first
        for chunk in chunks:
            buffer.write(chunk.encode("utf-8"))
        buffer.flush()
    except BrokenPipeError:
        # Point stdout at the null device, so that what is still buffered,
        # and any later print, does not fail again when it is flushed.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, buffer.fileno())
        os.close(devnull)


def _write_files(config: RunConfig, files, extra=None) -> None:
    """Write ``files``, a list of ``(path, text chunks)`` pairs, and the
    run's manifest ``<out>.manifest.json`` naming them, so that they appear
    together or not at all.  Every target (``_output_target``) is resolved
    before any byte is written.  Each file is written as UTF-8 to a
    temporary file in its target's directory, with mode ``0o666 & ~umask``
    as ``open`` would create it; once all are complete they are renamed
    into place, the manifest last.  A temporary name is staged before its
    file is created, so on any exception every staged file is removed.
    One window is left: a rename that fails, or an interrupt, partway
    through the renames leaves the files renamed before it, with no
    manifest.  A directory or temporary file that cannot be created is
    reported with its output path."""
    manifest = {
        "subcommand": config.subcommand,
        "action": config.action,
        "seed": config.seed,
        "parameters": config.params,
        "outputs": [Path(path).name for path, _ in files],
    }
    if extra:
        manifest["results"] = extra
    files = [*files, (f"{config.out}.manifest.json",
                      [json.dumps(manifest, sort_keys=True, indent=2) + "\n"])]
    targets = [_output_target(path) for path, _ in files]
    staged = []
    try:
        for (path, chunks), target in zip(files, targets):
            tmp = os.path.join(target.parent, f".{target.name}.{os.urandom(8).hex()}.tmp")
            staged.append(tmp)
            try:
                target.parent.mkdir(parents=True, exist_ok=True)
                fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            except OSError as exc:
                del staged[-1]  # no file of this run has the name
                # OSError(errno, ...) is the errno's subclass, so the type is kept.
                raise OSError(exc.errno, f"{exc.strerror}: cannot create "
                                         f"{exc.filename!r} for the output path "
                                         f"{str(path)!r}") from None
            with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
                fh.writelines(chunks)
        for target in targets:
            os.replace(staged[0], target)
            del staged[0]
    except BaseException:
        for tmp in staged:
            # A name not yet created, or already renamed, is gone: its
            # unlink must not hide the first exception.
            with contextlib.suppress(FileNotFoundError):
                os.unlink(tmp)
        raise


def _emit(config: RunConfig, chunks, extra=None, mirror=None) -> None:
    """Stream the CSV text chunks to stdout, or to --out; a ``mirror``
    document is written as JSON beside it, to --out with the suffix .json."""
    if config.out is None:
        _write_stdout(chunks)
        return
    files = [(config.out, chunks)]
    if mirror is not None:
        files.append((Path(config.out).with_suffix(".json"),
                      [json.dumps(mirror, indent=2, sort_keys=True) + "\n"]))
    _write_files(config, files, extra)
    if not config.quiet:
        print(f"wrote {config.out}")


# ---------------------------------------------------------------------------
# handlers

def _run_network(config: RunConfig) -> None:
    p = config.params
    if config.action == "gen":
        net = netdiff.generate_random_network(p["n"], p["density"], config.seed)
        _emit(config, netdiff.network_csv_chunks(net))
        return
    net = netdiff.read_network_csv(p["network"])
    if config.action == "centrality":
        centrality = netdiff.diffusion_centrality(net, p["horizon"])
        _emit(config, _csv_chunks(("node", "centrality"), (range(net.n), centrality)))
    else:
        pair = netdiff.leading_eigenpair(net, tol=p["tol"], max_iter=p["max_iter"])
        extra = {"eigenvalue": pair.eigenvalue, "residual": pair.residual,
                 "iterations": pair.iterations}
        _emit(config, _csv_chunks(("node", "eigenvector"),
                                  (range(net.n), pair.eigenvector)), extra)
        if not config.quiet:
            print(f"eigenvalue {pair.eigenvalue!r} "
                  f"(residual {pair.residual:.3e}, {pair.iterations} sweeps)")


_STATE_LABELS = ["".join(map(str, s)) for s in gossip.STATE_ORDER]


def _run_gossip(config: RunConfig) -> None:
    params = gossip.ExchangeParams(**{k: config.params[k] for k in _GOSSIP_PROBS})
    if config.action == "matrix":
        m = gossip.build_transition_matrix(params)
        _emit(config, _csv_chunks(("from", *(f"to{s}" for s in _STATE_LABELS)),
                                  (_STATE_LABELS, *m.p.T)))
    elif config.action == "stationary":
        m = gossip.build_transition_matrix(params)
        pi = gossip.stationary_distribution(m)
        _emit(config, _csv_chunks(("state", "probability"), (_STATE_LABELS, pi)))
    else:
        net = netdiff.read_network_csv(config.params["network"])
        trace = gossip.simulate_population(
            net, params, config.params["informed"],
            rounds=config.params["rounds"], seed=config.seed)
        _emit(config, _csv_chunks(("round", "informed_count", "informed_fraction"),
                                  (range(trace.rounds + 1), trace.informed_count,
                                   [c / net.n for c in trace.informed_count])),
              extra={"isolated_skips": trace.isolated_skips})


def _run_sir(config: RunConfig) -> None:
    p = config.params
    params = epi_sir.SirParams(beta=p["beta"], alpha=p["alpha"], mu=p["mu"],
                               n_total=p["n"])
    init = epi_sir.SirState(s=p["s0"], i=p["i0"], r=p["r0"], t=0.0)
    traj = epi_sir.integrate(params, init, h=p["h"], horizon=p["horizon"])
    _emit(config, _csv_chunks(("t", "S", "I", "R"), (traj.t, traj.s, traj.i, traj.r)))


def _rd_initial(cfg: rdwave.ReactionDiffusionConfig, profile: str) -> rdwave.FieldState:
    value = _uniform_init(profile)
    if value is None:
        u = np.where(cfg.x < 0.1 * cfg.length, cfg.k_cap, 0.0)
    else:
        u = np.full(cfg.n_nodes, value)
    return rdwave.FieldState(u=u, t=0.0)


def _run_rd(config: RunConfig) -> None:
    p = config.params
    if config.out is None:
        raise UsageError("rd requires --out (used as the snapshot file prefix)")
    cfg = rdwave.ReactionDiffusionConfig(
        d_coeff=p["D"], r_rate=p["r"], k_cap=p["K"], dx=p["dx"], dt=p["dt"],
        length=p["length"], horizon=p["horizon"])
    snaps = rdwave.rd_integrate(cfg, _rd_initial(cfg, p["init"]),
                                snapshot_every=p["snapshot_every"])
    x = [str(v) for v in cfg.x.tolist()]  # formatted once for every snapshot
    files = [(f"{config.out}_{k:04d}.csv", _csv_chunks(("x", "u"), (x, s.u)))
             for k, s in enumerate(snaps)]
    _write_files(config, files, extra={"times": [s.t for s in snaps],
                                       "n_nodes": cfg.n_nodes, "dx": cfg.dx})
    if not config.quiet:
        print(f"wrote {len(snaps)} snapshots with prefix {config.out}")


def _run_fastslow(config: RunConfig) -> None:
    p = config.params
    cfg = rdwave.FastSlowConfig(
        sir=epi_sir.SirParams(beta=p["beta"], alpha=p["alpha"], mu=p["mu"],
                              n_total=p["n"]),
        epsilon=p["epsilon"], h=p["h"], horizon=p["horizon"],
        layer_time=p["layer_time"], s0=p["s0"], i0=p["i0"])
    result = rdwave.fast_slow_integrate(cfg)
    config = replace(config, params={**p, "s0": cfg.s0})
    _emit(config, _csv_chunks(("t", "S", "I_eps", "I_qss"),
                              (*result.trajectory, result.qss_trajectory.i)),
          extra={"sup_deviation": result.sup_deviation})


def _funds_rows(action: str, params: dict, records):
    """The report's row dataclass and its rows."""
    if action == "summarize":
        return fundstats.SummaryRow, fundstats.summarize(
            records, params["group_by"], params["value"])
    if action == "provinces":
        return fundstats.ProvinceRow, fundstats.province_report(records)
    return fundstats.DemographicsRow, fundstats.demographics_report(records)


_REFERENCE_SECTIONS = {"summarize": "summary", "provinces": "provinces",
                       "demographics": "demographics"}


def _run_funds(config: RunConfig) -> None:
    # The JSON mirror is --out with its suffix replaced by .json.
    if config.out is not None and Path(config.out).suffix == ".json":
        raise UsageError("--out must not end in .json, the path of the report's "
                         f"JSON mirror, got {config.out!r}")
    source = config.params["input"]
    path = fundstats.bundled_fixture_path() if source is None else source
    records = fundstats.ingest_csv(path)
    row_type, rows = _funds_rows(config.action, config.params, records)
    header = [f.name for f in fields(row_type)]
    docs = [{name: getattr(row, name) for name in header} for row in rows]
    _emit(config, _csv_chunks(header, [[doc[name] for doc in docs] for name in header]),
          mirror={"rows": docs})
    if config.params["show_reference"]:
        tables = fundstats.load_reference_tables()
        section = _REFERENCE_SECTIONS[config.action]
        print(f"reference ({tables['note']}):")
        print(json.dumps(tables[section], indent=2))


_DISPATCH = {
    "network": _run_network,
    "gossip": _run_gossip,
    "sir": _run_sir,
    "rd": _run_rd,
    "fastslow": _run_fastslow,
    "funds": _run_funds,
}


# The failures the exit contract covers; anything else is a bug and escapes.
_FAILURES = (UsageError, ModelError, OverflowError, MemoryError, OSError)


def _report(exc: BaseException) -> int:
    """Print the one-line diagnosis of a failure and return its exit
    status: 2 for a usage or parameter error, 3 for a file that cannot be
    opened, 1 for any other model error, an overflow or running out of
    memory."""
    message = " ".join(str(exc).split())
    if isinstance(exc, (UsageError, ParamError)):
        if isinstance(exc, ParamError) and exc.name is not None:
            flag = _FLAG_NAMES.get(exc.name, exc.name)
            message = f"--{flag}{message[len(exc.name):]}"
        print(f"usage error: {message}", file=sys.stderr)
        return 2
    print(f"error: {type(exc).__name__}: {message}", file=sys.stderr)
    return 3 if isinstance(exc, OSError) else 1


def run(config: RunConfig) -> int:
    """Dispatch a validated config; map failures to the exit contract."""
    try:
        _DISPATCH[config.subcommand](config)
    except _FAILURES as exc:
        return _report(exc)
    return 0


def main(argv=None) -> int:
    try:
        config = parse_args(argv)
    except SystemExit:  # --help; parse errors raise UsageError instead
        return 0
    except _FAILURES as exc:
        return _report(exc)
    return run(config)


class _Terminated(BaseException):
    """SIGTERM, raised where the run is, so that its cleanup runs."""


def _terminate(signum, frame):
    raise _Terminated


def app() -> None:
    """The console entry; SIGTERM ends a run as Ctrl-C does, in status 143."""
    signal.signal(signal.SIGTERM, _terminate)
    try:
        status = main(sys.argv[1:])
    except _Terminated:
        status = 128 + signal.SIGTERM
    raise SystemExit(status)


if __name__ == "__main__":
    app()
