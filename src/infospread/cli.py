"""Command-line front end binding all modules.

Exit statuses: 0 ok, 1 model error, 2 usage error, 3 missing input file
(or a directory given as one).
Every file-writing invocation writes atomically (temp file + rename) and
drops a sidecar ``<out>.manifest.json`` echoing the effective parameters,
including defaulted ones, so identical config and seed reproduce identical
bytes.  Numeric CSV cells use full round-trip decimal precision.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import epi_sir, fundstats, gossip, netdiff, rdwave
from .errors import ModelError, UsageError

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


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=None,
                        help="deterministic run seed (default 0)")
    common.add_argument("--out", type=str, default=None,
                        help="output CSV path (rd: output prefix)")
    common.add_argument("--config", type=str, default=None,
                        help="JSON file merged with flags; flags win")
    common.add_argument("--quiet", action="store_true",
                        help="suppress informational output")

    parser = argparse.ArgumentParser(
        prog="infospread",
        description="Deterministic information-diffusion simulators")
    sub = parser.add_subparsers(dest="subcommand")

    network = sub.add_parser("network", parents=[common],
                             help="contact-network generation and centrality")
    network.add_argument("action", nargs="?", default=None,
                         metavar="{gen,centrality,eigen}")
    network.add_argument("--n", type=int, default=None)
    network.add_argument("--density", type=float, default=None)
    network.add_argument("--network", type=str, default=None,
                         help="input network CSV (headerless n x n)")
    network.add_argument("--horizon", type=int, default=None)
    network.add_argument("--tol", type=float, default=None)
    network.add_argument("--max_iter", type=int, default=None)

    gsp = sub.add_parser("gossip", parents=[common],
                         help="pair-wise exchange chain and population runs")
    gsp.add_argument("action", nargs="?", default=None,
                     metavar="{matrix,stationary,simulate}")
    for name in _GOSSIP_PROBS:
        gsp.add_argument(f"--{name}", type=float, default=None)
    gsp.add_argument("--tie_gain_to_loss", action="store_true",
                     help="force p_gain = 1 - p_loss")
    gsp.add_argument("--network", type=str, default=None)
    gsp.add_argument("--rounds", type=int, default=None)
    gsp.add_argument("--informed", type=str, default=None,
                     help="comma-separated initially informed node indices")

    sir = sub.add_parser("sir", parents=[common],
                         help="compartment contagion trajectory")
    sir.add_argument("--preset", choices=sorted(epi_sir.PRESETS), default=None)
    for name in ("beta", "alpha", "mu", "n", "s0", "i0", "r0", "h", "horizon"):
        sir.add_argument(f"--{name}", type=float, default=None)

    rd = sub.add_parser("rd", parents=[common],
                        help="reaction-diffusion field snapshots")
    for name in ("D", "r", "K", "dx", "dt", "length", "horizon"):
        rd.add_argument(f"--{name}", type=float, default=None)
    rd.add_argument("--init", type=str, default=None,
                    help="initial profile: step | uniform:<value>")
    rd.add_argument("--snapshot_every", type=int, default=None)

    fsl = sub.add_parser("fastslow", parents=[common],
                         help="fast-slow sweep against the QSS limit")
    for name in ("beta", "alpha", "mu", "n", "epsilon", "h", "horizon",
                 "layer_time", "s0", "i0"):
        fsl.add_argument(f"--{name}", type=float, default=None)

    funds = sub.add_parser("funds", parents=[common],
                           help="fund record reports")
    funds.add_argument("action", nargs="?", default=None,
                       metavar="{summarize,provinces,demographics}")
    funds.add_argument("--input", type=str, default=None,
                       help="fund CSV (default: bundled synthetic sample)")
    funds.add_argument("--group_by", type=str, default=None)
    funds.add_argument("--value", type=str, default=None)
    funds.add_argument("--show_reference", action="store_true",
                       help="also print the published reference table")
    return parser


def _pick(args, cfg: dict, name: str, default=None, kind=None):
    """Flag value, else config value, else default; converted by ``kind``
    (float or int) unless None, so a config value of the wrong type is a
    usage error like a bad flag."""
    value = getattr(args, name, None)
    if value is None:
        value = cfg.get(name, default)
    if kind is None or value is None:
        return value
    try:
        return kind(value)
    except (TypeError, ValueError, OverflowError):
        noun = "an integer" if kind is int else "a number"
        raise UsageError(f"--{name} must be {noun}, got {value!r}") from None


def _require(value, flag: str):
    if value is None:
        raise UsageError(f"--{flag} is required")
    return value


def _check_prob(name: str, value: float) -> float:
    if not 0.0 <= value <= 1.0:
        raise UsageError(f"--{name} must lie in [0, 1], got {value!r}")
    return value


def _check_positive(name: str, value: float) -> float:
    if value <= 0:
        raise UsageError(f"--{name} must be positive, got {value!r}")
    return value


def _check_action(subcommand: str, action, allowed) -> str:
    if action is None:
        raise UsageError(f"{subcommand} requires an action: " + "|".join(allowed))
    if action not in allowed:
        raise UsageError(
            f"unknown {subcommand} action {action!r}; expected " + "|".join(allowed))
    return action


def _check_input_file(path: str) -> str:
    if not Path(path).exists():
        raise FileNotFoundError(path)
    return path


def parse_args(argv=None) -> RunConfig:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.subcommand is None:
        raise UsageError(
            "a subcommand is required: network|gossip|sir|rd|fastslow|funds")

    cfg: dict = {}
    if args.config is not None:
        _check_input_file(args.config)
        try:
            cfg = json.loads(Path(args.config).read_text(encoding="utf-8"))
        except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
            raise UsageError(f"--config is not valid JSON: {exc}") from None
        if not isinstance(cfg, dict):
            raise UsageError("--config must contain a JSON object")

    seed = _pick(args, cfg, "seed", 0, int)
    if not 0 <= seed < 2 ** 64:
        raise UsageError(f"--seed must be a 64-bit nonnegative integer, got {seed}")
    out = _pick(args, cfg, "out")
    quiet = bool(args.quiet or cfg.get("quiet", False))

    builder = {
        "network": _params_network,
        "gossip": _params_gossip,
        "sir": _params_sir,
        "rd": _params_rd,
        "fastslow": _params_fastslow,
        "funds": _params_funds,
    }[args.subcommand]
    action, params = builder(args, cfg)
    return RunConfig(subcommand=args.subcommand, action=action, seed=seed,
                     out=out, quiet=quiet, params=params)


def _params_network(args, cfg):
    action = _check_action("network", args.action, ("gen", "centrality", "eigen"))
    params: dict = {}
    if action == "gen":
        params["n"] = _require(_pick(args, cfg, "n", kind=int), "n")
        if params["n"] < 1:
            raise UsageError("--n must be >= 1")
        density = _require(_pick(args, cfg, "density", kind=float), "density")
        if not 0.0 <= density <= 1.0:
            raise UsageError(f"--density must lie in [0, 1], got {density!r}")
        params["density"] = density
    else:
        params["network"] = _check_input_file(
            _require(_pick(args, cfg, "network"), "network"))
        if action == "centrality":
            horizon = _require(_pick(args, cfg, "horizon", kind=int), "horizon")
            if horizon < 1:
                raise UsageError("--horizon must be >= 1")
            params["horizon"] = horizon
        else:
            params["tol"] = _check_positive(
                "tol", _pick(args, cfg, "tol", 1e-10, float))
            params["max_iter"] = _pick(args, cfg, "max_iter", 10000, int)
            if params["max_iter"] < 1:
                raise UsageError("--max_iter must be >= 1")
    return action, params


def _params_gossip(args, cfg):
    # Probability ranges are validated before the action so a bad flag is
    # reported even when the action is missing.
    given = {}
    for name in _GOSSIP_PROBS:
        value = _pick(args, cfg, name, kind=float)
        if value is not None:
            given[name] = _check_prob(name, value)
    tie = bool(args.tie_gain_to_loss or cfg.get("tie_gain_to_loss", False))
    action = _check_action("gossip", args.action,
                           ("matrix", "stationary", "simulate"))
    for name in ("p_select", "p_drop", "p_loss"):
        if name not in given:
            raise UsageError(f"--{name} is required")
    mapping = dict(given)
    if tie:
        mapping.pop("p_gain", None)
        mapping["tie_gain_to_loss"] = True
    elif "p_gain" not in given:
        raise UsageError("--p_gain is required (or set --tie_gain_to_loss)")
    try:
        exchange = gossip.ExchangeParams.from_config(mapping)
    except ModelError as exc:
        raise UsageError(str(exc)) from None
    params = {name: getattr(exchange, name) for name in _GOSSIP_PROBS}
    if action == "simulate":
        params["network"] = _check_input_file(
            _require(_pick(args, cfg, "network"), "network"))
        params["rounds"] = _require(_pick(args, cfg, "rounds", kind=int), "rounds")
        if params["rounds"] < 1:
            raise UsageError("--rounds must be >= 1")
        informed = _pick(args, cfg, "informed", "0")
        try:
            params["informed"] = sorted(
                {int(tok) for tok in str(informed).split(",") if tok.strip() != ""})
        except ValueError:
            raise UsageError(
                f"--informed must be comma-separated integers, got {informed!r}"
            ) from None
        if not params["informed"]:
            raise UsageError("--informed must name at least one node")
    return action, params


def _params_sir(args, cfg):
    preset_name = _pick(args, cfg, "preset")
    preset = {}
    if preset_name is not None:
        if preset_name not in epi_sir.PRESETS:
            raise UsageError(f"--preset must be one of {sorted(epi_sir.PRESETS)}")
        p = epi_sir.PRESETS[preset_name]
        preset = {"beta": p.beta, "alpha": p.alpha, "mu": p.mu, "n": p.n_total}

    def value_of(name, default=None):
        v = _pick(args, cfg, name, kind=float)
        if v is None:
            v = preset.get(name, default)
        return v

    beta = _require(value_of("beta"), "beta")
    alpha = _require(value_of("alpha"), "alpha")
    mu = value_of("mu", 0.0)
    n_total = value_of("n", 1.0)
    if beta < 0 or alpha < 0 or mu < 0:
        raise UsageError("--beta/--alpha/--mu must be nonnegative")
    if n_total <= 0:
        raise UsageError("--n must be positive")
    i0 = value_of("i0", 1e-3)
    r0 = value_of("r0", 0.0)
    s0 = value_of("s0")
    s0 = n_total - i0 - r0 if s0 is None else s0
    h = _check_positive("h", value_of("h", 0.01))
    horizon = _check_positive("horizon", value_of("horizon", 200.0))
    return None, {"preset": preset_name, "beta": beta, "alpha": alpha,
                  "mu": mu, "n": n_total, "s0": s0, "i0": i0, "r0": r0,
                  "h": h, "horizon": horizon}


def _params_rd(args, cfg):
    params = {
        "D": _check_positive("D", _pick(args, cfg, "D", 1.0, float)),
        "r": _pick(args, cfg, "r", 1.0, float),
        "K": _check_positive("K", _pick(args, cfg, "K", 1.0, float)),
        "dx": _check_positive("dx", _pick(args, cfg, "dx", 0.1, float)),
        "dt": _check_positive("dt", _pick(args, cfg, "dt", 0.002, float)),
        "length": _check_positive("length", _pick(args, cfg, "length", 200.0, float)),
        "horizon": _check_positive("horizon", _pick(args, cfg, "horizon", 80.0, float)),
        "init": str(_pick(args, cfg, "init", "step")),
        "snapshot_every": _pick(args, cfg, "snapshot_every", 500, int),
    }
    if params["r"] < 0:
        raise UsageError("--r must be nonnegative")
    if params["snapshot_every"] < 1:
        raise UsageError("--snapshot_every must be >= 1")
    init = params["init"]
    if init != "step" and not init.startswith("uniform:"):
        raise UsageError(f"--init must be 'step' or 'uniform:<value>', got {init!r}")
    if init.startswith("uniform:"):
        try:
            float(init.split(":", 1)[1])
        except ValueError:
            raise UsageError(f"--init uniform value is not a number: {init!r}") from None
    return None, params


def _params_fastslow(args, cfg):
    # Defaults are the documented subcritical preset: the uninformed branch
    # is uniformly attracting there, so the QSS deviation shrinks with
    # epsilon (supercritical rates spike to order 1/epsilon instead).
    params = {
        "beta": _pick(args, cfg, "beta", 0.1, float),
        "alpha": _pick(args, cfg, "alpha", 0.2, float),
        "mu": _pick(args, cfg, "mu", 0.05, float),
        "n": _check_positive("n", _pick(args, cfg, "n", 1.0, float)),
        "epsilon": _pick(args, cfg, "epsilon", 0.1, float),
        "h": _check_positive("h", _pick(args, cfg, "h", 0.05, float)),
        "horizon": _check_positive("horizon", _pick(args, cfg, "horizon", 30.0, float)),
        "layer_time": _pick(args, cfg, "layer_time", 5.0, float),
        "i0": _pick(args, cfg, "i0", 0.2, float),
    }
    if params["beta"] < 0 or params["alpha"] < 0 or params["mu"] < 0:
        raise UsageError("--beta/--alpha/--mu must be nonnegative")
    if not 0.0 < params["epsilon"] <= 1.0:
        raise UsageError(f"--epsilon must lie in (0, 1], got {params['epsilon']!r}")
    if not params["layer_time"] < params["horizon"]:
        raise UsageError("--layer_time must be smaller than --horizon")
    s0 = _pick(args, cfg, "s0", kind=float)
    params["s0"] = (params["n"] - params["i0"]) if s0 is None else s0
    return None, params


def _params_funds(args, cfg):
    action = _check_action("funds", args.action,
                           ("summarize", "provinces", "demographics"))
    source = _pick(args, cfg, "input")
    if source is not None:
        _check_input_file(source)
    params = {"input": source,
              "show_reference": bool(args.show_reference
                                     or cfg.get("show_reference", False))}
    if action == "summarize":
        params["group_by"] = str(_pick(args, cfg, "group_by", "category"))
        params["value"] = str(_pick(args, cfg, "value", "performance"))
    return action, params


# ---------------------------------------------------------------------------
# output helpers

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


def _write_atomic(path: Path, text: str) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _write_manifest(config: RunConfig, outputs, extra=None) -> None:
    manifest = {
        "subcommand": config.subcommand,
        "action": config.action,
        "seed": config.seed,
        "parameters": config.params,
        "outputs": [Path(o).name for o in outputs],
    }
    if extra:
        manifest["results"] = extra
    text = json.dumps(manifest, sort_keys=True, indent=2, default=_fmt) + "\n"
    _write_atomic(Path(f"{config.out}.manifest.json"), text)


def _emit(config: RunConfig, text: str, extra=None) -> None:
    if config.out is None:
        sys.stdout.write(text)
        return
    _write_atomic(Path(config.out), text)
    _write_manifest(config, [config.out], extra)
    if not config.quiet:
        print(f"wrote {config.out}")


# ---------------------------------------------------------------------------
# handlers

def _run_network(config: RunConfig) -> None:
    p = config.params
    if config.action == "gen":
        net = netdiff.generate_random_network(p["n"], p["density"], config.seed)
        _emit(config, netdiff.network_csv_text(net))
    elif config.action == "centrality":
        net = netdiff.read_network_csv(p["network"])
        report = netdiff.centrality_report(net, p["horizon"])
        rows = [(i, c) for i, c in enumerate(report.centrality)]
        _emit(config, _csv_text(("node", "centrality"), rows))
    else:
        net = netdiff.read_network_csv(p["network"])
        pair = netdiff.leading_eigenpair(net, tol=p["tol"], max_iter=p["max_iter"])
        rows = [(i, x) for i, x in enumerate(pair.eigenvector)]
        extra = {"eigenvalue": pair.eigenvalue, "residual": pair.residual,
                 "iterations": pair.iterations}
        _emit(config, _csv_text(("node", "eigenvector"), rows), extra)
        if not config.quiet:
            print(f"eigenvalue {pair.eigenvalue!r} "
                  f"(residual {pair.residual:.3e}, {pair.iterations} sweeps)")


def _exchange_params(config: RunConfig) -> gossip.ExchangeParams:
    p = config.params
    return gossip.ExchangeParams(**{k: p[k] for k in _GOSSIP_PROBS})


_STATE_LABELS = ["".join(map(str, s)) for s in gossip.STATE_ORDER]


def _run_gossip(config: RunConfig) -> None:
    params = _exchange_params(config)
    if config.action == "matrix":
        m = gossip.build_transition_matrix(params)
        rows = [[label, *m.p[k]] for k, label in enumerate(_STATE_LABELS)]
        _emit(config, _csv_text(("from", *(f"to{s}" for s in _STATE_LABELS)), rows))
    elif config.action == "stationary":
        m = gossip.build_transition_matrix(params)
        pi = gossip.stationary_distribution(m)
        rows = list(zip(_STATE_LABELS, pi))
        _emit(config, _csv_text(("state", "probability"), rows))
    else:
        net = netdiff.read_network_csv(config.params["network"])
        trace = gossip.simulate_population(
            net, params, config.params["informed"],
            rounds=config.params["rounds"], seed=config.seed)
        rows = [(t, c, f) for t, (c, f) in
                enumerate(zip(trace.informed_count, trace.informed_fraction))]
        _emit(config, _csv_text(("round", "informed_count", "informed_fraction"),
                                rows),
              extra={"isolated_skips": trace.isolated_skips})


def _run_sir(config: RunConfig) -> None:
    p = config.params
    params = epi_sir.SirParams(beta=p["beta"], alpha=p["alpha"], mu=p["mu"],
                               n_total=p["n"])
    init = epi_sir.SirState(s=p["s0"], i=p["i0"], r=p["r0"], t=0.0)
    traj = epi_sir.integrate(params, init, h=p["h"], horizon=p["horizon"])
    rows = zip(traj.t, traj.s, traj.i, traj.r)
    _emit(config, _csv_text(("t", "S", "I", "R"), rows))


def _rd_initial(cfg: rdwave.ReactionDiffusionConfig, profile: str) -> rdwave.FieldState:
    if profile == "step":
        u = np.where(cfg.x < 0.1 * cfg.length, cfg.k_cap, 0.0)
    else:
        u = np.full(cfg.n_nodes, float(profile.split(":", 1)[1]))
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
    x = cfg.x
    outputs = []
    for k, snap in enumerate(snaps):
        path = Path(f"{config.out}_{k:04d}.csv")
        _write_atomic(path, _csv_text(("x", "u"), zip(x, snap.u)))
        outputs.append(str(path))
    _write_manifest(config, outputs,
                    extra={"times": [s.t for s in snaps],
                           "n_nodes": cfg.n_nodes, "dx": cfg.dx})
    if not config.quiet:
        print(f"wrote {len(outputs)} snapshots with prefix {config.out}")


def _run_fastslow(config: RunConfig) -> None:
    p = config.params
    cfg = rdwave.FastSlowConfig(
        sir=epi_sir.SirParams(beta=p["beta"], alpha=p["alpha"], mu=p["mu"],
                              n_total=p["n"]),
        epsilon=p["epsilon"], h=p["h"], horizon=p["horizon"],
        layer_time=p["layer_time"], s0=p["s0"], i0=p["i0"])
    result = rdwave.fast_slow_integrate(cfg)
    rows = zip(result.trajectory.t, result.trajectory.s,
               result.trajectory.i, result.qss_trajectory.i)
    _emit(config, _csv_text(("t", "S", "I_eps", "I_qss"), rows),
          extra={"sup_deviation": result.sup_deviation})


def _funds_rows(action: str, params: dict, records):
    if action == "summarize":
        rows = fundstats.summarize(records, params["group_by"], params["value"])
        header = ("group", "count", "mean", "std", "min", "max")
        cells = [(r.group, r.count, r.mean, r.std, r.min, r.max) for r in rows]
    elif action == "provinces":
        report = fundstats.province_report(records)
        header = ("province", "family_count", "fund_count",
                  "pct_of_funds", "pct_of_assets")
        cells = [(r.province, r.family_count, r.fund_count,
                  r.pct_of_funds, r.pct_of_assets) for r in report.rows]
    else:
        rows = fundstats.demographics_report(records)
        header = ("manager_race", "manager_gender", "fund_count",
                  "pct_of_funds", "pct_of_assets")
        cells = [(r.manager_race, r.manager_gender, r.fund_count,
                  r.pct_of_funds, r.pct_of_assets) for r in rows]
    return header, cells


_REFERENCE_SECTIONS = {"summarize": "summary", "provinces": "provinces",
                       "demographics": "demographics"}


def _run_funds(config: RunConfig) -> None:
    source = config.params["input"]
    path = fundstats.bundled_fixture_path() if source is None else source
    records = fundstats.ingest_csv(path)
    header, cells = _funds_rows(config.action, config.params, records)
    _emit(config, _csv_text(header, cells))
    if config.out is not None:
        doc = {"rows": [dict(zip(header, [
            c if isinstance(c, (str, int)) else float(c) for c in row]))
            for row in cells]}
        _write_atomic(Path(config.out).with_suffix(".json"),
                      json.dumps(doc, indent=2, sort_keys=True) + "\n")
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


def run(config: RunConfig) -> int:
    """Dispatch a validated config; map failures to the exit contract."""
    try:
        _DISPATCH[config.subcommand](config)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (FileNotFoundError, IsADirectoryError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except (ModelError, OverflowError) as exc:
        message = " ".join(str(exc).split())
        print(f"error: {type(exc).__name__}: {message}", file=sys.stderr)
        return 1
    return 0


def main(argv=None) -> int:
    try:
        config = parse_args(argv)
    except SystemExit as exc:  # argparse already printed its message
        return exc.code if isinstance(exc.code, int) else 2
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (FileNotFoundError, IsADirectoryError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    return run(config)


def app() -> None:
    raise SystemExit(main(sys.argv[1:]))
