"""The benchmark's workloads: seeded inputs, fixed job lists and output checks.

Every job is one ``infospread.cli.main(argv)`` call that writes into its own
directory.  The first run of a job in a benchmark run is checked against an
independent oracle when the timing is over; every later run of the same job
must reproduce its output bytes exactly.  Anchor jobs have fixed inputs whatever
the workload seed, and their outputs must match the digests pinned in
``digests.json``.

Import this module only after ``program.load()`` has put the package on the
path.
"""

from __future__ import annotations

import csv
import hashlib
import importlib.resources
import json
import math
import os
import shutil
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from infospread import epi_sir, fundstats, netdiff

PINNED = json.loads(Path(__file__).with_name("digests.json").read_text())

GOSSIP_FLAGS = ("--p_select", ".5", "--p_drop", ".1", "--p_loss", ".2",
                "--p_gain", ".8")


class CheckError(Exception):
    """An output is missing or disagrees with its oracle."""


@dataclass(frozen=True)
class Job:
    """One CLI invocation.  ``key`` is unique within a workload's job list
    and names the job's output directory; runs with equal keys must write
    equal bytes.  ``check`` validates a fresh output directory against an
    oracle and raises CheckError."""

    kind: str
    key: str
    argv: tuple[str, ...]
    outputs: tuple[str, ...]
    check: Callable[[Path], None]

    def argv_in(self, out: Path) -> list[str]:
        return [a.replace("{out}", str(out)) for a in self.argv]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    params: dict
    # Median pass length measured on a 2-core Xeon host.  It fixes how many
    # passes fit into --seconds, so a run's sample count never depends on
    # how loaded the machine happens to be.
    nominal_pass_s: float
    build_inputs: Callable[[Path, int], None]
    jobs: Callable[[Path, int], list[Job]]
    anchors: Callable[[Path], list[Job]]


def derive_seed(seed: int, stream: int) -> int:
    """Independent 32-bit seed number ``stream`` of workload seed ``seed``."""
    return int(np.random.SeedSequence([seed, stream]).generate_state(1)[0])


def sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def output_digests(out: Path) -> dict[str, str]:
    return {p.name: sha256(p) for p in sorted(out.iterdir()) if p.is_file()}


class Checker:
    """Judges every run of a benchmark run's jobs.

    ``record`` notes a pass's runs.  A run fails at once if its exit status
    is not 0, if an expected file is missing, or if its bytes differ from
    the first run of the same job.  The first run of each job is kept, by
    hard links under ``hold``, and ``check`` runs its oracle at the end of
    the benchmark run.  The oracles rebuild inputs such as the n=2000
    matrix, so the caller reads the program's peak RSS before ``check``."""

    def __init__(self, hold: Path):
        self.hold = hold
        self.references: dict[str, dict[str, str]] = {}
        self.pending: list[Job] = []

    def record(self, runs: list[tuple[Job, Path, object]]) -> list[str | None]:
        """For each (job, output directory, exit code), the reason the run
        failed, or None if only the job's oracle check is left."""
        reasons = []
        for job, out, code in runs:
            missing = [name for name in job.outputs if not (out / name).is_file()]
            if code != 0:
                reasons.append(f"exit status {code}")
            elif missing:
                reasons.append(f"missing output {missing[0]}")
            elif job.key not in self.references:
                self.references[job.key] = output_digests(out)
                shutil.copytree(out, self.hold / job.key, copy_function=os.link)
                self.pending.append(job)
                reasons.append(None)
            elif output_digests(out) != self.references[job.key]:
                reasons.append("output bytes differ from the first run of this job")
            else:
                reasons.append(None)
        return reasons

    def check(self) -> dict[str, str]:
        """Run the oracle of every recorded job; the reason for each job key
        whose first output is wrong."""
        wrong = {}
        for job in self.pending:
            try:
                job.check(self.hold / job.key)
            except (CheckError, OSError, ValueError, KeyError) as exc:
                wrong[job.key] = f"{type(exc).__name__}: {exc}"
        self.pending = []
        return wrong


def clear(out: Path) -> None:
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)


def _require(ok, message: str) -> None:
    if not ok:
        raise CheckError(message)


def _table(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    _require(rows, f"{path.name} is empty")
    return rows[0], rows[1:]


def _columns(path: Path, header: tuple[str, ...]) -> np.ndarray:
    names, rows = _table(path)
    _require(tuple(names) == header, f"{path.name} header {names}")
    return np.array(rows, dtype=float).reshape(len(rows), len(header))


def _manifest(path: Path) -> dict:
    return json.loads(Path(f"{path}.manifest.json").read_text())


def _pinned(key: str, name: str) -> Callable[[Path], None]:
    def check(out: Path) -> None:
        _require(sha256(out / name) == PINNED[key],
                 f"{name} does not match the digest pinned for {key}")
    return check


# ---------------------------------------------------------------------------
# network-centrality

NET = {"n": 2000, "density": 0.01, "horizon": 5}
ANCHOR_NET = {"n": 200, "density": 0.05, "seed": 2013}
EIGEN_TOL = 1e-8


def _matrix(n: int, density: float, seed: int) -> np.ndarray:
    return netdiff.generate_random_network(n, density, seed).w


def _check_centrality(w: np.ndarray, horizon: int, path: Path) -> None:
    # Sum of W^t 1 for t = 1..T by mat-vecs: no matrix power is formed.
    x = np.ones(w.shape[0])
    expected = np.zeros(w.shape[0])
    for _ in range(horizon):
        x = w @ x
        expected += x
    got = _columns(path, ("node", "centrality"))[:, 1]
    _require(len(got) == len(expected), "centrality has the wrong length")
    _require(np.all(np.abs(got - expected) <= 1e-10 * np.abs(expected)),
             "centrality differs from the mat-vec recurrence by more than 1e-10")


def _check_eigen(w: np.ndarray, oracle: float, path: Path) -> None:
    vector = _columns(path, ("node", "eigenvector"))[:, 1]
    value = _manifest(path)["results"]["eigenvalue"]
    _require(abs(value - oracle) <= EIGEN_TOL,
             f"eigenvalue {value!r} differs from the oracle {oracle!r}")
    _require(vector.min() >= -1e-10, "eigenvector has a negative entry")
    _require(np.max(np.abs(w @ vector - value * vector)) <= 1e-9,
             "eigenpair residual above 1e-9")


def _sparse_perron_root(w: np.ndarray) -> float:
    # Arnoldi on the sparse matrix: independent of the power iteration and
    # far cheaper than a dense eigensolve at n = 2000.
    from scipy.sparse import csr_matrix
    from scipy.sparse.linalg import eigs
    values = eigs(csr_matrix(w), k=1, which="LM", v0=np.ones(w.shape[0]),
                  tol=0, return_eigenvectors=False)
    return float(values[0].real)


def _network_inputs(inputs: Path, seed: int) -> None:
    net = netdiff.generate_random_network(NET["n"], NET["density"],
                                          derive_seed(seed, 1))
    netdiff.write_network_csv(inputs / "net.csv", net)


def _network_jobs(inputs: Path, seed: int) -> list[Job]:
    net_seed = derive_seed(seed, 1)
    network = str(inputs / "net.csv")

    def matrix() -> np.ndarray:
        # Rebuilt per check rather than kept: the run's peak RSS should be
        # the program's, not the oracle's.
        return _matrix(NET["n"], NET["density"], net_seed)

    def check_gen(out: Path) -> None:
        _require(sha256(out / "net.csv") == sha256(inputs / "net.csv"),
                 "network gen output differs from write_network_csv bytes")

    def check_eigen(out: Path) -> None:
        w = matrix()
        _check_eigen(w, _sparse_perron_root(w), out / "eig.csv")

    return [
        Job("gen", "gen",
            ("network", "gen", "--n", str(NET["n"]), "--density",
             str(NET["density"]), "--seed", str(net_seed),
             "--out", "{out}/net.csv", "--quiet"),
            ("net.csv",), check_gen),
        Job("centrality", "centrality",
            ("network", "centrality", "--network", network, "--horizon",
             str(NET["horizon"]), "--out", "{out}/dc.csv", "--quiet"),
            ("dc.csv",),
            lambda out: _check_centrality(matrix(), NET["horizon"], out / "dc.csv")),
        Job("eigen", "eigen",
            ("network", "eigen", "--network", network,
             "--out", "{out}/eig.csv", "--quiet"),
            ("eig.csv",), check_eigen),
    ]


# Anchor jobs run in order, each in ``<anchors>/<key>``; later anchors read
# the network that anchor-gen wrote.
ANCHOR_NETWORK = "anchor-gen/net.csv"


def _anchor_gen() -> Job:
    return Job("anchor", "anchor-gen",
               ("network", "gen", "--n", str(ANCHOR_NET["n"]), "--density",
                str(ANCHOR_NET["density"]), "--seed", str(ANCHOR_NET["seed"]),
                "--out", "{out}/net.csv", "--quiet"),
               ("net.csv",), _pinned("anchor-gen", "net.csv"))


def _network_anchors(anchors: Path) -> list[Job]:
    def check(out: Path) -> None:
        w = _matrix(ANCHOR_NET["n"], ANCHOR_NET["density"], ANCHOR_NET["seed"])
        dense = np.linalg.eigvals(w)
        _check_eigen(w, float(dense[np.argmax(np.abs(dense))].real),
                     out / "eig.csv")

    return [_anchor_gen(),
            Job("anchor", "anchor-eigen",
                ("network", "eigen", "--network", str(anchors / ANCHOR_NETWORK),
                 "--out", "{out}/eig.csv", "--quiet"),
                ("eig.csv",), check)]


# ---------------------------------------------------------------------------
# gossip-population

SHAPES = {"a": {"n": 300, "density": 0.05, "rounds": 400},
          "b": {"n": 1000, "density": 0.05, "rounds": 50}}


def _gossip_inputs(inputs: Path, seed: int) -> None:
    for stream, (label, shape) in enumerate(SHAPES.items(), start=2):
        net = netdiff.generate_random_network(shape["n"], shape["density"],
                                              derive_seed(seed, stream))
        netdiff.write_network_csv(inputs / f"net-{label}.csv", net)


def _check_trace(w: np.ndarray, rounds: int, path: Path) -> None:
    n = w.shape[0]
    table = _columns(path, ("round", "informed_count", "informed_fraction"))
    _require(len(table) == rounds + 1, "trace has the wrong number of rounds")
    _require(np.array_equal(table[:, 0], np.arange(rounds + 1)),
             "trace rounds are not 0..rounds")
    counts = table[:, 1]
    _require(counts[0] == 1, "round 0 does not hold the one informed node")
    _require(np.all((counts >= 0) & (counts <= n)), "count outside [0, n]")
    _require(np.array_equal(table[:, 2], counts / n), "fraction is not count/n")
    off_diagonal = w.sum(axis=1) - np.diag(w)
    isolated = int(np.count_nonzero(off_diagonal == 0.0))
    _require(_manifest(path)["results"]["isolated_skips"] == isolated * rounds,
             "isolated_skips is not rounds times the isolated initiators")


def _gossip_jobs(inputs: Path, seed: int) -> list[Job]:
    jobs = []
    for stream, (label, shape) in enumerate(SHAPES.items(), start=2):
        net_seed = derive_seed(seed, stream)
        for run_stream in (4, 5):
            run_seed = derive_seed(seed, run_stream)

            def check(out: Path, shape=shape, net_seed=net_seed) -> None:
                w = _matrix(shape["n"], shape["density"], net_seed)
                _check_trace(w, shape["rounds"], out / "trace.csv")

            jobs.append(Job(
                f"simulate-{label}", f"simulate-{label}-{run_stream}",
                ("gossip", "simulate", "--network", str(inputs / f"net-{label}.csv"),
                 *GOSSIP_FLAGS, "--rounds", str(shape["rounds"]),
                 "--seed", str(run_seed), "--informed", "0",
                 "--out", "{out}/trace.csv", "--quiet"),
                ("trace.csv",), check))
    return jobs


def _gossip_anchors(anchors: Path) -> list[Job]:
    # anchor-golden reproduces the package's golden 10-node trace.
    bundled = importlib.resources.files("infospread.data") / "network10.csv"
    return [_anchor_gen(),
            Job("anchor", "anchor-golden",
                ("gossip", "simulate", "--network", str(bundled), *GOSSIP_FLAGS,
                 "--rounds", "100", "--seed", "42", "--informed", "0",
                 "--out", "{out}/trace.csv", "--quiet"),
                ("trace.csv",), _pinned("anchor-golden", "trace.csv")),
            Job("anchor", "anchor-gossip",
                ("gossip", "simulate", "--network", str(anchors / ANCHOR_NETWORK),
                 *GOSSIP_FLAGS, "--rounds", "100", "--seed", "1987",
                 "--informed", "0", "--out", "{out}/trace.csv", "--quiet"),
                ("trace.csv",), _pinned("anchor-gossip", "trace.csv"))]


# ---------------------------------------------------------------------------
# field-dynamics

SIR = {"preset": "fig6b", "h": 0.01, "horizon": 500}
FASTSLOW_EPSILON = 1e-3
FRONT = {"level": 0.5, "window": (20.0, 80.0), "rel_tol": 0.05}


def front_speed(times, fields, dx: float, level: float, window) -> float | None:
    """Least-squares slope of the rightmost downward crossing of ``level``
    over the snapshots inside ``window``; None with fewer than two."""
    ts, xs = [], []
    for t, u in zip(times, fields):
        if not window[0] <= t <= window[1]:
            continue
        idx = np.nonzero((u[:-1] >= level) & (u[1:] < level))[0]
        if len(idx):
            j = int(idx[-1])
            ts.append(t)
            xs.append(dx * (j + (u[j] - level) / (u[j] - u[j + 1])))
    if len(ts) < 2:
        return None
    return float(np.polyfit(ts, xs, 1)[0])


def _check_sir(path: Path) -> None:
    t, s, i, r = _columns(path, ("t", "S", "I", "R")).T
    p = _manifest(path)["parameters"]
    _require(len(t) == round(p["horizon"] / p["h"]) + 1, "wrong step count")
    _require(np.max(np.abs(s + i + r - p["n"])) <= 1e-8 * p["n"],
             "|S+I+R-N| above 1e-8*N")
    params = epi_sir.SirParams(beta=p["beta"], alpha=p["alpha"], mu=p["mu"],
                               n_total=p["n"])
    oracle = epi_sir.final_size(params, p["s0"], p["i0"])
    _require(abs(s[-1] - oracle) <= 1e-4,
             f"final S {s[-1]!r} differs from the final-size root {oracle!r}")


def _check_rd(out: Path) -> None:
    manifest = json.loads((out / "wave.manifest.json").read_text())
    p, results = manifest["parameters"], manifest["results"]
    names = manifest["outputs"]
    _require(len(names) == len(results["times"]) and len(names) > 1,
             "snapshot list and times disagree")
    fields = []
    for name in names:
        x, u = _columns(out / name, ("x", "u")).T
        _require(len(u) == results["n_nodes"], f"{name} has the wrong node count")
        _require(u.min() >= -1e-10 and u.max() <= p["K"] + 1e-10,
                 f"{name} leaves [0, K]")
        fields.append(u)
    speed = front_speed(results["times"], fields, results["dx"],
                        FRONT["level"] * p["K"], FRONT["window"])
    target = 2.0 * math.sqrt(p["r"] * p["D"])
    _require(speed is not None and abs(speed - target) / target <= FRONT["rel_tol"],
             f"front speed {speed!r} not within 5% of {target!r}")


def _check_fastslow(path: Path) -> None:
    t, s, i_eps, i_qss = _columns(path, ("t", "S", "I_eps", "I_qss")).T
    manifest = _manifest(path)
    p = manifest["parameters"]
    late = t >= p["layer_time"]
    deviation = float(np.max(np.abs(i_eps[late] - i_qss[late])))
    _require(deviation == manifest["results"]["sup_deviation"],
             "sup_deviation does not match the written trajectories")
    _require(deviation <= p["epsilon"], "I leaves the slow manifold by more than epsilon")
    # Subcritical: past the layer S relaxes as N + (S0 - N) exp(-mu t), up to
    # the O(epsilon) mass the layer removes.
    s_qss = p["n"] + (p["s0"] - p["n"]) * np.exp(-p["mu"] * t[late])
    _require(np.max(np.abs(s[late] - s_qss)) <= 1e-3,
             "S departs from the slow-manifold relaxation")


def _field_jobs(inputs: Path, seed: int) -> list[Job]:
    return [
        Job("sir", "sir",
            ("sir", "--preset", SIR["preset"], "--h", str(SIR["h"]),
             "--horizon", str(SIR["horizon"]), "--seed", str(derive_seed(seed, 6)),
             "--out", "{out}/sir.csv", "--quiet"),
            ("sir.csv",), lambda out: _check_sir(out / "sir.csv")),
        Job("rd", "rd",
            ("rd", "--seed", str(derive_seed(seed, 7)), "--out", "{out}/wave",
             "--quiet"),
            ("wave.manifest.json", "wave_0000.csv", "wave_0080.csv"), _check_rd),
        Job("fastslow", "fastslow",
            ("fastslow", "--epsilon", str(FASTSLOW_EPSILON),
             "--seed", str(derive_seed(seed, 8)), "--out", "{out}/fs.csv",
             "--quiet"),
            ("fs.csv",), lambda out: _check_fastslow(out / "fs.csv")),
    ]


# ---------------------------------------------------------------------------
# fund-reports

FUND_ROWS = 50_000
ANCHOR_FUNDS = {"rows": 2000, "seed": 2021}
TINY_JOBS_PER_PASS = 40
CATEGORIES = tuple("ABCDEFGHIJ")
FAMILIES_PER_PROVINCE = 120
REPORTS = {
    "summarize-category": ("summarize", "--group_by", "category",
                           "--value", "performance"),
    "summarize-family": ("summarize", "--group_by", "family", "--value", "assets"),
    "provinces": ("provinces",),
    "demographics": ("demographics",),
}
TINY_REPORTS = {
    "summarize-category": REPORTS["summarize-category"],
    "summarize-province": ("summarize", "--group_by", "province",
                           "--value", "assets"),
    "provinces": ("provinces",),
    "demographics": ("demographics",),
}


def write_fund_csv(path: Path, rows: int, seed: int) -> None:
    """Schema-valid synthetic fund records; every row passes ingest_csv."""
    rng = np.random.default_rng(seed)
    province = rng.choice(len(fundstats.PROVINCES), size=rows,
                          p=[.35, .02, .25, .15, .05, .06, .04, .08])
    family = rng.integers(0, FAMILIES_PER_PROVINCE, size=rows)
    category = rng.integers(0, len(CATEGORIES), size=rows)
    race = rng.choice(len(fundstats.RACES), size=rows, p=[.3, .6, .1])
    gender = rng.choice(len(fundstats.GENDERS), size=rows, p=[.8, .15, .05])
    assets = rng.lognormal(3.5, 1.2, size=rows)
    performance = rng.normal(0.08, 0.2, size=rows)
    lines = [",".join(fundstats.CSV_COLUMNS)]
    for k in range(rows):
        lines.append(
            f"F{k:06d},P{province[k]}_family_{family[k]:03d},"
            f"{fundstats.PROVINCES[province[k]]},{CATEGORIES[category[k]]},"
            f"{fundstats.RACES[race[k]]},{fundstats.GENDERS[gender[k]]},"
            f"{assets[k]:.2f},{performance[k]:.4f}")
    path.write_text("\n".join(lines) + "\n")


def _close(got: str, expected: float, rel: float) -> bool:
    return abs(float(got) - expected) <= rel * abs(expected)


def _fund_oracle(path: Path) -> dict:
    """Every report on a fund CSV, computed with plain Python from its rows.

    Rows are streamed into per-group value lists and are not kept, so the
    oracle's memory stays far below the program's and the run's peak RSS
    is the program's."""
    by_category, by_family = defaultdict(list), defaultdict(list)
    share_keys = {"provinces": lambda row: row["province"],
                  "demographics": lambda row: (row["manager_race"],
                                               row["manager_gender"])}
    share_assets = {report: defaultdict(list) for report in share_keys}
    share_families = {report: defaultdict(set) for report in share_keys}
    rows = 0
    with open(path, newline="") as fh:
        lines = csv.reader(fh)
        next(lines)
        for line in lines:
            row = dict(zip(fundstats.CSV_COLUMNS, line))
            assets = float(row["assets"])
            rows += 1
            by_category[row["category"]].append(float(row["performance"]))
            by_family[row["family"]].append(assets)
            for report, key in share_keys.items():
                share_assets[report][key(row)].append(assets)
                share_families[report][key(row)].add(row["family"])

    def summary(groups):
        out = []
        for group in sorted(groups):
            xs = groups[group]
            mean = math.fsum(xs) / len(xs)
            std = (math.sqrt(math.fsum((x - mean) ** 2 for x in xs) / (len(xs) - 1))
                   if len(xs) > 1 else 0.0)
            out.append((group, len(xs), mean, std, min(xs), max(xs)))
        return out

    def shares(report):
        assets, families = share_assets[report], share_families[report]
        total = math.fsum(math.fsum(v) for v in assets.values())
        return {k: (len(families[k]), len(assets[k]), 100.0 * len(assets[k]) / rows,
                    100.0 * math.fsum(assets[k]) / total) for k in assets}

    return {
        "summarize-category": summary(by_category),
        "summarize-family": summary(by_family),
        "provinces": shares("provinces"),
        "demographics": shares("demographics"),
    }


def _check_report(report: str, expected, path: Path) -> None:
    header, rows = _table(path)
    if report.startswith("summarize"):
        _require(len(rows) == len(expected), "wrong number of groups")
        for got, want in zip(rows, expected):
            _require(got[0] == want[0] and int(got[1]) == want[1]
                     and float(got[4]) == want[4] and float(got[5]) == want[5],
                     f"group {got[0]} count/min/max differ")
            _require(_close(got[2], want[2], 1e-9) and _close(got[3], want[3], 1e-9),
                     f"group {got[0]} mean/std differ by more than 1e-9")
    elif report == "provinces":
        _require(len(rows) == len(fundstats.PROVINCES), "wrong number of provinces")
        ranks = [(-int(r[1]), fundstats.PROVINCES.index(r[0])) for r in rows]
        _require(ranks == sorted(ranks), "provinces are not ranked by family count")
        for name, families, funds, pct_funds, pct_assets in rows:
            want = expected.get(name, (0, 0, 0.0, 0.0))
            _require((int(families), int(funds)) == want[:2], f"{name} counts differ")
            _require(_close(pct_funds, want[2], 1e-12)
                     and _close(pct_assets, want[3], 1e-9), f"{name} shares differ")
    else:
        _require([(r[0], r[1]) for r in rows] == sorted(expected),
                 "demographic cells differ")
        for race, gender, funds, pct_funds, pct_assets in rows:
            want = expected[(race, gender)]
            _require(int(funds) == want[1], f"{race}/{gender} count differs")
            _require(_close(pct_funds, want[2], 1e-12)
                     and _close(pct_assets, want[3], 1e-9),
                     f"{race}/{gender} shares differ")


def _fund_inputs(inputs: Path, seed: int) -> None:
    write_fund_csv(inputs / "funds.csv", FUND_ROWS, derive_seed(seed, 9))


def _report_job(kind: str, key: str, flags, source, check) -> Job:
    argv = ("funds", *flags, "--out", "{out}/report.csv", "--quiet")
    if source is not None:
        argv += ("--input", str(source))
    return Job(kind, key, argv, ("report.csv", "report.json"), check)


def _fund_jobs(inputs: Path, seed: int) -> list[Job]:
    source = inputs / "funds.csv"
    oracle: dict = {}

    def checker(report):
        def check(out: Path) -> None:
            if not oracle:
                oracle.update(_fund_oracle(source))
            _check_report(report, oracle[report], out / "report.csv")
        return check

    jobs = [_report_job(report, report, flags, source, checker(report))
            for report, flags in REPORTS.items()]
    tiny = list(TINY_REPORTS.items())
    for k in range(TINY_JOBS_PER_PASS):
        report, flags = tiny[k % len(tiny)]
        jobs.append(_report_job("tiny", f"tiny-{k:02d}-{report}", flags, None,
                                _pinned(f"tiny-{report}", "report.csv")))
    return jobs


def _fund_anchors(anchors: Path) -> list[Job]:
    source = anchors / "funds.csv"
    write_fund_csv(source, ANCHOR_FUNDS["rows"], ANCHOR_FUNDS["seed"])
    return [_report_job("anchor", f"anchor-{report}", flags, source,
                        _pinned(f"anchor-{report}", "report.csv"))
            for report, flags in REPORTS.items()]


# ---------------------------------------------------------------------------

def _no_inputs(inputs: Path, seed: int) -> None:
    pass


def _no_anchors(anchors: Path) -> list[Job]:
    return []


WORKLOADS = {w.name: w for w in (
    Workload(
        "network-centrality",
        "netdiff does most of the work (CSV parse, dense hearing matmuls, "
        "power sweeps) and cli writes a 16.6 MB network CSV",
        {"n": NET["n"], "density": NET["density"], "horizon": NET["horizon"],
         "jobs": ["network gen", "network centrality", "network eigen"]},
        2.9, _network_inputs, _network_jobs, _network_anchors),
    Workload(
        "gossip-population",
        "the per-contact Python loop in gossip dominates; netdiff only parses "
        "networks, at two sizes",
        {"shapes": SHAPES, "seeds_per_shape": 2, "flags": list(GOSSIP_FLAGS)},
        2.3, _gossip_inputs, _gossip_jobs, _gossip_anchors),
    Workload(
        "field-dynamics",
        "the only workload for epi_sir and rdwave: scalar RK4 loops beside a "
        "vectorised FTCS stencil",
        {"sir": SIR, "rd": "defaults", "fastslow_epsilon": FASTSLOW_EPSILON},
        4.1, _no_inputs, _field_jobs, _no_anchors),
    Workload(
        "fund-reports",
        "the only workload for fundstats, plus a burst of tiny jobs where "
        "per-invocation cli cost dominates",
        {"rows": FUND_ROWS, "reports": list(REPORTS),
         "tiny_jobs_per_pass": TINY_JOBS_PER_PASS, "tiny_input": "bundled sample"},
        2.0, _fund_inputs, _fund_jobs, _fund_anchors),
)}
