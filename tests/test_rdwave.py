"""Reaction-diffusion stepping, front speed measurement, and the
fast-slow sweep."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from infospread import epi_sir, rdwave
from infospread.errors import (
    NoCrossingError,
    NonFiniteError,
    ParamError,
    StabilityError,
    StiffnessError,
)


def make_cfg(**kw):
    base = dict(d_coeff=1.0, r_rate=1.0, k_cap=1.0, dx=0.1, dt=0.002,
                length=20.0, horizon=1.0)
    base.update(kw)
    return rdwave.ReactionDiffusionConfig(**base)


def ftcs_steps(cfg, u, steps):
    """The field u and each of the next ``steps`` FTCS steps from it: the
    snapshots of rd_integrate over a ``steps``-step horizon at
    snapshot_every=1."""
    cfg = dataclasses.replace(cfg, horizon=steps * cfg.dt)
    assert cfg.steps == steps
    return rdwave.rd_integrate(cfg, rdwave.FieldState(u=u, t=0.0), snapshot_every=1)


# -- rates ---------------------------------------------------------------

def uniform_step(value, **kw):
    """One FTCS step of a uniform field on a unit-time-step grid.  The flux
    Laplacian of a uniform field is exactly 0, so every node becomes
    value + g(value), bit for bit."""
    cfg = make_cfg(dx=2.0, dt=1.0, length=4.0, **kw)
    u = ftcs_steps(cfg, np.full(cfg.n_nodes, value), 1)[-1].u
    assert np.all(u == u[0])
    return float(u[0])


def test_logistic_rate_boundary_zeros():
    assert uniform_step(0.0, r_rate=1.3, k_cap=2.0) == 0.0
    assert uniform_step(2.0, r_rate=1.3, k_cap=2.0) == 2.0


def test_logistic_rate_peak_value():
    assert uniform_step(0.5, r_rate=1.0, k_cap=1.0) == 0.5 + 0.25


def test_allee_family_available():
    allee = dict(rate_family="allee", allee_threshold=0.3)
    assert uniform_step(0.1, **allee) < 0.1
    assert uniform_step(0.5, **allee) > 0.5
    assert uniform_step(0.3, **allee) == 0.3
    assert uniform_step(0.5, **allee) == 0.5 + 1.0 * 0.5 * (0.5 - 0.3) * (1.0 - 0.5 / 1.0)



@pytest.mark.parametrize("family", ["logistic", "allee"])
@pytest.mark.parametrize("threshold", [math.nan, math.inf, -math.inf])
def test_config_rejects_non_finite_allee_threshold(family, threshold):
    with pytest.raises(ParamError, match="^allee_threshold must be finite") as info:
        make_cfg(rate_family=family, allee_threshold=threshold)
    assert info.value.name == "allee_threshold"

# -- config --------------------------------------------------------------

def test_config_rejects_cfl_violation():
    with pytest.raises(StabilityError):
        make_cfg(dt=0.01)  # D*dt/dx^2 = 1 > 0.5


def test_config_allows_zero_reaction_rate():
    assert make_cfg(r_rate=0.0).r_rate == 0.0


def test_config_rejects_nonpositive_sizes():
    with pytest.raises(ValueError):
        make_cfg(dx=0.0)
    with pytest.raises(ValueError):
        make_cfg(k_cap=-1.0)


def test_grid_geometry():
    cfg = make_cfg(length=20.0, dx=0.1)
    assert cfg.n_nodes == 201
    assert cfg.x[0] == 0.0
    assert cfg.x[-1] == pytest.approx(20.0)


# -- stepping ---------------------------------------------------------------

def test_zero_field_is_exact_fixed_point():
    cfg = make_cfg()
    for state in ftcs_steps(cfg, np.zeros(cfg.n_nodes), 100):
        assert np.array_equal(state.u, np.zeros(cfg.n_nodes))


def test_saturated_field_is_exact_fixed_point():
    cfg = make_cfg(k_cap=0.7)
    for state in ftcs_steps(cfg, np.full(cfg.n_nodes, 0.7), 100):
        assert np.array_equal(state.u, np.full(cfg.n_nodes, 0.7))


def test_pure_diffusion_conserves_mass_per_step():
    cfg = make_cfg(r_rate=0.0)
    u = np.zeros(cfg.n_nodes)
    u[cfg.n_nodes // 2] = 1.0
    snaps = ftcs_steps(cfg, u, 200)
    for before, after in zip(snaps, snaps[1:]):
        assert abs(after.u.sum() * cfg.dx - before.u.sum() * cfg.dx) <= 1e-12


def test_pure_diffusion_mass_drift_over_many_steps():
    cfg = make_cfg(r_rate=0.0, horizon=20.0)
    u = np.zeros(cfg.n_nodes)
    u[cfg.n_nodes // 3] = 1.0
    mass0 = u.sum() * cfg.dx
    snaps = rdwave.rd_integrate(cfg, rdwave.FieldState(u=u, t=0.0),
                                snapshot_every=1000)
    assert int(round(cfg.horizon / cfg.dt)) == 10_000
    for snap in snaps:
        assert abs(snap.u.sum() * cfg.dx - mass0) <= 1e-10


def test_discrete_maximum_principle():
    rng = np.random.default_rng(3)
    cfg = make_cfg()
    for state in ftcs_steps(cfg, rng.random(cfg.n_nodes), 500)[1:]:
        assert state.u.min() >= -1e-10
        assert state.u.max() <= cfg.k_cap + 1e-10


def test_uniform_field_follows_logistic_closed_form():
    cfg = make_cfg(dt=1e-3, length=5.0, horizon=5.0)
    u0 = np.full(cfg.n_nodes, 0.5)
    snaps = rdwave.rd_integrate(cfg, rdwave.FieldState(u=u0, t=0.0),
                                snapshot_every=200)
    for snap in snaps:
        exact = cfg.k_cap / (1.0 + math.exp(-cfg.r_rate * snap.t))
        spread = np.ptp(snap.u)
        assert spread == 0.0  # uniform field stays uniform
        assert abs(snap.u[0] - exact) <= 2e-4  # forward-Euler-in-time error


def test_step_initial_data_keeps_monotone_front():
    cfg = make_cfg(length=40.0, horizon=10.0)
    u0 = np.where(cfg.x < 4.0, 1.0, 0.0)
    snaps = rdwave.rd_integrate(cfg, rdwave.FieldState(u=u0, t=0.0),
                                snapshot_every=500)
    for snap in snaps:
        assert np.all(np.diff(snap.u) <= 1e-12)


def test_integrate_zero_everywhere():
    cfg = make_cfg(horizon=2.0)
    snaps = rdwave.rd_integrate(cfg, rdwave.FieldState(u=np.zeros(cfg.n_nodes), t=0.0),
                                snapshot_every=100)
    assert all(not s.u.any() for s in snaps)


def test_integrate_rejects_wrong_grid():
    cfg = make_cfg()
    with pytest.raises(ValueError):
        rdwave.rd_integrate(cfg, rdwave.FieldState(u=np.zeros(3), t=0.0), 10)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_integrate_rejects_a_non_finite_initial_field(value):
    cfg = make_cfg()
    u0 = np.zeros(cfg.n_nodes)
    u0[5] = value
    with pytest.raises(ParamError, match="^initial field must be finite$"):
        rdwave.rd_integrate(cfg, rdwave.FieldState(u=u0, t=0.0), 10)


def test_integrate_reports_nonfinite_blowup():
    cfg = make_cfg()
    u0 = np.full(cfg.n_nodes, 1e308)
    with pytest.raises(NonFiniteError) as err:
        rdwave.rd_integrate(cfg, rdwave.FieldState(u=u0, t=0.0), 10)
    assert "t=" in str(err.value) and "node" in str(err.value)


# -- reference stepping ------------------------------------------------------
# The FTCS step as first written, one fresh array per operation, kept
# verbatim (with the rate formulas copied in): the buffered kernel behind
# rd_integrate must give the same bytes at every step, and a blow-up the
# same NonFiniteError text.

def _reference_laplacian(u: np.ndarray) -> np.ndarray:
    lap = np.empty_like(u)
    if len(u) == 1:
        lap[0] = 0.0
        return lap
    lap[1:-1] = u[:-2] - 2.0 * u[1:-1] + u[2:]
    lap[0] = u[1] - u[0]
    lap[-1] = u[-2] - u[-1]
    return lap


def _reference_rate(u, cfg):
    if cfg.rate_family == "logistic":
        return cfg.r_rate * u * (1.0 - u / cfg.k_cap)
    return cfg.r_rate * u * (u - cfg.allee_threshold) * (1.0 - u / cfg.k_cap)


def _reference_step_array(u, cfg):
    nu = cfg.d_coeff / (cfg.dx * cfg.dx)
    with np.errstate(over="ignore", invalid="ignore"):
        return u + cfg.dt * (nu * _reference_laplacian(u) + _reference_rate(u, cfg))


def _reference_integrate(cfg, init, snapshot_every):
    u = np.array(init.u, dtype=float)
    snapshots = [rdwave.FieldState(u=u.copy(), t=init.t)]
    for k in range(1, cfg.steps + 1):
        u = _reference_step_array(u, cfg)
        if not np.isfinite(u).all():
            t = init.t + k * cfg.dt
            j = int(np.nonzero(~np.isfinite(u))[0][0])
            raise NonFiniteError(f"non-finite field value at t={t:g}, node {j}")
        if k % snapshot_every == 0 or k == cfg.steps:
            snapshots.append(rdwave.FieldState(u=u.copy(), t=init.t + k * cfg.dt))
    return snapshots


def _outcome(integrate, cfg, init, snapshot_every):
    """Snapshot (t, bytes) pairs, or the error type and message."""
    try:
        snaps = integrate(cfg, init, snapshot_every)
    except NonFiniteError as err:
        return type(err), str(err)
    return [(snap.t, snap.u.tobytes()) for snap in snaps]


def _reference_fields(cfg, family):
    """(config, initial field, blows up) triples: a field inside [0, 1.2 K];
    the same with one node at 1e100, which overflows a few steps later; and
    1e306 everywhere without reaction, which stays put while the sum of 2001
    nodes overflows."""
    rng = np.random.default_rng(cfg.n_nodes)
    u = 1.2 * cfg.k_cap * rng.random(cfg.n_nodes)
    spike = u.copy()
    spike[cfg.n_nodes // 2] = 1e100
    still = make_cfg(length=cfg.length, horizon=cfg.horizon, r_rate=0.0,
                     k_cap=cfg.k_cap, rate_family=family, allee_threshold=0.3)
    return [(cfg, u, False), (cfg, spike, True),
            (still, np.full(cfg.n_nodes, 1e306), False)]


# length 0.04 rounds to one node: a grid of 1, 2, 3, 4, 5 and 2001 nodes.
# The end nodes' inner neighbours are one view: reversed on 2 nodes, a single
# node on 3, and two nodes 1 and 2 elements apart on 4 and 5.
NODE_LENGTHS = {1: 0.04, 2: 0.1, 3: 0.2, 4: 0.3, 5: 0.4, 2001: 200.0}


# The kernel leaves out r*u when r == 1 and u/K when K == 1, so each rate
# family runs at an (r, K) for each of the four kernels it can build.  The
# default rates keep the family alone as their id.
FAMILY_RATES = [
    pytest.param(family, r_rate, k_cap,
                 id=family if (r_rate, k_cap) == (1.0, 1.0)
                 else f"{family}-r{r_rate:g}-K{k_cap:g}")
    for family in ("logistic", "allee")
    for r_rate, k_cap in ((1.0, 1.0), (0.5, 1.0), (1.0, 2.5), (0.7, 0.3))]


@pytest.mark.parametrize("snapshot_every", [1, 7, 500])
@pytest.mark.parametrize("n_nodes", sorted(NODE_LENGTHS))
@pytest.mark.parametrize("family, r_rate, k_cap", FAMILY_RATES)
def test_integrate_matches_the_reference_bitwise(family, r_rate, k_cap, n_nodes,
                                                 snapshot_every):
    cfg = make_cfg(length=NODE_LENGTHS[n_nodes], horizon=2.2, rate_family=family,
                   allee_threshold=0.3, r_rate=r_rate, k_cap=k_cap)
    assert (cfg.n_nodes, cfg.steps) == (n_nodes, 1100)
    for run_cfg, u, blows_up in _reference_fields(cfg, family):
        init = rdwave.FieldState(u=u, t=0.5)
        expected = _outcome(_reference_integrate, run_cfg, init, snapshot_every)
        assert _outcome(rdwave.rd_integrate, run_cfg, init, snapshot_every) == expected
        assert isinstance(expected, list) != blows_up


@pytest.mark.parametrize("n_nodes", sorted(NODE_LENGTHS))
@pytest.mark.parametrize("family, r_rate, k_cap", FAMILY_RATES)
def test_chained_steps_match_the_reference_bitwise(family, r_rate, k_cap, n_nodes):
    # One-step runs, each resumed from the last one's field and time: a run
    # restarted from its snapshot continues with the reference's bytes.
    cfg = make_cfg(length=NODE_LENGTHS[n_nodes], horizon=0.002, rate_family=family,
                   allee_threshold=0.3, r_rate=r_rate, k_cap=k_cap)
    assert cfg.steps == 1
    for run_cfg, u, blows_up in _reference_fields(cfg, family):
        state = rdwave.FieldState(u=u, t=0.5)
        for _ in range(100):
            outcome = _outcome(rdwave.rd_integrate, run_cfg, state, 1)
            assert outcome == _outcome(_reference_integrate, run_cfg, state, 1)
            if not isinstance(outcome, list):
                break
            state = rdwave.FieldState(u=np.frombuffer(outcome[-1][1]), t=outcome[-1][0])
        assert isinstance(outcome, list) != blows_up


def _spike_blowing_up_at(cfg, step):
    """Zeros but -2**-p at the middle node, with p chosen by bisection so
    that the reference run first turns non-finite at ``step``: the smaller
    the spike, the later the blow-up."""
    def spike(p):
        u = np.zeros(cfg.n_nodes)
        u[cfg.n_nodes // 2] = -(2.0 ** -p)
        return u

    def first_non_finite_step(p):
        u = spike(p)
        for k in range(1, cfg.steps + 1):
            u = _reference_step_array(u, cfg)
            if not np.isfinite(u).all():
                return k
        return cfg.steps + 1

    lo, hi = -1023, 1074  # the exponents of normal and subnormal powers of 2
    while lo < hi:
        mid = (lo + hi) // 2
        if first_non_finite_step(mid) >= step:
            hi = mid
        else:
            lo = mid + 1
    assert first_non_finite_step(lo) == step
    return spike(lo)


# The field is checked every 64 steps, at each snapshot (every 30 steps
# here) and at the last step (139).
BLOWUP_STEPS = {"on step 1": 1, "between two checks": 100, "on a 64-step check": 128,
                "on a snapshot check": 90, "on the last step": 139}


@pytest.mark.parametrize("where", sorted(BLOWUP_STEPS))
@pytest.mark.parametrize("n_nodes", sorted(NODE_LENGTHS))
def test_blowup_is_named_at_its_first_step(n_nodes, where):
    step = BLOWUP_STEPS[where]
    cfg = make_cfg(dx=2.0, dt=1.0, k_cap=2.0 ** 1000, length=2.0 * (n_nodes - 1) + 0.5,
                   horizon=139.0)
    assert (cfg.n_nodes, cfg.steps) == (n_nodes, 139)
    init = rdwave.FieldState(u=_spike_blowing_up_at(cfg, step), t=0.0)
    expected = _outcome(_reference_integrate, cfg, init, 30)
    assert expected[1].startswith(f"non-finite field value at t={step}, node ")
    assert _outcome(rdwave.rd_integrate, cfg, init, 30) == expected


def test_snapshots_share_no_memory():
    cfg = make_cfg(length=NODE_LENGTHS[5], horizon=0.2)
    u0 = np.linspace(0.0, 1.0, cfg.n_nodes)
    init = rdwave.FieldState(u=u0.copy(), t=0.0)
    snaps = rdwave.rd_integrate(cfg, init, 7)
    assert np.array_equal(init.u, u0)
    before = [snap.u.copy() for snap in snaps]
    for k, snap in enumerate(snaps):
        snap.u[:] = -1.0
        assert all(np.array_equal(other.u, was)
                   for other, was in zip(snaps[k + 1:], before[k + 1:]))


@pytest.mark.parametrize("snapshot_every, domain", [
    (2.5, "an integer"), (7.0, "an integer"), (math.inf, "an integer"),
    (math.nan, "an integer"), (True, "an integer"), ("7", "an integer"),
    (None, "an integer"), (0, ">= 1"), (-3, ">= 1"), (np.int64(0), ">= 1"),
])
def test_snapshot_interval_is_an_integer_of_at_least_one(snapshot_every, domain):
    cfg = make_cfg(length=1.0, horizon=0.03)
    init = rdwave.FieldState(u=np.zeros(cfg.n_nodes), t=0.0)
    with pytest.raises(ParamError, match=f"^snapshot_every must be {domain}, got ") as info:
        rdwave.rd_integrate(cfg, init, snapshot_every)
    assert info.value.name == "snapshot_every"


@pytest.mark.parametrize("kind", [np.int64, np.uint8, np.int32])
def test_numpy_integer_snapshot_interval_acts_as_an_int(kind):
    cfg = make_cfg(length=1.0, horizon=0.03)
    init = rdwave.FieldState(u=np.linspace(0.0, 1.0, cfg.n_nodes), t=0.5)
    snaps = rdwave.rd_integrate(cfg, init, kind(4))
    expected = rdwave.rd_integrate(cfg, init, 4)
    assert [(type(s.t), s.t, s.u.tobytes()) for s in snaps] == \
        [(float, s.t, s.u.tobytes()) for s in expected]
    assert len(snaps) == 5


# -- wave speed --------------------------------------------------------------

def test_wave_speed_pure_translation():
    # Piecewise-linear profile translating at c = 3: linear interpolation
    # recovers the crossing exactly, so the fitted slope is exact too.
    c, ramp, x0, dx = 3.0, 2.0, 10.0, 0.1
    x = dx * np.arange(1001)
    series = [
        rdwave.FieldState(
            u=np.clip((x0 + c * t - x) / ramp + 0.5, 0.0, 1.0), t=float(t))
        for t in range(0, 21)
    ]
    est = rdwave.estimate_wave_speed(series, level=0.5, fit_window=(0.0, 20.0),
                                     dx=dx)
    assert abs(est.speed - c) <= 1e-9
    assert est.residual <= 1e-9


def test_wave_speed_needs_a_series():
    with pytest.raises(ParamError, match="^series must be nonempty$"):
        rdwave.estimate_wave_speed([], 0.5, (0, 1), 0.1)


def test_wave_speed_saturated_field_has_no_crossing():
    x = 0.1 * np.arange(101)
    series = [rdwave.FieldState(u=np.ones_like(x), t=float(t)) for t in range(5)]
    with pytest.raises(NoCrossingError):
        rdwave.estimate_wave_speed(series, level=0.5, fit_window=(0.0, 4.0), dx=0.1)


def test_wave_speed_fisher_front():
    cfg = rdwave.ReactionDiffusionConfig(
        d_coeff=1.0, r_rate=1.0, k_cap=1.0, dx=0.1, dt=0.002,
        length=200.0, horizon=80.0)
    u0 = np.where(cfg.x < 20.0, 1.0, 0.0)
    snaps = rdwave.rd_integrate(cfg, rdwave.FieldState(u=u0, t=0.0),
                                snapshot_every=500)
    est = rdwave.estimate_wave_speed(snaps, level=0.5, fit_window=(20.0, 80.0),
                                     dx=cfg.dx)
    assert abs(est.speed - 2.0) / 2.0 <= 0.05


# -- homogeneous equilibria ----------------------------------------------------
# Uniform fields at 0 and K stay put; the growth of a small offset per unit
# step is the slope g'(u) there: g'(0) = r and g'(K) = -r.

def slope(u, delta=1e-6, **kw):
    return (uniform_step(u + delta, **kw) - (u + delta)) / delta


def test_rate_equilibria_logistic():
    rates = dict(r_rate=1.0, k_cap=1.0)
    assert uniform_step(0.0, **rates) == 0.0
    assert uniform_step(1.0, **rates) == 1.0
    assert slope(0.0, **rates) == pytest.approx(1.0, rel=1e-5)    # unstable
    assert slope(1.0, **rates) == pytest.approx(-1.0, rel=1e-5)   # stable


def test_rate_equilibria_degenerate_rate():
    rates = dict(r_rate=0.0, k_cap=2.0)
    assert slope(0.0, **rates) == slope(2.0, **rates) == 0.0   # non-hyperbolic
    assert uniform_step(0.7, **rates) == 0.7


@pytest.mark.parametrize("r, K, name", [
    (math.inf, 1.0, "r"), (math.nan, 1.0, "r"), (-1.0, 1.0, "r"),
    (1.0, math.inf, "K"), (1.0, math.nan, "K"), (1.0, 0.0, "K"),
])
@pytest.mark.parametrize("call", [lambda r, K: slope(0.0, r_rate=r, k_cap=K),
                                  lambda r, K: uniform_step(0.5, r_rate=r, k_cap=K)],
                         ids=["rd_equilibria", "logistic_rate"])
def test_logistic_domain_is_the_config_domain(call, r, K, name):
    # The rate's r and K reach the kernel only as the config's r_rate and k_cap.
    field = {"r": "r_rate", "K": "k_cap"}[name]
    domain = "nonnegative and finite" if name == "r" else "positive and finite"
    with pytest.raises(ParamError, match=f"^{field} must be {domain}") as info:
        call(r, K)
    assert info.value.name == field

# -- fast-slow ------------------------------------------------------------------

SUBCRITICAL = epi_sir.SirParams(beta=0.1, alpha=0.2, mu=0.05, n_total=1.0)


def test_unit_epsilon_is_bitwise_plain_integration():
    cfg = rdwave.FastSlowConfig(sir=SUBCRITICAL, epsilon=1.0, h=0.05,
                                horizon=30.0, layer_time=5.0, i0=0.2)
    result = rdwave.fast_slow_integrate(cfg)
    plain = epi_sir.integrate(SUBCRITICAL,
                              epi_sir.SirState(s=cfg.s0, i=cfg.i0, r=0.0),
                              h=0.05, horizon=30.0)
    assert np.array_equal(result.trajectory.s, plain.s)
    assert np.array_equal(result.trajectory.i, plain.i)


def test_sup_deviation_decreases_with_epsilon():
    devs = []
    for eps in (0.1, 0.01, 0.001):
        cfg = rdwave.FastSlowConfig(sir=SUBCRITICAL, epsilon=eps, h=0.05,
                                    horizon=30.0, layer_time=5.0, i0=0.2)
        devs.append(rdwave.fast_slow_integrate(cfg).sup_deviation)
    assert devs[0] > devs[1] > devs[2]


def test_uninfected_initial_state_stays_uninfected():
    for eps in (1.0, 0.1, 0.01):
        cfg = rdwave.FastSlowConfig(sir=SUBCRITICAL, epsilon=eps, h=0.05,
                                    horizon=10.0, layer_time=5.0, i0=0.0)
        result = rdwave.fast_slow_integrate(cfg)
        assert not result.trajectory.i.any()
        assert result.sup_deviation == 0.0


def test_qss_branch_selection():
    sup = epi_sir.SirParams(beta=0.5, alpha=0.1, mu=0.05, n_total=1.0)
    cfg = rdwave.FastSlowConfig(sir=sup, epsilon=0.1, h=0.05, horizon=10.0,
                                layer_time=5.0, i0=1e-3)
    result = rdwave.fast_slow_integrate(cfg)
    s_star = (sup.alpha + sup.mu) / sup.beta
    assert np.all(result.qss_trajectory.s == s_star)
    assert result.qss_trajectory.i[0] == pytest.approx(7.0 / 30.0, rel=1e-12)
    assert np.all(result.qss_trajectory.i == epi_sir.equilibria(sup).endemic.i)
    sub_cfg = rdwave.FastSlowConfig(sir=SUBCRITICAL, epsilon=0.1, h=0.05,
                                    horizon=10.0, layer_time=5.0, i0=0.2)
    sub = rdwave.fast_slow_integrate(sub_cfg)
    assert not sub.qss_trajectory.i.any()
    assert sub.qss_trajectory.s[-1] > sub.qss_trajectory.s[0]


def test_unresolved_layer_raises_stiffness_error():
    stiff = epi_sir.SirParams(beta=0.1, alpha=5.0, mu=0.05, n_total=1.0)
    cfg = rdwave.FastSlowConfig(sir=stiff, epsilon=1.0, h=2.0, horizon=400.0,
                                layer_time=5.0, i0=0.2)
    with pytest.raises(StiffnessError):
        rdwave.fast_slow_integrate(cfg)


def test_fast_slow_config_validation():
    with pytest.raises(ValueError):
        rdwave.FastSlowConfig(sir=SUBCRITICAL, epsilon=0.0, h=0.05,
                              horizon=10.0, layer_time=5.0)
    with pytest.raises(ValueError):
        rdwave.FastSlowConfig(sir=SUBCRITICAL, epsilon=0.5, h=0.05,
                              horizon=10.0, layer_time=20.0)
    cfg = rdwave.FastSlowConfig(sir=SUBCRITICAL, epsilon=0.5, h=0.05,
                                horizon=10.0, layer_time=5.0, i0=0.25)
    assert cfg.s0 == SUBCRITICAL.n_total - 0.25


# -- reference fast-slow sweep --------------------------------------------------
# The substep loop as first written, with the RK4 step and the right-hand
# side as separate functions, kept verbatim: the inlined loop must give the
# same trajectory bytes and sup_deviation, and raise the same StiffnessError.

def _reference_rhs_fast(s: float, i: float, p, eps: float):
    ds = -p.beta * s * i + p.mu * (p.n_total - s)
    di = (p.beta * s * i - p.alpha * i - p.mu * i) / eps
    return ds, di


def _reference_rk4_fast(s: float, i: float, p, eps: float, h: float):
    k1s, k1i = _reference_rhs_fast(s, i, p, eps)
    k2s, k2i = _reference_rhs_fast(s + 0.5 * h * k1s, i + 0.5 * h * k1i, p, eps)
    k3s, k3i = _reference_rhs_fast(s + 0.5 * h * k2s, i + 0.5 * h * k2i, p, eps)
    k4s, k4i = _reference_rhs_fast(s + h * k3s, i + h * k3i, p, eps)
    c = h / 6.0
    return (s + c * (k1s + 2.0 * k2s + 2.0 * k3s + k4s),
            i + c * (k1i + 2.0 * k2i + 2.0 * k3i + k4i))


def _reference_fast_slow(cfg):
    p = cfg.sir
    substeps, steps = cfg.substeps, cfg.steps
    h_eff = cfg.h / substeps
    ts = cfg.h * np.arange(steps + 1)
    ss = np.empty(steps + 1)
    ii = np.empty(steps + 1)
    s, i = float(cfg.s0), float(cfg.i0)
    ss[0], ii[0] = s, i
    prev_delta = 0.0
    alternating = 0
    for k in range(1, steps + 1):
        for _ in range(substeps):
            try:
                s, i_new = _reference_rk4_fast(s, i, p, cfg.epsilon, h_eff)
                blew_up = not (math.isfinite(s) and math.isfinite(i_new))
                delta = i_new - i
                if not blew_up and delta * prev_delta < 0.0 \
                        and abs(delta) > abs(prev_delta):
                    alternating += 1
                else:
                    alternating = 0
                prev_delta = delta
                i = i_new
            except OverflowError:
                blew_up = True
            if alternating >= 50 or blew_up:
                raise StiffnessError(
                    f"fast layer unresolved near t={ts[k]:g} "
                    f"(epsilon={cfg.epsilon:g}, h={cfg.h:g}); reduce h")
        ss[k], ii[k] = s, i
    qss = rdwave._qss_values(cfg, ts)
    mask = ts >= cfg.layer_time
    sup_dev = float(np.max(np.abs(ii[mask] - qss.i[mask])))
    return ss, ii, sup_dev


def _fast_slow_outcome(integrate, cfg):
    try:
        ss, ii, sup_dev = integrate(cfg)
    except StiffnessError as err:
        return str(err)
    return ss.tobytes(), ii.tobytes(), repr(sup_dev)


def _inlined_fast_slow(cfg):
    result = rdwave.fast_slow_integrate(cfg)
    return result.trajectory.s, result.trajectory.i, result.sup_deviation


FINITE = st.floats(allow_nan=False, allow_infinity=False)
# Subnormal floats of both signs, m * 2**-1074 for 0 < m < 2**52.
SUBNORMAL = st.builds(lambda sign, m: sign * m * 2.0 ** -1074,
                      st.sampled_from([1.0, -1.0]), st.integers(1, 2 ** 52 - 1))
SIGNED_ZERO = st.sampled_from([0.0, -0.0])
# Just below S = 0.94828, where beta*S*I at beta = 0.1 and I = 58 * 2**-1074
# rounds up from 5 to 6 units of 2**-1074; S crosses it during the second
# output step of the example that starts here.
B_CHANGES_AT = 0.9481


# epsilon stays above 1e-3, the benchmark's value, so that each drawn example
# runs at most 6000 substeps; r0 = beta*N/(alpha + mu) covers both sides of
# 1.  Subnormal and signed-zero i0 and s0 reach the S-only substeps of a
# frozen I and the cases that must not take them; s0 = "N" starts S at N.
@settings(max_examples=300, deadline=None)
@given(r0=st.one_of(st.floats(0.0, 4.0), SIGNED_ZERO),
       alpha=st.floats(0.0, 60.0), mu=st.one_of(st.just(0.0), st.floats(0.0, 1.0)),
       n_total=st.floats(1e-3, 10.0), epsilon=st.floats(1e-3, 1.0),
       h=st.floats(1e-3, 2.0), steps=st.integers(1, 6),
       layer=st.floats(0.0, 0.99),
       s0=st.one_of(st.none(), st.just("N"), FINITE, st.floats(max_value=0.0),
                    SUBNORMAL, SIGNED_ZERO),
       i0=st.one_of(SIGNED_ZERO, st.floats(0.0, 1.0), FINITE, SUBNORMAL))
@example(r0=0.1 / 0.25, alpha=0.2, mu=0.05, n_total=1.0, epsilon=1e-3, h=0.05,
         steps=6, layer=0.5, s0=None, i0=1e-3)  # the benchmark's sweep, shortened
@example(r0=0.1 / 0.25, alpha=0.2, mu=0.05, n_total=1.0, epsilon=1e-3, h=0.05,
         steps=100, layer=0.5, s0=None, i0=0.2)  # the benchmark's, I frozen from step 88
@example(r0=0.1 / 0.25, alpha=0.2, mu=0.05, n_total=1.0, epsilon=0.01, h=0.05,
         steps=6, layer=0.5, s0=B_CHANGES_AT,
         i0=58 * 2.0 ** -1074)  # beta*S*I changes within step 2: no shortcut there
@example(r0=2.0, alpha=0.2, mu=0.05, n_total=1.0, epsilon=0.01, h=0.05,
         steps=6, layer=0.5, s0=0.9, i0=0.0)  # supercritical, uninfected
@example(r0=0.1 / 5.05, alpha=5.0, mu=0.05, n_total=1.0, epsilon=1.0, h=2.0,
         steps=6, layer=0.5, s0=None, i0=0.2)  # unresolved layer, raises at t=8
@example(r0=0.4, alpha=0.2, mu=0.05, n_total=1.0, epsilon=0.1, h=0.05,
         steps=2, layer=0.5, s0=1e308, i0=1e-3)  # overflow to inf
@example(r0=2.0, alpha=0.2, mu=0.2, n_total=1.0, epsilon=0.5, h=0.25,
         steps=6, layer=0.5, s0=0.4,
         i0=100 * 2.0 ** -1074)  # S crosses (alpha + mu)/beta, and I then moves
@example(r0=-0.0, alpha=0.0, mu=0.0, n_total=1.0, epsilon=0.5, h=0.5,
         steps=4, layer=0.5, s0="N", i0=-2.0 ** -1074)  # S and I fixed at once
def test_fast_slow_matches_the_reference_bitwise(r0, alpha, mu, n_total, epsilon, h,
                                                 steps, layer, s0, i0):
    try:
        cfg = rdwave.FastSlowConfig(
            sir=epi_sir.SirParams(beta=r0 * (alpha + mu) / n_total, alpha=alpha,
                                  mu=mu, n_total=n_total),
            epsilon=epsilon, h=h, horizon=h * steps, layer_time=layer * h * steps,
            s0=n_total if s0 == "N" else s0, i0=i0)
    except ParamError:  # s0 = N - i0 overflowed
        return
    assert _fast_slow_outcome(_inlined_fast_slow, cfg) == \
        _fast_slow_outcome(_reference_fast_slow, cfg)


def test_a_stage_outside_the_interval_finishes_the_output_step_in_full(monkeypatch):
    # Any [lo, hi] inside a proven interval is proven too, since the four b
    # are constant on it.  S moves by less than hi - lo = 2*dS per output
    # step, so a quarter of the interval makes the S-only substeps stop
    # partway through each output step, which must not change a bit.
    stops = []
    s_only = rdwave._s_only_substeps

    def narrowed(s, substeps, lo, hi, *rest):
        s, done = s_only(s, substeps, lo, lo + (hi - lo) / 4, *rest)
        stops.append(done)
        return s, done

    monkeypatch.setattr(rdwave, "_s_only_substeps", narrowed)
    cfg = rdwave.FastSlowConfig(sir=SUBCRITICAL, epsilon=0.01, h=0.05, horizon=0.3,
                                layer_time=0.0, s0=0.9, i0=58 * 2.0 ** -1074)
    assert _fast_slow_outcome(_inlined_fast_slow, cfg) == \
        _fast_slow_outcome(_reference_fast_slow, cfg)
    assert any(0 < done < cfg.substeps for done in stops), stops


@pytest.mark.parametrize("outside", ["first", "last", "none"])
def test_s_only_substeps_check_every_stage(outside):
    # With S rising toward N, a substep's stages order as S < S3 < S2 < S4.
    # An interval that leaves out the first or the last of them stops the
    # S-only substeps before the first one; the whole span lets it run.
    mu, n, h_eff, b = 0.05, 1.0, 0.01, (0.0,) * 4
    half, sixth = 0.5 * h_eff, h_eff / 6.0
    s = 0.5
    s2 = s + half * (mu * (n - s))
    s3 = s + half * (mu * (n - s2))
    s4 = s + h_eff * (mu * (n - s3))
    assert s < s3 < s2 < s4
    lo, hi = {"first": (s3, s4), "last": (s, s2), "none": (s, s4)}[outside]
    new_s, done = rdwave._s_only_substeps(s, 3, lo, hi, b, mu, n, half, h_eff, sixth)
    if outside == "none":
        assert done >= 1 and new_s > s
    else:
        assert (new_s, done) == (s, 0)
