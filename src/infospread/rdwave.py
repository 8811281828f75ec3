"""Non-linear information flow in space and the fast-slow response sweep.

The spatial model is u_t = D u_xx + g(u) on a 1-D grid with zero-flux
boundaries, advanced by the explicit forward-time central-space scheme under
the hard stability bound D*dt/dx**2 <= 1/2.  The default rate family is
logistic, g(u) = r*u*(1 - u/K), which satisfies g(0) = g(K) = 0, g > 0 on
(0, K) and g'(K) = -r < 0; a bistable (Allee) family, r*u*(u - a)*(1 - u/K)
with threshold a, is available behind the same interface,
``ReactionDiffusionConfig.rate_family``.  Step initial data develops a
rightward front whose speed is measured by fitting the level-crossing
position over a time window.

The Laplacian uses the flux form at the boundaries (one-sided differences),
so under pure diffusion the discrete mass sum(u)*dx is conserved to machine
precision; the mirror-ghost variant would not conserve the nodal sum
exactly.  A run checks its field for non-finite values every 64 steps, so a
blow-up is caught within 64 steps of its first non-finite value and is still
reported at that step and node.

The fast-slow layer multiplies the informed-compartment derivative of the
planar contagion system by 1/epsilon:

    S' = -beta*S*I + mu*(N - S)
    epsilon * I' = beta*S*I - (alpha + mu)*I

and integrates with substeps h_eff <= epsilon*h so the initial layer is
resolved.  The quasi-steady-state (QSS) reference trajectory lives on the
slow manifold: the branch I = 0 when R0 <= 1 (or I(0) = 0), else the
informed equilibrium that epi_sir computes, on which S' = 0 and I' = 0.  With
epsilon = 1 the stepping arithmetic is identical to the plain integrator, so
the trajectories agree bitwise at equal steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .epi_sir import SirParams, _informed_point
from .errors import (
    NoCrossingError,
    NonFiniteError,
    ParamError,
    StabilityError,
    StiffnessError,
    check,
)

__all__ = [
    "ReactionDiffusionConfig",
    "FieldState",
    "FastSlowConfig",
    "FastSlowResult",
    "PlanarTrajectory",
    "WaveSpeedEstimate",
    "rd_integrate",
    "estimate_wave_speed",
    "fast_slow_integrate",
]

_RATE_FAMILIES = ("logistic", "allee")

# Work bounds: most node updates (n_nodes * (steps + 1)) of a field run, and
# most RK4 substeps (horizon / h / epsilon) of a fast-slow sweep.
MAX_NODE_STEPS = 10_000_000_000
MAX_SUBSTEPS = 100_000_000


@dataclass(frozen=True)
class ReactionDiffusionConfig:
    """Grid, time step, and rate parameters for the explicit scheme.

    r_rate = 0 is allowed (pure diffusion, used by the mass-conservation
    diagnostics).  Construction derives ``n_nodes`` and ``steps``, bounds
    their work by MAX_NODE_STEPS, and enforces the stability bound
    d_coeff*dt/dx**2 <= 1/2, so a config that exists can always be stepped.
    """

    d_coeff: float
    r_rate: float
    k_cap: float
    dx: float
    dt: float
    length: float
    horizon: float
    rate_family: str = "logistic"
    allee_threshold: float = 0.0
    n_nodes: int = field(init=False)
    steps: int = field(init=False)

    def __post_init__(self):
        for name in ("d_coeff", "k_cap", "dx", "dt", "length", "horizon"):
            value = getattr(self, name)
            check(0.0 < value < math.inf, name, value, "positive and finite")
        check(0.0 <= self.r_rate < math.inf, "r_rate", self.r_rate,
              "nonnegative and finite")
        check(self.rate_family in _RATE_FAMILIES, "rate_family",
              self.rate_family, f"one of {_RATE_FAMILIES}")
        check(math.isfinite(self.allee_threshold), "allee_threshold",
              self.allee_threshold, "finite")
        nodes, steps = self.length / self.dx, self.horizon / self.dt
        if not (nodes + 1) * (steps + 1) <= MAX_NODE_STEPS:
            raise ParamError(f"(length/dx + 1) * (horizon/dt + 1) node updates "
                             f"exceed MAX_NODE_STEPS = {MAX_NODE_STEPS}")
        object.__setattr__(self, "n_nodes", int(round(nodes)) + 1)
        object.__setattr__(self, "steps", int(round(steps)))
        dx2 = self.dx * self.dx
        number = self.d_coeff * self.dt / dx2 if dx2 else math.inf
        if number > 0.5:
            raise StabilityError(
                f"explicit scheme unstable: D*dt/dx^2 = {number:.4g} > 0.5")

    @property
    def x(self) -> np.ndarray:
        return self.dx * np.arange(self.n_nodes)


@dataclass(frozen=True)
class FieldState:
    """Information density over the grid nodes at time t."""

    u: np.ndarray
    t: float


@dataclass(frozen=True)
class WaveSpeedEstimate:
    speed: float
    residual: float


class PlanarTrajectory(NamedTuple):
    """(t, S, I) arrays of a planar trajectory."""

    t: np.ndarray
    s: np.ndarray
    i: np.ndarray


class FastSlowResult(NamedTuple):
    trajectory: PlanarTrajectory
    qss_trajectory: PlanarTrajectory
    sup_deviation: float


@dataclass(frozen=True)
class FastSlowConfig:
    """Fast-slow sweep configuration.

    layer_time excludes the initial transient from the QSS comparison, so
    some output time must reach it.  The initial condition defaults to
    i0 = 1e-3, s0 = N - i0.  Construction derives ``steps`` and the RK4
    ``substeps`` per step, and bounds their product by MAX_SUBSTEPS.  It
    also rejects rates whose informed QSS state is undefined (see
    epi_sir._informed_point) when i0 > 0.
    """

    sir: SirParams
    epsilon: float
    h: float
    horizon: float
    layer_time: float
    s0: float | None = None
    i0: float = 1e-3
    steps: int = field(init=False)
    substeps: int = field(init=False)

    def __post_init__(self):
        check(0.0 < self.epsilon <= 1.0, "epsilon", self.epsilon, "in (0, 1]")
        check(0.0 < self.h < math.inf, "h", self.h, "positive and finite")
        check(0.0 < self.horizon < math.inf, "horizon", self.horizon,
              "positive and finite")
        check(-math.inf < self.layer_time < self.horizon, "layer_time",
              self.layer_time, f"finite and smaller than horizon={self.horizon!r}")
        check(math.isfinite(self.i0), "i0", self.i0, "finite")
        if self.s0 is None:
            object.__setattr__(self, "s0", self.sir.n_total - self.i0)
        check(math.isfinite(self.s0), "s0", self.s0, "finite")
        substeps, steps = 1.0 / self.epsilon, self.horizon / self.h
        if not substeps * steps <= MAX_SUBSTEPS:
            raise ParamError(f"horizon / h / epsilon substeps exceed "
                             f"MAX_SUBSTEPS = {MAX_SUBSTEPS}")
        object.__setattr__(self, "substeps", math.ceil(substeps))
        object.__setattr__(self, "steps", int(round(steps)))
        check(self.layer_time <= self.h * self.steps, "layer_time",
              self.layer_time, f"at most the last output time {self.h * self.steps!r}")
        if self.i0 > 0.0:
            _informed_point(self.sir)


# Steps between two finiteness checks of a field run.
_CHECK_EVERY = 64


def _ftcs_kernel(cfg: ReactionDiffusionConfig, u: np.ndarray, out: np.ndarray,
                 lap: np.ndarray, g: np.ndarray):
    """Return a function that writes u + dt*(nu*Laplacian(u) + g(u)) into ``out``.

    ``lap`` and ``g`` are scratch buffers of u's shape.  The views of the
    buffers and the coefficients (0-d float64 arrays, which numpy applies
    faster than Python or numpy scalars) are built here, once, so a step
    only calls ufuncs.  Each ufunc applies one operation of the formula in
    its order, on the same operands, so the result is bitwise the same as
    evaluating the formula with fresh arrays.  The two operations that are
    exact identities for this config are left out: r*u when r == 1 and u/K
    when K == 1, since x*1.0 and x/1.0 are x for every double; the next
    operation then reads u itself.  The caller decides how overflow is
    reported (``np.errstate``).
    """
    n = len(u)
    nu, r, k_cap, a, dt, two, one = (
        np.array(v, dtype=np.float64)
        for v in (cfg.d_coeff / (cfg.dx * cfg.dx), cfg.r_rate, cfg.k_cap,
                  cfg.allee_threshold, cfg.dt, 2.0, 1.0))
    allee = cfg.rate_family == "allee"
    scale_r, scale_k = cfg.r_rate != 1.0, cfg.k_cap != 1.0
    # The buffers that hold r*u, the rate's product before its last factor,
    # and u/K once they are computed: u itself where the operation is left out.
    ru = out if scale_r else u
    product = out if scale_r or allee else u
    u_over_k = g if scale_k else u
    lap_in, u_in, u_left, u_right = lap[1:-1], u[1:-1], u[:-2], u[2:]
    if n > 1:
        # The end nodes and their inner neighbours u[1] and u[n-2], one view
        # each.  On 3 nodes the neighbours are one node, which the ufunc
        # broadcasts; on 2 nodes each end is the other's neighbour.
        inner = u_in if n > 2 else u[::-1]
        lap_ends, u_ends, u_next = lap[::n - 1], u[::n - 1], inner[::max(n - 3, 1)]
    multiply, subtract, add, divide = np.multiply, np.subtract, np.add, np.divide

    def step() -> None:
        # Flux form with zero-flux boundaries: column sums vanish, so the
        # nodal sum is conserved exactly under pure diffusion.
        multiply(two, u_in, lap_in)
        subtract(u_left, lap_in, lap_in)
        add(lap_in, u_right, lap_in)
        if n > 1:
            subtract(u_next, u_ends, lap_ends)
        else:
            lap[0] = 0.0
        multiply(nu, lap, lap)
        # The rate: r*u*(1 - u/K), or r*u*(u - a)*(1 - u/K) for the Allee family.
        if scale_r:
            multiply(r, u, out)
        if allee:
            subtract(u, a, g)
            multiply(ru, g, out)
        if scale_k:
            divide(u, k_cap, g)
        subtract(one, u_over_k, g)
        multiply(product, g, g)
        add(lap, g, lap)
        multiply(dt, lap, lap)
        add(u, lap, out)

    return step


def _first_non_finite(u: np.ndarray) -> int | None:
    """Index of u's first non-finite node, or None if every node is finite."""
    # A finite sum means every node is finite, so only a sum that overflowed
    # (or a blow-up) pays for the nodewise check.
    if math.isfinite(u.sum()):
        return None
    bad = np.flatnonzero(~np.isfinite(u))
    return int(bad[0]) if len(bad) else None


def rd_integrate(cfg: ReactionDiffusionConfig, init: FieldState,
                 snapshot_every: int) -> list[FieldState]:
    """Advance to the configured horizon, returning periodic snapshots.

    Snapshots are taken at step 0 and every ``snapshot_every`` steps (an
    integer >= 1); the final state is always included.  A blow-up raises
    NonFiniteError naming the time and node of the first non-finite value.
    The field is checked every 64 steps, at each snapshot and at the last
    step, so a blow-up is caught within 64 steps; the run then replays from
    the last checked field, checking every step, to name its first step.
    """
    check(isinstance(snapshot_every, (int, np.integer))
          and not isinstance(snapshot_every, bool),
          "snapshot_every", snapshot_every, "an integer")
    check(snapshot_every >= 1, "snapshot_every", snapshot_every, ">= 1")
    snapshot_every = int(snapshot_every)  # snapshot times stay Python floats
    u = np.array(init.u, dtype=float)
    if len(u) != cfg.n_nodes:
        raise ParamError(
            f"initial field has {len(u)} nodes, grid expects {cfg.n_nodes}")
    if not np.isfinite(u).all():
        raise ParamError("initial field must be finite")
    snapshots = [FieldState(u=u.copy(), t=init.t)]
    fields = (u, np.empty_like(u))
    lap, g = np.empty_like(u), np.empty_like(u)
    kernels = (_ftcs_kernel(cfg, fields[0], fields[1], lap, g),
               _ftcs_kernel(cfg, fields[1], fields[0], lap, g))
    checked, checked_k = u.copy(), 0
    every, k, side = _CHECK_EVERY, 0, 0
    # Overflow is not a numpy-level event here: blow-ups surface as
    # NonFiniteError from the explicit finiteness check.
    with np.errstate(over="ignore", invalid="ignore"):
        while k < cfg.steps:
            stop = min((k // every + 1) * every,
                       (k // snapshot_every + 1) * snapshot_every, cfg.steps)
            for _ in range(stop - k):
                kernels[side]()
                side ^= 1
            u = fields[side]
            j = _first_non_finite(u)
            if j is not None:
                if every == 1:
                    t = init.t + stop * cfg.dt
                    raise NonFiniteError(f"non-finite field value at t={t:g}, node {j}")
                # A non-finite node stays non-finite under u + dt*(...), so
                # the first non-finite step lies after the last check: replay
                # from there one step at a time.
                np.copyto(fields[0], checked)
                every, k, side = 1, checked_k, 0
                continue
            k = stop
            np.copyto(checked, u)
            checked_k = k
            if k % snapshot_every == 0 or k == cfg.steps:
                snapshots.append(FieldState(u=u.copy(), t=init.t + k * cfg.dt))
    return snapshots


def _front_position(u: np.ndarray, level: float, dx: float) -> float | None:
    """Rightmost downward crossing of ``level``, linearly interpolated."""
    above = u[:-1] >= level
    below = u[1:] < level
    idx = np.nonzero(above & below)[0]
    if len(idx) == 0:
        return None
    j = int(idx[-1])
    return dx * j + dx * (u[j] - level) / (u[j] - u[j + 1])


def estimate_wave_speed(series, level: float, fit_window,
                        dx: float) -> WaveSpeedEstimate:
    """Front speed from a least-squares fit of the crossing position.

    Snapshots inside the window that have no downward crossing (front not
    yet formed, saturated field, or front already out of the domain) are
    excluded; at least two usable snapshots are required, otherwise
    NoCrossingError is raised.
    """
    if not series:
        raise ParamError("series must be nonempty", "series")
    t_lo, t_hi = fit_window
    times, fronts = [], []
    for snap in series:
        if not t_lo <= snap.t <= t_hi:
            continue
        pos = _front_position(np.asarray(snap.u, dtype=float), level, dx)
        if pos is not None:
            times.append(snap.t)
            fronts.append(pos)
    if len(times) < 2:
        raise NoCrossingError(
            f"level {level!r} crossed in fewer than two snapshots within "
            f"t in [{t_lo}, {t_hi}]")
    coeffs, res, *_ = np.polyfit(times, fronts, 1, full=True)
    rms = math.sqrt(float(res[0]) / len(times)) if len(res) else 0.0
    return WaveSpeedEstimate(speed=float(coeffs[0]), residual=rms)


def _qss_values(cfg: FastSlowConfig, ts: np.ndarray) -> PlanarTrajectory:
    p = cfg.sir
    informed = _informed_point(p) if cfg.i0 > 0.0 else None
    if informed is not None:
        s_star, i_star = informed
        return PlanarTrajectory(t=ts,
                                s=np.full_like(ts, s_star),
                                i=np.full_like(ts, i_star))
    # Subcritical (or uninfected) branch: I = 0, S relaxes to N.
    s = p.n_total + (cfg.s0 - p.n_total) * np.exp(-p.mu * ts)
    return PlanarTrajectory(t=ts, s=s, i=np.zeros_like(ts))


# The smallest normal float: an I of smaller magnitude is subnormal.
_TINY = 2.0 ** -1022


def _frozen_i_stages(lo: float, hi: float, i: float, beta: float, alpha: float,
                     mu: float, eps: float, half: float, h_eff: float,
                     sixth: float) -> tuple[float, float, float, float] | None:
    """The four b = beta*S_j*I_j of every substep from I = i whose stages S_j
    all lie in [lo, hi], if I's side of the substep is proven to give them
    and to return i (see fast_slow_integrate); else None.  Needs lo > 0."""
    ends = []
    for s in (lo, hi):
        b1 = beta * s * i
        k1i = (b1 - alpha * i - mu * i) / eps
        i2 = i + half * k1i
        b2 = beta * s * i2
        k2i = (b2 - alpha * i2 - mu * i2) / eps
        i3 = i + half * k2i
        b3 = beta * s * i3
        k3i = (b3 - alpha * i3 - mu * i3) / eps
        i4 = i + h_eff * k3i
        b4 = beta * s * i4
        k4i = (b4 - alpha * i4 - mu * i4) / eps
        ends.append((b1, b2, b3, b4,
                     i + sixth * (k1i + 2.0 * k2i + 2.0 * k3i + k4i)))
    (*b_lo, i_lo), (*b_hi, _) = ends
    # Equal b have equal signs too, since S_j > 0 fixes the sign of each b;
    # a NaN b is equal to nothing.  A nonzero i_lo equal to i has i's bits.
    if i_lo == i and all(x == y for x, y in zip(b_lo, b_hi)):
        return tuple(b_lo)
    return None


def _s_only_substeps(s: float, substeps: int, lo: float, hi: float, b, mu: float,
                     n: float, half: float, h_eff: float,
                     sixth: float) -> tuple[float, int]:
    """Run substeps from S = s with I's side replaced by the four constant
    b of _frozen_i_stages, while every stage S_j lies in [lo, hi]; return
    the new S and the number of substeps run.  The S arithmetic is the
    full substep's, so S gets the same bits."""
    b1, b2, b3, b4 = b
    for done in range(substeps):
        k1s = mu * (n - s) - b1
        s2 = s + half * k1s
        k2s = mu * (n - s2) - b2
        s3 = s + half * k2s
        k3s = mu * (n - s3) - b3
        s4 = s + h_eff * k3s
        # The substep counts only if every stage is in [lo, hi]: s proves
        # b1, so k1s and s2 are right, s2 proves b2, and so on.
        if not (lo <= s <= hi and lo <= s2 <= hi and lo <= s3 <= hi
                and lo <= s4 <= hi):
            return s, done
        k4s = mu * (n - s4) - b4
        s = s + sixth * (k1s + 2.0 * k2s + 2.0 * k3s + k4s)
    return s, substeps


def fast_slow_integrate(cfg: FastSlowConfig) -> FastSlowResult:
    """Integrate the fast-slow system and compare it to its QSS limit.

    Substeps use h_eff = h / ceil(1/epsilon) <= epsilon*h.  sup_deviation is
    the largest |I(t) - I_qss(t)| over output times t >= layer_time.

    An unresolved fast layer makes I grow until it leaves the finite float
    range, and raises StiffnessError at the first output time where S or I
    is not finite.  RK4's stability function is positive on the whole real
    axis, so the increments of an unresolved real mode grow without
    changing sign rather than oscillate.  A genuine fast spike of order
    1/epsilon is legitimate dynamics and passes through.

    A decaying I can stop at a subnormal value where RK4's decrement rounds
    to nothing (58 * 2**-1074 from t = 4.4 at epsilon = 1e-3 with the
    default rates), while S keeps moving.  Flushing I to zero would change
    the output, and subnormal operands are slow, so such substeps skip the
    I arithmetic once it is proven to give I back, bit for bit.  With I
    fixed, I's side of a substep depends on S only through the four
    b = beta*S_j*I_j, each of which (evaluated as (beta*S_j)*I_j, with I_j
    fixed by the b before it) rounds monotonically in its stage S_j, and
    keeps one sign while S_j > 0.  So if I's side of one substep, run with
    every stage S_j = lo and again with every S_j = hi, gives the same four
    b at both ends and returns I itself, then every substep from I whose
    four stages S_j lie in [lo, hi] has those four b and returns I: its
    I arithmetic is the same operations on the same operands.  Such a
    substep computes only the S stages, with the four b as constants, and
    checks each stage against [lo, hi]; a stage outside runs that substep,
    and the rest of the output step, in full.  The check is made once per
    output step, while 0 < |I| < 2**-1022, on [lo, hi] spanning S and
    S + 2*dS, where dS is S's change over the previous output step and
    lo > 0.  A zero, normal or non-finite I never takes it.
    """
    p = cfg.sir
    beta, alpha, mu, n, eps = p.beta, p.alpha, p.mu, p.n_total, cfg.epsilon
    substeps, steps = cfg.substeps, cfg.steps
    h_eff = cfg.h / substeps
    half, sixth = 0.5 * h_eff, h_eff / 6.0
    isfinite = math.isfinite
    ts = cfg.h * np.arange(steps + 1)
    ss = np.empty(steps + 1)
    ii = np.empty(steps + 1)
    s, i = float(cfg.s0), float(cfg.i0)
    ss[0], ii[0] = s, i
    ds = 0.0  # S's change over the previous output step
    for k in range(1, steps + 1):
        s_start, left = s, substeps
        if 0.0 < abs(i) < _TINY:
            end = s + 2.0 * ds
            lo, hi = min(s, end), max(s, end)
            b = _frozen_i_stages(lo, hi, i, beta, alpha, mu, eps, half, h_eff,
                                 sixth) if lo > 0.0 else None
            if b is not None:
                s, done = _s_only_substeps(s, substeps, lo, hi, b, mu, n, half,
                                           h_eff, sixth)
                left -= done
        for _ in range(left):
            # One RK4 substep, inlined.  With b = beta*S*I, the S' stage
            # mu*(N - S) - b equals -beta*S*I + mu*(N - S) bitwise, since
            # negation is exact and a + (-b) == a - b.
            b = beta * s * i
            k1s = mu * (n - s) - b
            k1i = (b - alpha * i - mu * i) / eps
            s2, i2 = s + half * k1s, i + half * k1i
            b = beta * s2 * i2
            k2s = mu * (n - s2) - b
            k2i = (b - alpha * i2 - mu * i2) / eps
            s3, i3 = s + half * k2s, i + half * k2i
            b = beta * s3 * i3
            k3s = mu * (n - s3) - b
            k3i = (b - alpha * i3 - mu * i3) / eps
            s4, i4 = s + h_eff * k3s, i + h_eff * k3i
            b = beta * s4 * i4
            k4s = mu * (n - s4) - b
            k4i = (b - alpha * i4 - mu * i4) / eps
            s = s + sixth * (k1s + 2.0 * k2s + 2.0 * k3s + k4s)
            i = i + sixth * (k1i + 2.0 * k2i + 2.0 * k3i + k4i)
        # Float arithmetic overflows to inf or nan and never raises, and a
        # non-finite S or I stays non-finite through every later substep,
        # so one test per output step catches every blow-up.
        if not (isfinite(s) and isfinite(i)):
            raise StiffnessError(
                f"fast layer unresolved near t={ts[k]:g} "
                f"(epsilon={cfg.epsilon:g}, h={cfg.h:g}); reduce h")
        ss[k], ii[k] = s, i
        ds = s - s_start
    trajectory = PlanarTrajectory(t=ts, s=ss, i=ii)
    qss = _qss_values(cfg, ts)
    mask = ts >= cfg.layer_time
    sup_dev = float(np.max(np.abs(ii[mask] - qss.i[mask])))
    return FastSlowResult(trajectory=trajectory, qss_trajectory=qss,
                          sup_deviation=sup_dev)
