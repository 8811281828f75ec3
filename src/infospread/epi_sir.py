"""Information-contagion compartment model over a closed manager population.

S' = -beta*S*I + mu*(N - S)
I' =  beta*S*I - alpha*I - mu*I
R' =  alpha*I - mu*R

beta is a mass-action coefficient on S*I, alpha the recovery (information
resistance) rate, mu the market turnover rate, and N the constant population
(S + I + R = N throughout).  R is integrated explicitly and the conservation
identity is used as a drift check instead of back-solving R = N - S - I.

Integration is fixed-step classical Runge-Kutta: reproducible, and its
fourth-order convergence is directly verifiable.  Named presets used by the
CLI run with N = 1 (population fractions) and mu = 0.

The informed equilibrium (S*, I*) is computed only by ``_informed_point``,
for ``equilibria`` and for rdwave's fast-slow QSS reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    BracketError,
    ConservationError,
    DegenerateParamsError,
    EndemicUndefinedError,
    ParamError,
    check,
)

__all__ = [
    "SirParams",
    "SirState",
    "Trajectory",
    "EquilibriumPoint",
    "EquilibriumReport",
    "PRESETS",
    "integrate",
    "basic_reproduction_number",
    "equilibria",
    "final_size",
]

# Allowed relative drift of S + I + R away from N along a trajectory.
CONSERVATION_RTOL = 1e-8

# Work bound: most RK4 steps (horizon / h) one trajectory may take.
MAX_STEPS = 10_000_000

# An eigenvalue whose real part is within this band of zero, relative to
# its own modulus (at least 1), makes a point non-hyperbolic.
_HYPERBOLIC_RTOL = 1e-12


@dataclass(frozen=True)
class SirParams:
    """Model rates; all finite and nonnegative, population positive."""

    beta: float
    alpha: float
    mu: float
    n_total: float

    def __post_init__(self):
        for name in ("beta", "alpha", "mu"):
            value = getattr(self, name)
            check(0.0 <= value < math.inf, name, value, "nonnegative and finite")
        check(0.0 < self.n_total < math.inf, "n_total", self.n_total,
              "positive and finite")


@dataclass(frozen=True)
class SirState:
    s: float
    i: float
    r: float
    t: float = 0.0


@dataclass(frozen=True)
class Trajectory:
    """Fixed-step trajectory of ``params`` stored as parallel arrays.

    Index 0 is the supplied initial condition; entry k is at t0 + k*h for
    the step h passed to ``integrate``.
    """

    params: SirParams
    t: np.ndarray
    s: np.ndarray
    i: np.ndarray
    r: np.ndarray

    def __len__(self) -> int:
        return len(self.t)

    def state(self, k: int) -> SirState:
        return SirState(s=float(self.s[k]), i=float(self.i[k]),
                        r=float(self.r[k]), t=float(self.t[k]))


@dataclass(frozen=True)
class EquilibriumPoint:
    s: float
    i: float
    r: float
    eigenvalues: tuple[complex, ...]
    stability: str


@dataclass(frozen=True)
class EquilibriumReport:
    disease_free: EquilibriumPoint
    endemic: EquilibriumPoint | None
    r0: float


# Named parameter presets exposed by the CLI (fractions: N = 1, mu = 0).
PRESETS = {
    "fig6b": SirParams(beta=0.20, alpha=0.10, mu=0.0, n_total=1.0),
    "fig6c": SirParams(beta=0.82, alpha=0.18, mu=0.0, n_total=1.0),
    "fig6d": SirParams(beta=0.61, alpha=0.49, mu=0.0, n_total=1.0),
}


def integrate(params: SirParams, init: SirState, h: float,
              horizon: float) -> Trajectory:
    """Fixed-step trajectory over ``horizon`` time units.

    The horizon is rounded to a whole number of steps, one to MAX_STEPS,
    and the initial state must be finite (ParamError).  Conservation
    |S+I+R-N| <= 1e-8*N is enforced at the initial condition and after every
    step; a violation raises ConservationError (the step is too large).
    The RK4 step is written out inline, with the rates, 0.5*h and h/6 held
    in locals, so a step makes no function call; every stage is the
    textbook formula's arithmetic, operation for operation.
    """
    check(0.0 < h < math.inf, "h", h, "positive and finite")
    check(h <= horizon < math.inf, "horizon", horizon,
          f"finite and at least one step h={h!r}")
    check(horizon / h <= MAX_STEPS, "horizon", horizon,
          f"at most MAX_STEPS = {MAX_STEPS} steps of h={h!r}")
    steps = int(round(horizon / h))
    n_total = params.n_total
    limit = CONSERVATION_RTOL * n_total
    s, i, r = float(init.s), float(init.i), float(init.r)
    # s0 is often derived as N - i0 - r0, so the other two are named first.
    for name, value in (("i0", i), ("r0", r), ("s0", s)):
        check(math.isfinite(value), name, value, "finite")
    drift = abs(s + i + r - n_total)
    if not drift <= limit:
        raise ConservationError(
            f"initial state off the conservation manifold: |S+I+R-N|={drift:.3e}")
    beta, alpha, mu = params.beta, params.alpha, params.mu
    half, sixth = 0.5 * h, h / 6.0
    ts = init.t + h * np.arange(steps + 1)
    ss = np.empty(steps + 1)
    ii = np.empty(steps + 1)
    rr = np.empty(steps + 1)
    ss[0], ii[0], rr[0] = s, i, r
    for k in range(1, steps + 1):
        # With b = beta*S*I, the S' stage mu*(N - S) - b equals
        # -beta*S*I + mu*(N - S) bitwise, since negation is exact and
        # a + (-b) == a - b.
        b = beta * s * i
        k1s = mu * (n_total - s) - b
        k1i = b - alpha * i - mu * i
        k1r = alpha * i - mu * r
        s2, i2, r2 = s + half * k1s, i + half * k1i, r + half * k1r
        b = beta * s2 * i2
        k2s = mu * (n_total - s2) - b
        k2i = b - alpha * i2 - mu * i2
        k2r = alpha * i2 - mu * r2
        s3, i3, r3 = s + half * k2s, i + half * k2i, r + half * k2r
        b = beta * s3 * i3
        k3s = mu * (n_total - s3) - b
        k3i = b - alpha * i3 - mu * i3
        k3r = alpha * i3 - mu * r3
        s4, i4, r4 = s + h * k3s, i + h * k3i, r + h * k3r
        b = beta * s4 * i4
        k4s = mu * (n_total - s4) - b
        k4i = b - alpha * i4 - mu * i4
        k4r = alpha * i4 - mu * r4
        s = s + sixth * (k1s + 2.0 * k2s + 2.0 * k3s + k4s)
        i = i + sixth * (k1i + 2.0 * k2i + 2.0 * k3i + k4i)
        r = r + sixth * (k1r + 2.0 * k2r + 2.0 * k3r + k4r)
        drift = abs(s + i + r - n_total)
        if not drift <= limit:
            raise ConservationError(
                f"conservation drift |S+I+R-N|={drift:.3e} at t={ts[k]:g}; "
                "reduce the step size")
        ss[k], ii[k], rr[k] = s, i, r
    return Trajectory(params=params, t=ts, s=ss, i=ii, r=rr)


def basic_reproduction_number(params: SirParams) -> float:
    """beta*N / (alpha + mu); information spreads from near-full
    susceptibility iff this exceeds 1.  DegenerateParamsError when alpha +
    mu is 0, or when it and beta*N both overflow."""
    denom = params.alpha + params.mu
    if denom == 0.0:
        raise DegenerateParamsError("alpha + mu must be positive for R0")
    r0 = params.beta * params.n_total / denom
    if math.isnan(r0):  # inf / inf
        raise DegenerateParamsError(
            "beta*N and alpha + mu overflow, so R0 is undefined")
    return r0


def _stability_label(eigenvalues) -> str:
    # Each eigenvalue against its own modulus: a stiff stable point, with
    # eigenvalues -3e307 and -0.15, is stable.
    if any(abs(ev.real) <= _HYPERBOLIC_RTOL * max(1.0, abs(ev))
           for ev in eigenvalues):
        return "non-hyperbolic"
    return "stable" if max(ev.real for ev in eigenvalues) < 0.0 else "unstable"


def _informed_point(p: SirParams) -> tuple[float, float] | None:
    """(S*, I*) of the informed equilibrium, S* = (alpha + mu)/beta and
    I* = mu*(N - S*)/(beta*S*), or None when beta*N <= alpha + mu (R0 <= 1
    once alpha + mu > 0).

    I* has no limit as alpha + mu -> 0 (it tends to N*mu/(alpha + mu)), so
    rates for which beta*S* rounds to 0 raise ParamError.
    """
    if not (p.beta * p.n_total > p.alpha + p.mu and p.beta > 0.0):
        return None
    s_star = (p.alpha + p.mu) / p.beta
    check(p.beta * s_star > 0.0, "alpha", p.alpha,
          "such that beta*S* > 0 at the QSS state S* = (alpha + mu)/beta")
    return s_star, p.mu * (p.n_total - s_star) / (p.beta * s_star)


def equilibria(params: SirParams) -> EquilibriumReport:
    """Equilibria of the planar (S, I) system with Jacobian classification.

    The Jacobian is J(S, I) = [[-beta*I - mu, -beta*S],
                               [ beta*I,       beta*S - alpha - mu]].
    The disease-free point (N, 0) has eigenvalues -mu and beta*N-alpha-mu.
    The endemic point is the informed point (S*, I*) of _informed_point; it
    exists iff R0 > 1.  With mu = 0 it collapses and EndemicUndefinedError
    points the caller at the final-size relation instead, rates for which
    beta*S* rounds to 0 raise ParamError, and rates for which a Jacobian
    entry there overflows raise DegenerateParamsError.
    """
    beta, alpha, mu, n_total = params.beta, params.alpha, params.mu, params.n_total
    r0 = basic_reproduction_number(params)
    df_eigs = (complex(-mu), complex(beta * n_total - alpha - mu))
    disease_free = EquilibriumPoint(
        s=n_total, i=0.0, r=0.0, eigenvalues=df_eigs,
        stability=_stability_label(df_eigs))
    if r0 <= 1.0:
        return EquilibriumReport(disease_free=disease_free, endemic=None, r0=r0)
    if mu == 0.0:
        raise EndemicUndefinedError(
            "endemic equilibrium collapses when mu=0 and R0>1; use "
            "final_size for the long-horizon susceptible fraction",
            disease_free=disease_free)
    s_star, i_star = _informed_point(params)
    r_star = alpha * i_star / mu
    jac = np.array([[-beta * i_star - mu, -beta * s_star],
                    [beta * i_star, beta * s_star - alpha - mu]])
    if not np.isfinite(jac).all():
        raise DegenerateParamsError(
            "the Jacobian at the endemic point overflows, so its "
            "eigenvalues are undefined")
    eigs = tuple(complex(ev) for ev in np.linalg.eigvals(jac))
    endemic = EquilibriumPoint(
        s=s_star, i=i_star, r=r_star, eigenvalues=eigs,
        stability=_stability_label(eigs))
    return EquilibriumReport(disease_free=disease_free, endemic=endemic, r0=r0)


def final_size(params: SirParams, s0: float, i0: float) -> float:
    """Long-horizon susceptible count for the turnover-free model (mu = 0).

    Returns the root s_inf in (0, s0] of

        ln(s0 / s_inf) = (beta/alpha) * (s0 + i0 - s_inf)

    by bisection to an interval of 1e-12.  Serves as the independent oracle
    for long-horizon integration.  Raises BracketError when no bracket with
    a sign change exists in floats, as when beta/alpha overflows.
    """
    check(params.mu == 0.0, "mu", params.mu, "0 for the final size")
    if params.alpha <= 0.0:
        raise DegenerateParamsError("alpha must be positive for the final size")
    check(i0 > 0.0, "i0", i0, "positive")
    if not (s0 > 0.0 and s0 + i0 <= params.n_total * (1.0 + 1e-12)):
        raise ParamError("need 0 < s0 and s0 + i0 <= N")
    if params.beta == 0.0:
        return s0

    ratio = params.beta / params.alpha

    def f(x: float) -> float:
        return math.log(s0 / x) - ratio * (s0 + i0 - x)

    hi = s0
    f_hi = f(hi)          # = -ratio * i0 < 0
    lo = s0
    f_lo = f_hi
    # f is NaN where beta/alpha, or its product with s0 + i0 - x, overflows,
    # so halving stops at the smallest positive float, never at 0.
    while not f_lo > 0.0 and lo * 0.5 > 0.0:
        lo *= 0.5
        f_lo = f(lo)
    if not (f_lo > 0.0 and f_hi < 0.0):
        raise BracketError(
            f"no sign change on [{lo:.3e}, {hi:.3e}] "
            f"(f={f_lo:.3e}, {f_hi:.3e})")
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        if f(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
