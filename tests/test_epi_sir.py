"""Compartment model: derivatives, integrator order, conservation,
equilibria, and the final-size oracle."""

import itertools
import math

import numpy as np
import pytest

from infospread import epi_sir
from infospread.errors import (
    BracketError,
    ConservationError,
    DegenerateParamsError,
    EndemicUndefinedError,
    ModelError,
    ParamError,
)
from oracles import sir_rhs, sir_rk4


def endpoint(params, init, h, horizon):
    traj = epi_sir.integrate(params, init, h=h, horizon=horizon)
    f = traj.state(len(traj) - 1)
    return np.array([f.s, f.i, f.r])


# -- derivatives -----------------------------------------------------------

def test_disease_free_is_stationary():
    p = epi_sir.SirParams(beta=0.4, alpha=0.2, mu=0.1, n_total=1.0)
    assert sir_rhs(1.0, 0.0, 0.0, p) == (0.0, 0.0, 0.0)


def test_derivatives_hand_checked_values():
    p = epi_sir.SirParams(beta=0.2, alpha=0.1, mu=0.0, n_total=1.0)
    ds, di, dr = sir_rhs(0.99, 0.01, 0.0, p)
    assert ds == pytest.approx(-0.00198, abs=1e-15)
    assert di == pytest.approx(0.00098, abs=1e-15)
    assert dr == pytest.approx(0.001, abs=1e-15)


def test_derivative_sum_vanishes_on_manifold():
    rng = np.random.default_rng(0)
    p = epi_sir.SirParams(beta=0.7, alpha=0.3, mu=0.2, n_total=1.0)
    for _ in range(100):
        s, i = rng.random(2) * 0.5
        assert abs(sum(sir_rhs(s, i, 1.0 - s - i, p))) <= 1e-15


# -- rk4 ---------------------------------------------------------------------

def test_uninfected_subspace_is_invariant_exactly():
    p = epi_sir.SirParams(beta=0.9, alpha=0.2, mu=0.1, n_total=1.0)
    traj = epi_sir.integrate(p, epi_sir.SirState(s=0.7, i=0.0, r=0.3),
                             h=0.1, horizon=5.0)
    assert len(traj) == 51
    assert not traj.i.any()


def test_step_matches_exponential_relaxation():
    # beta = alpha = 0 reduces S to the linear ODE S' = mu*(N - S); starting
    # on the manifold at (0, 0, N), R relaxes by R' = -mu*R in step.
    p = epi_sir.SirParams(beta=0.0, alpha=0.0, mu=0.5, n_total=1.0)
    h = 0.1
    traj = epi_sir.integrate(p, epi_sir.SirState(s=0.0, i=0.0, r=1.0), h=h, horizon=h)
    assert len(traj) == 2
    final = traj.state(1)
    exact = 1.0 - math.exp(-p.mu * h)
    assert abs(final.s - exact) <= (p.mu * h) ** 5
    assert abs(final.r - (1.0 - exact)) <= (p.mu * h) ** 5
    assert final.t == h


def test_step_rejects_nonpositive_h():
    p = epi_sir.SirParams(beta=0.1, alpha=0.1, mu=0.0, n_total=1.0)
    for h in (0.0, -0.1, math.nan, math.inf):
        with pytest.raises(ParamError, match="^h must be "):
            epi_sir.integrate(p, epi_sir.SirState(s=1.0, i=0.0, r=0.0), h=h, horizon=1.0)


def test_fourth_order_convergence_under_step_halving():
    p = epi_sir.SirParams(beta=0.82, alpha=0.18, mu=0.05, n_total=1.0)
    init = epi_sir.SirState(s=0.6, i=0.3, r=0.1)
    ref = endpoint(p, init, 1e-4, 20.0)
    e1 = np.max(np.abs(endpoint(p, init, 0.2, 20.0) - ref))
    e2 = np.max(np.abs(endpoint(p, init, 0.1, 20.0) - ref))
    assert 12.0 <= e1 / e2 <= 20.0


# -- integrate ------------------------------------------------------------

def test_no_infection_source_relaxes_to_full_susceptibility():
    p = epi_sir.SirParams(beta=0.5, alpha=0.2, mu=0.1, n_total=1.0)
    traj = epi_sir.integrate(p, epi_sir.SirState(s=0.4, i=0.0, r=0.6),
                             h=0.01, horizon=200.0)
    assert not traj.i.any()
    assert traj.state(len(traj) - 1).s == pytest.approx(1.0, abs=1e-8)


def test_single_peaked_wave_shape():
    p = epi_sir.PRESETS["fig6b"]
    traj = epi_sir.integrate(p, epi_sir.SirState(s=0.999, i=1e-3, r=0.0),
                             h=0.01, horizon=400.0)
    peak = int(np.argmax(traj.i))
    assert 0 < peak < len(traj.i) - 1
    assert np.all(np.diff(traj.i[:peak]) > 0)
    assert np.all(np.diff(traj.i[peak + 1:]) < 0)
    assert traj.i[-1] < 1e-4


def test_conservation_along_presets():
    for p in epi_sir.PRESETS.values():
        traj = epi_sir.integrate(p, epi_sir.SirState(s=1.0 - 1e-3, i=1e-3, r=0.0),
                                 h=0.01, horizon=500.0)
        drift = np.max(np.abs(traj.s + traj.i + traj.r - p.n_total))
        assert drift <= 1e-8 * p.n_total


def test_nonnegative_components_at_compliant_step():
    p = epi_sir.SirParams(beta=0.5, alpha=0.1, mu=0.05, n_total=1.0)
    traj = epi_sir.integrate(p, epi_sir.SirState(s=0.999, i=1e-3, r=0.0),
                             h=0.01, horizon=500.0)
    for series in (traj.s, traj.i, traj.r):
        assert series.min() >= -1e-10


def test_oversized_step_raises_conservation_error():
    p = epi_sir.SirParams(beta=0.5, alpha=0.1, mu=0.05, n_total=1.0)
    with pytest.raises(ConservationError):
        epi_sir.integrate(p, epi_sir.SirState(s=0.999, i=1e-3, r=0.0),
                          h=50.0, horizon=200.0)


def test_off_manifold_initial_state_rejected():
    p = epi_sir.SirParams(beta=0.5, alpha=0.1, mu=0.05, n_total=1.0)
    with pytest.raises(ConservationError):
        epi_sir.integrate(p, epi_sir.SirState(s=0.9, i=0.3, r=0.0),
                          h=0.01, horizon=1.0)


def _reference_outcome(p, init, h, horizon):
    """The bytes of t, S, I and R stepped by the oracle RK4, or the
    ConservationError type and text at the first step off the manifold."""
    steps = int(round(horizon / h))
    ts = init.t + h * np.arange(steps + 1)
    state, rows = (init.s, init.i, init.r), [(init.s, init.i, init.r)]
    for k in range(1, steps + 1):
        state = sir_rk4(*state, p, h)
        drift = abs(sum(state) - p.n_total)
        if not drift <= epi_sir.CONSERVATION_RTOL * p.n_total:
            return ConservationError, (f"conservation drift |S+I+R-N|={drift:.3e} "
                                       f"at t={ts[k]:g}; reduce the step size")
        rows.append(state)
    return [ts.tobytes(), *(np.array(column).tobytes() for column in zip(*rows))]


def _outcome(p, init, h, horizon):
    try:
        traj = epi_sir.integrate(p, init, h=h, horizon=horizon)
    except ConservationError as err:
        return type(err), str(err)
    return [a.tobytes() for a in (traj.t, traj.s, traj.i, traj.r)]


@pytest.mark.parametrize("p, init, h, horizon, raises", [
    *((p, epi_sir.SirState(s=1.0 - 1e-3, i=1e-3, r=0.0), 0.01, 500.0, False)
      for p in epi_sir.PRESETS.values()),
    (epi_sir.SirParams(beta=0.003, alpha=0.1, mu=0.05, n_total=250.0),
     epi_sir.SirState(s=200.0, i=10.0, r=40.0, t=1.5), 0.05, 100.0, False),
    (epi_sir.SirParams(beta=0.5, alpha=0.1, mu=0.05, n_total=1.0),
     epi_sir.SirState(s=0.999, i=1e-3, r=0.0), 50.0, 200.0, True),
], ids=[*epi_sir.PRESETS, "turnover", "oversized-step"])
def test_integrate_matches_the_reference_rk4_bitwise(p, init, h, horizon, raises):
    expected = _reference_outcome(p, init, h, horizon)
    assert _outcome(p, init, h, horizon) == expected
    assert isinstance(expected, tuple) == raises


def test_trajectory_endpoints_and_timestamps():
    p = epi_sir.SirParams(beta=0.2, alpha=0.1, mu=0.0, n_total=1.0)
    init = epi_sir.SirState(s=0.99, i=0.01, r=0.0, t=2.0)
    traj = epi_sir.integrate(p, init, h=0.5, horizon=5.0)
    assert traj.state(0) == init
    assert len(traj) == 11
    assert np.allclose(np.diff(traj.t), 0.5, atol=0, rtol=0)


def test_endemic_convergence_to_closed_form():
    p = epi_sir.SirParams(beta=0.5, alpha=0.1, mu=0.05, n_total=1.0)
    traj = epi_sir.integrate(p, epi_sir.SirState(s=0.999, i=1e-3, r=0.0),
                             h=0.01, horizon=2000.0)
    f = traj.state(len(traj) - 1)
    assert abs(f.s - 0.3) <= 1e-6
    assert abs(f.i - 7.0 / 30.0) <= 1e-6
    assert abs(f.r - 7.0 / 15.0) <= 1e-6


# -- reproduction number and equilibria ---------------------------------------

def test_r0_examples():
    assert epi_sir.basic_reproduction_number(epi_sir.PRESETS["fig6b"]) == \
        pytest.approx(2.0, rel=1e-12)
    assert epi_sir.basic_reproduction_number(epi_sir.PRESETS["fig6c"]) == \
        pytest.approx(0.82 / 0.18, rel=1e-12)
    zero = epi_sir.SirParams(beta=0.0, alpha=0.3, mu=0.0, n_total=1.0)
    assert epi_sir.basic_reproduction_number(zero) == 0.0


def test_r0_degenerate_params():
    p = epi_sir.SirParams(beta=0.3, alpha=0.0, mu=0.0, n_total=1.0)
    with pytest.raises(DegenerateParamsError):
        epi_sir.basic_reproduction_number(p)
    with pytest.raises(DegenerateParamsError):
        epi_sir.equilibria(p)


def test_r0_undefined_when_both_sides_overflow():
    # beta*N and alpha + mu are both inf.  equilibria ended in numpy's
    # LinAlgError on the Jacobian of an inf S*.
    p = epi_sir.SirParams(beta=1e10, alpha=1e308, mu=1e308, n_total=1e300)
    for call in (epi_sir.basic_reproduction_number, epi_sir.equilibria):
        with pytest.raises(DegenerateParamsError,
                           match=r"^beta\*N and alpha \+ mu overflow"):
            call(p)


def test_overflowing_jacobian_is_degenerate():
    # -beta*I* - mu is -inf at the endemic point.  equilibria ended in
    # numpy's LinAlgError ("Array must not contain infs or NaNs").
    p = epi_sir.SirParams(beta=1e300, alpha=0.1, mu=0.05, n_total=1e10)
    with pytest.raises(DegenerateParamsError,
                       match=r"^the Jacobian at the endemic point overflows"):
        epi_sir.equilibria(p)


def test_equilibria_end_in_a_model_error_or_a_report():
    rates = (0.0, 5e-324, 1e-300, 1e-10, 0.05, 0.1, 0.5, 1.0, 10.0, 1e10,
             1e300, 1e308)
    for beta, alpha, mu, n_total in itertools.product(
            rates, rates, rates, (1e-300, 1.0, 1e300)):
        p = epi_sir.SirParams(beta=beta, alpha=alpha, mu=mu, n_total=n_total)
        try:
            epi_sir.equilibria(p)
        except ModelError:
            pass


def test_subcritical_equilibria():
    p = epi_sir.SirParams(beta=0.1, alpha=0.2, mu=0.05, n_total=1.0)
    report = epi_sir.equilibria(p)
    assert report.endemic is None
    assert report.disease_free.stability == "stable"
    eigs = sorted(ev.real for ev in report.disease_free.eigenvalues)
    assert eigs == pytest.approx([-0.15, -0.05], abs=1e-12)


def test_endemic_equilibrium_closed_form_and_stability():
    p = epi_sir.SirParams(beta=0.5, alpha=0.1, mu=0.05, n_total=1.0)
    report = epi_sir.equilibria(p)
    e = report.endemic
    assert e is not None
    assert (e.s, e.i, e.r) == pytest.approx((0.3, 7 / 30, 7 / 15), rel=1e-12)
    assert e.s + e.i + e.r == pytest.approx(1.0, abs=1e-10)
    assert e.stability == "stable"
    assert report.disease_free.stability == "unstable"


def test_threshold_is_non_hyperbolic():
    # Exact binary fractions make beta*N - alpha - mu vanish exactly.
    p = epi_sir.SirParams(beta=0.25, alpha=0.125, mu=0.125, n_total=1.0)
    report = epi_sir.equilibria(p)
    assert report.disease_free.stability == "non-hyperbolic"
    assert report.endemic is None


def test_stiff_stable_endemic_point_is_stable():
    # Eigenvalues about -3.3e307 and -0.15: each is far from the imaginary
    # axis against its own size, though -0.15 is not against the larger.
    p = epi_sir.SirParams(beta=1e308, alpha=0.1, mu=0.05, n_total=1.0)
    e = epi_sir.equilibria(p).endemic
    assert sorted(ev.real for ev in e.eigenvalues) == pytest.approx(
        [-1e308 / 3, -0.15], rel=1e-12)
    assert e.stability == "stable"


def test_supercritical_without_turnover_raises():
    p = epi_sir.PRESETS["fig6b"]
    with pytest.raises(EndemicUndefinedError) as err:
        epi_sir.equilibria(p)
    assert err.value.disease_free is not None
    assert "final_size" in str(err.value)


def test_endemic_point_needs_beta_times_s_star_positive():
    # S* = 5e-324 / 1e308 rounds to 0, so I* = mu*(N - S*)/(beta*S*) has no
    # value.  This raised a bare ZeroDivisionError.
    p = epi_sir.SirParams(beta=1e308, alpha=0.0, mu=5e-324, n_total=1.0)
    with pytest.raises(ParamError,
                       match=r"^alpha must be such that beta\*S\* > 0") as err:
        epi_sir.equilibria(p)
    assert err.value.name == "alpha"


def test_interior_states_converge_to_stable_endemic_point():
    p = epi_sir.SirParams(beta=0.5, alpha=0.1, mu=0.05, n_total=1.0)
    e = epi_sir.equilibria(p).endemic
    assert e.stability == "stable"
    rng = np.random.default_rng(4)
    for _ in range(10):
        s0 = 0.05 + 0.85 * rng.random()
        i0 = 0.05 + (0.95 - s0 - 0.05) * rng.random()
        init = epi_sir.SirState(s=s0, i=i0, r=1.0 - s0 - i0)
        traj = epi_sir.integrate(p, init, h=0.01, horizon=2000.0)
        f = traj.state(len(traj) - 1)
        assert abs(f.s - e.s) <= 1e-6
        assert abs(f.i - e.i) <= 1e-6
        assert abs(f.r - e.r) <= 1e-6


# -- final size ----------------------------------------------------------------

def test_final_size_zero_transmission():
    p = epi_sir.SirParams(beta=0.0, alpha=0.5, mu=0.0, n_total=1.0)
    assert epi_sir.final_size(p, s0=0.9, i0=0.1) == 0.9


def test_final_size_satisfies_relation():
    p = epi_sir.PRESETS["fig6b"]
    s0, i0 = 0.999, 0.001
    s_inf = epi_sir.final_size(p, s0, i0)
    assert 0.0 < s_inf < s0
    lhs = math.log(s0 / s_inf)
    rhs = (p.beta / p.alpha) * (s0 + i0 - s_inf)
    assert lhs == pytest.approx(rhs, abs=1e-9)


def test_final_size_cross_checks_integration():
    p = epi_sir.PRESETS["fig6d"]
    s0, i0 = 0.999, 0.001
    s_inf = epi_sir.final_size(p, s0, i0)
    traj = epi_sir.integrate(p, epi_sir.SirState(s=s0, i=i0, r=0.0),
                             h=0.01, horizon=400.0)
    assert abs(traj.state(len(traj) - 1).s - s_inf) <= 1e-4


def test_final_size_small_outbreak_bound():
    p = epi_sir.SirParams(beta=0.01, alpha=1.0, mu=0.0, n_total=1.0)
    s0, i0 = 0.99, 0.01
    r0 = epi_sir.basic_reproduction_number(p)
    s_inf = epi_sir.final_size(p, s0, i0)
    assert abs(s_inf - s0) <= i0 * r0 / (1.0 - r0) + 1e-9


def test_final_size_requires_zero_turnover():
    p = epi_sir.SirParams(beta=0.2, alpha=0.1, mu=0.05, n_total=1.0)
    with pytest.raises(ValueError):
        epi_sir.final_size(p, s0=0.9, i0=0.1)


@pytest.mark.parametrize("beta, alpha", [(1e308, 1e-308), (1e300, 1e-10)])
def test_final_size_with_an_infinite_ratio_finds_no_bracket(beta, alpha):
    # beta/alpha overflows, so f is -inf or NaN wherever it is evaluated.
    # Halving the lower end down to 0.0 ended in a ZeroDivisionError.
    p = epi_sir.SirParams(beta=beta, alpha=alpha, mu=0.0, n_total=1.0)
    with pytest.raises(BracketError, match="^no sign change on "):
        epi_sir.final_size(p, s0=0.9, i0=0.1)


def test_final_size_requires_positive_alpha():
    p = epi_sir.SirParams(beta=0.2, alpha=0.0, mu=0.0, n_total=1.0)
    with pytest.raises(DegenerateParamsError,
                       match="^alpha must be positive for the final size$"):
        epi_sir.final_size(p, s0=0.9, i0=0.1)


def test_final_size_requires_the_initial_state_within_n():
    p = epi_sir.PRESETS["fig6b"]
    with pytest.raises(ParamError, match=r"^need 0 < s0 and s0 \+ i0 <= N$"):
        epi_sir.final_size(p, s0=0.95, i0=0.1)


# -- threshold property ----------------------------------------------------------

def test_informed_peak_at_origin_iff_subthreshold():
    for beta in (0.1, 0.3, 0.5):
        for alpha in (0.2, 0.4):
            for s0 in (0.5, 0.9):
                p = epi_sir.SirParams(beta=beta, alpha=alpha, mu=0.0, n_total=1.0)
                init = epi_sir.SirState(s=s0, i=0.05, r=0.95 - s0)
                traj = epi_sir.integrate(p, init, h=0.01, horizon=120.0)
                peak_at_origin = int(np.argmax(traj.i)) == 0
                assert peak_at_origin == (beta * s0 <= alpha)
