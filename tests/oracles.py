"""Independent oracles and parameter grids shared by several test modules.

Each is written from the definition, without the package's code, so a test
that compares against one checks the package rather than itself.
"""

import functools
import itertools
import math
import operator
import tracemalloc

import numpy as np

from infospread import gossip

GRID = (0.0, 0.25, 0.5, 0.75, 1.0)


def param_grid():
    """Every ExchangeParams with all five probabilities on GRID (5^5)."""
    for s, d, l, g, e in itertools.product(GRID, repeat=5):
        yield gossip.ExchangeParams(p_select=s, p_drop=d, p_loss=l,
                                    p_gain=g, p_ext=e)


def gauss_stationary(p: np.ndarray) -> np.ndarray:
    """Stationary vector by hand-rolled Gaussian elimination with partial
    pivoting on (P^T - I) with the last balance row replaced by sum = 1."""
    n = p.shape[0]
    a = [[p[j][i] - (1.0 if i == j else 0.0) for j in range(n)] for i in range(n)]
    a[n - 1] = [1.0] * n
    b = [0.0] * (n - 1) + [1.0]
    for col in range(n):
        pivot = max(range(col, n), key=lambda r: abs(a[r][col]))
        a[col], a[pivot] = a[pivot], a[col]
        b[col], b[pivot] = b[pivot], b[col]
        for r in range(col + 1, n):
            factor = a[r][col] / a[col][col]
            for c in range(col, n):
                a[r][c] -= factor * a[col][c]
            b[r] -= factor * b[col]
    x = [0.0] * n
    for r in range(n - 1, -1, -1):
        x[r] = (b[r] - sum(a[r][c] * x[c] for c in range(r + 1, n))) / a[r][r]
    return np.array(x)


def closed_classes(p: np.ndarray) -> tuple[tuple[int, ...], ...]:
    """Closed communicating classes via brute-force reachability, each as
    its sorted states, in the order of their smallest states."""
    n = p.shape[0]
    reach = [[p[i][j] > 0 or i == j for j in range(n)] for i in range(n)]
    for k in range(n):
        for i in range(n):
            for j in range(n):
                reach[i][j] = reach[i][j] or (reach[i][k] and reach[k][j])
    classes = []
    seen = set()
    for i in range(n):
        if i in seen:
            continue
        members = {j for j in range(n) if reach[i][j] and reach[j][i]}
        seen |= members
        if all(j in members or p[m][j] == 0 for m in members for j in range(n)):
            classes.append(tuple(sorted(members)))
    return tuple(classes)


def closed_class_count(p: np.ndarray) -> int:
    """Number of closed communicating classes."""
    return len(closed_classes(p))


def is_primitive(w: np.ndarray) -> bool:
    """Wielandt bound: primitive iff the support of w^((n-1)^2 + 1) is full."""
    n = w.shape[0]
    b = (w > 0).astype(np.int64)
    power = np.eye(n, dtype=np.int64)
    for _ in range((n - 1) ** 2 + 1):
        power = np.minimum(power @ b, 1)
    return bool(power.all())


def sampled_transition_frequencies(params, trials: int, seed: int) -> np.ndarray:
    """Transition frequencies from ``trials`` sampled exchanges per pre-state.

    Unlike the oracles above, this samples through the package's own
    thresholds: each exchange compares one uniform draw with
    ``gossip._row_cumsums(params)`` as by ``searchsorted(..., side="right")``,
    the rule simulate_population applies to each contact's transition draw.
    Checked against the analytic matrix, it tests those thresholds.
    Pre-states run in STATE_ORDER, each drawing one block of ``trials``
    uniforms from ``default_rng(seed)``.
    """
    rng = np.random.default_rng(seed)
    cums = gossip._row_cumsums(params)
    out = np.empty((4, 4))
    for s in range(4):
        draws = np.searchsorted(cums[s], rng.random(trials), side="right")
        out[s] = np.bincount(draws, minlength=4) / trials
    return out


def left_to_right_row_sums(w: np.ndarray) -> np.ndarray:
    """Each row of w added left to right from 0.0 in Python floats (not
    sum(), which compensates float sums from Python 3.12 on).  Adding a
    0.0 cell changes no partial sum, so this is also the sum of each row's
    nonzero and -0.0 cells in column order."""
    return np.array([functools.reduce(operator.add, row, 0.0)
                     for row in w.tolist()])


def sir_rhs(s: float, i: float, r: float, p):
    """(dS, dI, dR) of the SIR system with turnover at a state, each written
    as the model's formula; their sum is mu*(N - S - I - R)."""
    ds = -p.beta * s * i + p.mu * (p.n_total - s)
    di = p.beta * s * i - p.alpha * i - p.mu * i
    dr = p.alpha * i - p.mu * r
    return ds, di, dr


def sir_rk4(s: float, i: float, r: float, p, h: float):
    """One classical RK4 step of sir_rhs from (s, i, r)."""
    k1s, k1i, k1r = sir_rhs(s, i, r, p)
    k2s, k2i, k2r = sir_rhs(s + 0.5 * h * k1s, i + 0.5 * h * k1i, r + 0.5 * h * k1r, p)
    k3s, k3i, k3r = sir_rhs(s + 0.5 * h * k2s, i + 0.5 * h * k2i, r + 0.5 * h * k2r, p)
    k4s, k4i, k4r = sir_rhs(s + h * k3s, i + h * k3i, r + h * k3r, p)
    c = h / 6.0
    return (s + c * (k1s + 2.0 * k2s + 2.0 * k3s + k4s),
            i + c * (k1i + 2.0 * k2i + 2.0 * k3i + k4i),
            r + c * (k1r + 2.0 * k2r + 2.0 * k3r + k4r))


def two_pass_stats(values):
    """Mean, sample std, min and max: exact sums first, then moments."""
    n = len(values)
    mean = math.fsum(values) / n
    m2 = math.fsum((x - mean) ** 2 for x in values)
    std = math.sqrt(m2 / (n - 1)) if n > 1 else 0.0
    return mean, std, min(values), max(values)


def traced_peak(fn, *args):
    """(result, peak bytes that tracemalloc saw allocated during the call);
    numpy reports its array buffers to tracemalloc.  One untraced call runs
    first, so what a first call leaves behind for good (a codec imported on
    first use, say) is not counted, whatever the test ran before."""
    return traced_peak_and_held(fn, *args)[:2]


def traced_peak_and_held(fn, *args):
    """``traced_peak``'s result and peak, and the bytes still traced when the
    call returned: what the result holds, unless the call leaked."""
    fn(*args)
    tracemalloc.start()
    try:
        result = fn(*args)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak, held
