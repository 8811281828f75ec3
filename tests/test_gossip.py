"""Pair-wise exchange chain: analytic matrix, sampling, stationary law,
and the population simulation."""

import dataclasses
import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from infospread import gossip, netdiff
from infospread.errors import ModelError, ParamError, ReducibleChainError
from oracles import (GRID, closed_class_count, closed_classes, gauss_stationary,
                     param_grid, sampled_transition_frequencies)


# -- independent oracles ------------------------------------------------

def event_tree_matrix(p: gossip.ExchangeParams) -> np.ndarray:
    """Enumerate the exchange event tree outcome by outcome.

    Stages are binary events with independent probabilities: select,
    deliver (forward data message), feedback (reverse confirmation), and
    drop (sender discards after a confirmed delivery).  The (0,0) row is a
    two-sided independent exogenous draw instead.
    """
    out = np.zeros((4, 4))
    index = {state: k for k, state in enumerate(gossip.STATE_ORDER)}

    for ga, gb in itertools.product((0, 1), repeat=2):
        weight = (p.p_ext if ga else 1 - p.p_ext) * (p.p_ext if gb else 1 - p.p_ext)
        out[index[(0, 0)], index[(ga, gb)]] += weight

    for pre in ((0, 1), (1, 0), (1, 1)):
        row = index[pre]
        for select, deliver, feedback, drop in itertools.product((0, 1), repeat=4):
            weight = (p.p_select if select else 1 - p.p_select)
            weight *= (p.p_gain if deliver else 1 - p.p_gain)
            weight *= ((1 - p.p_loss) if feedback else p.p_loss)
            weight *= (p.p_drop if drop else 1 - p.p_drop)
            a, b = pre
            if select and deliver:
                if pre == (0, 1):
                    # responder pushes its copy to the initiator
                    a = 1
                    if feedback and drop:
                        b = 0
                else:
                    # initiator (the holder on a duplicate) pushes
                    b = 1
                    if feedback and drop:
                        a = 0
            out[row, index[(a, b)]] += weight
    return out




def reference_simulate_population(net, params, initially_informed, rounds,
                                  seed):
    """Per-contact population run: two scalar draws and two searchsorted
    calls per contact.  simulate_population must return the same trace."""
    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    n = net.n
    informed = [False] * n
    for idx in initially_informed:
        if not 0 <= idx < n:
            raise ValueError(f"informed index {idx} outside [0, {n})")
        informed[idx] = True

    weights = np.array(net.w, dtype=float)
    np.fill_diagonal(weights, 0.0)
    partner_cums = [gossip._cumulative(weights[i]) if weights[i].any() else None
                    for i in range(n)]
    row_cums = gossip._row_cumsums(params)

    rng = np.random.default_rng(seed)
    counts = [sum(informed)]
    skips = 0
    for rnd in range(rounds):
        k = counts[-1]
        frozen = (k == n and params.p_drop == 0.0) or \
                 (k == 0 and params.p_ext == 0.0)
        if frozen:
            # No transition can change any bit; fill without consuming draws.
            counts.extend([k] * (rounds - rnd))
            break
        for i in range(n):
            cums = partner_cums[i]
            if cums is None:
                skips += 1
                continue
            j = int(np.searchsorted(cums, rng.random(), side="right"))
            state_idx = 2 * informed[i] + informed[j]
            nxt = gossip.STATE_ORDER[int(np.searchsorted(row_cums[state_idx], rng.random(),
                                                         side="right"))]
            informed[i] = bool(nxt[0])
            informed[j] = bool(nxt[1])
        counts.append(sum(informed))
    return gossip.GossipTrace(rounds=rounds, informed_count=tuple(counts),
                              isolated_skips=skips)


def reference_partner_table(w):
    """Partner table row by row, from its definition: each row with its
    diagonal zeroed, _cumulative's thresholds at its positive columns."""
    active, support, cums = [], [], []
    for i in range(w.shape[0]):
        row = np.array(w[i], dtype=float)
        row[i] = 0.0
        nz = np.flatnonzero(row)
        if nz.size:
            active.append(i)
            support.append(nz)
            cums.append(gossip._cumulative(row)[nz])
    width = max((nz.size for nz in support), default=0)
    thresholds = np.full((len(active), width), np.inf)
    cols = np.zeros((len(active), width), dtype=np.intp)
    for r, (nz, cum) in enumerate(zip(support, cums)):
        thresholds[r, :nz.size] = cum
        cols[r, :nz.size] = nz
    return np.array(active, dtype=np.intp), thresholds, cols


# -- parameters ----------------------------------------------------------

def test_params_reject_out_of_range():
    with pytest.raises(ParamError, match="^p_select must be a number in"):
        gossip.ExchangeParams(p_select=1.5, p_drop=0, p_loss=0, p_gain=1)
    with pytest.raises(ParamError, match="^p_drop must be a number in"):
        gossip.ExchangeParams(p_select=0.5, p_drop=-0.1, p_loss=0, p_gain=1)


def test_p_ext_defaults_to_select_times_gain():
    p = gossip.ExchangeParams(p_select=0.5, p_drop=0.1, p_loss=0.2, p_gain=0.8)
    assert p.p_ext == 0.5 * 0.8


# -- transition matrix ----------------------------------------------------

def test_matrix_matches_event_tree_on_grid():
    for p in param_grid():
        analytic = gossip.build_transition_matrix(p).p
        assert np.max(np.abs(analytic - event_tree_matrix(p))) <= 1e-14


def test_matrix_matches_event_tree_random():
    rng = np.random.default_rng(42)
    for _ in range(200):
        s, d, l, g, e = rng.random(5)
        p = gossip.ExchangeParams(s, d, l, g, e)
        analytic = gossip.build_transition_matrix(p).p
        assert np.max(np.abs(analytic - event_tree_matrix(p))) <= 1e-14


def test_matrix_derived_row():
    p = gossip.ExchangeParams(p_select=0.5, p_drop=0.4, p_loss=0.25,
                              p_gain=0.8, p_ext=0.1)
    row = gossip.build_transition_matrix(p).p[2]
    assert row == pytest.approx([0.0, 0.12, 0.6, 0.28], abs=1e-15)


def test_matrix_identity_when_inert():
    p = gossip.ExchangeParams(p_select=0.0, p_drop=0.3, p_loss=0.7,
                              p_gain=0.2, p_ext=0.0)
    assert np.array_equal(gossip.build_transition_matrix(p).p, np.eye(4))


def test_matrix_lossless_push_is_certain():
    p = gossip.ExchangeParams(p_select=1.0, p_drop=0.0, p_loss=0.0,
                              p_gain=1.0, p_ext=0.0)
    row = gossip.build_transition_matrix(p).p[2]
    assert row.tolist() == [0.0, 0.0, 0.0, 1.0]


def test_row_sums_and_structural_zeros_on_grid():
    for p in param_grid():
        m = gossip.build_transition_matrix(p).p
        assert np.max(np.abs(m.sum(axis=1) - 1.0)) <= 1e-12
        assert m[1, 0] == 0.0 and m[2, 0] == 0.0
        assert m[3, 0] == 0.0 and m[3, 2] == 0.0


def test_uninformed_state_absorbing_without_exogenous_gain():
    p = gossip.ExchangeParams(p_select=0.9, p_drop=0.4, p_loss=0.0,
                              p_gain=1.0, p_ext=0.0)
    assert gossip.build_transition_matrix(p).p[0].tolist() == [1, 0, 0, 0]


def eye_with(*entries):
    """The 4x4 identity, a valid transition matrix, with (row, col, value)
    entries set."""
    p = np.eye(4)
    for row, col, value in entries:
        p[row, col] = value
    return p


@pytest.mark.parametrize("p, message", [
    (np.eye(3), r"^transition matrix must be 4x4, got \(3, 3\)$"),
    (eye_with((0, 0, np.nan)), r"^transition probabilities must lie in \[0, 1\]$"),
    (eye_with((2, 2, -0.5)), r"^transition probabilities must lie in \[0, 1\]$"),
    (eye_with((0, 1, 0.5)), r"^transition matrix rows must sum to 1$"),
    (eye_with((1, 0, 1.0), (1, 1, 0.0)),
     r"^entry \(0, 1\)->\(0, 0\) must be exactly 0 \(item persistence\)$"),
    (eye_with((3, 2, 1.0), (3, 3, 0.0)),
     r"^entry \(1, 1\)->\(1, 0\) must be exactly 0 \(item persistence\)$"),
], ids=["shape", "nan", "negative", "row-sum", "persistence-01", "persistence-11"])
def test_matrix_rejects_malformed_input(p, message):
    with pytest.raises(ParamError, match=message):
        gossip.PairTransitionMatrix(p=p)


# -- scenarios -------------------------------------------------------------
# A contact from a holder ends in one of four scenarios: no attempt (1 - s),
# forward loss s*(1 - g), feedback loss s*g*l, or a complete exchange
# s*g*(1 - l).  With p_drop = 1 a complete exchange moves the item and the
# other two leave the pair where it was, so row (1,0) shows the split as
# [0, complete, no attempt + forward loss, feedback loss].

def confirmed_drop_row(p: gossip.ExchangeParams) -> np.ndarray:
    return gossip.build_transition_matrix(dataclasses.replace(p, p_drop=1.0)).p[2]


def test_scenarios_perfect_channel():
    p = gossip.ExchangeParams(p_select=1.0, p_drop=0.0, p_loss=0.0, p_gain=1.0)
    assert confirmed_drop_row(p).tolist() == [0.0, 1.0, 0.0, 0.0]


def test_scenarios_forward_loss_certain():
    p = gossip.ExchangeParams(p_select=1.0, p_drop=0.0, p_loss=0.3, p_gain=0.0)
    assert confirmed_drop_row(p).tolist() == [0.0, 0.0, 1.0, 0.0]
    holders = gossip.build_transition_matrix(p).p[1:]
    assert np.array_equal(holders, np.eye(4)[1:])


def test_scenarios_derived_split():
    p = gossip.ExchangeParams(p_select=0.5, p_drop=0.4, p_loss=0.25, p_gain=0.8)
    # complete 0.3; no attempt 0.5 plus forward loss 0.1; feedback loss 0.1
    assert confirmed_drop_row(p) == pytest.approx([0.0, 0.3, 0.6, 0.1], abs=1e-15)


def test_scenarios_partition_on_grid():
    for p in param_grid():
        s, l, g = p.p_select, p.p_loss, p.p_gain
        split = [0.0, s * g * (1 - l), (1 - s) + s * (1 - g), s * g * l]
        row = confirmed_drop_row(p)
        assert np.max(np.abs(row - split)) <= 1e-12
        assert abs(row.sum() - 1.0) <= 1e-12


# -- single-pair sampling ---------------------------------------------------
# sampled_transition_frequencies samples one exchange per draw through the
# thresholds simulate_population uses, each pre-state in its own block of
# draws.

def test_step_pair_uninformed_absorbing_without_exogenous():
    p = gossip.ExchangeParams(p_select=0.8, p_drop=0.2, p_loss=0.1,
                              p_gain=0.9, p_ext=0.0)
    est = sampled_transition_frequencies(p, trials=200, seed=0)
    assert est[0].tolist() == [1.0, 0.0, 0.0, 0.0]


def test_step_pair_deterministic_row():
    p = gossip.ExchangeParams(p_select=1.0, p_drop=0.0, p_loss=0.0, p_gain=1.0)
    est = sampled_transition_frequencies(p, trials=100, seed=1)
    assert est[2].tolist() == [0.0, 0.0, 0.0, 1.0]


def test_step_pair_frequencies_within_three_sigma():
    p = gossip.ExchangeParams(p_select=0.5, p_drop=0.4, p_loss=0.25,
                              p_gain=0.8, p_ext=0.1)
    expected = np.array([0.0, 0.12, 0.6, 0.28])
    samples = 100_000
    freq = sampled_transition_frequencies(p, trials=samples, seed=7)[2]
    sigma = np.sqrt(expected * (1 - expected) / samples)
    assert np.all(np.abs(freq - expected) <= 3 * sigma + 1e-12)
    assert freq[0] == 0.0  # structurally impossible outcome


def test_step_pair_chi_square_against_analytic_row():
    p = gossip.ExchangeParams(p_select=0.5, p_drop=0.4, p_loss=0.25,
                              p_gain=0.8, p_ext=0.1)
    expected = gossip.build_transition_matrix(p).p[2]
    samples = 100_000
    counts = samples * sampled_transition_frequencies(p, trials=samples, seed=11)[2]
    live = expected > 0
    chi2 = float(np.sum((counts[live] - samples * expected[live]) ** 2
                        / (samples * expected[live])))
    # 99.9% critical value of chi-square with 2 degrees of freedom
    assert chi2 < 13.816
    assert counts[~live].sum() == 0


# -- stationary distribution -------------------------------------------------

def test_stationary_identity_raises_with_four_classes():
    p = gossip.ExchangeParams(p_select=0.0, p_drop=0.3, p_loss=0.3,
                              p_gain=0.3, p_ext=0.0)
    with pytest.raises(ReducibleChainError) as err:
        gossip.stationary_distribution(gossip.build_transition_matrix(p))
    assert len(err.value.closed_classes) == 4


def test_stationary_absorbing_informed_pair():
    p = gossip.ExchangeParams(p_select=1.0, p_drop=0.0, p_loss=0.0,
                              p_gain=1.0, p_ext=1.0)
    pi = gossip.stationary_distribution(gossip.build_transition_matrix(p))
    assert pi == pytest.approx([0.0, 0.0, 0.0, 1.0], abs=1e-12)


def test_stationary_matches_elimination_oracle():
    p = gossip.ExchangeParams(p_select=0.5, p_drop=0.4, p_loss=0.25,
                              p_gain=0.8, p_ext=0.1)
    m = gossip.build_transition_matrix(p)
    pi = gossip.stationary_distribution(m)
    assert np.max(np.abs(pi - gauss_stationary(m.p))) <= 1e-9
    assert np.max(np.abs(pi @ m.p - pi)) <= 1e-12
    assert pi.sum() == pytest.approx(1.0, abs=1e-12)


def test_stationary_no_exogenous_gain_is_reducible():
    p = gossip.ExchangeParams(p_select=0.5, p_drop=0.4, p_loss=0.25,
                              p_gain=0.8, p_ext=0.0)
    with pytest.raises(ReducibleChainError) as err:
        gossip.stationary_distribution(gossip.build_transition_matrix(p))
    assert ((0, 0),) in err.value.closed_classes


def test_stationary_grid_agrees_with_class_structure():
    rng = np.random.default_rng(5)
    for _ in range(300):
        p = gossip.ExchangeParams(*rng.random(5))
        m = gossip.build_transition_matrix(p)
        if closed_class_count(m.p) > 1:
            with pytest.raises(ReducibleChainError):
                gossip.stationary_distribution(m)
        else:
            pi = gossip.stationary_distribution(m)
            assert np.max(np.abs(pi - gauss_stationary(m.p))) <= 1e-9


def test_stationary_grid_has_no_negative_entry():
    # The solve through LAPACK gave 239 of these 1600 chains an entry below
    # zero, such as pi(00) = -4.2e-17.
    chains = 0
    for p in param_grid():
        m = gossip.build_transition_matrix(p)
        if closed_class_count(m.p) == 1:
            chains += 1
            pi = gossip.stationary_distribution(m)
            assert pi[0] == 0.0 and (pi >= 0.0).all(), p
            assert np.max(np.abs(pi @ m.p - pi)) <= 1e-15, p
    assert chains == 1600


def test_closed_classes_match_brute_force_reachability():
    rng = np.random.default_rng(27)
    for _ in range(3000):
        n = int(rng.integers(1, 7))
        p = np.where(rng.random((n, n)) < rng.random(), rng.random((n, n)), 0.0)
        assert gossip._closed_classes(p) == closed_classes(p), p


# -- population simulation ----------------------------------------------------

def complete_network(n: int) -> netdiff.ManagerNetwork:
    w = np.ones((n, n))
    np.fill_diagonal(w, 0.0)
    return netdiff.validate_network(w)


def test_population_monotone_without_drop_or_exogenous():
    params = gossip.ExchangeParams(p_select=0.6, p_drop=0.0, p_loss=0.3,
                                   p_gain=0.7, p_ext=0.0)
    for seed in range(20):
        net = netdiff.generate_random_network(12, 0.4, seed=seed)
        trace = gossip.simulate_population(net, params, [0], rounds=40, seed=seed)
        counts = trace.informed_count
        assert all(a <= b for a, b in zip(counts, counts[1:]))
        assert len(counts) == 41


def test_population_constant_without_selection_or_exogenous():
    params = gossip.ExchangeParams(p_select=0.0, p_drop=0.5, p_loss=0.5,
                                   p_gain=0.5, p_ext=0.0)
    trace = gossip.simulate_population(complete_network(8), params, [0, 3],
                                       rounds=30, seed=2)
    assert set(trace.informed_count) == {2}


def test_population_lossless_complete_graph_spreads():
    params = gossip.ExchangeParams(p_select=1.0, p_drop=0.0, p_loss=0.0,
                                   p_gain=1.0, p_ext=0.0)
    trace = gossip.simulate_population(complete_network(10), params, [0],
                                       rounds=100, seed=4)
    assert trace.informed_count[-1] == 10


def test_population_counts_isolated_initiators():
    w = np.array([[0.0, 1.0], [0.0, 0.0]])
    params = gossip.ExchangeParams(0.5, 0.1, 0.2, 0.8)
    trace = gossip.simulate_population(netdiff.validate_network(w), params,
                                       [0], rounds=10, seed=1)
    assert trace.isolated_skips == 10


def test_population_deterministic_for_seed():
    params = gossip.ExchangeParams(0.5, 0.1, 0.2, 0.8)
    net = netdiff.generate_random_network(15, 0.5, seed=9)
    a = gossip.simulate_population(net, params, [0], rounds=50, seed=77)
    b = gossip.simulate_population(net, params, [0], rounds=50, seed=77)
    assert a.informed_count == b.informed_count


def test_population_validates_inputs():
    params = gossip.ExchangeParams(0.5, 0.1, 0.2, 0.8)
    net = complete_network(4)
    with pytest.raises(ModelError):
        gossip.simulate_population(net, params, [4], rounds=10, seed=0)
    with pytest.raises(ValueError):
        gossip.simulate_population(net, params, [0], rounds=0, seed=0)


def equivalence_networks():
    """Weight matrices covering the edge cases of partner sampling."""
    rng = np.random.default_rng(2024)
    mixed = rng.random((9, 9)) * (rng.random((9, 9)) < 0.5)
    np.fill_diagonal(mixed, rng.random(9))    # self-weights everywhere
    mixed[3] = 0.0
    mixed[3, 3] = 0.8                         # weight only on the diagonal
    mixed[6] = 0.0                            # no weight at all
    # Weights far below one ulp of the running sum leave a threshold equal
    # to its predecessor at a positive-weight column.
    tiny = np.ones((6, 6))
    tiny[:, 2] = 1e-300
    tiny[:, 4] = 1e-17
    return {
        "single": np.zeros((1, 1)),
        "single-self": np.full((1, 1), 0.5),
        "pair-one-way": np.array([[0.0, 1.0], [0.0, 0.0]]),
        "mixed": mixed,
        "tiny": tiny,
        "complete": netdiff.generate_random_network(10, 1.0, seed=3).w,
        "sparse": netdiff.generate_random_network(40, 0.03, seed=5).w,
    }


EQUIVALENCE_PARAMS = (
    gossip.ExchangeParams(0.5, 0.1, 0.2, 0.8),
    gossip.ExchangeParams(1.0, 0.0, 0.0, 1.0, 0.0),   # freezes at full coverage
    gossip.ExchangeParams(0.6, 0.0, 0.3, 0.7, 0.2),   # freezes at full coverage
    gossip.ExchangeParams(0.5, 0.4, 0.25, 0.8, 0.0),  # freezes at zero from ()
    gossip.ExchangeParams(0.3, 0.6, 0.1, 0.9, 0.05),
)


@pytest.mark.parametrize("name", sorted(equivalence_networks()))
def test_population_matches_per_contact_reference(name):
    net = netdiff.validate_network(equivalence_networks()[name])
    n = net.n
    informed_sets = {(0,), tuple(sorted({0, n // 2, n - 1})), ()}
    frozen = set()
    for params, informed, seed in itertools.product(
            EQUIVALENCE_PARAMS, sorted(informed_sets), range(20)):
        expected = reference_simulate_population(net, params, informed,
                                                 rounds=12, seed=seed)
        got = gossip.simulate_population(net, params, informed,
                                         rounds=12, seed=seed)
        assert got == expected, (name, params, informed, seed)
        last = got.informed_count[-1]
        if last == n and params.p_drop == 0.0 or last == 0 and params.p_ext == 0.0:
            frozen.add(last)
    assert frozen == {0, n}


def partner_table_networks():
    nets = dict(equivalence_networks())
    for n, density in ((300, 0.05), (1000, 0.05), (200, 1.0), (300, 0.0)):
        nets[f"random-{n}-{density}"] = \
            netdiff.generate_random_network(n, density, seed=n).w
    return nets


@pytest.mark.parametrize("name", sorted(partner_table_networks()))
def test_partner_table_matches_its_definition(name):
    w = partner_table_networks()[name]
    got = gossip._partner_table(netdiff.validate_network(w))
    for part, expected in zip(got, reference_partner_table(w)):
        assert part.dtype == expected.dtype
        assert np.array_equal(part, expected), name


def rounds_per_block(net):
    _, thresholds, _ = gossip._partner_table(net)
    return netdiff._block_rows(thresholds.size)


@pytest.mark.parametrize("density, rounds", [(0.05, 40), (1.0, 6)],
                         ids=["several-blocks", "one-round-blocks"])
def test_population_matches_reference_across_round_blocks(density, rounds):
    net = netdiff.generate_random_network(300, density, seed=11)
    block = rounds_per_block(net)
    assert block == 1 if density == 1.0 else 1 < block < rounds / 2
    params = EQUIVALENCE_PARAMS[0]
    for seed in (0, 1):
        assert gossip.simulate_population(net, params, [0], rounds, seed) == \
            reference_simulate_population(net, params, [0], rounds, seed)


def test_population_matches_reference_when_frozen_mid_block():
    net = netdiff.generate_random_network(300, 0.05, seed=11)
    frozen_from = []  # the first round that starts frozen
    for params in EQUIVALENCE_PARAMS[1:3]:  # both freeze at full coverage
        for seed in range(3):
            got = gossip.simulate_population(net, params, [0], 40, seed)
            assert got == reference_simulate_population(net, params, [0], 40, seed)
            assert got.informed_count[-1] == 300
            frozen_from.append(got.informed_count.index(300))
    block = rounds_per_block(net)
    assert any(rnd % block for rnd in frozen_from)


@st.composite
def small_population_runs(draw):
    n = draw(st.integers(1, 6))
    weight = st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0))
    w = np.array(draw(st.lists(weight, min_size=n * n, max_size=n * n)))
    prob = st.floats(0.0, 1.0)
    params = gossip.ExchangeParams(*(draw(prob) for _ in range(5)))
    informed = draw(st.sets(st.integers(0, n - 1), max_size=n))
    return (netdiff.validate_network(w.reshape(n, n)), params,
            sorted(informed), draw(st.integers(1, 15)),
            draw(st.integers(0, 2**32 - 1)))


@settings(max_examples=150, deadline=None)
@given(small_population_runs())
def test_population_matches_reference_on_random_inputs(run):
    net, params, informed, rounds, seed = run
    assert gossip.simulate_population(net, params, informed, rounds, seed) == \
        reference_simulate_population(net, params, informed, rounds, seed)


def test_population_peak_memory_is_under_half_the_network():
    # The partner table holds each initiator's positive-weight columns only,
    # padded to the largest out-degree, at 16 bytes a cell (here about twice
    # the network's 12 bytes per kept cell); building it takes about one
    # network more, and a block of round picks about _BLOCK cells.
    n = 1000
    net = netdiff.generate_random_network(n, 0.05, seed=3)
    params = gossip.ExchangeParams(0.5, 0.1, 0.2, 0.8)
    run = (net, params, [0], 20, 1)
    gossip.simulate_population(*run)  # untraced: first-use allocations
    tracemalloc.start()
    try:
        gossip.simulate_population(*run)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    network = net.indptr.nbytes + net.cols.nbytes + net.data.nbytes
    assert peak <= 3 * network + 8 * netdiff._BLOCK


def test_partner_table_peak_memory_is_about_the_table():
    # The build holds the table it returns and index arrays of its kept
    # cells, never an n-by-n array.
    net = netdiff.generate_random_network(1000, 0.05, seed=3)
    gossip._partner_table(net)  # untraced: first-use allocations
    tracemalloc.start()
    try:
        _, thresholds, cols = gossip._partner_table(net)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * (thresholds.nbytes + cols.nbytes)


# -- empirical estimates -------------------------------------------------------

def test_empirical_single_trial_rows_are_one_hot():
    p = gossip.ExchangeParams(0.5, 0.4, 0.25, 0.8, 0.1)
    est = sampled_transition_frequencies(p, trials=1, seed=0)
    assert np.array_equal(np.sort(est, axis=1)[:, :3], np.zeros((4, 3)))
    assert np.array_equal(est.sum(axis=1), np.ones(4))


def test_empirical_deterministic_rows_exact():
    p = gossip.ExchangeParams(p_select=0.0, p_drop=0.5, p_loss=0.5,
                              p_gain=0.5, p_ext=0.0)
    est = sampled_transition_frequencies(p, trials=1000, seed=0)
    assert np.array_equal(est, np.eye(4))


def test_empirical_within_three_sigma_of_analytic():
    p = gossip.ExchangeParams(0.5, 0.4, 0.25, 0.8, 0.1)
    analytic = gossip.build_transition_matrix(p).p
    est = sampled_transition_frequencies(p, trials=100_000, seed=21)
    sigma = np.sqrt(analytic * (1 - analytic) / 100_000)
    assert np.all(np.abs(est - analytic) <= 3 * sigma + 1e-12)
