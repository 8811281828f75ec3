"""Pair-wise lossy information exchange: analytic 4-state chain plus a
seeded population simulation over a contact network.

A contact pairs an initiator A with a responder B; each may hold a single
information item, so the pair state is a bit pair in the canonical order
(0,0), (0,1), (1,0), (1,1).  One exchange resolves an event tree with four
independent stages:

    select (p_select)  ->  data message delivered (p_gain)
                       ->  feedback delivered (1 - p_loss)
                       ->  holder drops after confirmed delivery (p_drop)

Dropping requires confirmation: a sender only discards its copy once it
knows the message arrived.  The responder side mirrors the initiator side
(push-pull), and on a duplicate delivery only the sending side risks
dropping.  An uninformed pair can still acquire the item exogenously: each
party independently picks it up with probability p_ext (ambient broadcasts
behave like one more lossy sender, hence the default p_ext =
p_select * p_gain).  Once at least one party holds the item, the pair never
returns to (0,0).

The chain is time-homogeneous; no per-round parameter schedules.
"""

from __future__ import annotations

import sys
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .errors import ParamError, ReducibleChainError, check
from .netdiff import ManagerNetwork, _block_rows

__all__ = [
    "STATE_ORDER",
    "ExchangeParams",
    "PairTransitionMatrix",
    "GossipTrace",
    "build_transition_matrix",
    "stationary_distribution",
    "simulate_population",
]

STATE_ORDER = ((0, 0), (0, 1), (1, 0), (1, 1))

_ROW_SUM_TOL = 1e-12

# Work bound: most contacts, n * rounds, of one population run.
MAX_CONTACTS = 100_000_000


@dataclass(frozen=True)
class ExchangeParams:
    """Exchange probabilities; every field lies in [0, 1].

    p_ext is the exogenous acquisition probability applied (per party,
    independently) only when both caches are empty.  Leaving it None selects
    the default p_select * p_gain.
    """

    p_select: float
    p_drop: float
    p_loss: float
    p_gain: float
    p_ext: float | None = None

    def __post_init__(self):
        if self.p_ext is None:
            object.__setattr__(self, "p_ext", self.p_select * self.p_gain)
        for name in ("p_select", "p_drop", "p_loss", "p_gain", "p_ext"):
            self.check(name, getattr(self, name))

    @staticmethod
    def check(name: str, value) -> None:
        """Raise ParamError unless ``value`` is a number in [0, 1]."""
        check(isinstance(value, (int, float)) and 0.0 <= value <= 1.0,
              name, value, "a number in [0, 1]")


@dataclass(frozen=True)
class PairTransitionMatrix:
    """4x4 row-stochastic matrix over STATE_ORDER.

    Structural zeros encode item persistence: once a pair holds the item it
    never transitions back to (0,0), and (1,1) cannot reach (1,0).
    """

    p: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.p, dtype=float)
        if p.shape != (4, 4):
            raise ParamError(f"transition matrix must be 4x4, got {p.shape}")
        if not ((p >= 0.0) & (p <= 1.0)).all():  # NaN fails too
            raise ParamError("transition probabilities must lie in [0, 1]")
        if np.max(np.abs(p.sum(axis=1) - 1.0)) > _ROW_SUM_TOL:
            raise ParamError("transition matrix rows must sum to 1")
        for row, col in ((1, 0), (2, 0), (3, 0), (3, 2)):
            if p[row, col] != 0.0:
                raise ParamError(
                    f"entry {STATE_ORDER[row]}->{STATE_ORDER[col]} must be "
                    "exactly 0 (item persistence)")
        p.setflags(write=False)
        object.__setattr__(self, "p", p)


@dataclass(frozen=True)
class GossipTrace:
    """Per-round informed counts from a population run.

    informed_count[0] is the initial condition; entry t is the count after
    round t (divide by the network's n for the informed fraction).
    isolated_skips counts initiators that had zero out-weight and were
    skipped (warning counter, not an error).
    """

    rounds: int
    informed_count: tuple[int, ...]
    isolated_skips: int = 0


def build_transition_matrix(params: ExchangeParams) -> PairTransitionMatrix:
    """Analytic transition matrix of one exchange, from the event tree.

    With s=p_select, d=p_drop, l=p_loss, g=p_gain, e=p_ext, a confirmed
    transfer happens with probability s*g*(1-l), after which the sender
    drops with probability d; an unconfirmed transfer (feedback lost) still
    delivers the item but the sender keeps its copy.
    """
    s, d, l, g, e = (params.p_select, params.p_drop, params.p_loss,
                     params.p_gain, params.p_ext)
    transfer = s * g                      # data message delivered
    confirmed_drop = transfer * (1.0 - l) * d
    keep_or_unconfirmed = transfer * (1.0 - (1.0 - l) * d)
    p = np.zeros((4, 4))
    # (0,0): each party independently acquires the item exogenously.
    p[0, 0] = (1.0 - e) * (1.0 - e)
    p[0, 1] = e * (1.0 - e)
    p[0, 2] = e * (1.0 - e)
    p[0, 3] = e * e
    # (0,1): responder holds the item and pushes back (pull symmetry).
    p[1, 1] = 1.0 - transfer
    p[1, 2] = confirmed_drop
    p[1, 3] = keep_or_unconfirmed
    # (1,0): initiator holds the item and pushes.
    p[2, 2] = 1.0 - transfer
    p[2, 1] = confirmed_drop
    p[2, 3] = keep_or_unconfirmed
    # (1,1): duplicate delivery; only the sending side risks dropping.
    p[3, 1] = confirmed_drop
    p[3, 3] = 1.0 - confirmed_drop
    return PairTransitionMatrix(p=p)


def _cumulative(weights: np.ndarray) -> np.ndarray:
    """Cumulative sampling thresholds with the tail pinned to exactly 1.0
    from the last positive entry, so a uniform draw in [0, 1) can never
    land on a zero-probability outcome through rounding."""
    c = np.cumsum(weights)
    c /= c[-1]
    c[np.nonzero(weights)[0][-1]:] = 1.0
    return c


def _row_cumsums(params: ExchangeParams) -> np.ndarray:
    return np.vstack([_cumulative(row)
                      for row in build_transition_matrix(params).p])


def _closed_classes(p: np.ndarray) -> tuple[tuple[int, ...], ...]:
    """Closed communicating classes of a small stochastic matrix.

    A state lies in a closed class iff every state it reaches reaches it
    back, and its class is then the set of states it reaches.  Each class
    is listed once, at its smallest state, in state order."""
    n = p.shape[0]
    reach = np.eye(n, dtype=bool) | (p > 0.0)
    for _ in range(n):
        reach = reach | (reach @ reach)
    closed = []
    for i in range(n):
        members = np.flatnonzero(reach[i])
        if members[0] == i and reach[members, i].all():
            closed.append(tuple(members.tolist()))
    return tuple(closed)


def stationary_distribution(matrix: PairTransitionMatrix) -> np.ndarray:
    """Unique stationary distribution pi with pi P = pi and sum(pi) = 1.

    Raises ReducibleChainError, naming the closed classes, when more than
    one closed communicating class exists.  Otherwise (0,0), which no
    state re-enters, is transient, so pi(00) = 0, and the Markov chain tree
    theorem gives the rest in closed form.  With b, c = P[01->10],
    P[01->11]; d, f = P[10->01], P[10->11]; and g = P[11->01]:
    pi(01) ~ g(d + f), pi(10) ~ g b, pi(11) ~ b f + c(d + f).  The weights
    are sums of products of nonnegative floats, taken in a fixed order, so
    no entry is negative and the bits do not depend on the LAPACK kernel.
    A weight sum below the smallest normal float (e.g. p_select = 1e-300)
    raises ReducibleChainError too.
    """
    p = matrix.p
    closed = _closed_classes(p)
    if len(closed) > 1:
        labels = [tuple(STATE_ORDER[i] for i in members) for members in closed]
        raise ReducibleChainError(
            f"no unique stationary distribution: {len(closed)} closed "
            f"communicating classes {labels}",
            closed_classes=labels)
    b, c, d, f, g = (float(p[i, j]) for i, j in
                     ((1, 2), (1, 3), (2, 1), (2, 3), (3, 1)))
    w01, w10, w11 = g * (d + f), g * b, b * f + c * (d + f)
    # Left to right, not sum(): that compensates float sums from Python 3.12 on.
    total = w01 + w10 + w11
    if total < sys.float_info.min:
        raise ReducibleChainError(
            "no unique stationary distribution: the spanning-tree weights "
            "underflow in floating point")
    return np.array([0.0, w01 / total, w10 / total, w11 / total])


def _partner_table(net: ManagerNetwork):
    """Partner-sampling thresholds of every initiator with out-weight.

    Built from the network's kept cells, with the diagonal (self contacts
    are excluded) and the ``-0.0`` cells dropped, so no n-by-n array is
    made.  Returns the active initiator indices in index order and two
    padded (m, max_degree) matrices: row r holds initiator active[r]'s
    _cumulative thresholds at its positive-weight columns, padded with
    +inf, and those columns.  For a uniform u in [0, 1), cols[r,
    count(thresholds[r] <= u)] equals searchsorted(_cumulative(row), u,
    side="right"): the first threshold above u always sits at a
    positive-weight column.

    Each row's positive weights are placed in its row of ``thresholds`` in
    column order and summed there.  The running sums equal _cumulative's
    at the same columns bit for bit: a cumulative sum adds in index order,
    and adding the zeros between them changes no partial sum.
    """
    rows = net.cell_rows()
    positive = (net.data != 0.0) & (net.cols != rows)
    rows = rows[positive]
    degree = np.bincount(rows, minlength=net.n)
    del rows
    active = np.flatnonzero(degree)
    count = degree[active]
    width = int(count.max(initial=0))
    # Cell k of the kept ones, the q-th of active row r, goes to r * width
    # + q, which is k plus that row's offset r * width - (cells before it).
    at = np.repeat(np.arange(active.size) * width - (np.cumsum(count) - count), count)
    at += np.arange(at.size)
    thresholds = np.zeros((active.size, width))
    thresholds.reshape(-1)[at] = net.data[positive]
    cols = np.zeros((active.size, width), dtype=np.intp)
    cols.reshape(-1)[at] = net.cols[positive]
    del at
    np.cumsum(thresholds, axis=1, out=thresholds)
    # Each row's total, which its padding leaves in the last column; the
    # last positive entry becomes total / total, exactly 1.0.
    thresholds /= thresholds[:, -1:].copy()
    thresholds[np.arange(width) >= count[:, None]] = np.inf
    return active, thresholds, cols


def _round_picks(rng, thresholds, cols, rounds: int):
    """Each round's partners and transition draws, as two lists in
    initiator order, drawn for a block of rounds at a time.  One
    ``rng.random((block, 2m))`` is the same stream as ``block`` successive
    ``rng.random(2m)``: PCG64 gives one double per 64-bit draw, in order.
    A block's comparison holds about ``netdiff._BLOCK`` cells."""
    rows = np.arange(cols.shape[0])
    block = _block_rows(thresholds.size)
    for start in range(0, rounds, block):
        draws = rng.random((min(block, rounds - start), 2 * rows.size))
        picks = np.count_nonzero(thresholds <= draws[:, 0::2, None], axis=2)
        yield from zip(cols[rows, picks].tolist(), draws[:, 1::2].tolist())


def simulate_population(net: ManagerNetwork, params: ExchangeParams,
                        initially_informed, rounds: int,
                        seed: int) -> GossipTrace:
    """Population gossip over a contact network.

    Per round every manager i initiates one contact in index order: the
    partner j is drawn with probability w[i, j] / sum_k w[i, k] (self-weights
    excluded), and the bit pair (bit_i, bit_j) advances one chain transition
    with i in the initiator role.  Bits update in place sequentially, so the
    run is deterministic for fixed inputs and seed.  Initiators with zero
    out-weight are skipped and counted in the trace.

    Draw contract (keep it, or traces for a given seed change): each round
    draws one block of 2m uniforms with ``rng.random(2 * m)``, m being the
    number of initiators with out-weight.  Positions 2r and 2r + 1 are the
    partner draw and the transition draw of the r-th such initiator in
    index order.  Isolated initiators draw nothing, and once the population
    is frozen (everyone informed with p_drop = 0, or nobody with p_ext = 0)
    no round draws at all.  Each draw is compared with its thresholds as
    by ``searchsorted(..., side="right")``.  A block of rounds takes its
    draws in one ``rng.random((block, 2 * m))`` call, the same stream as
    one call per round; the draws of rounds past a freeze are never used.
    """
    n = net.n
    check(rounds >= 1, "rounds", rounds, ">= 1")
    check(n * rounds <= MAX_CONTACTS, "rounds", rounds,
          f"such that n*rounds <= MAX_CONTACTS = {MAX_CONTACTS}")
    bits = [0] * n
    for idx in initially_informed:
        check(0 <= idx < n, "informed", idx, f"node indices in [0, n) for n={n}")
        bits[idx] = 1

    active, thresholds, cols = _partner_table(net)
    m = active.size
    initiators = active.tolist()
    row_cums = [row.tolist() for row in _row_cumsums(params)]

    rng = np.random.default_rng(seed)
    picks = _round_picks(rng, thresholds, cols, rounds)
    counts = [sum(bits)]
    skips = 0
    for rnd in range(rounds):
        k = counts[-1]
        frozen = (k == n and params.p_drop == 0.0) or \
                 (k == 0 and params.p_ext == 0.0)
        if frozen:
            # No transition can change any bit; fill without using draws.
            counts.extend([k] * (rounds - rnd))
            break
        partners, draws = next(picks)
        for i, j, u in zip(initiators, partners, draws):
            # STATE_ORDER puts the pair state (a, b) at index 2a + b.
            bits[i], bits[j] = STATE_ORDER[
                bisect_right(row_cums[2 * bits[i] + bits[j]], u)]
        skips += n - m
        counts.append(sum(bits))
    return GossipTrace(rounds=rounds, informed_count=tuple(counts),
                       isolated_skips=skips)
