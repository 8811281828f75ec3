"""Network validation, connectivity, eigenpairs, centrality, and CSV I/O."""

import csv
import math
import os
import shutil
import tempfile
import threading
import warnings
from decimal import Decimal, localcontext
from itertools import chain
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from infospread import netdiff
from infospread.errors import (
    ConvergenceError,
    DimensionError,
    EntryRangeError,
    ParamError,
    RowError,
    ZeroMatrixError,
)
from oracles import is_primitive, left_to_right_row_sums, traced_peak


# -- independent oracles ------------------------------------------------

def hearing_oracle(w: np.ndarray, T: int) -> np.ndarray:
    """Sum of matrix powers computed independently per term."""
    return sum(np.linalg.matrix_power(w, t) for t in range(1, T + 1))


def reference_read_network_csv(path) -> netdiff.ManagerNetwork:
    """Per-cell reader: csv.reader without quoting plus float() on every
    cell.  read_network_csv must return the same bits wherever this accepts."""
    rows: list[list[float]] = []
    with open(path, newline="") as fh:
        for lineno, row in enumerate(csv.reader(fh, quoting=csv.QUOTE_NONE),
                                     start=1):
            if not row:
                continue
            try:
                rows.append([float(x) for x in row])
            except ValueError as exc:
                raise EntryRangeError(f"line {lineno}: {exc}") from None
            if len(rows[-1]) != len(rows[0]):
                raise DimensionError(
                    f"line {lineno}: ragged row of width {len(rows[-1])}, "
                    f"expected {len(rows[0])}")
    return netdiff.validate_network(rows)


def reference_network_csv_text(net: netdiff.ManagerNetwork) -> str:
    """Per-cell writer: repr(float(x)) for every cell.  network_csv_chunks
    must join to the same text."""
    lines = [",".join(repr(float(x)) for x in row) for row in net.w]
    return "\n".join(lines) + "\n"


def primitive_networks(count: int, max_n: int = 8):
    """First `count` random primitive (hence strongly connected) networks."""
    nets = []
    seed = 0
    while len(nets) < count:
        seed += 1
        n = 3 + seed % (max_n - 2)
        net = netdiff.generate_random_network(n, 0.6, seed)
        if is_primitive(net.w):
            nets.append(net)
    return nets


# -- validation ---------------------------------------------------------

def test_validate_accepts_boundary_weights():
    net = netdiff.validate_network([[0, 1], [1, 0]])
    assert net.n == 2
    assert net.w[0, 1] == 1.0


def test_validate_accepts_three_cycle():
    net = netdiff.validate_network([[0, 0.5, 0], [0, 0, 0.5], [0.5, 0, 0]])
    assert net.n == 3


def test_validate_rejects_out_of_range_entry():
    with pytest.raises(EntryRangeError):
        netdiff.validate_network([[0, 1.2], [0, 0]])


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -0.1])
def test_validate_rejects_nonfinite_and_negative(bad):
    with pytest.raises(EntryRangeError):
        netdiff.validate_network([[0, bad], [0, 0]])


def test_validate_rejects_cells_that_are_not_numbers():
    with pytest.raises(EntryRangeError,
                       match=r"^network entries must be real numbers: "):
        netdiff.validate_network([["a"]])


def test_validate_rejects_a_vector():
    with pytest.raises(DimensionError) as err:
        netdiff.validate_network([1.0, 0.5])
    assert str(err.value) == "network must be a 2-d matrix, got ndim=1"


def test_validate_rejects_non_square():
    with pytest.raises(DimensionError):
        netdiff.validate_network([[0, 1, 0], [0, 0, 1]])


def test_validate_rejects_empty():
    with pytest.raises(DimensionError):
        netdiff.validate_network(np.zeros((0, 0)))


def test_network_matrix_is_frozen():
    net = netdiff.validate_network([[0, 1], [1, 0]])
    with pytest.raises(ValueError):
        net.w[0, 0] = 0.5


# -- leading eigenpair --------------------------------------------------

def test_symmetric_swap_eigenpair():
    pair = netdiff.leading_eigenpair(netdiff.validate_network([[0, 1], [1, 0]]))
    assert pair.eigenvalue == pytest.approx(1.0, abs=1e-12)
    assert pair.eigenvector == pytest.approx([0.5, 0.5], abs=1e-12)


def test_doubly_stochastic_eigenpair():
    pair = netdiff.leading_eigenpair(
        netdiff.validate_network([[0.5, 0.5], [0.5, 0.5]]))
    assert pair.eigenvalue == pytest.approx(1.0, abs=1e-12)
    assert pair.eigenvector == pytest.approx([0.5, 0.5], abs=1e-12)


def test_random_networks_match_dense_eigensolver():
    for net in primitive_networks(25):
        pair = netdiff.leading_eigenpair(net, tol=1e-12, max_iter=100000)
        oracle = max(abs(np.linalg.eigvals(net.w)))
        assert abs(pair.eigenvalue - oracle) < 1e-8
        assert pair.eigenvector.min() >= -1e-10
        assert pair.eigenvector.sum() == pytest.approx(1.0, abs=1e-12)
        assert pair.residual <= 1e-12


def test_zero_matrix_raises():
    with pytest.raises(ZeroMatrixError):
        netdiff.leading_eigenpair(netdiff.validate_network([[0, 0], [0, 0]]))


def test_periodic_matrix_reports_convergence_error():
    net = netdiff.validate_network([[0, 1], [0.5, 0]])
    with pytest.raises(ConvergenceError) as err:
        netdiff.leading_eigenpair(net, tol=1e-12, max_iter=10000)
    assert err.value.eigenvalue is not None
    assert err.value.residual is not None


def test_power_iteration_out_of_sweeps_carries_its_best_iterate():
    # One sweep from the uniform start: w v = (0.5, 1.0), so lambda = 1.5
    # and the residual is 0.25, far above tol.
    net = netdiff.validate_network([[0, 1], [1, 1]])
    with pytest.raises(ConvergenceError, match="within 1 sweeps") as err:
        netdiff.leading_eigenpair(net, max_iter=1)
    assert err.value.iterations == 1
    assert err.value.eigenvalue == 1.5
    assert err.value.residual == 0.25
    assert list(err.value.eigenvector) == [0.5, 0.5]


def test_nilpotent_matrix_converges_to_zero_eigenvalue():
    pair = netdiff.leading_eigenpair(netdiff.validate_network([[0, 1], [0, 0]]))
    assert pair.eigenvalue == 0.0


# -- hearing matrix and centrality ---------------------------------------

LINE = [[0, 1, 0], [0, 0, 1], [0, 0, 0]]


def test_hearing_line_example():
    net = netdiff.validate_network(LINE)
    expected = [[0, 1, 1], [0, 0, 1], [0, 0, 0]]
    assert netdiff.hearing_matrix(net, 2).tolist() == expected


def test_hearing_horizon_one_is_the_matrix():
    net = netdiff.generate_random_network(5, 0.7, seed=3)
    assert np.array_equal(netdiff.hearing_matrix(net, 1), net.w)


def test_hearing_zero_matrix():
    net = netdiff.validate_network(np.zeros((4, 4)))
    assert not netdiff.hearing_matrix(net, 5).any()


def test_hearing_rejects_bad_horizon():
    net = netdiff.validate_network(LINE)
    for bad in (0, -1, 1.5, 10 ** 9, math.nan, math.inf):
        with pytest.raises(ParamError, match="^horizon must be "):
            netdiff.hearing_matrix(net, bad)


def test_hearing_overflow_reports_term():
    net = netdiff.validate_network(np.ones((2, 2)))
    with pytest.raises(OverflowError) as err:
        netdiff.hearing_matrix(net, 2000)
    assert "t=" in str(err.value)


def test_hearing_telescopes():
    for seed in range(5):
        net = netdiff.generate_random_network(6, 0.5, seed=seed)
        for T in range(1, 6):
            delta = netdiff.hearing_matrix(net, T + 1) - netdiff.hearing_matrix(net, T)
            power = np.linalg.matrix_power(net.w, T + 1)
            assert np.max(np.abs(delta - power)) <= 1e-12


def test_centrality_line_example():
    net = netdiff.validate_network(LINE)
    assert netdiff.diffusion_centrality(net, 2).tolist() == [2, 1, 0]


def test_centrality_horizon_one_is_row_sums_exactly():
    # Each row's cells added left to right, on every CPU: numpy's own row
    # sums add 8 or more cells pairwise.
    for n in (7, 8, 200):
        net = netdiff.generate_random_network(n, 0.6, seed=11)
        assert np.array_equal(netdiff.diffusion_centrality(net, 1),
                              left_to_right_row_sums(net.w))


def test_centrality_complete_graph_single_period():
    p = 0.37
    w = np.full((3, 3), p)
    np.fill_diagonal(w, 0.0)
    dc = netdiff.diffusion_centrality(netdiff.validate_network(w), 1)
    assert dc == pytest.approx([2 * p] * 3, rel=1e-15)


def test_centrality_matches_power_oracle():
    rng = np.random.default_rng(0)
    for _ in range(30):
        n = int(rng.integers(2, 9))
        T = int(rng.integers(1, 7))
        net = netdiff.generate_random_network(n, 0.6, int(rng.integers(1 << 30)))
        oracle = hearing_oracle(net.w, T) @ np.ones(n)
        assert np.max(np.abs(netdiff.diffusion_centrality(net, T) - oracle)) <= 1e-10


def test_centrality_rejects_bad_horizon():
    net = netdiff.validate_network(LINE)
    for bad in (0, -1, 1.5, 10 ** 9, math.nan, math.inf):
        with pytest.raises(ParamError, match="^horizon must be "):
            netdiff.diffusion_centrality(net, bad)


def test_centrality_overflow_reports_term():
    net = netdiff.validate_network(np.ones((2, 2)))
    with pytest.raises(OverflowError) as err:
        netdiff.diffusion_centrality(net, 2000)
    assert "t=" in str(err.value)


def test_centrality_matches_hearing_row_sums_on_larger_network():
    net = netdiff.generate_random_network(200, 0.05, seed=4)
    for T in (1, 2, 7):
        report = netdiff.centrality_report(net, T)
        dc = netdiff.diffusion_centrality(net, T)
        assert np.allclose(dc, report.centrality, rtol=1e-12, atol=0.0)


def test_centrality_report_consistent():
    net = netdiff.generate_random_network(5, 0.8, seed=2)
    report = netdiff.centrality_report(net, 4)
    assert np.array_equal(report.centrality, report.hearing.sum(axis=1))
    assert report.hearing.min() >= 0.0


# -- generator and CSV round trip -----------------------------------------

def test_generator_density_zero_is_empty():
    net = netdiff.generate_random_network(4, 0.0, seed=7)
    assert not net.w.any()


def test_generator_density_one_fills_off_diagonal():
    net = netdiff.generate_random_network(4, 1.0, seed=7)
    off = ~np.eye(4, dtype=bool)
    assert np.all(net.w[off] > 0.0)
    assert np.all(net.w[off] <= 1.0)
    assert not net.w[np.eye(4, dtype=bool)].any()


def test_generator_deterministic():
    a = netdiff.generate_random_network(6, 0.5, seed=123)
    b = netdiff.generate_random_network(6, 0.5, seed=123)
    assert np.array_equal(a.w, b.w)


def test_csv_round_trip(tmp_path):
    net = netdiff.generate_random_network(6, 0.5, seed=9)
    path = tmp_path / "net.csv"
    netdiff.write_network_csv(path, net)
    back = netdiff.read_network_csv(path)
    assert np.array_equal(back.w, net.w)


def test_csv_rejects_ragged_rows(tmp_path):
    path = tmp_path / "ragged.csv"
    path.write_text("0,1\n0\n")
    with pytest.raises(DimensionError):
        netdiff.read_network_csv(path)


def test_csv_rejects_non_numeric(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("0,x\n0,0\n")
    with pytest.raises(RowError) as err:
        netdiff.read_network_csv(path)
    assert str(err.value) == ("line 1: could not convert string 'x' to float64 "
                              "at column 2.")
    assert err.value.line == 1


def test_read_and_generated_networks_are_frozen(tmp_path):
    path = tmp_path / "net.csv"
    path.write_text("0,0.25,0\n0,0,1\n0.5,0,0\n")
    for net in (netdiff.read_network_csv(path),
                netdiff.generate_random_network(3, 0.5, seed=1)):
        with pytest.raises(ValueError):
            net.w[0, 0] = 0.5


# -- CSV I/O against the per-cell reference ----------------------------------

def exact_tie(a: float) -> str:
    """The decimal exactly halfway between ``a`` and the next float up:
    the parser has to break the tie to even."""
    with localcontext() as ctx:
        ctx.prec = 2000
        return str((Decimal(a) + Decimal(np.nextafter(a, 2.0))) / 2)


BELOW_ONE = float(np.nextafter(1.0, 0.0))
EDGE_WEIGHTS = (0.0, -0.0, 5e-324, 1e-310, 2.225073858507201e-308,
                2.2250738585072014e-308, 0.1, 1 / 3, BELOW_ONE, 1.0)
TIE_BASES = (0.0, 5e-324, 1e-310, 0.5, 1 / 3, BELOW_ONE)


def read_both(text: str):
    """Parse one file with read_network_csv and with the reference."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "net.csv"
        path.write_text(text)
        return (netdiff.read_network_csv(path).w,
                reference_read_network_csv(path).w)


@st.composite
def square_matrices(draw, cell):
    n = draw(st.integers(1, 8))
    return n, draw(st.lists(cell, min_size=n * n, max_size=n * n))


WEIGHTS = st.one_of(st.floats(0.0, 1.0), st.sampled_from(EDGE_WEIGHTS))


@settings(max_examples=200, deadline=None)
@given(square_matrices(WEIGHTS))
def test_csv_io_matches_per_cell_reference(matrix):
    n, cells = matrix
    net = netdiff.validate_network(np.array(cells).reshape(n, n))
    text = "".join(netdiff.network_csv_chunks(net))
    assert text == reference_network_csv_text(net)
    got, expected = read_both(text)
    assert got.tobytes() == expected.tobytes() == net.w.tobytes()


CELL_TEXTS = st.one_of(
    WEIGHTS.map(repr),
    st.sampled_from(TIE_BASES).map(exact_tie),
    st.floats(0.0, 1.0).map(exact_tie),
    st.floats(0.0, 1.0).map(lambda x: f" {x!r} "),
    st.floats(0.0, 1.0).map(lambda x: f'"{x!r}"'),
    st.floats(0.0, 1.0).map(lambda x: f"{x:.3e}"),
)


@settings(max_examples=200, deadline=None)
@given(square_matrices(CELL_TEXTS))
def test_csv_reader_matches_per_cell_reference_on_cell_syntax(matrix):
    n, cells = matrix
    rows = [",".join(cells[i * n:(i + 1) * n]) for i in range(n)]
    text = "\n".join(rows) + "\n"
    quoted = [lineno for lineno, row in enumerate(rows, start=1) if '"' in row]
    if quoted:  # a quote is not part of the syntax
        with pytest.raises(RowError) as err:
            read_both(text)
        assert err.value.line == quoted[0]
        return
    got, expected = read_both(text)
    assert got.tobytes() == expected.tobytes()


def test_exact_ties_round_to_even():
    got, _ = read_both(f"{exact_tie(0.0)},{exact_tie(0.5)}\n"
                       f"{exact_tie(BELOW_ONE)},0\n")
    assert got.tolist() == [[0.0, 0.5], [1.0, 0.0]]


def test_generated_network_text_matches_per_cell_writer(tmp_path):
    net = netdiff.generate_random_network(300, 0.05, seed=17)
    path = tmp_path / "net.csv"
    netdiff.write_network_csv(path, net)
    assert path.read_bytes() == reference_network_csv_text(net).encode()


@pytest.mark.parametrize("text, expected", [
    ("\n0,1\n\n1,0\n\n", [[0, 1], [1, 0]]),           # blank lines
    ("0,0.5\r\n1,0\r\n", [[0, 0.5], [1, 0]]),           # CRLF
    (" 0 , 0.5\n1 ,0 \n", [[0, 0.5], [1, 0]]),           # spaces
    ('"0.5",0\n0,"1"\n', (RowError, "line 1: could not convert string "
                                     "'\"0.5\"' to float64 at column 1.")),  # quoted
    ("0.75\n", [[0.75]]),                                # 1x1
    ("0.75", [[0.75]]),                                  # no final newline
])
def test_csv_reader_syntax(text, expected):
    if isinstance(expected, tuple):
        error, message = expected
        with pytest.raises(error) as err:
            read_both(text)
        assert str(err.value) == message
        return
    got, reference = read_both(text)
    assert got.tolist() == expected
    assert got.tobytes() == reference.tobytes()


@pytest.mark.parametrize("text, error, fragment", [
    ("0,1,\n1,0,\n", RowError, "column 3"),             # trailing comma
    ("0,1\n\n1,0,0\n", DimensionError, "line 3"),        # ragged row
    ("0,1\nabc,0\n", RowError, "abc"),                    # non-numeric
    ("0,1_0\n1,0\n", RowError, "1_0"),                    # digit separator
    ("0 1\n1 0\n", RowError, "0 1"),                      # not comma-separated
    ('0,"0.5\n1,0\n', RowError,                          # unclosed quote
     "line 1: could not convert string '\"0.5'"),
    ('"0\n",1\n1,0\n', RowError,                          # quoted newline
     "line 1: could not convert string '\"0'"),
    ("", DimensionError, "at least one node"),           # empty file
    ("\n\n", DimensionError, "at least one node"),       # blank lines only
    ("0,1\n1,0\n0,0\n", DimensionError, "square"),
    ("0,2\n1,0\n", EntryRangeError, "w[0,1]"),
])
def test_csv_reader_rejects(tmp_path, text, error, fragment):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(error) as err:
        netdiff.read_network_csv(path)
    assert fragment in str(err.value)


def test_csv_reader_rejects_non_utf8(tmp_path):
    # Lines count as text mode counts them (LF, CRLF, CR, empty lines too),
    # also past the first block the reader decodes.
    long_rows = b"0,1\n" * 5000
    path = tmp_path / "bad.csv"
    for text, line in [(b"0,\xff\n1,0\n", 1), (b"0,1\n\xff,0\n", 2),
                       (b"0,1\r\r\n1,\xe9\n", 3), (b"\n0,1\r1,0\xc3", 3),
                       (long_rows + b"1,\xed\xa0\x80\n", 5001)]:
        path.write_bytes(text)
        with pytest.raises(RowError) as err:
            netdiff.read_network_csv(path)
        assert str(err.value) == f"line {line}: text is not UTF-8"
        assert err.value.line == line


@pytest.mark.parametrize("text, error, line, reason", [
    # ragged line 2 before undecodable line 3
    (b"0,1\n1\n\xff,0\n", DimensionError, 2, "ragged row of width 1, expected 2"),
    # undecodable line 2 before ragged line 3
    (b"0,1\n\xff\n1\n", RowError, 2, "text is not UTF-8"),
    # NUL cell on line 2 before ragged line 3
    (b"0,1\n\x00,0\n1\n", RowError, 2,
     "could not convert string '\\x00' to float64 at column 1."),
    # a blank line counts: the non-number is on line 3, before ragged line 4
    (b"0,1\n\nabc,0\n1\n", RowError, 3,
     "could not convert string 'abc' to float64 at column 1."),
    # whitespace-only line 2 is a ragged row, before undecodable line 3
    (b"0,1\n \n\xff,0\n", DimensionError, 2, "ragged row of width 1, expected 2"),
], ids=["ragged-then-undecodable", "undecodable-then-ragged", "nul-then-ragged",
        "non-number-after-blank", "whitespace-then-undecodable"])
def test_csv_reader_reports_the_earliest_fault(tmp_path, text, error, line, reason):
    path = tmp_path / "bad.csv"
    path.write_bytes(text)
    with pytest.raises(error) as err:
        netdiff.read_network_csv(path)
    assert str(err.value) == f"line {line}: {reason}"
    if error is RowError:
        assert err.value.line == line


def whole_text_read_network_csv(path) -> netdiff.ManagerNetwork:
    """The text-mode reader that ``read_network_csv``'s block reader
    replaced, verbatim but for module prefixes and for opening the file
    itself: one ``np.loadtxt`` over the whole file."""
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        # numpy only warns on input without rows.
        while (first := fh.readline()) == "\n":
            pass
        if not first:
            raise DimensionError("network needs at least one node")
        try:
            # An undecodable byte is a lone surrogate here: not a number.
            w = np.loadtxt(chain([first], fh), delimiter=",", comments=None,
                           ndmin=2)
        except ValueError as exc:
            fh.seek(0)
            raise whole_text_first_fault(fh, exc) from None
    return netdiff.validate_network(w)


def whole_text_first_fault(lines, exc: ValueError):
    """The error of the first of ``lines`` (text lines of a file that numpy
    rejected with ``exc``): not UTF-8, a ragged row, or a cell that is not a
    number.  If no line is at fault (the file changed since), ``exc`` as an
    EntryRangeError.  The text-mode fault finder the block reader replaced,
    verbatim."""
    width = None
    for lineno, line in enumerate(lines, start=1):
        if line == "\n":
            continue
        try:
            line.encode()  # an escaped byte is a lone surrogate: no UTF-8
        except UnicodeEncodeError:
            return RowError(f"line {lineno}: text is not UTF-8", line=lineno)
        commas = line.count(",")
        if width is None:
            width = commas
        elif commas != width:
            return DimensionError(
                f"line {lineno}: ragged row of width {commas + 1}, "
                f"expected {width + 1}")
        try:
            np.loadtxt([line], delimiter=",", comments=None)
        except ValueError as cell:
            reason = str(cell).replace(" at row 0, column ", " at column ")
            return RowError(f"line {lineno}: {reason}", line=lineno)
    return EntryRangeError(f"network CSV: {exc}")


def outcome(read, path):
    """The bits and shape a reader returns, or its error's class, message
    and line."""
    try:
        w = read(path).w
    except (DimensionError, EntryRangeError, RowError) as exc:
        return type(exc), str(exc), getattr(exc, "line", None)
    return w.shape, w.tobytes()


# Mostly canonical zeros, so that both the bulk path and the parsed cells
# land on every side of a block edge.
CELL_BYTES = st.one_of(
    st.just(b"0.0"),
    st.sampled_from([b"0", b"00.0", b".0", b"0.00", b"-0.0", b" 0.0", b"0.0\t",
                     b"1e-3", b"abc", b"", b"0.5", b"\xff", b"\x00", b"0.0\x00",
                     b"\xc2\xa00.25", b"0.0 ", b"2", b"0.0\xe9"]),
    st.floats(0.0, 1.0).map(lambda x: repr(x).encode()),
)
LINE_ENDS = st.sampled_from([b"\n", b"\r\n", b"\r"])


@st.composite
def network_files(draw):
    n = draw(st.integers(1, 6))
    lines = []
    for _ in range(draw(st.sampled_from([n, n, n, n - 1, n + 1, 1]))):
        width = draw(st.sampled_from([n, n, n, n - 1, n + 1]))
        cells = draw(st.lists(st.one_of(st.just(b"0.0"), CELL_BYTES),
                              min_size=max(width, 1), max_size=max(width, 1)))
        row = b",".join(cells) + draw(st.sampled_from([b"", b"", b"", b","]))
        blank = draw(st.lists(LINE_ENDS, max_size=2))
        lines.append(b"".join(blank) + row + draw(LINE_ENDS))
    text = b"".join(lines)
    if draw(st.booleans()):
        text = text.rstrip(b"\r\n")
    return text


def through_a_pipe(read):
    """``read`` made to take its file from a pipe: a /dev/fd path to a pipe
    that a thread fills with the file's bytes.  A pipe has no size, so the
    reader cannot bound its row count by it."""
    def read_piped(path):
        out, into = os.pipe()

        def feed():
            try:
                with os.fdopen(into, "wb") as fh, open(path, "rb") as src:
                    shutil.copyfileobj(src, fh)
            except BrokenPipeError:  # the reader stopped at a fault
                pass

        thread = threading.Thread(target=feed)
        thread.start()
        try:
            return read(f"/dev/fd/{out}")
        finally:
            os.close(out)  # a feed still writing stops on EPIPE
            thread.join(timeout=60)
            assert not thread.is_alive()
    return read_piped


@settings(max_examples=600, deadline=None)
@given(text=network_files(), block=st.integers(7, 64))
def test_block_reader_matches_the_whole_text_reader(text, block):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "net.csv"
        path.write_bytes(text)
        expected = outcome(whole_text_read_network_csv, path)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(netdiff, "_BLOCK", block)
            assert outcome(netdiff.read_network_csv, path) == expected
            piped = through_a_pipe(netdiff.read_network_csv)
            assert outcome(piped, path) == expected


@pytest.mark.parametrize("block", [7, 64])
def test_piped_fault_past_the_first_block_names_its_line(tmp_path, monkeypatch, block):
    monkeypatch.setattr(netdiff, "_BLOCK", block)
    n = 40
    row = ",".join(["0.0"] * (n - 1) + ["0.5"]).encode()
    ends = [b"\n", b"\r\n", b"\r"]
    text, line = b"", 0
    for i in range(n):
        text += b"".join(ends[:i % 3])  # up to two blank lines before a row
        line += i % 3 + 1
        if i == n - 3:
            text += row[:-3] + b"x"
            bad = line
        else:
            text += row
        text += ends[i % 3]
    path = tmp_path / "net.csv"
    path.write_bytes(text)
    for read in (netdiff.read_network_csv, through_a_pipe(netdiff.read_network_csv)):
        with pytest.raises(RowError) as err:
            read(path)
        assert err.value.line == bad
        assert str(err.value) == (f"line {bad}: could not convert string 'x' "
                                  f"to float64 at column {n}.")


@pytest.mark.parametrize("edge", [8192, 2 ** 16, 2 ** 17])
def test_a_crlf_split_at_a_read_edge_ends_one_line(tmp_path, edge):
    # The CR of a CRLF is the last byte of a read: of 8 KiB, the size of
    # io's buffer, or of _BLOCK bytes.  The LF that starts the next
    # read must not end a second, empty line.
    row = b"0.0,0.5\r\n"
    good, pad = divmod(edge - 8, len(row))  # pad blank lines end row good at the edge
    text = b"\n" * pad + row * (good + 1) + b"0.0,x\r\n" + row * 3
    assert text[edge - 1:edge + 1] == b"\r\n"
    bad = pad + good + 2
    path = tmp_path / "net.csv"
    path.write_bytes(text)
    for read in (netdiff.read_network_csv, through_a_pipe(netdiff.read_network_csv)):
        with pytest.raises(RowError) as err:
            read(path)
        assert err.value.line == bad


def test_a_cr_only_file_over_several_blocks_names_its_line(tmp_path):
    rows, bad = 50_000, 45_000  # 400 kB: three blocks and part of a fourth
    path = tmp_path / "net.csv"
    path.write_bytes(b"0.0,0.5\r" * (bad - 1) + b"0.0,x\r" + b"0.0,0.5\r" * (rows - bad))
    for read in (netdiff.read_network_csv, through_a_pipe(netdiff.read_network_csv)):
        with pytest.raises(RowError) as err:
            read(path)
        assert err.value.line == bad
        assert str(err.value) == (f"line {bad}: could not convert string 'x' "
                                  "to float64 at column 2.")


# A UTF-8 byte-order mark that starts the file is its encoding's signature,
# not text: the file reads as it does without one, from a first read that
# holds the mark alone too.  A mark anywhere else is a cell's text.
@pytest.mark.parametrize("block", [3, 64])
@pytest.mark.parametrize("text", [b"0,0.5\n0.25,0\n", b"\n\r\n0,0.5\r\n0.25,0",
                                  b"0,0.5\nx,0\n"], ids=["plain", "blank-first", "faulty"])
def test_a_leading_byte_order_mark_is_read_as_no_text(tmp_path, monkeypatch, text, block):
    monkeypatch.setattr(netdiff, "_BLOCK", block)
    plain, marked, inner = (tmp_path / name for name in ("plain", "marked", "inner"))
    plain.write_bytes(text)
    marked.write_bytes(b"\xef\xbb\xbf" + text)
    inner.write_bytes(b"0,0.5\n\xef\xbb\xbf0.25,0\n")
    expected = outcome(netdiff.read_network_csv, plain)
    for read in (netdiff.read_network_csv, through_a_pipe(netdiff.read_network_csv)):
        assert outcome(read, marked) == expected
        assert outcome(read, inner)[::2] == (RowError, 2)


def network_bytes(net: netdiff.ManagerNetwork) -> int:
    """What a network holds: 12 bytes per kept cell plus ``indptr``."""
    assert net.cols.itemsize + net.data.itemsize == 12
    return net.indptr.nbytes + net.cols.nbytes + net.data.nbytes


def test_reader_memory_is_the_result_plus_a_block(tmp_path):
    # The kept cells of each block are appended, then joined: the network
    # beside the blocks it is joined from, and one block's work.
    n = 1100
    path = tmp_path / "net.csv"
    netdiff.write_network_csv(path, netdiff.generate_random_network(n, 0.05, seed=3))
    net, peak = traced_peak(netdiff.read_network_csv, path)
    assert net.n == n
    assert peak <= 2 * network_bytes(net)


def test_reader_memory_beyond_the_matrix_is_a_few_blocks(tmp_path):
    # Beyond the network: one copy of a block's text, its masks of a byte
    # per byte, and eight bytes per byte of the cells other than "0.0"
    # (about 1.7 blocks at this density), 4.2 blocks in all.  Reading the
    # block as lines of text, then joined and encoded, took 6.3.
    n = 1100
    path = tmp_path / "net.csv"
    netdiff.write_network_csv(path, netdiff.generate_random_network(n, 0.05, seed=3))
    net, peak = traced_peak(netdiff.read_network_csv, path)
    assert net.n == n
    assert peak - network_bytes(net) <= 5 * netdiff._BLOCK


def test_piped_reader_memory_is_at_most_twice_the_result_plus_a_block(tmp_path):
    # A pipe reads like a file: no row count to bound, nothing to grow.
    n = 1100
    path = tmp_path / "net.csv"
    netdiff.write_network_csv(path, netdiff.generate_random_network(n, 0.05, seed=3))
    net, peak = traced_peak(through_a_pipe(netdiff.read_network_csv), path)
    assert net.w.tobytes() == netdiff.read_network_csv(path).w.tobytes()
    assert peak <= 2 * network_bytes(net) + netdiff._BLOCK


@pytest.mark.parametrize("source", ["read", "generate"])
def test_a_full_network_costs_one_and_a_half_dense_matrices(tmp_path, source):
    # At density 1 every off-diagonal cell is kept, at 12 bytes against the
    # dense matrix's 8.  Joining the weights holds them twice for a moment.
    n = 1000
    net = netdiff.generate_random_network(n, 1.0, seed=3)
    if source == "read":
        path = tmp_path / "net.csv"
        netdiff.write_network_csv(path, net)
        net, peak = traced_peak(netdiff.read_network_csv, path)
        work = 5 * netdiff._BLOCK
    else:
        net, peak = traced_peak(netdiff.generate_random_network, n, 1.0, 3)
        work = 1.5 * 2 ** 20
    assert net.data.size == n * (n - 1)
    assert network_bytes(net) <= 1.5 * n * n * 8 + 8 * (n + 1)
    assert peak <= network_bytes(net) + net.data.nbytes + work


def test_one_long_line_allocates_one_row(tmp_path):
    # The reader keeps only the cells other than 0.0, so one row of 200 000
    # cells allocates no 200 000 rows.
    path = tmp_path / "line.csv"
    path.write_text(",".join(["0.0"] * 200_000) + "\n")
    err, peak = traced_peak(pytest.raises, DimensionError,
                            netdiff.read_network_csv, path)
    assert str(err.value) == "network must be square, got shape (1, 200000)"
    assert peak <= 12 * 2 ** 20


@pytest.mark.parametrize("block", [7, 2 ** 17])
def test_more_rows_than_columns_names_the_shape(tmp_path, monkeypatch, block):
    monkeypatch.setattr(netdiff, "_BLOCK", block)
    path = tmp_path / "tall.csv"
    path.write_text("0.0,0.5\n" * 7 + "0.25,0.0\n")
    with pytest.raises(DimensionError) as err:
        netdiff.read_network_csv(path)
    assert str(err.value) == "network must be square, got shape (8, 2)"
    path.write_text("0.0,0.5\n" * 7 + "0.25,x\n")  # a fault past the square
    with pytest.raises(RowError) as err:
        netdiff.read_network_csv(path)
    assert err.value.line == 8


# -- row-blocked kernels against the whole-matrix code ------------------------

def reference_hearing_matrix(net: netdiff.ManagerNetwork, T: int) -> np.ndarray:
    """The whole-matrix loop: every power of w formed in full."""
    w = net.w
    power = w.copy()
    total = w.copy()
    with np.errstate(over="ignore"):
        for t in range(2, T + 1):
            power = power @ w
            if not np.isfinite(power).all():
                raise OverflowError(
                    f"hearing matrix left the finite float range at term t={t}")
            total += power
    return total


def reference_generate_random_network(n: int, density: float, seed: int) -> np.ndarray:
    """The whole-matrix generator: every gate uniform kept as a float."""
    rng = np.random.default_rng(seed)
    gate = rng.random((n, n))
    weights = 1.0 - rng.random((n, n))  # uniform on (0, 1]
    w = np.where(gate < density, weights, 0.0)
    np.fill_diagonal(w, 0.0)
    return w


@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 40), density=st.sampled_from([0.0, 0.05, 0.3, 0.5, 1.0]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_generator_matches_whole_matrix_reference(n, density, seed):
    got = netdiff.generate_random_network(n, density, seed).w
    assert got.tobytes() == reference_generate_random_network(n, density, seed).tobytes()


@pytest.mark.parametrize("n, density", [(1025, 0.1), (1500, 0.3), (2000, 0.01)])
def test_generator_matches_reference_over_several_row_blocks(n, density):
    rows = netdiff._block_rows(n)  # the generator's block
    assert n > rows and n % rows != 0  # several blocks, the last one short
    got = netdiff.generate_random_network(n, density, seed=n).w
    assert got.tobytes() == reference_generate_random_network(n, density, n).tobytes()


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 30), T=st.integers(1, 6), seed=st.integers(0, 2 ** 16))
def test_hearing_matches_whole_matrix_reference_bitwise(n, T, seed):
    net = netdiff.generate_random_network(n, 0.4, seed)
    assert np.array_equal(netdiff.hearing_matrix(net, T),
                          reference_hearing_matrix(net, T))


def test_hearing_in_one_block_is_bitwise_the_reference():
    n = 362
    assert netdiff._block_rows(n) == n
    net = netdiff.generate_random_network(n, 0.02, seed=5)
    assert np.array_equal(netdiff.hearing_matrix(net, 4),
                          reference_hearing_matrix(net, 4))


@pytest.mark.parametrize("n", [1100, 1500])
def test_hearing_over_row_blocks_matches_the_reference(n):
    # Blocks of _block_rows(n) rows plus a shorter last block; BLAS may sum a
    # block's products in another order than the whole matrix's.
    assert n % netdiff._block_rows(n) != 0
    net = netdiff.generate_random_network(n, 0.02, seed=n)
    got = netdiff.hearing_matrix(net, 4)
    expected = reference_hearing_matrix(net, 4)
    assert np.all(np.abs(got - expected) <= 1e-13 * expected)


def test_hearing_peak_memory_is_the_result_plus_row_blocks():
    # The network holds only its kept cells, so hearing_matrix builds the
    # dense matrix it multiplies by: the network and the call together hold
    # that matrix, the result and row blocks, as when the network held it.
    n, T = 1500, 3
    _, peak = traced_peak(lambda: netdiff.hearing_matrix(
        netdiff.generate_random_network(n, 0.02, seed=1), T))
    assert peak <= 1.05 * (2 * n * n * 8 + 3 * netdiff._block_rows(n) * n * 8)


def test_generator_peak_memory_is_the_matrix_plus_about_a_mebibyte():
    # The network plus one block of draws (1 MiB) and its gate mask.
    n = 1500
    net, peak = traced_peak(netdiff.generate_random_network, n, 0.02, 1)
    assert peak <= network_bytes(net) + 1.5 * 2 ** 20


def test_network_text_peak_memory_is_about_two_texts():
    net = netdiff.generate_random_network(1100, 0.05, seed=2)
    text, peak = traced_peak(lambda: "".join(netdiff.network_csv_chunks(net)))
    assert text == reference_network_csv_text(net)
    assert peak <= 2.2 * len(text)


def whole_network_csv_text(net: netdiff.ManagerNetwork) -> str:
    """The whole-text writer that ``network_csv_chunks`` replaced, verbatim."""
    zeros = ["0.0"] * net.n
    lines = []
    for row in net.w:
        cols = np.flatnonzero((row != 0.0) | np.signbit(row))
        cells = zeros.copy()
        for j, text in zip(cols.tolist(), map(repr, row[cols].tolist())):
            cells[j] = text
        lines.append(",".join(cells))
    lines.append("")  # the final newline, without a second copy of the text
    return "\n".join(lines)


@pytest.mark.parametrize("n", [1, 5, 1100])
def test_network_chunks_join_to_the_whole_text_writer(n, tmp_path):
    w = netdiff.generate_random_network(n, 0.3, seed=n).w.copy()
    w[0, -1] = -0.0
    net = netdiff.validate_network(w)
    chunks = list(netdiff.network_csv_chunks(net))
    rows = netdiff._block_rows(n)
    assert len(chunks) == -(-n // rows)
    assert all(chunk.endswith("\n") for chunk in chunks)
    assert "".join(chunks) == whole_network_csv_text(net)
    netdiff.write_network_csv(tmp_path / "net.csv", net)
    assert (tmp_path / "net.csv").read_bytes() == whole_network_csv_text(net).encode()


def edge_matrix(case: str) -> np.ndarray:
    """A matrix whose nonzero cells sit where the run-length writer turns."""
    if case.startswith("1x1"):
        return np.array([[float(case[4:])]])
    n = 1100
    rows = netdiff._block_rows(n)
    w = (netdiff.generate_random_network(n, 0.3, seed=4).w.copy()
         if case == "dense" else np.zeros((n, n)))
    w[rows:2 * rows] = 0.0  # an all-zero block
    w[0, -1] = -0.0
    w[rows - 1, -1] = 0.5  # the last cell of a block
    w[2 * rows, 0] = 1.0  # the first cell of the block after the zero block
    w[5] = 0.25  # a row without a zero cell
    w[-1, -1] = -0.0  # the last cell of the last block
    return w


@pytest.mark.parametrize("case", ["1x1 0.0", "1x1 -0.0", "1x1 1.0", "sparse", "dense"])
def test_network_chunks_match_the_whole_text_writer_at_the_edges(case):
    net = netdiff.validate_network(edge_matrix(case))
    chunks = list(netdiff.network_csv_chunks(net))
    rows = netdiff._block_rows(net.n)
    assert len(chunks) == -(-net.n // rows)
    assert all(chunk.endswith("\n") for chunk in chunks)
    assert "".join(chunks) == whole_network_csv_text(net)


# 2x2 all-ones: w^t has entries 2^(t-1), so the sum of terms 1..T has entries
# 2^T - 1 and row sums 2^(T+1) - 2.  At T=1023 every entry of the hearing
# matrix is finite but its row sums are not, and at T=1024 the matrix sum
# itself overflows; diffusion_centrality's running sum of row sums leaves
# the float range at t=1023 for both.
@pytest.mark.parametrize("T", [1023, 1024])
def test_overflowing_sums_raise_without_a_warning(T):
    net = netdiff.validate_network(np.ones((2, 2)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for fn in (netdiff.centrality_report, netdiff.diffusion_centrality):
            with pytest.raises(OverflowError, match="finite float range"):
                fn(net, T)


@pytest.mark.parametrize("first", ["pair", "triangle"])
def test_hearing_overflow_names_the_first_term_of_any_block(monkeypatch, first):
    # An all-ones pair overflows at t=1024, an all-ones triangle earlier; in
    # blocks of three rows, whichever block runs first, the triangle's term
    # is the one reported.
    triangle = netdiff.validate_network(np.ones((3, 3)))
    with pytest.raises(OverflowError) as alone:
        netdiff.hearing_matrix(triangle, 2000)
    w = np.zeros((6, 6))
    pair, clique = (slice(0, 2), slice(3, 6)) if first == "pair" else \
        (slice(4, 6), slice(0, 3))
    w[pair, pair] = 1.0
    w[clique, clique] = 1.0
    monkeypatch.setattr(netdiff, "_block_rows", lambda n: 3)
    with pytest.raises(OverflowError) as blocked:
        netdiff.hearing_matrix(netdiff.validate_network(w), 2000)
    assert str(blocked.value) == str(alone.value)
    assert "t=1024" not in str(alone.value)
