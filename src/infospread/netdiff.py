"""Manager contact networks: validation, leading eigenpairs, hearing
matrices, and diffusion centrality.

The network is an n-by-n matrix w with entries in [0, 1]; w[i, j] is the
relative probability that manager i speaks to manager j.  It is held as its
nonzero (and -0.0) cells in CSR form, and no command forms the dense
matrix.  Centrality over a horizon T sums the walk counts of length 1..T,
so it is computed by repeated multiply-accumulate rather than through an
eigendecomposition: that stays exact on non-diagonalizable matrices and T
is small in practice.  Every row sum and mat-vec adds each row's cells
left to right, so its bits do not depend on the CPU or the BLAS kernel.

All operations are pure functions over immutable inputs and are safe to call
concurrently.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConvergenceError,
    DimensionError,
    EntryRangeError,
    ModelError,
    RowError,
    ZeroMatrixError,
    check,
)

__all__ = [
    "ManagerNetwork",
    "EigenPair",
    "CentralityReport",
    "validate_network",
    "leading_eigenpair",
    "hearing_matrix",
    "diffusion_centrality",
    "centrality_report",
    "generate_random_network",
    "read_network_csv",
    "network_csv_chunks",
    "write_network_csv",
]

# Consecutive iterations without residual improvement before the power
# iteration is declared stalled (periodic / non-primitive input).
_STALL_LIMIT = 50

# Work bound: most cells of a generated network (n * n), and most cells of
# the T walk-count terms of a centrality run (T * n * n).
MAX_CELLS = 100_000_000

# The one memory budget of every blocked pass over a network: cells per
# block (1 MiB of floats), and bytes per read of a network CSV.
_BLOCK = 2 ** 17


def _block_rows(width: int) -> int:
    """Rows of ``width`` cells in a block of about ``_BLOCK`` cells."""
    return max(1, _BLOCK // max(1, width))


@dataclass(frozen=True)
class ManagerNetwork:
    """Validated weighted directed contact network over ``n`` managers,
    held as its kept cells in CSR form: row i's cells are at the columns
    ``cols[indptr[i]:indptr[i + 1]]``, in increasing order, with the
    weights ``data[indptr[i]:indptr[i + 1]]``.  A kept cell is one that is
    nonzero or has its sign bit set (``-0.0``), so the network writes and
    reads back to the same bits; every other cell is 0.0.  The arrays are
    read-only.  A kept cell costs 12 bytes (an int32 column and a float64
    weight) and a row 8, so a network of density d takes 1.5 d times the
    8 n^2 bytes of its dense matrix.

    Diagonal self-weights are accepted by validation (their meaning is
    self-communication) but the random generator always zeroes them.
    """

    n: int
    indptr: np.ndarray
    cols: np.ndarray
    data: np.ndarray

    @property
    def w(self) -> np.ndarray:
        """The dense read-only n-by-n matrix, built anew on each access:
        for ``hearing_matrix`` and for oracles.  No CLI command reads it."""
        w = np.zeros((self.n, self.n))
        w[self.cell_rows(), self.cols] = self.data
        w.setflags(write=False)
        return w

    def cell_rows(self) -> np.ndarray:
        """The row of each kept cell, aligned with ``cols`` and ``data``."""
        return np.repeat(np.arange(self.n), np.diff(self.indptr))


@dataclass(frozen=True)
class EigenPair:
    """Leading eigenvalue and unit-1-norm nonnegative eigenvector."""

    eigenvalue: float
    eigenvector: np.ndarray
    iterations: int
    residual: float


@dataclass(frozen=True)
class CentralityReport:
    """Hearing matrix over horizon ``T`` plus its row sums (centrality)."""

    T: int
    hearing: np.ndarray
    centrality: np.ndarray


def validate_network(raw) -> ManagerNetwork:
    """Validate a square matrix of contact weights and freeze it.

    Raises DimensionError for non-square or empty input and EntryRangeError
    for entries outside [0, 1] or non-finite values.
    """
    try:
        w = np.array(raw, dtype=float)
    except (TypeError, ValueError) as exc:
        raise EntryRangeError(f"network entries must be real numbers: {exc}") from None
    if w.ndim != 2:
        raise DimensionError(f"network must be a 2-d matrix, got ndim={w.ndim}")
    if w.shape[0] != w.shape[1]:
        raise DimensionError(f"network must be square, got shape {w.shape}")
    if w.shape[0] < 1:
        raise DimensionError("network needs at least one node")
    kept = (w != 0.0) | np.signbit(w)
    return _own_network(np.count_nonzero(kept, axis=1),
                        np.nonzero(kept)[1].astype(np.int32), w[kept])


def _own_network(counts: np.ndarray, cols: np.ndarray,
                 data: np.ndarray) -> ManagerNetwork:
    """The network whose row i has ``counts[i]`` kept cells, their int32
    columns ``cols`` and weights ``data`` in row-major order: arrays that
    nothing else refers to, so they are checked and frozen in place.
    Raises EntryRangeError naming the first weight outside [0, 1]."""
    indptr = np.zeros(counts.size + 1, dtype=np.intp)
    np.cumsum(counts, out=indptr[1:])
    # NaN fails both comparisons and an infinity one, so the mask is only
    # built to name the first bad entry.
    if not (data.min(initial=0.0) >= 0.0 and data.max(initial=0.0) <= 1.0):
        k = int(np.flatnonzero(~((data >= 0.0) & (data <= 1.0)))[0])
        i = int(np.searchsorted(indptr, k, side="right")) - 1
        raise EntryRangeError(
            f"entry w[{i},{int(cols[k])}]={data[k]!r} outside [0, 1] or non-finite"
        )
    for a in (indptr, cols, data):
        a.setflags(write=False)
    return ManagerNetwork(n=counts.size, indptr=indptr, cols=cols, data=data)


def leading_eigenpair(net: ManagerNetwork, tol: float = 1e-10,
                      max_iter: int = 10000) -> EigenPair:
    """Leading eigenpair by power iteration from the uniform vector.

    The all-ones start (scaled to unit 1-norm) is nonnegative, which
    guarantees convergence to the Perron pair for primitive matrices.  The
    iterate stays nonnegative exactly, and is renormalized to unit 1-norm
    each sweep.  Periodic matrices oscillate instead of converging; that is
    detected as a residual that stops improving and reported as
    ConvergenceError carrying the best iterate seen.
    """
    check(0.0 < tol < math.inf, "tol", tol, "positive and finite")
    check(max_iter >= 1, "max_iter", max_iter, ">= 1")
    if not net.data.any():
        raise ZeroMatrixError("leading eigenpair undefined for the zero matrix")
    rows = net.cell_rows()
    v = np.full(net.n, 1.0 / net.n)
    best_residual = np.inf
    best = None
    stale = 0
    for k in range(1, max_iter + 1):
        wv = _row_sums(rows, net.data * v[net.cols], net.n)
        lam = float(wv.sum())  # 1-norm of a nonnegative vector
        residual = float(np.max(np.abs(wv - lam * v)))
        if residual < best_residual:
            best_residual = residual
            best = (lam, v, k)
            stale = 0
        else:
            stale += 1
        if residual <= tol:
            return EigenPair(eigenvalue=lam, eigenvector=v,
                             iterations=k, residual=residual)
        if stale >= _STALL_LIMIT:
            failure, hint = (f"stalled after {k} sweeps",
                             "; the matrix may be periodic (non-primitive)")
            break
        v = wv / lam
    else:
        failure, hint = f"did not reach tol={tol:g} within {max_iter} sweeps", ""
    lam_b, v_b, k_b = best
    raise ConvergenceError(
        f"power iteration {failure} (best residual {best_residual:.3e}){hint}",
        eigenvalue=lam_b, eigenvector=v_b,
        residual=best_residual, iterations=k_b)


def hearing_matrix(net: ManagerNetwork, T: int) -> np.ndarray:
    """Sum of the walk-count matrices w^t for t = 1..T.

    Entry (i, j) is the expected number of times, within T periods, that
    manager j hears an item originating from manager i.  Computed by
    repeated multiply-accumulate on the dense w, a block of rows of about
    ``_BLOCK`` cells at a time (row i of w^t is row i of w^(t-1) times w),
    so only w, the result and two row blocks are alive.  The oracle of the
    centrality tests; no command calls it.  Raises the builtin
    OverflowError with the first term index at which an entry of the sum
    leaves the finite float range.
    """
    T = _horizon(T, net.n)
    w = net.w
    total = w.copy()
    rows = _block_rows(net.n)
    overflow = T + 1  # first term at which some block left the float range
    with np.errstate(over="ignore"):
        for a in range(0, net.n, rows):
            power = w[a:a + rows]
            block = total[a:a + rows]
            # Entries are nonnegative, so the running sum is at least every
            # term: one finiteness check on it covers both.
            for t in range(2, overflow):
                power = power @ w
                block += power
                if not np.isfinite(block).all():
                    overflow = t
                    break
    if overflow <= T:
        raise OverflowError(
            f"hearing matrix left the finite float range at term t={overflow}")
    return total


def diffusion_centrality(net: ManagerNetwork, T: int) -> np.ndarray:
    """Row sums of the hearing matrix: expected total hearings per source.

    Computed as the sum of the walk-count vectors w^t 1 for t = 1..T, by T-1
    mat-vecs from the row sums of w, so the hearing matrix is never formed.
    Every row sum adds the row's kept cells left to right, so the horizon-1
    result is each row's cells added in column order, on every CPU.  Raises
    the builtin OverflowError with the first term index at which an entry
    of the sum leaves the finite float range.
    """
    T = _horizon(T, net.n)
    rows = net.cell_rows()
    walks = _row_sums(rows, net.data, net.n)
    total = walks.copy()
    with np.errstate(over="ignore"):
        for t in range(2, T + 1):
            walks = _row_sums(rows, net.data * walks[net.cols], net.n)
            total += walks  # at least every term, since entries are >= 0
            if not np.isfinite(total).all():
                raise OverflowError(
                    f"diffusion centrality left the finite float range at term t={t}")
    return total


def _row_sums(rows: np.ndarray, cells: np.ndarray, n: int) -> np.ndarray:
    """Each of the n rows' sum of ``cells``, one value per kept cell of a
    network whose ``cell_rows()`` are ``rows``.  ``np.bincount`` adds in a
    plain C loop, cell by cell in CSR order, so every row is added left to
    right from 0.0 whatever the CPU; ``np.add.reduceat`` would not start at
    0.0, nor give 0.0 for an empty row."""
    # bincount returns integer zeros when there are no cells at all.
    return np.bincount(rows, weights=cells, minlength=n).astype(float, copy=False)


def _horizon(T, n: int) -> int:
    # NaN and inf fail the range test before int() could raise on them.
    check(1 <= T < math.inf and int(T) == T, "horizon", T, "an integer >= 1")
    check(T * n * n <= MAX_CELLS, "horizon", T,
          f"such that horizon*n*n <= MAX_CELLS = {MAX_CELLS} (n = {n})")
    return int(T)


def centrality_report(net: ManagerNetwork, T: int) -> CentralityReport:
    """Hearing matrix and its row sums bundled together.  Raises the builtin
    OverflowError if a row sum leaves the finite float range."""
    hearing = hearing_matrix(net, T)
    with np.errstate(over="ignore"):
        centrality = hearing.sum(axis=1)
    if not np.isfinite(centrality).all():
        raise OverflowError(
            f"hearing matrix row sums left the finite float range at horizon T={int(T)}")
    return CentralityReport(T=int(T), hearing=hearing, centrality=centrality)


def generate_random_network(n: int, density: float, seed: int) -> ManagerNetwork:
    """Random network: each off-diagonal entry is independently nonzero with
    probability ``density``, with weight uniform on (0, 1].  The diagonal is
    zero.  Deterministic for fixed (n, density, seed).

    Draw contract (keep it, or networks for a given seed change): the
    seed's PCG64 stream is read by ``random``, one 64-bit draw per double.
    Gate uniform k (cell k in row-major order) is draw k, and the uniform
    u of weight (i, j) is draw n*n + i*n + j; the cell is ``1 - u`` where
    its gate is below ``density``, else 0.  The draws are taken a block of
    ``_BLOCK`` cells (1 MiB) of rows at a time, the weights' from a second
    generator advanced past the gates, and only each block's kept cells
    are appended to the network, so the network and one block of draws are
    alive.
    """
    check(n >= 1, "n", n, ">= 1")
    check(n * n <= MAX_CELLS, "n", n, f"such that n*n <= MAX_CELLS = {MAX_CELLS}")
    check(0.0 <= density <= 1.0, "density", density, "in [0, 1]")
    gates = np.random.default_rng(seed)
    uniforms = np.random.default_rng(seed)
    uniforms.bit_generator.advance(n * n)
    parts = [], [], []
    rows = _block_rows(n)
    draws = np.empty(min(rows, n) * n)
    for a in range(0, n, rows):
        block = draws[:min(rows, n - a) * n]
        gates.random(out=block)
        opens = block < density
        local = np.arange(block.size // n)
        opens.reshape(-1, n)[local, a + local] = False  # the diagonal is zero
        cells = np.flatnonzero(opens)
        uniforms.random(out=block)
        _append_rows(parts, local.size, n, cells, np.subtract(1.0, block[cells]))
    del draws, block
    return _own_network(*map(_joined, parts))


def _append_rows(parts, rows: int, width: int, cells: np.ndarray,
                 values: np.ndarray) -> None:
    """Append to the lists ``parts`` = (counts, cols, data) a block of
    ``rows`` rows of ``width`` cells whose cells at the increasing
    row-major indices ``cells`` hold ``values`` and all others 0.0: each
    row's count of kept cells, and their int32 columns and weights."""
    kept = (values != 0.0) | np.signbit(values)
    row, col = np.divmod(cells[kept], width)
    counts, cols, data = parts
    counts.append(np.bincount(row, minlength=rows))
    cols.append(col.astype(np.int32))
    data.append(values[kept])


def _joined(blocks: list) -> np.ndarray:
    """The arrays ``blocks`` joined into one, and the list emptied, so that
    joining (counts, cols, data) in turn holds one joined part at a time
    beside the blocks."""
    whole = np.concatenate(blocks)
    blocks.clear()
    return whole


def read_network_csv(path) -> ManagerNetwork:
    """Read a headerless n-by-n CSV weight matrix.

    Syntax: one matrix row per line, cells separated by commas, each cell a
    decimal or exponent float literal that ``numpy.loadtxt`` accepts, with
    optional spaces around it.  Empty lines are skipped, LF, CRLF and CR
    line endings are all accepted, and the file must be UTF-8.  There are
    no comment lines, and quotes and ``_`` digit separators are rejected.

    Raises DimensionError for a file with no rows.  Otherwise the first
    faulty line in file order decides, its number counted from 1 as text
    mode counts lines: RowError for text that is not UTF-8 or a cell that
    is not a number (with numpy's reason and column), and DimensionError
    for a row whose width differs from the first row's.  A matrix read
    whole goes through the checks of ``validate_network``.  The file is
    read once, front to back, so a pipe reads like a file.

    Cost: the file is read as bytes, ``_BLOCK`` (128 KiB) at a time,
    and each read's whole lines make a block; only a read that holds a CR
    takes a pass to make CRLF and CR line ends LF.  About a dozen numpy
    passes over a block's bytes find the "0.0" cells between two commas.
    Only the other cells' bytes are indexed, and only they go through
    numpy's float parser, so there is no Python work per cell.  On a
    2-core x86-64 host a 16.6 MB file (n=2000, density 0.01) reads in about
    40 ms: about a third of it the float parser on its 42k cells, a third
    the masks, a sixth the kept bytes' positions.  Memory: each block's
    kept cells are appended to the network (rows past the n-th are
    checked but not kept).  Beside them the read holds a few blocks, since
    the block's masks take a byte per byte and the kept bytes' positions
    eight bytes per kept byte: 4.2 blocks at density 0.05.  At its end the
    weights are joined from their blocks, 8 bytes per kept cell more.  A
    pipe reads the same way.
    """
    width = None
    rows = 0
    line = 1  # the file line the next block starts on
    parts = [], [], []
    with open(path, "rb") as fh:
        for data, end in _line_blocks(fh):
            if width is None:
                first = re.match(rb"\n*", data).end()
                if first == end:  # empty lines only
                    line += end
                    continue
                width = data.count(b",", first, data.index(b"\n", first)) + 1
            try:
                lines, count, cells, values = _block_cells(
                    np.frombuffer(data, np.uint8, end), width)
            except ValueError as exc:
                raise _first_fault(data[:end], line, width, exc) from None
            line += lines
            if count and rows < width:  # past that the file is not square
                _append_rows(parts, count, width, cells, values)
            rows += count
    if width is None:
        raise DimensionError("network needs at least one node")
    if rows != width:
        raise DimensionError(f"network must be square, got shape {(rows, width)}")
    del data, cells, values  # the last block, before the network is joined
    return _own_network(*map(_joined, parts))


def _line_blocks(fh):
    """The lines of the binary file ``fh`` in blocks, each the whole lines
    that a read of ``_BLOCK`` bytes completes, as text mode reads them:
    CRLF and CR line ends become LF, the last line ends in LF, and a UTF-8
    byte-order mark that starts the file, a signature, is dropped.  Yields
    (data, end) with the block in ``data[:end]``, so that it is not copied."""
    rest = []  # the unfinished line, in pieces
    held = b""  # a CR that ended a read: the next may start with its LF
    mark = b"\xef\xbb\xbf"  # looked for at the start of the first read only
    while data := fh.read(_BLOCK):
        data, held, mark = (held + data).removeprefix(mark), b"", b""
        if b"\r" in data:
            if data.endswith(b"\r"):
                data, held = data[:-1], b"\r"
            data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
        end = data.rfind(b"\n") + 1
        if not end:
            rest.append(data)
            continue
        if rest:
            rest.append(data)
            data = b"".join(rest)
            end += len(data) - len(rest[-1])
        rest = [data[end:]] if end < len(data) else []
        yield data, end
    if rest or held:
        data = b"".join(rest) + b"\n"
        yield data, len(data)


def _block_cells(a: np.ndarray, width: int):
    """(lines, rows, cells, values) of the bytes ``a``: ``lines`` lines that
    each end in LF, ``rows`` of them not empty, each of ``width`` cells.
    ``cells`` are the row-major indices, among those rows, of the cells
    other than a "0.0" between two commas, and ``values`` their floats.
    Raises ValueError for a ragged row or a cell that is not a number.

    Only the kept cells' bytes are indexed.  Every other byte is in a
    4-byte "0.0" cell, so a kept cell that ends at byte p, after k kept
    bytes and j kept cells, is cell (p - k) / 4 + j."""
    comma = a == 44
    digit = a == 48
    # zero[i]: bytes i-4..i are ",0.0,", so i ends a "0.0" cell.
    zero = np.empty(a.size, bool)
    zero[:4] = False
    np.logical_and(comma[4:], comma[:-4], out=zero[4:])
    del comma
    zero[4:] &= digit[1:-3]
    zero[4:] &= digit[3:-1]
    del digit
    zero[4:] &= a[2:-2] == 46
    zero[:-1] |= zero[1:]
    zero[:-2] |= zero[2:]  # now every byte of those cells
    at = np.flatnonzero(np.logical_not(zero, out=zero))  # the kept bytes
    del zero
    kept = a[at]
    ends = np.flatnonzero((kept == 44) | (kept == 10))  # k of each kept cell
    # A "0.0" cell is kept unless a comma follows it, so every LF ends a
    # kept cell, the last of its line.  An empty line's LF follows an LF, or
    # starts the block, whose last byte is an LF.
    last = kept[ends] == 10
    lf = ends[last]
    empty = lf[kept[lf - 1] == 10]
    if empty.size:
        if empty.size == lf.size:
            return lf.size, 0, np.empty(0, np.intp), ()
        lines, rows, cells, values = _block_cells(np.delete(a, at[empty]), width)
        return lines + empty.size, rows, cells, values
    cells = at[ends]  # p of each kept cell
    del at
    cells -= ends
    cells //= 4
    cells += np.arange(ends.size)
    if not np.array_equal(cells[last],
                          np.arange(width - 1, width * lf.size, width)):
        raise ValueError("a row's width differs from the first row's")
    # The kept cells, each with its end byte, made one line for numpy; an
    # undecodable byte becomes a lone surrogate there: not a number.
    kept[ends] = 44
    text = kept[:-1].tobytes().decode("utf-8", "surrogateescape")
    return lf.size, lf.size, cells, np.loadtxt([text], delimiter=",",
                                               comments=None, ndmin=1)


def _first_fault(text: bytes, start: int, width: int, exc: ValueError) -> ModelError:
    """The error of the first faulty line of ``text`` (lines that end in
    LF, the file's last perhaps not, the first of them file line ``start``,
    in a block that ``_block_cells`` rejected with ``exc``): not UTF-8, a
    row of other than ``width`` cells, or a cell that is not a number.  If
    no line is at fault, ``exc`` as an EntryRangeError."""
    for lineno, line in enumerate(text.splitlines(keepends=True), start=start):
        if line == b"\n":
            continue
        try:
            line = line.decode()
        except UnicodeDecodeError:
            return RowError(f"line {lineno}: text is not UTF-8", line=lineno)
        cells = line.count(",") + 1
        if cells != width:
            return DimensionError(
                f"line {lineno}: ragged row of width {cells}, expected {width}")
        try:
            np.loadtxt([line], delimiter=",", comments=None)
        except ValueError as cell:
            reason = str(cell).replace(" at row 0, column ", " at column ")
            return RowError(f"line {lineno}: {reason}", line=lineno)
    return EntryRangeError(f"network CSV: {exc}")


def network_csv_chunks(net: ManagerNetwork):
    """Headerless CSV text of a network, one row per line, in blocks of
    rows of about ``_BLOCK`` cells each (512 KiB of text when most cells
    are zero); every block ends in a newline.

    Each cell is ``repr`` of the float, so the text reads back to the same
    bits.  Only the kept cells (nonzero or ``-0.0``) are formatted one by
    one; the text between them is cut from one string of the block with
    every cell "0.0".  So the Python work is per kept cell, and the memory
    is the network plus about two blocks of text.
    """
    n = net.n
    zeros = "0.0," * (n - 1) + "0.0\n"
    rows = _block_rows(n)
    for a in range(0, n, rows):
        ends = net.indptr[a:a + rows + 1]
        first, last = int(ends[0]), int(ends[-1])
        # Row-major index of each kept cell in the block.
        cells = np.repeat(np.arange(0, n * (ends.size - 1), n), np.diff(ends))
        cells += net.cols[first:last]
        # Cell k of the block is text[4k:4k + 3], its comma or LF text[4k + 3].
        text = zeros * (ends.size - 1)
        cuts = [0, *np.add.outer(4 * cells, (0, 3)).ravel().tolist(), len(text)]
        parts = [None] * (2 * cells.size + 1)
        parts[0::2] = [text[i:j] for i, j in zip(cuts[0::2], cuts[1::2])]
        del text
        parts[1::2] = map(repr, net.data[first:last].tolist())
        yield "".join(parts)


def write_network_csv(path, net: ManagerNetwork) -> None:
    """Write a network as headerless UTF-8 CSV with round-trip float
    precision, a block of rows at a time."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.writelines(network_csv_chunks(net))
