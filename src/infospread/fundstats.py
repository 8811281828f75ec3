"""Fund record ingestion and grouped summary reports.

The CSV contract is strict: an exact header row
fund_id,family,province,category,manager_race,manager_gender,assets,performance
(a comment row, whose first cell starts with '#' after any spaces, and a
blank row are skipped wherever they stand, so bundled fixtures can
document themselves), provinces from a closed list, enumerated
race/gender values, and nonnegative assets.  Every rejected row reports
the file line it starts on, also after a quoted field that spans lines.
The file is read in one pass over one handle, so it may be a pipe.  After
the header, blocks of whole lines that hold no quote and no comment row are
split at commas with str methods and checked in bulk, and only a block that
fails is checked row by row to name its first faulty row; from the first
block that needs the csv module on, csv.reader splits the rest and each of
its rows is checked as it is read.  Both give the same records and errors.
Records are read into a ``FundTable``, one list per field, and the reports
read its columns.

Summary statistics stream through Welford accumulation; records are put in
a canonical order first and asset totals use exact summation, so shuffling
the input changes no output value.  The sample standard deviation (n - 1
denominator) is reported.

Published reference tables ship alongside (see data/reference_tables.json)
for side-by-side display only; their raw source data is unavailable, so
they are never used as oracles.
"""

from __future__ import annotations

import csv
import importlib.resources
import io
import json
import math
from collections import defaultdict
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import chain
from operator import attrgetter
from typing import NamedTuple

from .errors import RowError, SchemaError, UnknownFieldError

__all__ = [
    "PROVINCES",
    "RACES",
    "GENDERS",
    "CSV_COLUMNS",
    "FundRecord",
    "FundTable",
    "SummaryRow",
    "ProvinceRow",
    "DemographicsRow",
    "ingest_csv",
    "summarize",
    "province_report",
    "demographics_report",
    "bundled_fixture_path",
    "load_reference_tables",
]

PROVINCES = ("Gauteng", "N.Cape", "W.Cape", "KZN", "Limpopo",
             "North West", "Mpungalanga", "Free State")
RACES = ("black", "white", "other/unknown")
GENDERS = ("M", "F", "unknown")
CSV_COLUMNS = ("fund_id", "family", "province", "category",
               "manager_race", "manager_gender", "assets", "performance")

_NUMERIC_FIELDS = ("assets", "performance")


class FundRecord(NamedTuple):
    fund_id: str
    family: str
    province: str
    category: str
    manager_race: str
    manager_gender: str
    assets: float
    performance: float


_FIELD_NAMES = frozenset(FundRecord._fields)


@dataclass(frozen=True)
class SummaryRow:
    """Per-group statistics; std is the sample (n - 1) estimator, 0 for a
    single-record group."""

    group: str
    count: int
    mean: float
    std: float
    min: float
    max: float


@dataclass(frozen=True)
class ProvinceRow:
    province: str
    family_count: int
    fund_count: int
    pct_of_funds: float
    pct_of_assets: float


@dataclass(frozen=True)
class DemographicsRow:
    manager_race: str
    manager_gender: str
    fund_count: int
    pct_of_funds: float
    pct_of_assets: float


class FundTable(Sequence):
    """Fund records held as columns: one list per name in ``CSV_COLUMNS``,
    each an attribute of that name.

    As a sequence it holds ``FundRecord``s: ``len`` counts rows, an index
    builds that row's record, and a slice is a list of records.
    """

    __slots__ = CSV_COLUMNS

    def __init__(self, *columns):
        for name, column in zip(CSV_COLUMNS, columns, strict=True):
            setattr(self, name, column)

    @classmethod
    def from_records(cls, records) -> FundTable:
        """The columns of an iterable of records (anything with the
        ``FundRecord`` field names as attributes); a table is returned as is."""
        if isinstance(records, cls):
            return records
        columns = [list(column) for column in zip(*map(_RECORD_VALUES, records))]
        return cls(*columns) if columns else cls(*([] for _ in CSV_COLUMNS))

    def _columns(self):
        return [getattr(self, name) for name in CSV_COLUMNS]

    def __len__(self) -> int:
        return len(self.fund_id)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return list(map(FundRecord._make,
                            zip(*(column[index] for column in self._columns()))))
        return tuple.__new__(FundRecord, [column[index] for column in self._columns()])

    def __iter__(self):
        return map(FundRecord._make, zip(*self._columns()))


_RECORD_VALUES = attrgetter(*CSV_COLUMNS)
_WIDTH = len(CSV_COLUMNS)
# Characters read at a time after the header.  A block is a read's whole
# lines and the unfinished line of the read before, so it stays under the
# csv module's default field size limit (131072) and its cells need no
# length check.
_READ_CHARS = 2 ** 16
# Each enumerated value mapped to the package's own string, so every row
# shares it and a lookup validates the value.
_PROVINCE_OF = {p: p for p in PROVINCES}
_RACE_OF = {r: r for r in RACES}
_GENDER_OF = {g: g for g in GENDERS}


def ingest_csv(path) -> FundTable:
    """Read and validate fund records into a ``FundTable``; empty data is an
    empty table.

    The file is opened once and read once, so ``path`` may be a pipe.  The
    csv module reads the lines through the header.  After it the file is
    read ``_READ_CHARS`` characters at a time, and each read's whole lines
    make a block.  A block that csv.reader would split at its commas alone
    (no quote, no CR but those of CRLF, eight cells on every line, none over
    the field size limit) and that holds no comment row is split with str
    methods and checked in bulk; if that check fails, its rows are checked
    one by one in file order, so the first faulty row is reported with the
    same error and line as a row-by-row read.  The first block that is not,
    or a read with no line end, hands the rest of the file, from that
    block's first line on, to csv.reader, which checks each row as it reads
    it.  A row's line is the file line it starts on.  The file must be
    UTF-8: a row holding bytes that are not, a NUL character, or text the
    csv module cannot split (a field over its size limit), is a RowError
    naming its line, or a SchemaError if no header came before it.

    Cost: a quote-free block takes a ``str.replace`` and a ``str.split``
    (one more ``str.replace`` if it holds a CR), and a count over every
    ninth cell checks its widths, so no Python code runs per row.  On a
    2-core x86-64 host the benchmark's 50k-row file (3.3 MB) reads in about
    57 ms (medians of 15 interleaved calls in one process); about 15 ms of
    it is the split and 25 ms the bulk checks, float parsing most of that.
    csv.reader's rows each run Python code: a 50k-row file like it, its
    first row quoted, reads in 116-137 ms (medians of 9 calls), twice the
    time.  Memory: beside the table the read holds one block, its text and
    its cells, or one csv.reader row: 0.5-0.6 MiB or 0.28 MiB at 20k to 80k
    rows.
    """
    columns = [[] for _ in CSV_COLUMNS]
    # surrogateescape decodes every byte, so an undecodable one is named by
    # the row that holds it.
    with open(path, encoding="utf-8", errors="surrogateescape", newline="") as fh:
        first = _read_header(csv.reader(fh)) + 1  # the line of the next row
        first, rest = _read_blocks(fh, columns, first)
        _read_rows(csv.reader(rest), columns, first)
    return FundTable(*columns)


def _read_blocks(fh, columns: list, first: int):
    """Append the rows of ``fh``'s quote-free blocks to the columns, the
    first on line ``first``.  Returns the line of the next row, and the
    lines from it on: what is left of the file, as ``fh`` would give them."""
    limit = csv.field_size_limit()
    text = ""  # the unfinished line
    while end := (data := fh.read(_READ_CHARS)).rfind("\n") + 1:
        block, text = text + data[:end], data[end:]
        cells = _block_cells(block, limit)
        if cells is None:
            text = block + text
            break
        _append_block(columns, cells, first)
        first += len(cells) // _WIDTH
        del data, block, cells  # so that one block at a time is held
    else:
        text += data
    # The unfinished line is completed from fh, so that every line handed on
    # starts and ends where fh's own would.
    return first, chain(io.StringIO(text + fh.readline(), newline=""), fh)


def _block_cells(block: str, limit: int):
    """The cells of a block of whole lines, row after row, if csv.reader
    would split it at its commas alone (no quote, no CR but those of CRLF,
    ``_WIDTH`` cells on every line and none over ``limit`` characters) and
    it holds no comment row.  Otherwise None."""
    if '"' in block:
        return None
    if "\r" in block:
        block = block.replace("\r\n", "\n")
        if "\r" in block:
            return None
    # Each line's cells, then "\n" as a cell of its own, then "" at the end:
    # every line has _WIDTH cells iff each (_WIDTH + 1)-th cell is a "\n".
    cells = block.replace("\n", ",\n,").split(",")
    rows, extra = divmod(len(cells), _WIDTH + 1)
    if extra != 1 or cells[_WIDTH::_WIDTH + 1].count("\n") != rows:
        return None
    if "#" in "".join(firsts := cells[::_WIDTH + 1]) and any(map(_is_comment, firsts)):
        return None
    if len(block) > limit and max(map(len, cells)) > limit:
        return None
    del cells[_WIDTH::_WIDTH + 1]
    cells.pop()
    return cells


def _read_rows(reader, columns: list, first: int) -> None:
    """Check the rows of a csv.reader one at a time, the first on line
    ``first``, and append each record to the columns."""
    appends = [column.append for column in columns]
    lineno = first
    try:
        for row in reader:
            record = _check_row(row, lineno)
            if record is not None:
                for append, value in zip(appends, record):
                    append(value)
            lineno = first + reader.line_num
    except csv.Error as exc:
        raise RowError(f"line {lineno}: {exc}", line=lineno) from None


def _is_comment(cell: str) -> bool:
    """Whether a row's first cell makes it a comment row."""
    return cell.lstrip().startswith("#")


def _check_text(text: str, lineno: int) -> None:
    """Raise RowError if a row's text holds a NUL character or an escaped
    byte that is not UTF-8."""
    if "\x00" in text:
        raise RowError(f"line {lineno}: line contains NUL", line=lineno)
    if not text.isascii():
        try:
            text.encode()  # an escaped byte is a lone surrogate: no UTF-8
        except UnicodeEncodeError:
            raise RowError(f"line {lineno}: text is not UTF-8", line=lineno) from None


def _read_header(reader) -> int:
    """Consume rows through the header row, check it, and return its last
    line.  A row that cannot be read before the header is a SchemaError."""
    lineno = 1  # the line the next row starts on
    try:
        for row in reader:
            _check_text("".join(row), lineno)
            if row and not _is_comment(row[0]):
                header = tuple(cell.strip() for cell in row)
                if header != CSV_COLUMNS:
                    raise SchemaError(f"header {header} does not match required "
                                      f"schema {CSV_COLUMNS}")
                return reader.line_num
            lineno = reader.line_num + 1
    except csv.Error as exc:
        raise SchemaError(f"line {lineno}: {exc}") from None
    except RowError as exc:
        raise SchemaError(str(exc)) from None
    raise SchemaError("file has no header row")


def _check_row(row, lineno: int):
    """The record of a row, or None for a blank or comment row.  Raise the
    RowError of a faulty row: its text first, then, unless it is a blank or
    comment row, its fields."""
    _check_text("".join(row), lineno)
    if not row or _is_comment(row[0]):
        return None
    if len(row) != len(CSV_COLUMNS):
        raise RowError(f"line {lineno}: expected {len(CSV_COLUMNS)} fields, "
                       f"got {len(row)}", line=lineno)
    fund_id, family, province, category, race, gender, assets_s, perf_s = row
    if province not in _PROVINCE_OF:
        raise RowError(f"line {lineno}: unknown province {province!r}", line=lineno)
    if race not in _RACE_OF:
        raise RowError(f"line {lineno}: unknown manager_race {race!r}", line=lineno)
    if gender not in _GENDER_OF:
        raise RowError(f"line {lineno}: unknown manager_gender {gender!r}",
                       line=lineno)
    try:
        assets = float(assets_s)
        performance = float(perf_s)
    except ValueError:
        raise RowError(f"line {lineno}: non-numeric assets/performance",
                       line=lineno) from None
    if not math.isfinite(assets) or not math.isfinite(performance):
        raise RowError(f"line {lineno}: non-finite assets/performance",
                       line=lineno)
    if assets < 0:
        raise RowError(f"line {lineno}: negative assets {assets!r}", line=lineno)
    return (fund_id, family, _PROVINCE_OF[province], category, _RACE_OF[race],
            _GENDER_OF[gender], assets, performance)


def _append_block(columns: list, cells: list, first: int) -> None:
    """Check the rows of a block's flat cell list all at once, the first on
    line ``first``, and append them to the columns.  If any row is faulty,
    raise the first one's RowError, appending nothing."""
    parts = [cells[k::_WIDTH] for k in range(_WIDTH)]
    try:
        # A NUL or escaped byte in a column that a lookup or float() checks
        # fails that check, so the text check needs only the free-text columns.
        _check_text("".join([*parts[0], *parts[1], *parts[3]]), first)
        parts[2] = list(map(_PROVINCE_OF.__getitem__, parts[2]))
        parts[4] = list(map(_RACE_OF.__getitem__, parts[4]))
        parts[5] = list(map(_GENDER_OF.__getitem__, parts[5]))
        assets = parts[6] = list(map(float, parts[6]))
        performance = parts[7] = list(map(float, parts[7]))
    except (RowError, KeyError, ValueError):
        pass
    else:
        if (all(map(math.isfinite, assets)) and all(map(math.isfinite, performance))
                and (not assets or min(assets) >= 0)):
            for column, part in zip(columns, parts):
                column.extend(part)
            return
    for lineno, row in enumerate(zip(*[iter(cells)] * _WIDTH), start=first):
        _check_row(row, lineno)
    raise AssertionError(f"line {first}: a block failed with no faulty row")


def summarize(records, group_by: str, value: str) -> list[SummaryRow]:
    """Per-group mean/std/min/max/count of a numeric field.

    Streams each group through Welford accumulation after canonical
    ordering, so the result is independent of input order.  Both field
    names are checked before any record is read.
    """
    if value not in _NUMERIC_FIELDS:
        raise UnknownFieldError(
            f"value field must be numeric ({_NUMERIC_FIELDS}), got {value!r}")
    if group_by not in _FIELD_NAMES:
        raise UnknownFieldError(f"fund records have no field {group_by!r}")
    table = FundTable.from_records(records)
    groups = _group(map(str, getattr(table, group_by)),
                    map(float, getattr(table, value)))
    rows: list[SummaryRow] = []
    for group in sorted(groups):
        xs = sorted(groups[group])
        count = 0
        mean = 0.0
        m2 = 0.0
        for x in xs:
            count += 1
            delta = x - mean
            mean += delta / count
            m2 += delta * (x - mean)
        std = math.sqrt(m2 / (count - 1)) if count > 1 else 0.0
        # Folded from +-inf like a running min/max, so a NaN is never chosen.
        rows.append(SummaryRow(group=group, count=count, mean=mean, std=std,
                               min=min(math.inf, *xs), max=max(-math.inf, *xs)))
    return rows


def _group(keys, values) -> dict:
    """``{key: [its values, in input order]}`` of paired key and value
    iterables."""
    groups = defaultdict(list)
    for key, x in zip(keys, values):
        groups[key].append(x)
    return groups


def _tally(assets: dict) -> tuple[dict, int, float]:
    """Exact asset sum per key of ``{key: [assets of its funds]}``, and the
    total fund count and assets."""
    sums = {k: math.fsum(sorted(v)) for k, v in assets.items()}
    return sums, sum(map(len, assets.values())), math.fsum(sorted(sums.values()))


def _pct(part, whole) -> float:
    return 100.0 * part / whole if whole else 0.0


def province_report(records) -> tuple[ProvinceRow, ...]:
    """Family/fund counts and percentage shares per province, one row for
    every province, ranked by family count descending (ties keep the
    canonical province order).

    Missing provinces appear with zeros.  Asset shares use exact summation,
    so input order cannot change them.
    """
    table = FundTable.from_records(records)
    families: dict[str, set[str]] = {p: set() for p in PROVINCES}
    assets: dict[str, list[float]] = {p: [] for p in PROVINCES}
    for province, family, x in zip(table.province, table.family, table.assets):
        families[province].add(family)
        assets[province].append(x)
    sums, total_funds, total_assets = _tally(assets)
    rows = [ProvinceRow(province=p,
                        family_count=len(families[p]),
                        fund_count=len(assets[p]),
                        pct_of_funds=_pct(len(assets[p]), total_funds),
                        pct_of_assets=_pct(sums[p], total_assets))
            for p in PROVINCES]
    rows.sort(key=lambda row: -row.family_count)  # stable: ties keep PROVINCES order
    return tuple(rows)


def demographics_report(records) -> tuple[DemographicsRow, ...]:
    """Fund count and shares per (race, gender) cell present in the data."""
    table = FundTable.from_records(records)
    assets = _group(zip(table.manager_race, table.manager_gender), table.assets)
    sums, total_funds, total_assets = _tally(assets)
    return tuple(
        DemographicsRow(
            manager_race=race,
            manager_gender=gender,
            fund_count=len(assets[race, gender]),
            pct_of_funds=_pct(len(assets[race, gender]), total_funds),
            pct_of_assets=_pct(sums[race, gender], total_assets),
        )
        for race, gender in sorted(assets))


def bundled_fixture_path():
    """Path to the bundled synthetic 200-row sample file."""
    return importlib.resources.files("infospread.data") / "funds_sample.csv"


def load_reference_tables() -> dict:
    """Published reference tables for display next to computed reports.

    The returned document carries a "note" explaining that the values are
    display-only; nothing in the package asserts against them.
    """
    path = importlib.resources.files("infospread.data") / "reference_tables.json"
    return json.loads(path.read_text(encoding="utf-8"))
