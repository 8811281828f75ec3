"""Fund ingestion, grouped statistics, and composition reports."""

import csv
import dataclasses
import itertools
import math
import os
import random
import subprocess
import sys
import tempfile
import threading
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from infospread import fundstats
from infospread.errors import RowError, SchemaError, UnknownFieldError
from infospread.fundstats import (
    _NUMERIC_FIELDS, CSV_COLUMNS, GENDERS, PROVINCES, RACES, DemographicsRow,
    ProvinceRow, SummaryRow)
from oracles import (FundRecord, fund_records, fund_table, traced_peak_and_held,
                     two_pass_stats)

HEADER = ",".join(fundstats.CSV_COLUMNS)


def make_record(k, *, family=None, province="Gauteng", category="A",
                race="white", gender="M", assets=10.0, performance=0.5):
    return FundRecord(
        fund_id=f"F{k:04d}", family=family or f"fam{k % 7}",
        province=province, category=category, manager_race=race,
        manager_gender=gender, assets=assets, performance=performance)


def tally(records, key):
    counts, assets = {}, {}
    for rec in records:
        k = key(rec)
        counts[k] = counts.get(k, 0) + 1
        assets[k] = assets.get(k, 0.0) + rec.assets
    return counts, assets


# -- ingestion ----------------------------------------------------------

def test_bundled_fixture_has_200_records():
    table = fundstats.ingest_csv(fundstats.bundled_fixture_path())
    assert len(table) == 200
    assert all(len(getattr(table, name)) == 200 for name in CSV_COLUMNS)
    assert all(x >= 0 for x in table.assets)


def test_header_only_file_is_empty(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text(HEADER + "\n")
    table = fundstats.ingest_csv(path)
    assert len(table) == 0 and fund_records(table) == []


def test_negative_assets_rejected_with_line_number(tmp_path):
    path = tmp_path / "neg.csv"
    path.write_text(HEADER + "\nF1,fam,Gauteng,A,white,M,-5,0.2\n")
    with pytest.raises(RowError) as err:
        fundstats.ingest_csv(path)
    assert err.value.line == 2


def test_missing_column_is_schema_error(tmp_path):
    path = tmp_path / "schema.csv"
    path.write_text("fund_id,family,province\nF1,fam,Gauteng\n")
    with pytest.raises(SchemaError):
        fundstats.ingest_csv(path)


def test_unknown_enum_values_rejected(tmp_path):
    rows = [
        "F1,fam,Atlantis,A,white,M,1,0.2",
        "F1,fam,Gauteng,A,green,M,1,0.2",
        "F1,fam,Gauteng,A,white,X,1,0.2",
        "F1,fam,Gauteng,A,white,M,abc,0.2",
    ]
    for k, row in enumerate(rows):
        path = tmp_path / f"bad{k}.csv"
        path.write_text(HEADER + "\n" + row + "\n")
        with pytest.raises(RowError):
            fundstats.ingest_csv(path)


def test_comment_lines_are_skipped(tmp_path):
    path = tmp_path / "commented.csv"
    path.write_text("# synthetic\n" + HEADER + "\nF1,fam,KZN,B,black,F,3,0.1\n")
    table = fundstats.ingest_csv(path)
    assert len(table) == 1
    assert table.province == ["KZN"]


# -- reference ingest -----------------------------------------------------------
# Ingest as first written, one frozen dataclass per row, kept verbatim but for
# its line numbers: the NamedTuple records must carry the same values (the
# sign of a zero included), and a bad file must fail with the same error,
# message and line, so the first bad line and the order of the row checks
# stay as they were.  A row is numbered by the file line it starts on, which
# csv.reader's line count gives; counting rows instead names the line above
# once a quoted field has spanned two lines.

@dataclasses.dataclass(frozen=True)
class ReferenceRecord:
    fund_id: str
    family: str
    province: str
    category: str
    manager_race: str
    manager_gender: str
    assets: float
    performance: float


def reference_ingest_csv(path) -> list[ReferenceRecord]:
    """Read and validate fund records; empty data is an empty list."""
    records: list[ReferenceRecord] = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = None
        next_line = 1  # the line the next row starts on
        for row in reader:
            lineno, next_line = next_line, reader.line_num + 1
            if not row:
                continue
            if row[0].lstrip().startswith("#"):
                continue
            if header is None:
                header = tuple(cell.strip() for cell in row)
                if header != CSV_COLUMNS:
                    raise SchemaError(
                        f"header {header} does not match required schema "
                        f"{CSV_COLUMNS}")
                continue
            records.append(reference_parse_row(row, lineno))
    if header is None:
        raise SchemaError("file has no header row")
    return records


def reference_parse_row(row, lineno: int) -> ReferenceRecord:
    if len(row) != len(CSV_COLUMNS):
        raise RowError(f"line {lineno}: expected {len(CSV_COLUMNS)} fields, "
                       f"got {len(row)}", line=lineno)
    fund_id, family, province, category, race, gender, assets_s, perf_s = row
    if province not in PROVINCES:
        raise RowError(f"line {lineno}: unknown province {province!r}", line=lineno)
    if race not in RACES:
        raise RowError(f"line {lineno}: unknown manager_race {race!r}", line=lineno)
    if gender not in GENDERS:
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
    return ReferenceRecord(fund_id=fund_id, family=family, province=province,
                           category=category, manager_race=race,
                           manager_gender=gender, assets=assets,
                           performance=performance)


GOOD_ROW = st.tuples(
    st.sampled_from(["F1", "F 2", " F3", "F,4", 'F"5', "F\n6", "#F7", ""]),
    st.sampled_from(["fam0", "fam 1", "fam,2"]),
    st.sampled_from(PROVINCES),
    st.sampled_from(["A", "B", " C", ""]),
    st.sampled_from(RACES),
    st.sampled_from(GENDERS),
    st.one_of(st.sampled_from(["0", "-0.0", "-0", "5e-324", " 2.5 ", "1_000",
                               "7E5", "+3"]),
              st.floats(0, 1e300).map(repr)),
    st.one_of(st.sampled_from(["-0.0", "0", "-1.5", "1e300", "-1e-300"]),
              st.floats(allow_nan=False, allow_infinity=False).map(repr)),
).map(list)
NON_NUMERIC = ("abc", "", "1,5", "0x10", "1e")
NON_FINITE = ("nan", "NaN", "inf", "-inf", "Infinity", "1e999")
# (column index, bad cells): each kind of row fault the ingest checks for.
CELL_FAULTS = [(2, ("Atlantis", "gauteng", " KZN", "")), (4, ("green", "Black", "")),
               (5, ("X", "m", "")), (6, NON_NUMERIC), (7, NON_NUMERIC),
               (6, NON_FINITE), (7, NON_FINITE), (6, ("-5", "-1e-300", " -2 "))]


@st.composite
def bad_row(draw):
    """A row with one or more cell faults, a wrong field count, or both."""
    row = draw(GOOD_ROW)
    for index, cells in draw(st.lists(st.sampled_from(CELL_FAULTS), min_size=1,
                                      max_size=3, unique=True)):
        row[index] = draw(st.sampled_from(cells))
    size = draw(st.sampled_from([8, 8, 8, 8, 8, 0, 1, 7, 9]))
    return row[:size] + ["extra"] * (size - 8)


@st.composite
def csv_line(draw, rows):
    """A row as one CSV line, quoting cells that need it and some that don't."""
    row = draw(rows)
    quote = draw(st.lists(st.booleans(), min_size=len(row), max_size=len(row)))
    return ",".join('"' + cell.replace('"', '""') + '"'
                    if q or any(c in cell for c in ',"\r\n') else cell
                    for cell, q in zip(row, quote))


COMMENT_OR_BLANK = st.sampled_from(["", "# synthetic", "  # indented", "#a,b,c",
                                    '"# quoted"'])
HEADERS = st.sampled_from([HEADER] * 6 + [
    ",".join(f" {c} " for c in CSV_COLUMNS), ",".join(f'"{c}"' for c in CSV_COLUMNS),
    "fund_id,family,province", HEADER + ",extra", None])
FUND_FILES = st.builds(
    lambda prefix, header, body, newline, end: newline.join(
        prefix + [header] * (header is not None) + body) + end * newline,
    st.lists(COMMENT_OR_BLANK, max_size=3), HEADERS,
    # Mostly good rows, so a bad one often follows several that parsed.
    st.lists(st.one_of(csv_line(GOOD_ROW), csv_line(GOOD_ROW), csv_line(GOOD_ROW),
                       COMMENT_OR_BLANK, csv_line(bad_row())), max_size=12),
    st.sampled_from(["\n", "\r\n"]), st.booleans())


def ingest_outcome(ingest, path):
    """Every record's field values (repr keeps the sign of a zero), or the
    error's type, message and line.  A FundTable is read as its records."""
    try:
        records = ingest(path)
    except (RowError, SchemaError) as exc:
        return type(exc), str(exc), getattr(exc, "line", None)
    if isinstance(records, fundstats.FundTable):
        records = fund_records(records)
    return repr([tuple(getattr(rec, name) for name in CSV_COLUMNS) for rec in records])


@settings(max_examples=300)
@given(text=FUND_FILES)
@example(text=HEADER + "\nF1,fam,KZN,A,black,F,-0.0,-0.0\nF2,fam,KZN,A,black,F,0,0\n")
@example(text=HEADER + "\nF1,fam,Atlantis,A,green,X,nan,-1\n")
@example(text=HEADER + "\nF1,fam,KZN,A,black,F,-1,inf\nF2,fam,KZN,A,black,F,1\n")
@example(text=HEADER + "\nF1,fam,Gauteng\nwhite,M,1,0.2\n")  # 3 + 4 cells
@example(text=HEADER + "\nF1,fam,KZN,A,black,F,1,0\nF2")
def test_ingest_matches_the_dataclass_reference(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "funds.csv"
        path.write_text(text, newline="")
        assert ingest_outcome(fundstats.ingest_csv, path) == \
            ingest_outcome(reference_ingest_csv, path)


# The generated files above are far smaller than a read; these span many
# reads, in three parts of up to 8192 rows that the test ids call chunks.
CHUNK = 8192
LONG_ROWS = [f"F{k:05d},fam{k % 7},{PROVINCES[k % 8]},{'ABC'[k % 3]},{RACES[k % 3]},"
             f"{GENDERS[k % 3]},{k % 1000}.5,{k % 13 - 6}e-1"
             for k in range(2 * CHUNK + 1000)]
ROW_FAULTS = {
    "wrong width": "F1,fam,Gauteng,A,white,M,1",
    "unknown province": "F1,fam,Atlantis,A,white,M,1,0.2",
    "unknown race": "F1,fam,Gauteng,A,green,M,1,0.2",
    "unknown gender": "F1,fam,Gauteng,A,white,X,1,0.2",
    "non-numeric": "F1,fam,Gauteng,A,white,M,1,abc",
    "non-finite": "F1,fam,Gauteng,A,white,M,inf,0.2",
    "negative assets": "F1,fam,Gauteng,A,white,M,-5,0.2",
}


def write_long_file(path, lines):
    path.write_text("\n".join([HEADER, *lines]) + "\n")


@pytest.mark.parametrize("where", [CHUNK + 17, len(LONG_ROWS) - 1],
                         ids=["second-chunk", "last-chunk"])
@pytest.mark.parametrize("fault", sorted(ROW_FAULTS))
def test_a_fault_past_the_first_chunk_matches_the_reference(tmp_path, fault, where):
    lines = LONG_ROWS.copy()
    lines[where] = ROW_FAULTS[fault]
    path = tmp_path / "funds.csv"
    write_long_file(path, lines)
    outcome = ingest_outcome(fundstats.ingest_csv, path)
    assert outcome[::2] == (RowError, where + 2)
    assert outcome == ingest_outcome(reference_ingest_csv, path)


@pytest.mark.parametrize("shift", [-1, 0, 1])
def test_comment_and_blank_rows_at_a_chunk_boundary(tmp_path, shift):
    lines = LONG_ROWS.copy()
    lines[CHUNK + shift:CHUNK + shift] = [
        "# note", "", "#F9,fam,Atlantis,A,green,X,nan,-1", " #F8,fam,KZN,A,black,F,1,0.2"]
    path = tmp_path / "funds.csv"
    write_long_file(path, lines)
    assert len(fundstats.ingest_csv(path)) == len(LONG_ROWS)
    assert ingest_outcome(fundstats.ingest_csv, path) == \
        ingest_outcome(reference_ingest_csv, path)


# A quoted field that spans two lines makes a row of two lines, so each row
# after it starts one line further on than its count of rows says.
SPANNING_LINES = {
    "family": [HEADER, 'F1,"fam\nily",Gauteng,A,white,M,1,0.2'],
    "comment before the header": ['"# notes\nmore notes"', HEADER],
}


@pytest.mark.parametrize("where", [0, CHUNK + 17], ids=["first-row", "second-chunk"])
@pytest.mark.parametrize("kind", sorted(SPANNING_LINES))
def test_a_fault_after_a_field_spanning_lines_is_named_at_its_line(tmp_path, kind,
                                                                   where):
    lines = [*SPANNING_LINES[kind], *LONG_ROWS]
    lines[2 + where] = ROW_FAULTS["unknown province"]
    path = tmp_path / "funds.csv"
    path.write_text("\n".join(lines) + "\n")
    lineno = where + 4
    expected = (RowError, f"line {lineno}: unknown province 'Atlantis'", lineno)
    assert ingest_outcome(fundstats.ingest_csv, path) == expected
    assert ingest_outcome(reference_ingest_csv, path) == expected
    assert piped_outcome(path.read_bytes()) == expected


# Text the csv module cannot read.  The decoder works on blocks of the file,
# so a row deep in a long file checks that the line is the faulty row's, not
# the first row of the block that held it.
UNREADABLE = {
    "not UTF-8": (b"F1,fam\xff,Gauteng,A,white,M,1,0.2", "text is not UTF-8"),
    "Latin-1 text": ("F1,Caf\xe9,Gauteng,A,white,M,1,0.2".encode("latin-1"),
                     "text is not UTF-8"),
    "field over the limit": (b"F1," + b"x" * 200_000 + b",Gauteng,A,white,M,1,0.2",
                             "field larger than field limit"),
}


@pytest.mark.parametrize("where", [0, CHUNK + 17], ids=["first-row", "second-chunk"])
@pytest.mark.parametrize("fault", sorted(UNREADABLE))
def test_unreadable_row_is_a_row_error_naming_its_line(tmp_path, fault, where):
    row, message = UNREADABLE[fault]
    lines = [line.encode() for line in LONG_ROWS]
    lines[where] = row
    path = tmp_path / "funds.csv"
    path.write_bytes(b"\n".join([HEADER.encode(), *lines]) + b"\n")
    with pytest.raises(RowError) as err:
        fundstats.ingest_csv(path)
    assert err.value.line == where + 2
    assert str(err.value).startswith(f"line {where + 2}: ")
    assert message in str(err.value)


@pytest.mark.parametrize("fault", sorted(UNREADABLE))
def test_unreadable_row_before_the_header_is_a_schema_error(tmp_path, fault):
    row, message = UNREADABLE[fault]
    path = tmp_path / "funds.csv"
    path.write_bytes(b"# notes\n" + row + b"\n" + HEADER.encode() + b"\n")
    with pytest.raises(SchemaError, match=f"^line 2: .*{message}"):
        fundstats.ingest_csv(path)


def test_utf8_text_is_read_by_both_passes(tmp_path):
    good = "F1,Caf\u00e9 \u2013 \U0001f4c8,KZN,A,black,F,1,0.5"
    path = tmp_path / "funds.csv"
    path.write_bytes(f"{HEADER}\n{good}\n".encode())
    assert fundstats.ingest_csv(path).family == ["Caf\u00e9 \u2013 \U0001f4c8"]
    # A faulty row sends its block to csv.reader, which must get past the
    # UTF-8 row to the fault.
    path.write_bytes(f"{HEADER}\n{good}\nF2,fam,Atlantis,A,black,F,1,0.5\n".encode())
    with pytest.raises(RowError, match="^line 3: unknown province"):
        fundstats.ingest_csv(path)


# The csv module of Python 3.10 rejects a NUL character and that of 3.11
# reads it; either way the row that holds it, in any column or in a comment,
# is a RowError with the 3.10 wording.
NUL_ROWS = {
    "fund_id": "F\x001,fam,Gauteng,A,white,M,1,0.2",
    "family": "F1,fa\x00m,Gauteng,A,white,M,1,0.2",
    "category": "F1,fam,Gauteng,\x00A,white,M,1,0.2",
    "province": "F1,fam,Gaut\x00eng,A,white,M,1,0.2",
    "comment": "# note,\x00",
    "comment of full width": "# F1,fam,Gauteng,A,white,M,1\x00,0.2",
}


@pytest.mark.parametrize("where", [0, CHUNK + 17], ids=["first-row", "second-chunk"])
@pytest.mark.parametrize("column", sorted(NUL_ROWS))
def test_nul_is_a_row_error_naming_its_line(tmp_path, column, where):
    lines = LONG_ROWS.copy()
    lines[where] = NUL_ROWS[column]
    path = tmp_path / "funds.csv"
    write_long_file(path, lines)
    with pytest.raises(RowError) as err:
        fundstats.ingest_csv(path)
    assert err.value.line == where + 2
    assert str(err.value) == f"line {where + 2}: line contains NUL"


@pytest.mark.parametrize("text", [f"# no\x00tes\n{HEADER}\n",
                                  HEADER.replace("family", "fam\x00ily") + "\n"],
                         ids=["comment", "header"])
def test_nul_before_the_data_is_a_schema_error(tmp_path, text):
    path = tmp_path / "funds.csv"
    path.write_text(text + "F1,fam,Gauteng,A,white,M,1,0.2\n")
    with pytest.raises(SchemaError, match="^line 1: line contains NUL$"):
        fundstats.ingest_csv(path)


# Ingest reads its file once, so a pipe is named the same fault as the file
# it carries, with no second read to find the faulty row.
PIPE_FAULTS = {"NUL": NUL_ROWS["family"], "unknown province": ROW_FAULTS["unknown province"]}


def piped_outcome(data: bytes):
    """``ingest_outcome`` of a pipe that a writer thread fills with ``data``."""
    read, write = os.pipe()

    def fill():
        try:
            with os.fdopen(write, "wb") as fh:
                fh.write(data)
        except BrokenPipeError:  # the ingest stopped at the fault
            pass

    writer = threading.Thread(target=fill)
    writer.start()
    try:
        return ingest_outcome(fundstats.ingest_csv, f"/dev/fd/{read}")
    finally:
        os.close(read)
        writer.join()


@pytest.mark.parametrize("fault", sorted(PIPE_FAULTS))
def test_a_pipe_names_the_fault_of_its_file(tmp_path, fault):
    lines = LONG_ROWS.copy()
    lines[CHUNK + 17] = PIPE_FAULTS[fault]
    path = tmp_path / "funds.csv"
    write_long_file(path, lines)
    outcome = ingest_outcome(fundstats.ingest_csv, path)
    assert outcome[::2] == (RowError, CHUNK + 19)
    assert piped_outcome(path.read_bytes()) == outcome


# A UTF-8 byte-order mark before the first line is the encoding's signature,
# not text: each file reads as it does without one, in bulk or by csv.reader
# (from a quoted row on), with a comment row first, and with a faulty row.
MARKED_FILES = {
    "bulk": f"{HEADER}\nF1,fam,KZN,A,black,F,1,0.5\n".encode(),
    "csv.reader": f'{HEADER}\nF1,"fam, quoted",KZN,A,black,F,1,0.5\n'.encode(),
    "bundled sample": fundstats.bundled_fixture_path().read_bytes(),
    "faulty row": f"{HEADER}\nF1,fam,KZN,A,black,F,1,0.5\nF2,fam,Atlantis,A,black,F,1,0.5\n"
                  .encode(),
}


@pytest.mark.parametrize("kind", sorted(MARKED_FILES))
def test_a_leading_byte_order_mark_is_read_as_no_text(tmp_path, kind):
    data = MARKED_FILES[kind]
    path = tmp_path / "funds.csv"
    path.write_bytes(data)
    expected = ingest_outcome(fundstats.ingest_csv, path)
    assert (expected[0] is RowError) == (kind == "faulty row")
    path.write_bytes(b"\xef\xbb\xbf" + data)
    assert ingest_outcome(fundstats.ingest_csv, path) == expected
    assert piped_outcome(b"\xef\xbb\xbf" + data) == expected


# After the header ingest reads blocks of _READ_CHARS characters and the rest
# of the last one's line, and splits each with str methods, until a block
# that csv.reader must split, or that fails a check, hands it the rest of the
# file.
READ = fundstats._READ_CHARS


def block_start(lines, k: int) -> int:
    """The index of the first line of block ``k`` (the first is 0) of a file
    of ``lines``, each ending in LF: a comment, the header, then rows."""
    ends = list(itertools.accumulate(len(line) + 1 for line in lines))
    start = ends[1]
    for _ in range(k):
        # A block ends at the first line end past its read, where readline
        # stops.
        start = next(end for end in ends if end > start + READ)
    return ends.index(start) + 1


def counting_csv_reader(monkeypatch) -> list:
    """The rows every csv.reader made from here on yields, as a list that
    grows as they are read."""
    rows = []
    reader = csv.reader

    class Counting:
        """A csv.reader, its ``line_num`` included, that logs each row."""

        def __init__(self, *args, **kwargs):
            self.reader = reader(*args, **kwargs)

        def __iter__(self):
            for row in self.reader:
                rows.append(row)
                yield row

        line_num = property(lambda self: self.reader.line_num)

    monkeypatch.setattr(csv, "reader", Counting)
    return rows


@pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["LF", "CRLF"])
def test_clean_blocks_skip_csv_reader(tmp_path, monkeypatch, newline):
    path = tmp_path / "funds.csv"
    path.write_text(newline.join(["# notes", HEADER, *LONG_ROWS]) + newline,
                    newline="")
    assert path.stat().st_size > 8 * READ
    expected = ingest_outcome(reference_ingest_csv, path)
    rows = counting_csv_reader(monkeypatch)
    assert ingest_outcome(fundstats.ingest_csv, path) == expected
    assert rows == [["# notes"], list(CSV_COLUMNS)]


def test_csv_reader_reads_from_the_first_block_that_needs_it(tmp_path, monkeypatch):
    lines = ["# notes", HEADER, *LONG_ROWS]
    third = block_start(lines, 2)
    lines[third + 5] = 'F1,"fam, quoted",Gauteng,A,white,M,1,0.2'
    path = tmp_path / "funds.csv"
    path.write_text("\n".join(lines) + "\n")
    expected = ingest_outcome(reference_ingest_csv, path)
    rows = counting_csv_reader(monkeypatch)
    assert ingest_outcome(fundstats.ingest_csv, path) == expected
    assert rows[2:] == [line.split(",") for line in lines[third:third + 5]] + \
        [["F1", "fam, quoted", "Gauteng", "A", "white", "M", "1", "0.2"]] + \
        [line.split(",") for line in lines[third + 6:]]


# One faulty row in a quote-free block well past the first: the bulk check
# refuses the block, and csv.reader names the row.  (Its bytes, and the
# message of its RowError.)
BULK_FAULTS = {
    "unknown province": (ROW_FAULTS["unknown province"].encode(),
                         "unknown province 'Atlantis'"),
    "negative assets": (ROW_FAULTS["negative assets"].encode(), "negative assets -5.0"),
    "not UTF-8": UNREADABLE["not UTF-8"],
}


@pytest.mark.parametrize("fault", sorted(BULK_FAULTS))
def test_a_block_that_fails_its_bulk_check_is_read_by_csv_reader(tmp_path, monkeypatch,
                                                                 fault):
    row, message = BULK_FAULTS[fault]
    lines = [line.encode() for line in ["# notes", HEADER, *LONG_ROWS]]
    fourth = block_start(lines, 3)
    lines[fourth + 5] = row
    path = tmp_path / "funds.csv"
    path.write_bytes(b"\n".join(lines) + b"\n")
    lineno = fourth + 6
    expected = (RowError, f"line {lineno}: {message}", lineno)
    if fault != "not UTF-8":  # the reference reads UTF-8 alone
        assert ingest_outcome(reference_ingest_csv, path) == expected
    rows = counting_csv_reader(monkeypatch)
    assert ingest_outcome(fundstats.ingest_csv, path) == expected
    assert rows[2:] == [line.decode(errors="surrogateescape").split(",")
                        for line in lines[fourth:fourth + 6]]


FILL_ROW = "F{:06d},fam,Gauteng,A,white,M,1.5,0.25\n"
FIELD_LIMIT = csv.field_size_limit()


def fill_rows(chars: int) -> list[str]:
    """Good rows of ``chars`` characters in all, line ends included."""
    count, spare = divmod(chars, len(FILL_ROW.format(0)))
    rows = [FILL_ROW.format(k) for k in range(count)]
    rows[-1] = rows[-1].replace(",", "x" * spare + ",", 1)
    return rows


# Each kind of line that csv.reader must split, or that fails a check:
# (its bytes, and the message of its RowError, or None where the reference
# reads the file).
IRREGULAR_LINES = {
    "quoted LF": (b'F1,"fam\nily",Gauteng,A,white,M,1,0.2\n', None),
    "CRLF": (b"F1,fam,Gauteng,A,white,M,1,0.2\r\n", None),
    "lone CR": (b"F1,fam,Gauteng,A,white,M,1,0.2\rF2,fam,KZN,A,black,F,2,0.1\n",
                None),
    "lone CR in 8 cells": (b"F1,fam,Gauteng,A\r,white,M,1,0.2\n", None),
    "rows of 7 and 9 cells": (b"F1,fam,Gauteng,A,white,M,1\n"
                              b"F2,fam,KZN,A,black,F,2,0.1,extra\n", None),
    # Eight cells on two lines: the LF between them falls where a category is.
    "rows of 3 and 4 cells": (b"F1,fam,Gauteng\nwhite,M,1,0.2\n", None),
    "blank": (b"\n", None),
    "comment of 1 cell": (b"# note\n", None),
    "comment of 8 cells": (b"# F1,fam,Gauteng,A,white,M,1,0.2\n", None),
    "NUL": (b"F1,fa\x00m,Gauteng,A,white,M,1,0.2\n", "line contains NUL"),
    "not UTF-8": (b"F1,fam\xff,Gauteng,A,white,M,1,0.2\n", "text is not UTF-8"),
    "field over the limit": (
        b"F1," + b"x" * (FIELD_LIMIT + 1) + b",Gauteng,A,white,M,1,0.2\n",
        f"field larger than field limit ({FIELD_LIMIT})"),
    "longer than a read": (
        b"F1," + b"x" * FIELD_LIMIT + b",Gauteng,A,white,M,1,0.2\n", None),
    "last, with no LF": (b"F1,fam,Gauteng,A,white,M,1,0.2", None),
    "last, of 1 cell with no LF": (b"F1", None),
}
# Where the line starts, from the end of a read past the first block (the
# second, or a later one for a line longer than a read): it is that read's
# last line, it straddles the read's end, only its last character (the LF of
# a CRLF) is in the next read, or it is the next read's first line.
READ_END_OFFSETS = {"last in its read": lambda line: -len(line),
                    "across the end": lambda line: -(len(line) // 2),
                    "last character in the next": lambda line: 1 - len(line),
                    "first in the next": lambda line: 0}


@pytest.mark.parametrize("offset", sorted(READ_END_OFFSETS))
@pytest.mark.parametrize("kind", sorted(IRREGULAR_LINES))
def test_a_line_at_a_read_boundary_matches_the_reference(tmp_path, kind, offset):
    line, message = IRREGULAR_LINES[kind]
    line_start = (2 + len(line) // READ) * READ + READ_END_OFFSETS[offset](line)
    before = fill_rows(line_start)
    after = [] if kind.startswith("last") else fill_rows(2000)
    data = b"".join([f"{HEADER}\n".encode(), *map(str.encode, before), line,
                     *map(str.encode, after)])
    assert data[len(HEADER) + 1 + line_start:].startswith(line)
    path = tmp_path / "funds.csv"
    path.write_bytes(data)
    if message is None:
        expected = ingest_outcome(reference_ingest_csv, path)
    else:
        lineno = len(before) + 2
        expected = (RowError, f"line {lineno}: {message}", lineno)
    assert ingest_outcome(fundstats.ingest_csv, path) == expected
    assert piped_outcome(data) == expected


@settings(max_examples=200)
@given(text=FUND_FILES, read=st.integers(1, 40))
def test_reads_of_any_size_match_the_dataclass_reference(text, read):
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        mp.setattr(fundstats, "_READ_CHARS", read)
        path = Path(tmp) / "funds.csv"
        path.write_text(text, newline="")
        assert ingest_outcome(fundstats.ingest_csv, path) == \
            ingest_outcome(reference_ingest_csv, path)


@pytest.mark.parametrize("width", [100, 101])
def test_a_lowered_field_size_limit_holds_in_every_block(tmp_path, width):
    lines = LONG_ROWS.copy()
    where = 3 * READ // len(lines[0])  # well past the first block
    lines[where] = f"F1,{'x' * width},Gauteng,A,white,M,1,0.2"
    path = tmp_path / "funds.csv"
    write_long_file(path, lines)
    limit = csv.field_size_limit(100)
    try:
        outcome = ingest_outcome(fundstats.ingest_csv, path)
    finally:
        csv.field_size_limit(limit)
    if width == 100:
        assert outcome == ingest_outcome(reference_ingest_csv, path)
    else:
        assert outcome == (RowError, f"line {where + 2}: field larger than "
                           "field limit (100)", where + 2)


def test_ingest_memory_beyond_its_table_is_flat_in_row_count(tmp_path):
    def transient(rows, quoted, newline):
        lines = [LONG_ROWS[k % len(LONG_ROWS)] for k in range(rows)]
        if quoted:  # csv.reader reads the file from its first row on
            lines[0] = lines[0].replace("fam0", '"fam0"')
        path = tmp_path / f"{rows}.csv"
        path.write_text(newline.join([HEADER, *lines]) + newline, newline="")
        table, peak, held = traced_peak_and_held(fundstats.ingest_csv, path)
        assert len(table) == rows
        return peak - held

    # One block's text and columns: 0.3-0.4 MiB; csv.reader's rows, each
    # checked as it is read: 0.3 MiB.  A file of lone CRs goes to csv.reader
    # from its first block, which is a read and one line, as readline stops
    # at a lone CR.
    for quoted, newline in [(False, "\n"), (True, "\n"), (False, "\r")]:
        small, large = (transient(20_000, quoted, newline),
                        transient(80_000, quoted, newline))
        assert large < 2 ** 20, (quoted, newline, large)
        assert abs(large - small) < 2 ** 18, (quoted, newline, small, large)


def test_importing_fundstats_leaves_numpy_unloaded():
    # The fund reader is stdlib-only, so a funds run need not load numpy.
    env = {**os.environ, "PYTHONPATH": str(Path(fundstats.__file__).parents[1])}
    done = subprocess.run(
        [sys.executable, "-c", "import sys, infospread.fundstats; "
         "print('numpy' in sys.modules)"],
        env=env, capture_output=True, text=True, timeout=120)
    assert (done.returncode, done.stdout) == (0, "False\n"), done.stderr


GOOD_FILES = st.lists(st.one_of(csv_line(GOOD_ROW), COMMENT_OR_BLANK), max_size=20).map(
    lambda body: "\n".join([HEADER, *body]) + "\n")


@settings(max_examples=100)
@given(text=GOOD_FILES, group_by=st.sampled_from(CSV_COLUMNS),
       value=st.sampled_from(_NUMERIC_FIELDS))
def test_reports_on_columns_match_reports_on_records(text, group_by, value):
    # The reports on an ingested table equal the reference reports on its rows.
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "funds.csv"
        path.write_text(text, newline="")
        table = fundstats.ingest_csv(path)
    records = fund_records(table)
    assert repr(fundstats.summarize(table, group_by, value)) == \
        repr(reference_summarize(records, group_by, value))
    assert repr(fundstats.province_report(table)) == \
        repr(reference_province_report(records))
    assert repr(fundstats.demographics_report(table)) == \
        repr(reference_demographics_report(records))
    # Enumerated values are the package's own strings, shared by every row.
    for column, values in [(table.province, PROVINCES), (table.manager_race, RACES),
                           (table.manager_gender, GENDERS)]:
        assert all(any(cell is v for v in values) for cell in column)


# -- summarize ------------------------------------------------------------

def test_single_record_group_degenerates():
    rows = fundstats.summarize(fund_table([make_record(1, performance=0.4)]),
                               group_by="category", value="performance")
    assert len(rows) == 1
    row = rows[0]
    assert row.std == 0.0
    assert row.min == row.mean == row.max == 0.4
    assert row.count == 1


def test_summarize_matches_two_pass_oracle():
    rng = random.Random(12)
    records = [
        make_record(k, category=rng.choice("ABCDEFGH"),
                    performance=rng.uniform(0, 1) * 10 ** rng.randint(-3, 3))
        for k in range(10_000)
    ]
    rows = fundstats.summarize(fund_table(records), group_by="category",
                               value="performance")
    by_group = {}
    for rec in records:
        by_group.setdefault(rec.category, []).append(rec.performance)
    assert {r.group for r in rows} == set(by_group)
    for row in rows:
        mean, std, lo, hi = two_pass_stats(by_group[row.group])
        assert row.mean == pytest.approx(mean, rel=1e-12)
        assert row.std == pytest.approx(std, rel=1e-12)
        assert (row.min, row.max) == (lo, hi)
        assert row.count == len(by_group[row.group])


def test_summarize_is_permutation_invariant():
    rng = random.Random(5)
    records = [make_record(k, category=rng.choice("ABC"),
                           performance=rng.uniform(0, 2)) for k in range(500)]
    baseline = fundstats.summarize(fund_table(records), "category", "performance")
    shuffled = records[:]
    rng.shuffle(shuffled)
    assert fundstats.summarize(fund_table(shuffled), "category", "performance") == \
        baseline


def test_summarize_rejects_unknown_fields():
    table = fund_table([make_record(1)])
    with pytest.raises(UnknownFieldError):
        fundstats.summarize(table, group_by="city", value="performance")
    with pytest.raises(UnknownFieldError):
        fundstats.summarize(table, group_by="category", value="family")
    with pytest.raises(UnknownFieldError):
        fundstats.summarize(fund_table([]), group_by="city", value="performance")


def test_summarize_groups_ordered_by_key():
    records = [make_record(k, category=c) for k, c in enumerate("CABCAB")]
    rows = fundstats.summarize(fund_table(records), "category", "assets")
    assert [r.group for r in rows] == ["A", "B", "C"]


# -- province report ---------------------------------------------------------

def test_single_province_concentration():
    records = [make_record(k, province="KZN", assets=5.0) for k in range(9)]
    rows = fundstats.province_report(fund_table(records))
    top = rows[0]
    assert top.province == "KZN"
    assert top.pct_of_funds == 100.0
    assert top.pct_of_assets == 100.0
    assert all(r.fund_count == 0 for r in rows[1:])


def test_province_report_matches_tally_oracle():
    table = fundstats.ingest_csv(fundstats.bundled_fixture_path())
    records = fund_records(table)
    counts, _ = tally(records, lambda r: r.province)
    families = {}
    for rec in records:
        families.setdefault(rec.province, set()).add(rec.family)
    rows = fundstats.province_report(table)
    for row in rows:
        assert row.fund_count == counts.get(row.province, 0)
        assert row.family_count == len(families.get(row.province, set()))
    ranks = [r.family_count for r in rows]
    assert ranks == sorted(ranks, reverse=True)


def test_province_percentages_partition():
    table = fundstats.ingest_csv(fundstats.bundled_fixture_path())
    rows = fundstats.province_report(table)
    assert sum(r.pct_of_funds for r in rows) == pytest.approx(100.0, abs=0.1)
    assert sum(r.pct_of_assets for r in rows) == pytest.approx(100.0, abs=0.1)


def test_province_report_permutation_invariant():
    table = fundstats.ingest_csv(fundstats.bundled_fixture_path())
    shuffled = fund_records(table)
    random.Random(3).shuffle(shuffled)
    assert fundstats.province_report(fund_table(shuffled)) == \
        fundstats.province_report(table)


# -- demographics -------------------------------------------------------------

def test_single_cell_demographics():
    records = [make_record(k, race="white", gender="M") for k in range(5)]
    rows = fundstats.demographics_report(fund_table(records))
    assert len(rows) == 1
    assert rows[0].pct_of_funds == 100.0
    assert rows[0].pct_of_assets == 100.0


def test_demographics_matches_tally_oracle():
    table = fundstats.ingest_csv(fundstats.bundled_fixture_path())
    counts, _ = tally(fund_records(table), lambda r: (r.manager_race, r.manager_gender))
    rows = fundstats.demographics_report(table)
    assert {(r.manager_race, r.manager_gender) for r in rows} == set(counts)
    for row in rows:
        assert row.fund_count == counts[(row.manager_race, row.manager_gender)]
    assert sum(r.pct_of_funds for r in rows) == pytest.approx(100.0, abs=0.1)
    assert sum(r.pct_of_assets for r in rows) == pytest.approx(100.0, abs=0.1)


def test_demographics_permutation_invariant():
    table = fundstats.ingest_csv(fundstats.bundled_fixture_path())
    shuffled = fund_records(table)
    random.Random(8).shuffle(shuffled)
    assert fundstats.demographics_report(fund_table(shuffled)) == \
        fundstats.demographics_report(table)


# -- reference reports ----------------------------------------------------------
# The reports as first written, kept verbatim: the streamlined module must
# return the same rows, bit for bit (the sign of a zero included).

def _field_value(record: FundRecord, name: str):
    if name not in fundstats.CSV_COLUMNS:
        raise UnknownFieldError(f"fund records have no field {name!r}")
    return getattr(record, name)


def reference_summarize(records, group_by: str, value: str) -> list[SummaryRow]:
    if value not in _NUMERIC_FIELDS:
        raise UnknownFieldError(
            f"value field must be numeric ({_NUMERIC_FIELDS}), got {value!r}")
    keyed = sorted(
        ((str(_field_value(rec, group_by)), float(_field_value(rec, value)))
         for rec in records),
        key=lambda kv: (kv[0], kv[1]))
    rows: list[SummaryRow] = []
    i = 0
    while i < len(keyed):
        group = keyed[i][0]
        count = 0
        mean = 0.0
        m2 = 0.0
        lo = math.inf
        hi = -math.inf
        while i < len(keyed) and keyed[i][0] == group:
            x = keyed[i][1]
            count += 1
            delta = x - mean
            mean += delta / count
            m2 += delta * (x - mean)
            lo = min(lo, x)
            hi = max(hi, x)
            i += 1
        std = math.sqrt(m2 / (count - 1)) if count > 1 else 0.0
        rows.append(SummaryRow(group=group, count=count, mean=mean,
                               std=std, min=lo, max=hi))
    return rows


def reference_province_report(records) -> tuple[ProvinceRow, ...]:
    families: dict[str, set[str]] = {p: set() for p in PROVINCES}
    counts: dict[str, int] = {p: 0 for p in PROVINCES}
    assets: dict[str, list[float]] = {p: [] for p in PROVINCES}
    for rec in records:
        families[rec.province].add(rec.family)
        counts[rec.province] += 1
        assets[rec.province].append(rec.assets)
    total_funds = sum(counts.values())
    asset_sums = {p: math.fsum(sorted(assets[p])) for p in PROVINCES}
    total_assets = math.fsum(sorted(asset_sums.values()))
    order = sorted(PROVINCES,
                   key=lambda p: (-len(families[p]), PROVINCES.index(p)))
    return tuple(
        ProvinceRow(
            province=p,
            family_count=len(families[p]),
            fund_count=counts[p],
            pct_of_funds=100.0 * counts[p] / total_funds if total_funds else 0.0,
            pct_of_assets=100.0 * asset_sums[p] / total_assets if total_assets else 0.0,
        )
        for p in order)


def reference_demographics_report(records) -> tuple[DemographicsRow, ...]:
    counts: dict[tuple[str, str], int] = {}
    assets: dict[tuple[str, str], list[float]] = {}
    for rec in records:
        cell = (rec.manager_race, rec.manager_gender)
        counts[cell] = counts.get(cell, 0) + 1
        assets.setdefault(cell, []).append(rec.assets)
    total_funds = sum(counts.values())
    asset_sums = {cell: math.fsum(sorted(vals)) for cell, vals in assets.items()}
    total_assets = math.fsum(sorted(asset_sums.values()))
    return tuple(
        DemographicsRow(
            manager_race=race,
            manager_gender=gender,
            fund_count=counts[(race, gender)],
            pct_of_funds=100.0 * counts[(race, gender)] / total_funds,
            pct_of_assets=(100.0 * asset_sums[(race, gender)] / total_assets
                           if total_assets else 0.0),
        )
        for race, gender in sorted(counts))


# Few distinct values, so groups, duplicates and ties are common; -0.0 sits
# next to 0.0 so a min or max that keeps the other zero shows in its repr.
AMOUNTS = st.one_of(st.sampled_from([0.0, -0.0, 1.0, 2.5, 1e-300]),
                    st.floats(-1e6, 1e6))
RECORDS = st.lists(st.builds(
    FundRecord,
    fund_id=st.sampled_from(["F1", "F2", "F3"]),
    family=st.sampled_from(["fam0", "fam1", "fam2"]),
    province=st.sampled_from(PROVINCES),
    category=st.sampled_from("AB"),
    manager_race=st.sampled_from(fundstats.RACES),
    manager_gender=st.sampled_from(fundstats.GENDERS),
    assets=st.sampled_from([0.0, -0.0, 1.0, 2.5, 1e-300, 7e5]),
    performance=AMOUNTS), max_size=30)


@given(records=RECORDS, group_by=st.sampled_from(fundstats.CSV_COLUMNS),
       value=st.sampled_from(_NUMERIC_FIELDS))
@example(records=[], group_by="category", value="performance")
@example(records=[make_record(1, performance=0.0), make_record(2, performance=-0.0),
                  make_record(3, category="B", assets=-0.0)],
         group_by="category", value="performance")
def test_reports_match_the_reference_bit_for_bit(records, group_by, value):
    table = fund_table(records)
    assert repr(fundstats.summarize(table, group_by, value)) == \
        repr(reference_summarize(records, group_by, value))
    assert repr(fundstats.province_report(table)) == \
        repr(reference_province_report(records))
    assert repr(fundstats.demographics_report(table)) == \
        repr(reference_demographics_report(records))


@pytest.mark.parametrize("order", [1, -1])
def test_summarize_with_nan_values_matches_the_reference(order):
    # Library callers may pass values ingest would reject; min and max
    # still pass over a NaN wherever it sorts.
    records = [make_record(k, performance=x)
               for k, x in enumerate([math.nan, 1.0, -0.0, 2.0, math.nan])][::order]
    assert repr(fundstats.summarize(fund_table(records), "category", "performance")) == \
        repr(reference_summarize(records, "category", "performance"))


# -- reference tables -----------------------------------------------------------

def test_reference_tables_are_labeled_display_fixtures():
    tables = fundstats.load_reference_tables()
    assert "display" in tables["note"]
    assert len(tables["summary"]) == 8
    assert len(tables["provinces"]) == 8
    assert len(tables["demographics"]) == 8
    assert {row["province"] for row in tables["provinces"]} == set(fundstats.PROVINCES)
    # Values are intentionally NOT compared against computed reports: the
    # source data behind them is unavailable, so they are display-only.
