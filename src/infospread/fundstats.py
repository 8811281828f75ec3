"""Fund record ingestion and grouped summary reports.

The CSV contract is strict: an exact header row
fund_id,family,province,category,manager_race,manager_gender,assets,performance
(leading '#' comment lines are skipped so bundled fixtures can document
themselves), provinces from a closed list, enumerated race/gender values,
and nonnegative assets.  Every rejected row reports its file line number.

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
import json
import math
from dataclasses import dataclass
from operator import attrgetter
from typing import NamedTuple

from .errors import RowError, SchemaError, UnknownFieldError

__all__ = [
    "PROVINCES",
    "RACES",
    "GENDERS",
    "CSV_COLUMNS",
    "FundRecord",
    "SummaryRow",
    "ProvinceRow",
    "ProvinceReport",
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
class ProvinceReport:
    """All provinces, ranked by family count descending (list order ties
    broken by the canonical province order)."""

    rows: tuple[ProvinceRow, ...]


@dataclass(frozen=True)
class DemographicsRow:
    manager_race: str
    manager_gender: str
    fund_count: int
    pct_of_funds: float
    pct_of_assets: float


def ingest_csv(path) -> list[FundRecord]:
    """Read and validate fund records; empty data is an empty list."""
    records: list[FundRecord] = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = None
        for lineno, row in enumerate(reader, start=1):
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
            records.append(_parse_row(row, lineno))
    if header is None:
        raise SchemaError("file has no header row")
    return records


def _parse_row(row, lineno: int) -> FundRecord:
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
    return FundRecord(fund_id, family, province, category, race, gender,
                      assets, performance)


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
    group_of, value_of = attrgetter(group_by), attrgetter(value)
    groups: dict[str, list[float]] = {}
    for rec in records:
        groups.setdefault(str(group_of(rec)), []).append(float(value_of(rec)))
    rows: list[SummaryRow] = []
    for group in sorted(groups):
        count = 0
        mean = 0.0
        m2 = 0.0
        lo = math.inf
        hi = -math.inf
        for x in sorted(groups[group]):
            count += 1
            delta = x - mean
            mean += delta / count
            m2 += delta * (x - mean)
            lo = min(lo, x)
            hi = max(hi, x)
        std = math.sqrt(m2 / (count - 1)) if count > 1 else 0.0
        rows.append(SummaryRow(group=group, count=count, mean=mean,
                               std=std, min=lo, max=hi))
    return rows


def _tally(assets: dict) -> tuple[dict, int, float]:
    """Exact asset sum per key of ``{key: [assets of its funds]}``, and the
    total fund count and assets."""
    sums = {k: math.fsum(sorted(v)) for k, v in assets.items()}
    return sums, sum(map(len, assets.values())), math.fsum(sorted(sums.values()))


def _pct(part, whole) -> float:
    return 100.0 * part / whole if whole else 0.0


def province_report(records) -> ProvinceReport:
    """Family/fund counts and percentage shares per province.

    Missing provinces appear with zeros.  Asset shares use exact summation,
    so input order cannot change them.
    """
    families: dict[str, set[str]] = {p: set() for p in PROVINCES}
    assets: dict[str, list[float]] = {p: [] for p in PROVINCES}
    for rec in records:
        families[rec.province].add(rec.family)
        assets[rec.province].append(rec.assets)
    sums, total_funds, total_assets = _tally(assets)
    rows = [ProvinceRow(province=p,
                        family_count=len(families[p]),
                        fund_count=len(assets[p]),
                        pct_of_funds=_pct(len(assets[p]), total_funds),
                        pct_of_assets=_pct(sums[p], total_assets))
            for p in PROVINCES]
    rows.sort(key=lambda row: -row.family_count)  # stable: ties keep PROVINCES order
    return ProvinceReport(rows=tuple(rows))


def demographics_report(records) -> tuple[DemographicsRow, ...]:
    """Fund count and shares per (race, gender) cell present in the data."""
    assets: dict[tuple[str, str], list[float]] = {}
    for rec in records:
        assets.setdefault((rec.manager_race, rec.manager_gender), []).append(rec.assets)
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
    return json.loads(path.read_text())
