"""Compositional preprocessing for the influenza subtype pipeline.

Weekly counts of the three co-circulating subtypes (A/H1N1pdm, A/H3N2,
B) are aggregated to unit-season totals, filtered to a minimum case
count, turned into strictly positive proportions (zero cells take a 0.5
pseudo-count) and mapped to unconstrained coordinates by the isometric
log-ratio transform

    y1 = sqrt(2/3) * ln( B% / sqrt(H1% * H3%) )
    y2 = sqrt(1/2) * ln( H1% / H3% )

whose inverse is closed form (exponentiate and renormalise).
"""

from __future__ import annotations

import csv
import math
import re
from dataclasses import dataclass
from datetime import date
from typing import Iterator, NamedTuple

from .errors import DomainError, IngestionError
from .serialize import write_table

__all__ = [
    "Composition3",
    "IlrPoint",
    "WeeklyRecord",
    "UnitYear",
    "ilr_forward",
    "ilr_inverse",
    "aggregate_counts",
    "read_weekly_csv",
    "write_ilr_csv",
]

_SQRT23 = math.sqrt(2.0 / 3.0)
_SQRT12 = math.sqrt(0.5)


@dataclass(frozen=True)
class Composition3:
    """Strictly positive shares of (A/H1N1pdm, A/H3N2, B) summing to one."""

    p1: float
    p2: float
    p3: float

    def __post_init__(self):
        if min(self.p1, self.p2, self.p3) <= 0.0:
            raise DomainError("composition components must be strictly positive")
        if abs(self.p1 + self.p2 + self.p3 - 1.0) > 1e-12:
            raise DomainError("composition must sum to 1 within 1e-12")


@dataclass(frozen=True)
class IlrPoint:
    y1: float
    y2: float


def ilr_forward(c: Composition3) -> IlrPoint:
    y1 = _SQRT23 * math.log(c.p3 / math.sqrt(c.p1 * c.p2))
    y2 = _SQRT12 * math.log(c.p1 / c.p2)
    return IlrPoint(y1, y2)


def ilr_inverse(p: IlrPoint) -> Composition3:
    # invert: ln(p3 / sqrt(p1 p2)) = y1 * sqrt(3/2), ln(p1/p2) = y2 * sqrt(2)
    a = p.y1 / _SQRT23
    b = p.y2 / _SQRT12
    e1 = math.exp(b / 2.0)
    e2 = math.exp(-b / 2.0)
    e3 = math.exp(a)
    total = e1 + e2 + e3
    return Composition3(e1 / total, e2 / total, e3 / total)


class WeeklyRecord(NamedTuple):
    unit_id: str
    iso_week: str  # "YYYY-Www"
    count_h1: int
    count_h3: int
    count_b: int
    itz: str | None = None


@dataclass(frozen=True)
class UnitYear:
    unit_id: str
    season: str  # e.g. "2014/2015"
    composition: Composition3
    total: int
    itz: str | None = None


_WEEK_RE = re.compile(r"^(\d{4})-W(\d{2})$")


def _season_of(iso_week: str, boundary_month: int, boundary_day: int) -> str:
    m = _WEEK_RE.match(iso_week)
    if not m:
        raise IngestionError(f"bad iso_week {iso_week!r}, expected YYYY-Www")
    year, week = int(m.group(1)), int(m.group(2))
    try:
        monday = date.fromisocalendar(year, week, 1)
    except ValueError as exc:
        raise IngestionError(f"bad iso_week {iso_week!r}: {exc}") from None
    start = monday.year if monday >= date(monday.year, boundary_month, boundary_day) else monday.year - 1
    return f"{start}/{start + 1}"


def aggregate_counts(
    records,
    min_total: int = 50,
    pseudo_count: float = 0.5,
    boundary_month: int = 4,
    boundary_day: int = 1,
) -> list[UnitYear]:
    """Sum weekly counts to unit-seasons and emit positive compositions.

    Seasons run boundary-to-boundary (default April 1): a week belongs to
    the season whose start its Monday falls on or after.  Unit-seasons
    with fewer than ``min_total`` raw cases are dropped; zero cells then
    take the pseudo-count before normalisation.  ``records`` is any
    iterable of ``WeeklyRecord``s or tuples in its field order, such as the
    iterator ``read_weekly_csv`` returns; each is summed as it is read, so a
    file's rows raise their errors in file order.
    """
    sums: dict[tuple[str, str], list] = {}
    seasons: dict[str, str] = {}  # iso_week -> season, each week worked out once
    for i, (unit, week, h1, h3, b, itz) in enumerate(records):
        if h1 < 0 or h3 < 0 or b < 0:
            raise IngestionError(f"row {i}: negative count")
        season = seasons.get(week)
        if season is None:
            season = seasons[week] = _season_of(week, boundary_month, boundary_day)
        entry = sums.get((unit, season))
        if entry is None:
            entry = sums[(unit, season)] = [0, 0, 0, itz]
        entry[0] += h1
        entry[1] += h3
        entry[2] += b
        if itz is not None:
            entry[3] = itz

    out = []
    for (unit, season) in sorted(sums):
        h1, h3, b, itz = sums[(unit, season)]
        total = h1 + h3 + b
        if total < min_total:
            continue
        parts = [c if c > 0 else pseudo_count for c in (h1, h3, b)]
        denom = sum(parts)
        comp = Composition3(parts[0] / denom, parts[1] / denom, parts[2] / denom)
        out.append(UnitYear(unit, season, comp, total, itz))
    return out


def read_weekly_csv(path) -> Iterator[tuple]:
    """Weekly rows of a CSV with columns unit_id, iso_week, count_h1,
    count_h3, count_b and optionally itz (a blank itz reads as None), as
    plain tuples in ``WeeklyRecord``'s field order for ``aggregate_counts``.

    The header is checked now.  The rows are parsed one at a time as the
    returned iterator is consumed, so no list of them is ever held, and the
    file closes when they run out, an error is raised or the iterator is
    closed.  Columns are found by header name (the last of equal names);
    blank lines are skipped and row N counts the other lines after the
    header from 0.  A row shorter than the header, a count that is not an
    integer, bytes that are not UTF-8 and a row the csv module cannot parse
    (such as a field over ``csv.field_size_limit()``) are IngestionErrors
    that name the row; fields past the header's are ignored.
    """
    rows = _weekly_rows(path)
    next(rows)  # runs up to the header check
    return rows


def _weekly_rows(path):
    required = ["unit_id", "iso_week", "count_h1", "count_h3", "count_b"]
    # Bytes that do not decode read as lone surrogates, so the row that
    # holds them reports them in its turn; a strict decoder fails when it
    # decodes the 8 KiB chunk that holds them, ahead of the rows before them.
    with open(path, newline="", errors="surrogateescape") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, [])
        except csv.Error as exc:  # such as a field over csv.field_size_limit()
            raise IngestionError(f"{path}: header: {exc}") from None
        if not _is_utf8(header):
            raise IngestionError(f"{path}: header is not UTF-8 text")
        col = {name: j for j, name in enumerate(header)}
        missing = [c for c in required if c not in col]
        if missing:
            raise IngestionError(f"{path}: missing columns {missing}")
        unit, week, h1, h3, b = (col[c] for c in required)
        itz = col.get("itz")
        width = len(header)
        yield None
        i = -1
        try:
            for i, row in enumerate(r for r in reader if r):
                if len(row) < width:
                    raise IngestionError(f"{path} row {i}: short row")
                if not "".join(row).isascii() and not _is_utf8(row):
                    raise IngestionError(f"{path} row {i}: not UTF-8 text")
                try:
                    record = (
                        row[unit], row[week], int(row[h1]), int(row[h3]), int(row[b]),
                        (row[itz] or None) if itz is not None else None,
                    )
                except ValueError as exc:
                    raise IngestionError(f"{path} row {i}: {exc}") from None
                yield record
        except csv.Error as exc:  # raised while reading the row after row i
            raise IngestionError(f"{path} row {i + 1}: {exc}") from None


def _is_utf8(fields: list[str]) -> bool:
    """False if a field holds a byte that did not decode (a lone surrogate)."""
    try:
        "".join(fields).encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


def write_ilr_csv(unit_years: list[UnitYear], path) -> None:
    """Output schema: unit_id, season, y1, y2, itz (blank when absent)."""
    rows = []
    for uy in unit_years:
        pt = ilr_forward(uy.composition)
        rows.append([uy.unit_id, uy.season, repr(pt.y1), repr(pt.y2), uy.itz or ""])
    write_table(path, ["unit_id", "season", "y1", "y2", "itz"], rows, tsv=False)
