"""Synthetic weekly surveillance fixture.

No real surveillance data ships with the package; this generator
produces a schema-identical stand-in (80 units x 9 seasons by default)
with a plantable season shift in the dependence between the two
log-ratio coordinates: seasons at or past ``shift_season`` draw their
(y1, y2) pair from a Frank copula at ``tau_high``, earlier seasons at
``tau_low``.  Margins are the same everywhere, so only the dependence
carries the planted signal.
"""

from __future__ import annotations

import csv
from statistics import NormalDist

import numpy as np
from numpy.random import default_rng

from .compositional import IlrPoint, WeeklyRecord, ilr_inverse
from .copulas import conditional_quantile, spec_for, tau_to_theta

__all__ = ["make_flu_fixture", "write_flu_fixture_csv"]

_REPORT_WEEKS = list(range(16, 36))  # mid-April .. August: safely one season


def make_flu_fixture(
    seed: int,
    n_units: int = 80,
    n_seasons: int = 9,
    start_year: int = 2010,
    n_itz: int = 5,
    tau_low: float = 0.02,
    tau_high: float = 0.75,
    shift_season: int = 5,
    y_scale: float = 0.9,
) -> list[WeeklyRecord]:
    """Weekly records with a season-shifted dependence structure."""
    frank = spec_for("frank")
    rng = default_rng(seed)
    inv_cdf = NormalDist().inv_cdf
    theta_low = tau_to_theta(frank, tau_low)
    theta_high = tau_to_theta(frank, tau_high)

    records = []
    for unit in range(n_units):
        unit_id = f"unit{unit:03d}"
        itz = f"zone{unit % n_itz}"
        for s in range(n_seasons):
            theta = theta_high if s >= shift_season else theta_low
            u1 = float(np.clip(rng.random(), 1e-9, 1 - 1e-9))
            u2 = float(conditional_quantile(frank, theta, u1, rng.random()))
            y1 = inv_cdf(u1) * y_scale
            y2 = inv_cdf(u2) * y_scale
            comp = ilr_inverse(IlrPoint(y1, y2))
            total = 150 + int(rng.poisson(400))
            annual = rng.multinomial(total, [comp.p1, comp.p2, comp.p3])
            week_share = rng.dirichlet(np.full(len(_REPORT_WEEKS), 2.0))
            year = start_year + s
            for kind in range(3):
                weekly = rng.multinomial(annual[kind], week_share)
                for wi, week in enumerate(_REPORT_WEEKS):
                    c = int(weekly[wi])
                    if c == 0:
                        continue
                    records.append((unit_id, f"{year}-W{week:02d}", kind, c, itz))

    # one row per (unit, week) with the three counts together
    merged: dict[tuple[str, str], list] = {}
    for unit_id, week, kind, c, itz in records:
        entry = merged.setdefault((unit_id, week), [0, 0, 0, itz])
        entry[kind] += c
    out = []
    for (unit_id, week) in sorted(merged):
        h1, h3, b, itz = merged[(unit_id, week)]
        out.append(WeeklyRecord(unit_id, week, h1, h3, b, itz))
    return out


def write_flu_fixture_csv(path, seed: int, **kwargs) -> None:
    records = make_flu_fixture(seed, **kwargs)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["unit_id", "iso_week", "count_h1", "count_h3", "count_b", "itz"])
        for r in records:
            writer.writerow([r.unit_id, r.iso_week, r.count_h1, r.count_h3, r.count_b, r.itz])
