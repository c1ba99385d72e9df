"""Tests for the isometric log-ratio transform and count aggregation."""

import csv
import gc
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from copulatree import compositional as co
from copulatree.errors import DomainError, IngestionError


def comp(p1, p2, p3):
    return co.Composition3(p1, p2, p3)


class TestIlr:
    def test_uniform_composition_maps_to_origin(self):
        pt = co.ilr_forward(comp(1 / 3, 1 / 3, 1 / 3))
        assert abs(pt.y1) <= 1e-15 and abs(pt.y2) <= 1e-15

    def test_analytic_point(self):
        # p3 = p * exp(sqrt(3/2)) makes y1 = 1 and y2 = 0 exactly
        p = 1.0 / (2.0 + math.exp(math.sqrt(1.5)))
        pt = co.ilr_forward(comp(p, p, p * math.exp(math.sqrt(1.5))))
        assert pt.y1 == pytest.approx(1.0, abs=1e-12)
        assert pt.y2 == pytest.approx(0.0, abs=1e-12)

    def test_inverse_of_origin(self):
        c = co.ilr_inverse(co.IlrPoint(0.0, 0.0))
        assert np.allclose([c.p1, c.p2, c.p3], 1 / 3, atol=1e-15)

    def test_roundtrip_random_compositions(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            raw = rng.dirichlet([1.0, 1.0, 1.0])
            raw = np.clip(raw, 1e-9, None)
            raw = raw / raw.sum()
            c = comp(*raw)
            back = co.ilr_inverse(co.ilr_forward(c))
            assert abs(back.p1 - c.p1) <= 1e-12
            assert abs(back.p2 - c.p2) <= 1e-12
            assert abs(back.p3 - c.p3) <= 1e-12

    @given(
        y1=st.floats(-5, 5, allow_nan=False),
        y2=st.floats(-5, 5, allow_nan=False),
    )
    @settings(max_examples=50, deadline=None)
    def test_forward_after_inverse_is_identity(self, y1, y2):
        c = co.ilr_inverse(co.IlrPoint(y1, y2))
        assert c.p1 > 0 and c.p2 > 0 and c.p3 > 0
        assert abs(c.p1 + c.p2 + c.p3 - 1.0) <= 1e-12
        pt = co.ilr_forward(c)
        assert pt.y1 == pytest.approx(y1, abs=1e-9)
        assert pt.y2 == pytest.approx(y2, abs=1e-9)

    def test_swap_symmetry(self):
        c = comp(0.5, 0.2, 0.3)
        swapped = comp(0.2, 0.5, 0.3)
        a, b = co.ilr_forward(c), co.ilr_forward(swapped)
        assert a.y1 == pytest.approx(b.y1, abs=1e-14)
        assert a.y2 == pytest.approx(-b.y2, abs=1e-14)

    def test_zero_component_rejected(self):
        with pytest.raises(DomainError):
            comp(0.0, 0.5, 0.5)
        with pytest.raises(DomainError):
            comp(0.3, 0.3, 0.3)  # does not sum to 1


class TestAggregation:
    def rec(self, unit, week, h1, h3, b, itz=None):
        return co.WeeklyRecord(unit, week, h1, h3, b, itz)

    def test_simple_proportions(self):
        out = co.aggregate_counts([self.rec("u1", "2015-W20", 10, 20, 70)])
        assert len(out) == 1
        c = out[0].composition
        assert (c.p1, c.p2, c.p3) == pytest.approx((0.1, 0.2, 0.7))
        assert out[0].season == "2015/2016"

    def test_minimum_total_filter(self):
        out = co.aggregate_counts([self.rec("u1", "2015-W20", 19, 20, 10)])
        assert out == []  # total 49 < 50

    def test_pseudo_count_for_zero_cells(self):
        out = co.aggregate_counts([self.rec("u1", "2015-W20", 0, 50, 50)])
        c = out[0].composition
        assert c.p1 == pytest.approx(0.5 / 100.5)
        assert c.p2 == pytest.approx(50 / 100.5)
        assert min(c.p1, c.p2, c.p3) > 0

    def test_season_boundary_week_start(self):
        # 2015-W14 starts Monday 2015-03-30 (< April 1): previous season;
        # 2015-W15 starts Monday 2015-04-06: new season.
        before = co.aggregate_counts([self.rec("u", "2015-W14", 30, 30, 30)])
        after = co.aggregate_counts([self.rec("u", "2015-W15", 30, 30, 30)])
        assert before[0].season == "2014/2015"
        assert after[0].season == "2015/2016"

    def test_configurable_boundary(self):
        out = co.aggregate_counts(
            [self.rec("u", "2015-W14", 30, 30, 30)], boundary_month=1, boundary_day=1
        )
        assert out[0].season == "2015/2016"

    def test_order_independence(self):
        recs = [
            self.rec("u1", "2015-W20", 10, 20, 30),
            self.rec("u1", "2015-W30", 5, 10, 15),
            self.rec("u2", "2015-W20", 40, 10, 10),
        ]
        a = co.aggregate_counts(recs)
        b = co.aggregate_counts(recs[::-1])
        assert a == b

    def test_weeks_accumulate(self):
        recs = [
            self.rec("u1", "2015-W20", 10, 0, 0),
            self.rec("u1", "2015-W21", 0, 20, 0),
            self.rec("u1", "2015-W22", 0, 0, 70),
        ]
        out = co.aggregate_counts(recs)
        assert out[0].total == 100
        assert out[0].composition.p3 == pytest.approx(0.7)

    def test_bad_week_format(self):
        with pytest.raises(IngestionError):
            co.aggregate_counts([self.rec("u1", "2015W20", 60, 0, 0)])
        with pytest.raises(IngestionError):
            co.aggregate_counts([self.rec("u1", "2015-W99", 60, 0, 0)])

    def test_negative_count_reports_row(self):
        with pytest.raises(IngestionError, match="row 1"):
            co.aggregate_counts(
                [self.rec("u1", "2015-W20", 60, 0, 0), self.rec("u1", "2015-W21", -1, 0, 0)]
            )


class TestCsvRoundtrip:
    def test_weekly_read(self, tmp_path):
        path = tmp_path / "weekly.csv"
        path.write_text(
            "unit_id,iso_week,count_h1,count_h3,count_b,itz\n"
            "u1,2015-W20,10,20,70,zoneA\n"
        )
        recs = list(co.read_weekly_csv(path))
        assert recs == [co.WeeklyRecord("u1", "2015-W20", 10, 20, 70, "zoneA")]

    def test_missing_column(self, tmp_path):
        path = tmp_path / "weekly.csv"
        path.write_text("unit_id,iso_week,count_h1\nu1,2015-W20,10\n")
        with pytest.raises(IngestionError):
            co.read_weekly_csv(path)

    def test_bad_count_value(self, tmp_path):
        path = tmp_path / "weekly.csv"
        path.write_text(
            "unit_id,iso_week,count_h1,count_h3,count_b\nu1,2015-W20,ten,0,0\n"
        )
        with pytest.raises(IngestionError, match="row 0"):
            list(co.read_weekly_csv(path))

    @pytest.mark.parametrize("line, message", [
        ("u1,2015-W21,3", "{path} row 1: short row"),
        ("u1,2015-W21,ten,0,0,z", "{path} row 1: invalid literal for int() with base 10: 'ten'"),
        ("u1,2015-W21,1,-2,0,", "row 1: negative count"),
        ("u1,2015-W99,1,2,0,", "bad iso_week '2015-W99': Invalid week: 99"),
        ("u1,2015/21,1,2,0,", "bad iso_week '2015/21', expected YYYY-Www"),
    ], ids=["short", "integer", "negative", "week", "week-format"])
    def test_ingest_errors_name_the_row(self, tmp_path, line, message):
        """Reading and summing a file: each malformed row's IngestionError
        text; blank lines do not count as rows."""
        path = tmp_path / "weekly.csv"
        path.write_text(f"unit_id,iso_week,count_h1,count_h3,count_b,itz\nu1,2015-W20,10,20,70,z\n\n{line}\n")
        with pytest.raises(IngestionError) as err:
            co.aggregate_counts(co.read_weekly_csv(path))
        assert str(err.value) == message.format(path=path)

    def test_first_bad_row_in_file_order_is_reported(self, tmp_path):
        """Rows are summed as they are read, so a negative count at row 5
        is reported before a short row at row 100."""
        path = tmp_path / "weekly.csv"
        rows = ["u1,2015-W20,1,2,3"] * 101
        rows[5], rows[100] = "u1,2015-W20,1,-2,3", "u1,2015-W20"
        path.write_text("\n".join(["unit_id,iso_week,count_h1,count_h3,count_b"] + rows) + "\n")
        with pytest.raises(IngestionError) as err:
            co.aggregate_counts(co.read_weekly_csv(path))
        assert str(err.value) == "row 5: negative count"

    @pytest.mark.parametrize("bad_row", [0, 3, 2000])
    def test_undecodable_bytes_name_their_row(self, tmp_path, bad_row):
        """A byte that is not UTF-8 is reported at its own row, also past
        the first 8 KiB the file decoder reads; valid UTF-8 reads as text."""
        path = tmp_path / "weekly.csv"
        rows = ["Zürich,2015-W20,1,2,3".encode()] * 2001
        write = lambda: path.write_bytes(b"\n".join([b"unit_id,iso_week,count_h1,count_h3,count_b"] + rows) + b"\n")
        write()
        assert [uy.unit_id for uy in co.aggregate_counts(co.read_weekly_csv(path))] == ["Zürich"]
        rows[bad_row] = b"u\xff1,2015-W20,1,2,3"
        write()
        with pytest.raises(IngestionError) as err:
            co.aggregate_counts(co.read_weekly_csv(path))
        assert str(err.value) == f"{path} row {bad_row}: not UTF-8 text"

    def test_undecodable_header(self, tmp_path):
        path = tmp_path / "weekly.csv"
        path.write_bytes(b"unit_id,iso_week,count_h1,count_h3,count_b\xff\nu1,2015-W20,1,2,3\n")
        with pytest.raises(IngestionError) as err:
            co.read_weekly_csv(path)
        assert str(err.value) == f"{path}: header is not UTF-8 text"

    def test_file_closes_when_rows_stop(self, tmp_path):
        """The file closes when the rows run out, on an error and when the
        iterator is closed early; an open file would warn when collected."""
        good, bad = tmp_path / "good.csv", tmp_path / "bad.csv"
        good.write_text("unit_id,iso_week,count_h1,count_h3,count_b\nu1,2015-W20,1,2,3\nu1,2015-W21,1,2,3\n")
        bad.write_text("unit_id,iso_week,count_h1,count_h3,count_b\nu1,2015-W20,1,2,3\nu1,2015-W20,x,2,3\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            assert len(list(co.read_weekly_csv(good))) == 2
            with pytest.raises(IngestionError):
                list(co.read_weekly_csv(bad))
            rows = co.read_weekly_csv(good)
            next(rows)
            rows.close()
            del rows
            gc.collect()
        assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []

    def test_ingest_memory_depends_on_unit_seasons_not_rows(self, tmp_path):
        """No list of weekly rows is held: four times the rows over the same
        40 unit-seasons and weeks peak within 64 KiB of each other (a list
        of tuples takes about 1.5 MiB more)."""
        peaks = []
        for n_rows in (2000, 8000):
            path = tmp_path / f"weekly{n_rows}.csv"
            with open(path, "w") as fh:
                fh.write("unit_id,iso_week,count_h1,count_h3,count_b,itz\n")
                for i in range(n_rows):
                    fh.write(f"u{i % 10},{2011 + i // 10 % 4}-W{20 + i % 30:02d},{i % 7},{i % 5},{i % 3},z{i % 10}\n")
            tracemalloc.start()
            unit_years = co.aggregate_counts(co.read_weekly_csv(path), min_total=0)
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
            assert len(unit_years) == 40
        assert peaks[1] - peaks[0] <= 64 * 1024

    def test_ilr_output_schema(self, tmp_path):
        uys = co.aggregate_counts([co.WeeklyRecord("u1", "2015-W20", 10, 20, 70, "z")])
        out = tmp_path / "ilr.csv"
        co.write_ilr_csv(uys, out)
        lines = out.read_text().splitlines()
        assert lines[0] == "unit_id,season,y1,y2,itz"
        fields = lines[1].split(",")
        assert fields[0] == "u1" and fields[4] == "z"
        pt = co.ilr_forward(uys[0].composition)
        assert float(fields[2]) == pytest.approx(pt.y1)

    def test_ilr_reader_roundtrip(self, tmp_path):
        uys = co.aggregate_counts([co.WeeklyRecord("u1", "2015-W20", 10, 20, 70, "z")])
        out = tmp_path / "ilr.csv"
        co.write_ilr_csv(uys, out)
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert rows[0]["unit_id"] == "u1" and rows[0]["itz"] == "z"
        assert co.IlrPoint(float(rows[0]["y1"]), float(rows[0]["y2"])) == co.ilr_forward(uys[0].composition)
