"""Text tables, ASCII plots, CSV writers."""

import csv

import pytest

from repro.report.ascii_plot import bar_chart, line_plot, multi_line_plot
from repro.report.csvio import write_csv
from repro.report.tables import format_kv_block, format_table


class TestTables:
    def test_alignment_and_rule(self):
        out = format_table(["n", "speedup"], [[256, 10.67], [1024, 14.2]])
        lines = out.splitlines()
        assert lines[0].startswith("n")
        assert set(lines[1]) <= {"-", " "}
        assert "256" in lines[2]

    def test_title_block(self):
        out = format_table(["a"], [[1]], title="T")
        assert out.splitlines()[0] == "T"
        assert out.splitlines()[1] == "="

    def test_mismatched_row_rejected(self):
        with pytest.raises(ValueError, match="columns"):
            format_table(["a", "b"], [[1]])

    def test_float_formatting(self):
        out = format_table(["x"], [[1.23456789e-9]])
        assert "e-09" in out

    def test_kv_block(self):
        out = format_kv_block({"alpha": 1, "b": 2.5}, title="params")
        assert "alpha : 1" in out
        assert out.splitlines()[0] == "params"


class TestPlots:
    def test_line_plot_contains_range_labels(self):
        out = line_plot([1, 2, 3], [10.0, 20.0, 15.0], width=20, height=5)
        assert "[10, 20]" in out
        assert out.count("\n") >= 6

    def test_multi_line_legend(self):
        out = multi_line_plot(
            [1, 2], {"up": [1.0, 2.0], "down": [2.0, 1.0]}, width=10, height=4
        )
        assert "* up" in out
        assert "+ down" in out

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            multi_line_plot([1, 2], {"s": [1.0]})

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            multi_line_plot([], {})

    def test_flat_series_renders(self):
        out = line_plot([1, 2, 3], [5.0, 5.0, 5.0], width=12, height=4)
        assert "*" in out

    def test_single_point_renders_mid_canvas(self):
        # One sample: both axes are degenerate; the marker clamps to the
        # middle column/row instead of dividing by the zero span.
        out = line_plot([3.0], [7.0], width=11, height=5)
        lines = out.splitlines()
        canvas = [l[1:] for l in lines if l.startswith("|")]
        assert canvas[5 // 2][11 // 2] == "*"

    def test_constant_x_values_render_mid_column(self):
        # All x equal (a vertical series) must not crash the x-scaler.
        out = multi_line_plot(
            [4.0, 4.0, 4.0], {"s": [1.0, 2.0, 3.0]}, width=9, height=5
        )
        for line in out.splitlines():
            if line.startswith("|") and "*" in line:
                assert line[1:].index("*") == 9 // 2

    def test_constant_everything_renders(self):
        out = multi_line_plot([2.0, 2.0], {"s": [5.0, 5.0]}, width=8, height=4)
        assert "*" in out

    def test_nan_and_inf_anywhere_render_without_crashing(self):
        # min/max are order-dependent with NaN: a NaN that is not in the
        # winning position leaves the span finite, so the guard must
        # scan the values, not just the span.
        nan, inf = float("nan"), float("inf")
        for xs, ys in [
            ([1.0, nan, 2.0], [1.0, 2.0, 3.0]),
            ([1.0, 2.0, 3.0], [1.0, nan, 2.0]),
            ([1.0, 2.0], [inf, 1.0]),
        ]:
            assert "|" in line_plot(xs, ys, width=8, height=3)

    def test_bar_chart(self):
        out = bar_chart(["a", "bb"], [1.0, 2.0], width=10)
        lines = out.splitlines()
        assert lines[0].count("#") == 5
        assert lines[1].count("#") == 10

    def test_bar_chart_validation(self):
        with pytest.raises(ValueError):
            bar_chart(["a"], [1.0, 2.0])
        with pytest.raises(ValueError):
            bar_chart([], [])


class TestCsv:
    def test_roundtrip(self, tmp_path):
        path = write_csv(tmp_path / "out.csv", ["a", "b"], [[1, 2.5], [3, 4.5]])
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["a", "b"]
        assert rows[1] == ["1", "2.5"]

    def test_creates_parent_dirs(self, tmp_path):
        path = write_csv(tmp_path / "sub" / "dir" / "x.csv", ["h"], [[1]])
        assert path.exists()

    def test_bad_row_width_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="cells"):
            write_csv(tmp_path / "x.csv", ["a", "b"], [[1]])


class TestSlugify:
    def test_ascii_only_output(self):
        from repro.report.csvio import slugify

        names = [
            "log2(n^2_min) — 5-point",
            "n² growth exponent in N at efficiency 0.5",
            "section 6.1 anchor: max useful processors on 256x256 squares",
            "best processor count over P in [1, 64], n=64 squares",
            "c-dominated bus (c/b=1000): leverage of 2x speedups",
        ]
        for name in names:
            slug = slugify(name)
            assert slug
            assert all(c.islower() or c.isdigit() or c in "._-" for c in slug), slug

    def test_known_foldings(self):
        from repro.report.csvio import slugify

        assert slugify("log2(n^2_min) — 5-point") == "log2n2_min_-_5-point"
        assert slugify("n² growth / exponent") == "n2_growth_-_exponent"
        assert slugify("a: b, (c)") == "a_b_c"

    def test_empty_or_symbol_only_names_get_placeholder(self):
        from repro.report.csvio import slugify

        assert slugify("§§§") == "table"

    def test_distinct_names_stay_distinct(self):
        from repro.report.csvio import slugify

        assert slugify("curves — 5-point") != slugify("curves — 9-point-box")


class TestArtifactNaming:
    def test_csv_filename_is_safe(self):
        from repro.report.csvio import csv_filename

        name = csv_filename("E-FIG7", "log2(n^2_min) — 5-point")
        assert name == "e-fig7_log2n2_min_-_5-point.csv"

    def test_write_csvs_uses_slugs(self, tmp_path):
        from repro.experiments.registry import ExperimentResult

        result = ExperimentResult(experiment_id="E-X", title="t")
        result.add_table("log2(n^2_min) — 5-point", ["a"], [[1]])
        (path,) = result.write_csvs(tmp_path)
        assert path.name == "e-x_log2n2_min_-_5-point.csv"
