"""Integration tests: every experiment runs and reproduces its anchors.

These are the repo's paper-facing acceptance tests — each asserts the
*shape* results the reproduction promises in EXPERIMENTS.md (who wins,
by what law, where thresholds sit), not absolute times.
"""

import math

import pytest

import repro.experiments  # noqa: F401 — registers everything
from repro.experiments.registry import all_experiments


class TestAllRun:
    @pytest.mark.parametrize("exp_id", sorted(all_experiments()))
    def test_runs_and_renders(self, experiment, exp_id):
        if exp_id.startswith("E-TEST"):
            pytest.skip("registry-test fixture entry")
        result = experiment(exp_id)
        assert result.experiment_id == exp_id
        assert result.tables, f"{exp_id} produced no tables"
        assert result.render()


class TestKTable:
    def test_paper_k_values(self, experiment):
        result = experiment("E-KTAB")
        rows = {(r[0], r[1]): r[2] for r in result.table("k values").rows}
        assert rows[("strip", "5-point")] == 1
        assert rows[("square", "9-point-box")] == 1
        assert rows[("strip", "9-point-star")] == 2
        assert rows[("square", "9-point-star")] == 2
        assert rows[("strip", "13-point")] == 2
        assert rows[("square", "13-point")] == 2

    def test_stencil_properties(self, experiment):
        """Figures 1 and 3: E(S), diagonal reads and reach."""
        result = experiment("E-KTAB")
        props = {row[0]: row for row in result.table("stencil properties").rows}
        assert props["5-point"][1] == 5.0
        assert props["9-point-box"][3] == "yes"
        assert props["9-point-star"][2] == 2


class TestFigure6:
    def test_error_bounds(self, experiment):
        result = experiment("E-FIG6")
        for row in result.table("summary").rows:
            frac_area_ok = row[4]
            frac_perim_ok = row[7]
            assert frac_area_ok >= 0.85
            assert frac_perim_ok >= 0.85

    def test_series_covers_the_256_sweep(self, experiment):
        """Every even target area in [1024, 16384]: Figure 6's bars."""
        result = experiment("E-FIG6")
        series = result.table("series n=256")
        assert len(series.rows) == 7681
        assert series.rows[0][0] == 1024
        assert series.rows[-1][0] == 16384
        # The report names the series' CSV instead of printing its rows.
        assert "series n=256: 7681 rows, in e-fig6_series_n256.csv" in result.render()


class TestFigure7:
    def test_anchor_row(self, experiment):
        result = experiment("E-FIG7")
        anchor = result.table(
            "Section 6.1 anchor: max useful processors on 256x256 squares"
        )
        computed = anchor.column("computed")
        assert computed[0] == pytest.approx(14.0, abs=0.2)
        assert computed[1] == pytest.approx(22.2, abs=0.3)

    @pytest.mark.parametrize("stencil", ["5-point", "9-point-box"])
    def test_strips_require_larger_problems(self, experiment, stencil):
        result = experiment("E-FIG7")
        table = result.table(f"log2(n^2_min) — {stencil}")
        sync_strip = table.column("(a) sync strip")
        sync_square = table.column("(c) sync square")
        assert all(st >= sq for st, sq in zip(sync_strip, sync_square))

    @pytest.mark.parametrize("stencil", ["5-point", "9-point-box"])
    def test_thresholds_grow_with_n(self, experiment, stencil):
        result = experiment("E-FIG7")
        table = result.table(f"log2(n^2_min) — {stencil}")
        for col in table.headers[1:]:
            series = table.column(col)
            assert all(b > a for a, b in zip(series, series[1:])), col


class TestFigure8:
    def test_exponents(self, experiment):
        result = experiment("E-FIG8")
        for stencil in ("5-point", "9-point-box"):
            fits = {
                row[0]: row[1]
                for row in result.table(
                    f"fitted speedup exponents — {stencil}"
                ).rows
            }
            assert fits["squares"] == pytest.approx(1 / 3, abs=1e-3)
            assert fits["strips"] == pytest.approx(1 / 4, abs=1e-3)

    @pytest.mark.parametrize("stencil", ["5-point", "9-point-box"])
    def test_squares_always_beat_strips(self, experiment, stencil):
        result = experiment("E-FIG8")
        table = result.table(f"curves — {stencil}")
        sq = table.column("speedup (squares)")
        st = table.column("speedup (strips)")
        assert all(a > b for a, b in zip(sq, st))
        # Both grow with n, and efficiency stays below one.
        assert all(b > a for a, b in zip(sq, sq[1:]))
        procs_sq = table.column("processors (squares)")
        assert all(p > s for p, s in zip(procs_sq, sq))


class TestTable1:
    def test_growth_exponents(self, experiment):
        result = experiment("E-TAB1")
        fits = {row[0]: row[1] for row in result.table("fitted growth exponents").rows}
        assert fits["hypercube"] == pytest.approx(1.0, abs=1e-6)
        assert fits["mesh"] == pytest.approx(1.0, abs=1e-6)
        assert 0.85 < fits["switching network"] < 1.0
        assert fits["synchronous bus"] == pytest.approx(1 / 3, abs=1e-3)
        assert fits["asynchronous bus"] == pytest.approx(1 / 3, abs=1e-3)

    def test_async_sync_ratios(self, experiment):
        result = experiment("E-TAB1")
        rows = {r[0]: r[1] for r in result.table("async/sync optimal-speedup ratios").rows}
        assert rows["squares"] == pytest.approx(1.5, rel=1e-6)
        assert rows["strips"] == pytest.approx(math.sqrt(2), rel=1e-6)

    def test_architecture_ordering_at_large_n(self, experiment):
        """Networks crush buses; async beats sync.  Hypercube-vs-banyan
        absolute ordering is parameter-dependent (Section 7: 'the true
        difference … will not depend on the log factor, but on the
        relative speeds of the communication networks'), so only the
        bus relations are asserted pointwise."""
        result = experiment("E-TAB1")
        table = result.table("optimal speedup vs grid size (square partitions)")
        last = table.rows[-1]
        headers = table.headers
        val = dict(zip(headers, last))
        assert val["hypercube"] > 100 * val["asynchronous bus"]
        assert val["switching network"] > 100 * val["asynchronous bus"]
        assert val["asynchronous bus"] > val["synchronous bus"]
        assert val["mesh"] == pytest.approx(val["hypercube"])


class TestInText:
    def test_squares_beat_strips_in_every_accounting(self, experiment):
        result = experiment("E-TEXT1")
        for row in result.table("speedup at N=16").rows:
            _, st_rw, sq_rw, st_ro, sq_ro, st_paper, sq_paper = row
            assert sq_rw > st_rw
            assert sq_ro > st_ro
            assert sq_paper > st_paper
        rows = {r[0]: r for r in result.table("speedup at N=16").rows}
        assert rows[1024][1] > rows[256][1]

    def test_paper_printed_values(self, experiment):
        result = experiment("E-TEXT1")
        rows = {r[0]: r for r in result.table("speedup at N=16").rows}
        # Paper: strips 16/(1+512/n), squares 16/(1+128/n).
        assert rows[1024][5] == pytest.approx(10.67, abs=0.01)
        assert rows[256][6] == pytest.approx(10.67, abs=0.01)
        assert rows[1024][6] == pytest.approx(14.2, abs=0.05)
        assert rows[1024][6] == pytest.approx(14.22, abs=0.05)

    def test_flex32_always_all_processors(self, experiment):
        result = experiment("E-TEXT2")
        table = result.table("FLEX/32-style bus (c/b = 1000) allocations")
        for row in table.rows:
            assert row[3] in ("all", "one")
            assert row[3] != "interior"
            assert row[2] == pytest.approx(1000.0, abs=1e-9)
        # Large problems use every processor available.
        assert all(row[4] == row[1] for row in table.rows if row[0] >= 512)

    def test_leverage_factors(self, experiment):
        result = experiment("E-TEXT3")
        table = result.table("cycle-time factor after 2x speedup of one component")
        for row in table.rows:
            assert row[2] == pytest.approx(row[3], rel=1e-6)
        measured = {(row[0], row[1]): row[2] for row in table.rows}
        assert measured[("strip", "b")] == pytest.approx(1 / math.sqrt(2), abs=1e-9)
        assert measured[("strip", "t_flop")] == pytest.approx(1 / math.sqrt(2), abs=1e-9)
        assert measured[("square", "b")] == pytest.approx(0.5 ** (2 / 3), abs=1e-9)
        assert measured[("square", "t_flop")] == pytest.approx(0.5 ** (1 / 3), abs=1e-9)

    def test_c_dominated_leverage(self, experiment):
        """When c dominates, bus speed barely helps and c is the lever."""
        result = experiment("E-TEXT3")
        heavy = result.table("c-dominated bus (c/b=1000): leverage of 2x speedups")
        factors = {row[0]: row[1] for row in heavy.rows}
        assert factors["b"] > 0.95
        assert factors["c"] < factors["b"]

    def test_async_factors(self, experiment):
        result = experiment("E-TEXT4")
        for row in result.table("async/sync ratios").rows:
            assert row[1] == pytest.approx(math.sqrt(2), rel=1e-6)
            assert row[2] == pytest.approx(1.5, rel=1e-6)
            assert row[3] == pytest.approx(math.sqrt(2), abs=1e-9)


class TestScaledAndExtremal:
    def test_hypercube_linearity_spread_is_zero(self, experiment):
        result = experiment("E-SCAL")
        spread = result.table("hypercube speedup / n² (constant = exactly linear)")
        assert spread.rows[0][2] == pytest.approx(0.0, abs=1e-12)

    def test_banyan_trails_the_cube_by_a_growing_factor(self, experiment):
        result = experiment("E-SCAL")
        table = result.table("scaled speedup, F = 64 points/processor")
        gap = table.column("cube/banyan")
        assert all(b >= a for a, b in zip(gap, gap[1:]))
        assert gap[-1] > 1.0

    def test_all_extremal(self, experiment):
        result = experiment("E-EXTREME")
        table = result.table("best processor count over P in [1, 64], n=64 squares")
        assert all(row[2] == "yes" for row in table.rows)
        best = {row[0]: row[1] for row in table.rows}
        assert best["hypercube"] == 64  # good network: spread maximally
        assert best["hypercube (slow net)"] == 1  # terrible network: stay serial


class TestSimulationValidation:
    def test_rankings_agree_everywhere(self, experiment):
        result = experiment("E-SIMVAL")
        table = result.table("validation summary")
        agrees = table.column("ranking agrees")
        best_model = table.column("best P (model)")
        best_sim = table.column("best P (sim)")
        # Rankings must agree, or disagree only between adjacent sweep
        # points (flat optimum region).
        for ok, bm, bs in zip(agrees, best_model, best_sim):
            if ok != "yes":
                assert max(bm, bs) <= 2 * min(bm, bs)

    def test_bus_model_is_upper_envelope(self, experiment):
        result = experiment("E-SIMVAL")
        summary = result.table("validation summary")
        for row in summary.rows:
            assert row[2] <= 0.02  # mean relative error <= 0 (+ tolerance)

    def test_neighbour_networks_are_near_exact(self, experiment):
        """Hypercube and banyan agree within a few percent; the 9-point
        box runs ~6% because its diagonal halo points are exactly the
        corner volume footnote 4 ignores."""
        result = experiment("E-SIMVAL")
        summary = result.table("validation summary")
        tight = [r for r in summary.rows if "hypercube" in r[0] or "banyan" in r[0]]
        assert tight
        for r in tight:
            assert r[3] < (0.05 if r[1] == "5-point" else 0.08)

    def test_pipelined_scheduling_only_helps(self, experiment):
        result = experiment("E-SIMVAL")
        ablation = result.table("bus scheduling ablation (simulated cycle time)")
        barrier = {r[1]: r[2] for r in ablation.rows if r[0] == "barrier"}
        pipelined = {r[1]: r[2] for r in ablation.rows if r[0] == "pipelined"}
        assert barrier
        assert all(pipelined[p] <= barrier[p] + 1e-15 for p in barrier)


class TestSolver:
    def test_substrate_anchors(self, experiment):
        result = experiment("E-SOLVE")
        order_table = result.table("5-point discretization error (order -> 2.0)")
        assert all(row[3] > 1.7 for row in order_table.rows[1:])
        eq = result.table("parallel vs sequential (bit-identical iterates)")
        assert [row[3] for row in eq.rows] == ["yes"] * 3
        vols = result.table("measured halo read volume vs model (interior partitions)")
        for row in vols.rows:
            # The exchange plan ships full ghost frames (corners included),
            # so blocks measure slightly above the model's corner-free
            # 4ks; strips match exactly.
            assert 0.5 <= row[4] <= 1.10
