"""Value anchors for the extension experiments (E-EXT-*, E-ABL-*, E-ISO)."""

import math

import pytest

import repro.experiments  # noqa: F401 — registers everything
from repro.experiments.registry import get_experiment


class TestFullyAsync:
    def test_constant_factors(self):
        result = get_experiment("E-EXT-FULLASYNC")()
        for row in result.table("optimal speedup by overlap level").rows:
            _, kind, s_sync, s_async, s_full, ratio = row
            assert s_sync < s_async < s_full
            expected = math.sqrt(2) if kind == "strip" else 2 ** (1 / 3)
            assert ratio == pytest.approx(expected, rel=1e-6)

    def test_exponents_unchanged(self):
        result = get_experiment("E-EXT-FULLASYNC")()
        for row in result.table("fully-async growth exponents (unchanged)").rows:
            assert row[1] == pytest.approx(row[2], abs=1e-3)


class TestMappingAblation:
    def test_embedding_gain_grows(self):
        result = get_experiment("E-ABL-MAPPING")()
        gains = result.table(
            "optimal speedup with and without the embedding"
        ).column("embedding gain")
        assert all(g > 1 for g in gains)
        assert gains == sorted(gains)
        assert gains[-1] > gains[0]  # the embedding matters more at scale
        exponent = result.table("random-mapping growth exponent (drops below linear)")
        assert exponent.rows[0][0] < 0.999


class TestPlacementAblation:
    def test_identity_and_shift_conflict_free(self):
        result = get_experiment("E-ABL-PLACEMENT")()
        table = result.table("max switch-edge congestion by placement")
        assert all(row[1] == 1 for row in table.rows)  # identity
        assert all(row[2] == 1 for row in table.rows)  # shift

    def test_bit_reversal_explodes(self):
        result = get_experiment("E-ABL-PLACEMENT")()
        table = result.table("max switch-edge congestion by placement")
        reversal = table.column("bit reversal")
        assert reversal[-1] >= 4 * reversal[0]
        # Θ(sqrt N): congestion doubles every 4x in ports.
        assert reversal[-1] == 2 * reversal[-3]
        for row in table.rows:
            _, _, _, rev, rand, _ = row
            assert rev > 1
            assert 1 <= rand <= rev + 2


class TestIsoefficiency:
    def test_growth_laws(self):
        result = get_experiment("E-ISO")()
        table = result.table("n² growth exponent in N at efficiency 0.5")
        fitted = dict(zip(table.column("configuration"), table.column("fitted exponent")))
        assert fitted["hypercube / squares"] == pytest.approx(1.0, abs=0.15)
        assert fitted["sync bus / squares"] == pytest.approx(3.0, abs=0.1)
        assert fitted["sync bus / strips"] == pytest.approx(4.0, abs=0.1)
        assert 1.0 < fitted["banyan / squares"] < 2.0


class TestArbitration:
    def test_block_fifo_exact(self):
        result = get_experiment("E-ABL-ARBITRATION")()
        table = result.table("phase completion by discipline (V words/processor)")
        for row in table.rows:
            assert row[5] == pytest.approx(1.0, abs=1e-12)
            assert 0.7 <= row[6] <= 1.0 + 1e-12


class TestOperators:
    def test_fixed_point_and_radii(self):
        result = get_experiment("E-OPERATORS")()
        fixed = result.table("Jacobi fixed point vs sparse direct solve")
        assert all(row[2] < 1e-9 for row in fixed.rows)
        radii = {r[0]: r[1] for r in result.table("Jacobi iteration spectral radius").rows}
        assert radii["5-point"] == pytest.approx(
            math.cos(math.pi / 17), rel=1e-6
        )
        assert radii["9-point-star"] > 1.0
