"""Performance-criteria tests: worst-receiver rate, error criteria, combining
ceiling, optimal exchange count and who-starts-first regions."""
from __future__ import annotations

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from coopbc import metrics
from coopbc.af import campaign
from coopbc.channel import (
    Asymmetric,
    ChannelParams,
    CoopConfig,
    Protocol,
    Receiver,
    Regime,
    Strategy,
    Symmetric,
    plan_bandwidth,
)
from coopbc.metrics import (
    decision_regions,
    error_criteria,
    optimal_k,
    rate_af,
    simo_bound,
)


def from_db(params_db: tuple[float, float, float, float]) -> ChannelParams:
    """Unit-power scenario from (downlink1, downlink2, coop12, coop21) SNRs in dB."""
    s1, s2, s12, s21 = (10.0 ** (v / 10.0) for v in params_db)
    return ChannelParams(
        P=1.0, n1=1.0 / s1, n2=1.0 / s2, n12=1.0, n21=1.0, P12=s12, P21=s21, B=1.0
    )


FLAT = ChannelParams(P=1.0, n1=1.0, n2=1.0, n12=1.0, n21=1.0, P12=0.0, P21=0.0, B=1.0)


class TestRateAf:
    def test_equal_branches(self):
        assert rate_af(1.0, (3.0, 3.0)) == pytest.approx(2.0)
        assert rate_af(1.0, (0.0, 0.0)) == 0.0

    def test_min_branch_semantics(self):
        assert rate_af(1.0, (1e6, 3.0)) == pytest.approx(2.0)

    def test_shrinking_downlink_band(self):
        p = ChannelParams(P=10.0, n1=1.0, n2=1.0, n12=1.0, n21=1.0, P12=5.0, P21=5.0, B=6.0)
        cfg = CoopConfig(Protocol.AF, Symmetric(1), Strategy.S1, Regime.H1)
        plan = plan_bandwidth(p, cfg)
        assert plan.B_DL == pytest.approx(2.0)  # B / (2*1 + 1)
        assert rate_af(plan.B_DL, (7.0, 15.0)) == pytest.approx(2.0 * 3.0)


class TestCriteria:
    def test_worked_example(self):
        pe_max, pe_sum = error_criteria(0.1, 0.2, 0.25)
        assert pe_max == pytest.approx(0.2)
        assert pe_sum == pytest.approx(0.3)

    def test_error_free(self):
        assert error_criteria(0.0, 0.0, 0.0) == (0.0, 0.0)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            error_criteria(0.5, 1.5, 0.5)
        with pytest.raises(ValueError, match="sandwich"):
            error_criteria(0.1, 0.2, 0.05)

    @given(
        p1=st.floats(0.0, 0.5),
        p2=st.floats(0.0, 0.5),
        t=st.floats(0.0, 1.0),
    )
    def test_sandwich_interval_always_accepts_valid_joint_error(self, p1, p2, t):
        joint = max(p1, p2) + t * (p1 + p2 - max(p1, p2))
        lo, hi = error_criteria(p1, p2, joint)
        assert lo <= joint <= hi


class TestSimoBound:
    def test_two_unit_branches(self):
        assert simo_bound(FLAT) == pytest.approx(math.log2(3.0))

    def test_degenerate_second_branch(self):
        p = replace(FLAT, P=10.0, n2=1e15)
        assert simo_bound(p) == pytest.approx(math.log2(11.0), rel=1e-9)

    def test_explicit_band(self):
        p = replace(FLAT, P=10.0, B=2.0)
        assert simo_bound(p) == pytest.approx(2.0 * math.log2(1.0 + 5.0 + 5.0))


class TestOptimalK:
    def test_cooperation_only_costs_bandwidth(self):
        p = replace(FLAT, P=10.0)
        cfg = CoopConfig(Protocol.AF, Symmetric(0), Strategy.S1, Regime.H1)
        best, rates = optimal_k(p, cfg, 4)
        assert best == 0
        assert len(rates) == 5
        assert all(rates[i + 1] < rates[i] for i in range(4))

    def test_flat_tail_breaks_tie_to_one(self):
        p = from_db((10.0, 10.0, 30.0, 30.0))
        cfg = CoopConfig(Protocol.AF, Symmetric(1), Strategy.S2, Regime.H2)
        best, rates = optimal_k(p, cfg, 4)
        assert best == 1
        for k in (2, 3, 4):
            assert rates[k] == pytest.approx(rates[1], rel=1e-12)

    @pytest.mark.parametrize("strategy", [Strategy.S1, Strategy.S2])
    def test_fixed_band_scenario_peaks_by_two(self, strategy):
        p = from_db((10.0, 0.0, 30.0, 30.0))
        cfg = CoopConfig(Protocol.AF, Asymmetric(1, Receiver.R1), strategy, Regime.H1)
        best, rates = optimal_k(p, cfg, 6)
        assert 0 < best <= 2
        assert all(rates[k + 1] <= rates[k] * (1 + 1e-12) for k in range(2, 6))

    def test_overflowing_rate_names_b(self):
        # the SIMO bound B log2(1 + P/N1 + P/N2) bounds every rate, and
        # overflows at b = 1e308 while its logarithm does not
        p = ChannelParams(P=1e300, n1=1e-10, n2=1e-10, n12=1.0, n21=1.0, P12=1.0, P21=1.0,
                          B=1e308)
        cfg = CoopConfig(Protocol.AF, Asymmetric(2, Receiver.R1), Strategy.S1, Regime.H1)
        with pytest.raises(ValueError, match=r"\bb\b"):
            optimal_k(p, cfg, 2)

    def test_negative_bound_rejected(self):
        with pytest.raises(ValueError):
            optimal_k(FLAT, CoopConfig(Protocol.AF, Symmetric(0), Strategy.S1, Regime.H1), -1)


class TestDecisionRegions:
    PARAMS = ChannelParams(P=1.0, n1=1.0, n2=1.0, n12=1.0, n21=1.0, P12=10.0, P21=10.0, B=1.0)
    CONFIG = CoopConfig(Protocol.AF, Asymmetric(2, Receiver.R1), Strategy.S1, Regime.H1)
    RATIOS = (-30.0, -10.0, 0.0, 10.0, 30.0)

    def small(self, ratios=(0.0,), n=7, params=None, config=None):
        grid = np.logspace(-2, 2, n)
        return decision_regions(params or self.PARAMS, config or self.CONFIG, grid=grid,
                                ratios_db=ratios)

    def test_validation(self):
        sym = CoopConfig(Protocol.AF, Symmetric(2), Strategy.S1, Regime.H1)
        with pytest.raises(ValueError, match="asymmetric"):
            self.small(config=sym)
        with pytest.raises(ValueError, match="K >= 1"):
            self.small(config=self.CONFIG.with_count(0))
        with pytest.raises(ValueError, match="budget"):
            self.small(params=replace(self.PARAMS, P12=0.0, P21=0.0))
        for bad in (0.0, -1.0, float("inf"), float("nan")):
            with pytest.raises(ValueError, match="grid"):
                decision_regions(self.PARAMS, self.CONFIG, grid=[1.0, bad], ratios_db=(0.0,))

    def test_balanced_diagonal_is_a_tie(self):
        rm = self.small(ratios=(0.0,))
        for i in range(len(rm.grid)):
            assert rm.winners[0, i, i] == 0

    def test_swap_symmetry(self):
        rm = self.small(ratios=(-10.0, 10.0))
        np.testing.assert_array_equal(rm.winners[0], -rm.winners[1].T)

    def test_common_scaling_leaves_winners_unchanged(self):
        base = self.small(ratios=(10.0,), n=5)
        c = 7.5
        scaled_params = replace(
            self.PARAMS, P=c * self.PARAMS.P, n12=c * self.PARAMS.n12,
            n21=c * self.PARAMS.n21, P12=c * self.PARAMS.P12, P21=c * self.PARAMS.P21,
        )
        grid = c * np.logspace(-2, 2, 5)
        scaled = decision_regions(
            scaled_params, self.CONFIG, grid=grid, ratios_db=(10.0,)
        )
        np.testing.assert_array_equal(base.winners, scaled.winners)

    def test_boundary_points_line_in_grid_and_separate_signs(self):
        rm = self.small(ratios=(0.0,), n=9)
        assert len(rm.boundaries[0]) > 0
        lo, hi = rm.grid[0], rm.grid[-1]
        for n1, n2 in rm.boundaries[0]:
            assert n1 in rm.grid
            assert lo <= n2 <= hi

    @pytest.mark.parametrize("strategy", list(Strategy))
    def test_boundary_lists_ties_and_crossings_in_grid_order(self, strategy):
        rm = self.small(ratios=(-10.0, 0.0, 10.0), n=9, config=replace(self.CONFIG, strategy=strategy))
        grid = rm.grid
        for r, points in enumerate(rm.boundaries):
            expected = []  # (n1, grid n2 of a tie, or the bracket of a crossing)
            for i, n1 in enumerate(grid):
                for j, w in enumerate(rm.winners[r, i]):
                    if w == 0:
                        expected.append((n1, grid[j], grid[j]))
                    elif j + 1 < len(grid) and w * rm.winners[r, i, j + 1] < 0:
                        expected.append((n1, grid[j], grid[j + 1]))
            assert len(points) == len(expected)
            for (n1, n2), (e1, lo, hi) in zip(points, expected):
                assert n1 == e1 and lo <= n2 <= hi
                assert type(n1) is float and type(n2) is float

    def test_memory_of_a_101_point_grid(self):
        # five ratios of a 101 x 101 grid, both starters: 102,010 scenarios;
        # a 4x4 covariance per scenario with its step temporaries peaks at 90 MiB
        grid = np.logspace(-2, 2, 101)
        tracemalloc.start()
        try:
            rm = decision_regions(self.PARAMS, self.CONFIG, grid=grid, ratios_db=self.RATIOS)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rm.winners.shape == (5, 101, 101)
        assert peak < 64 * 2**20

    def test_memory_of_a_201_point_grid_is_one_chunk(self):
        # 404,010 scenarios, which peaked at 150 MiB as one batch; run in
        # chunks of a fixed scenario count, the peak is one chunk's
        # temporaries plus the map, whatever the grid size
        grid = np.logspace(-2, 2, 201)
        tracemalloc.start()
        try:
            rm = decision_regions(self.PARAMS, self.CONFIG, grid=grid, ratios_db=self.RATIOS)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rm.winners.shape == (5, 201, 201)
        assert peak < 16 * 2**20

    @pytest.mark.parametrize("regime", list(Regime))
    @pytest.mark.parametrize("strategy", list(Strategy))
    def test_every_cell_is_the_winner_of_its_own_campaigns(self, strategy, regime):
        # each cell on its own: both starters' campaigns at (n1, n2) =
        # (grid[i], grid[j]) under the ratio's budget split, rated over their
        # own plan's band (B = 5 makes it 5 under h2 and 5/3 under h1), and
        # the winner by the map's tie rule. Under s2 a budget's branches sum
        # to one SNR whatever their number, so every cell ties
        params = replace(self.PARAMS, B=5.0)
        config = replace(self.CONFIG, strategy=strategy, regime=regime)
        grid, ratios = np.logspace(-1, 1, 9), (-10.0, 0.0, 10.0)
        rm = decision_regions(params, config, grid=grid, ratios_db=ratios)
        total = params.P12 + params.P21
        starts = [replace(config, scheme=replace(config.scheme, starter=r)) for r in Receiver]
        for r, ratio in enumerate(10.0 ** (db / 10.0) for db in ratios):
            for i, j in np.ndindex(len(grid), len(grid)):
                cell = replace(params, n1=grid[i], n2=grid[j], P12=total * ratio / (1.0 + ratio),
                               P21=total / (1.0 + ratio))
                finals = [campaign(cell, c)[-1] for c in starts]
                r1, r2 = (float(rate_af(plan_bandwidth(cell, c).B_DL, (f.rho_I, f.rho_II)))
                          for c, f in zip(starts, finals))
                gap, tol = r1 - r2, metrics._TIE_TOL * max(r1, r2, 1.0)
                assert rm.winners[r, i, j] == (gap > tol) - (gap < -tol), (r, i, j)

    def test_one_curve_per_ratio(self):
        rm = self.small(ratios=(-10.0, 0.0, 10.0), n=6)
        assert len(rm.boundaries) == 3
        assert rm.winners.shape == (3, 6, 6)
