"""Spectral-resource accounting and power-split tests."""
from __future__ import annotations

import dataclasses

import numpy as np
import pytest

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
    power_per_exchange,
    power_schedule,
    transmissions_per_step,
    transmitter_at,
)

PARAMS = ChannelParams(P=10.0, n1=0.5, n2=2.0, n12=0.25, n21=1.0, P12=4.0, P21=6.0, B=8.0)


def _cfg(scheme, regime=Regime.H1) -> CoopConfig:
    return CoopConfig(Protocol.AF, scheme, Strategy.S1, regime)


class TestBandwidthPlan:
    def test_fixed_total_band_symmetric(self):
        plan = plan_bandwidth(PARAMS, _cfg(Symmetric(2)))
        # 2 pairs -> 4 cooperation sub-channels -> 5 equal slices of B
        assert plan.deltaB == pytest.approx(8.0 / 5.0)
        assert plan.B_DL == pytest.approx(8.0 / 5.0)
        assert plan.B_C == pytest.approx(4 * 8.0 / 5.0)
        assert plan.B_DL + plan.B_C == pytest.approx(PARAMS.B)

    def test_fixed_total_band_asymmetric(self):
        plan = plan_bandwidth(PARAMS, _cfg(Asymmetric(3)))
        assert plan.deltaB == pytest.approx(8.0 / 4.0)
        assert plan.B_DL + plan.B_C == pytest.approx(PARAMS.B)

    def test_fixed_downlink_band(self):
        for scheme in (Symmetric(3), Asymmetric(5)):
            plan = plan_bandwidth(PARAMS, _cfg(scheme, Regime.H2))
            assert plan.B_DL == PARAMS.B
            assert plan.deltaB == PARAMS.B

    def test_no_cooperation_uses_full_band(self):
        for regime in Regime:
            for scheme in (Symmetric(0), Asymmetric(0)):
                plan = plan_bandwidth(PARAMS, _cfg(scheme, regime))
                assert plan.B_DL == PARAMS.B
                assert plan.B_C == 0.0

    def test_noise_powers_scale_with_bandwidth(self):
        plan = plan_bandwidth(PARAMS, _cfg(Symmetric(2)))
        assert plan.N1 == pytest.approx(PARAMS.n1 * plan.B_DL)
        assert plan.N2 == pytest.approx(PARAMS.n2 * plan.B_DL)
        assert plan.N12 == pytest.approx(PARAMS.n12 * plan.deltaB)
        assert plan.N21 == pytest.approx(PARAMS.n21 * plan.deltaB)


class TestPowerPerExchange:
    def test_symmetric_even_split(self):
        cfg = _cfg(Symmetric(4))
        for i in range(1, 5):
            assert power_per_exchange(PARAMS, cfg, i) == (1.0, 1.5)

    def test_asymmetric_even_count(self):
        cfg = _cfg(Asymmetric(2))
        assert power_per_exchange(PARAMS, cfg, 1) == (4.0, 6.0)
        assert power_per_exchange(PARAMS, cfg, 2) == (4.0, 6.0)

    def test_asymmetric_odd_count(self):
        # starter transmits (Ka+1)/2 times, the partner (Ka-1)/2 times
        cfg = _cfg(Asymmetric(3))
        assert power_per_exchange(PARAMS, cfg, 1) == (2.0, 6.0)

    def test_single_exchange_is_starter_only(self):
        cfg = _cfg(Asymmetric(1))
        assert power_per_exchange(PARAMS, cfg, 1) == (4.0, 0.0)
        cfg2 = _cfg(Asymmetric(1, starter=Receiver.R2))
        assert power_per_exchange(PARAMS, cfg2, 1) == (0.0, 6.0)

    @pytest.mark.parametrize("k", range(1, 7))
    @pytest.mark.parametrize("starter", [Receiver.R1, Receiver.R2])
    def test_asymmetric_budget_conservation(self, k, starter):
        cfg = _cfg(Asymmetric(k, starter=starter))
        spent = {Receiver.R1: 0.0, Receiver.R2: 0.0}
        for i in range(1, k + 1):
            p12, p21 = power_per_exchange(PARAMS, cfg, i)
            tx = transmitter_at(cfg.scheme, i)
            spent[tx] += p12 if tx is Receiver.R1 else p21
        assert spent[starter] == pytest.approx(4.0 if starter is Receiver.R1 else 6.0)
        other_budget = 6.0 if starter is Receiver.R1 else 4.0
        assert spent[starter.other] == pytest.approx(0.0 if k == 1 else other_budget)

    @pytest.mark.parametrize("k", range(1, 7))
    def test_symmetric_budget_conservation(self, k):
        cfg = _cfg(Symmetric(k))
        total = np.sum([power_per_exchange(PARAMS, cfg, i) for i in range(1, k + 1)], axis=0)
        assert total == pytest.approx([4.0, 6.0])

    @pytest.mark.parametrize("scheme", [
        Symmetric(0), Symmetric(3), Asymmetric(1), Asymmetric(4), Asymmetric(5, Receiver.R2),
    ])
    def test_schedule_lays_out_the_split(self, scheme):
        cfg = _cfg(scheme)
        schedule = power_schedule(PARAMS, cfg)
        assert schedule.shape == (cfg.count, 2)
        for i, row in enumerate(schedule, start=1):
            powers = power_per_exchange(PARAMS, cfg, i)
            sends = ((True, True) if isinstance(scheme, Symmetric)
                     else (transmitter_at(scheme, i) is Receiver.R1,
                           transmitter_at(scheme, i) is Receiver.R2))
            assert tuple(row) == tuple(p if s else 0.0 for p, s in zip(powers, sends))

    def test_index_bounds(self):
        cfg = _cfg(Symmetric(2))
        with pytest.raises(ValueError):
            power_per_exchange(PARAMS, cfg, 0)
        with pytest.raises(ValueError):
            power_per_exchange(PARAMS, cfg, 3)
        with pytest.raises(ValueError):
            power_per_exchange(PARAMS, _cfg(Symmetric(0)), 1)


class TestSchemes:
    def test_counts_and_transmissions(self):
        assert Symmetric(3).count == 3
        assert Asymmetric(5).count == 5
        assert transmissions_per_step(Symmetric(3)) == 2
        assert transmissions_per_step(Asymmetric(3)) == 1

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            Symmetric(-1)
        with pytest.raises(ValueError):
            Asymmetric(-2)

    def test_with_count_preserves_everything_else(self):
        cfg = CoopConfig(Protocol.DF, Asymmetric(4, starter=Receiver.R2), Strategy.S2, Regime.H2)
        cfg2 = cfg.with_count(7)
        assert cfg2.count == 7
        assert cfg2.scheme.starter is Receiver.R2
        assert (cfg2.protocol, cfg2.strategy, cfg2.regime) == (cfg.protocol, cfg.strategy, cfg.regime)
        assert cfg.count == 4  # original untouched

    def test_alternation(self):
        scheme = Asymmetric(4)
        assert [transmitter_at(scheme, i) for i in range(1, 5)] == [
            Receiver.R1, Receiver.R2, Receiver.R1, Receiver.R2,
        ]
        mirrored = Asymmetric(4, starter=Receiver.R2)
        assert transmitter_at(mirrored, 1) is Receiver.R2
        with pytest.raises(TypeError):
            transmitter_at(Symmetric(2), 1)

    def test_receiver_other(self):
        assert Receiver.R1.other is Receiver.R2
        assert Receiver.R2.other is Receiver.R1


class TestChannelParams:
    def test_positivity_enforced(self):
        with pytest.raises(ValueError):
            dataclasses.replace(PARAMS, P=0.0)
        with pytest.raises(ValueError):
            dataclasses.replace(PARAMS, n2=-1.0)
        with pytest.raises(ValueError):
            dataclasses.replace(PARAMS, P12=-0.5)

    def test_zero_cooperation_budgets_allowed(self):
        p = dataclasses.replace(PARAMS, P12=0.0, P21=0.0)
        assert p.P12 == 0.0 and p.P21 == 0.0

    @pytest.mark.parametrize("field", [f.name for f in dataclasses.fields(ChannelParams)])
    @pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
    def test_non_finite_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            dataclasses.replace(PARAMS, **{field: value})
