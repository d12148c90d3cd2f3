"""Spectral-resource accounting and power-split tests."""
from __future__ import annotations

import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    plan_sweep,
)
from oracles import (
    exchange_powers,
    other,
    power_schedule,
    scalar_plan,
    transmissions,
    transmitter_at,
)

PARAMS = ChannelParams(P=10.0, n1=0.5, n2=2.0, n12=0.25, n21=1.0, P12=4.0, P21=6.0, B=8.0)


def _cfg(scheme, regime=Regime.H1) -> CoopConfig:
    return CoopConfig(Protocol.AF, scheme, Strategy.S1, regime)


class TestBandwidthPlan:
    def test_fixed_total_band_symmetric(self):
        plan = plan_bandwidth(PARAMS, _cfg(Symmetric(2)))
        # 2 pairs -> 4 cooperation sub-channels -> 5 equal slices of B
        assert plan.B_DL == pytest.approx(8.0 / 5.0)
        assert plan.B_C == pytest.approx(4 * 8.0 / 5.0)
        assert plan.B_DL + plan.B_C == pytest.approx(PARAMS.B)

    def test_fixed_total_band_asymmetric(self):
        plan = plan_bandwidth(PARAMS, _cfg(Asymmetric(3)))
        assert plan.B_DL == pytest.approx(8.0 / 4.0)
        assert plan.B_DL + plan.B_C == pytest.approx(PARAMS.B)

    def test_fixed_downlink_band(self):
        for scheme in (Symmetric(3), Asymmetric(5)):
            cfg = _cfg(scheme, Regime.H2)
            plan = plan_bandwidth(PARAMS, cfg)
            assert plan.B_DL == PARAMS.B  # every sub-channel is as wide as the downlink
            assert plan.B_C == sum(transmissions(cfg)) * PARAMS.B

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
        assert plan.N12 == pytest.approx(PARAMS.n12 * plan.B_DL)
        assert plan.N21 == pytest.approx(PARAMS.n21 * plan.B_DL)


def _layout(period: np.ndarray, k: int) -> np.ndarray:
    """(k, 2) powers of exchanges 1..k: exchange t (from 0) sends row t % 2."""
    return period[np.arange(k) % 2]


class TestPowerPerExchange:
    def test_symmetric_even_split(self):
        cfg = _cfg(Symmetric(4))
        assert transmissions(cfg) == (4, 4)
        assert power_schedule(PARAMS, cfg).tolist() == [[1.0, 1.5], [1.0, 1.5]]

    def test_asymmetric_even_count(self):
        cfg = _cfg(Asymmetric(2))
        assert transmissions(cfg) == (1, 1)
        assert power_schedule(PARAMS, cfg).tolist() == [[4.0, 0.0], [0.0, 6.0]]

    def test_asymmetric_odd_count(self):
        # starter transmits (Ka+1)/2 times, the partner (Ka-1)/2 times
        cfg = _cfg(Asymmetric(3))
        assert transmissions(cfg) == (2, 1)
        assert power_schedule(PARAMS, cfg).tolist() == [[2.0, 0.0], [0.0, 6.0]]

    def test_single_exchange_is_starter_only(self):
        cfg = _cfg(Asymmetric(1))
        assert transmissions(cfg) == (1, 0)
        assert power_schedule(PARAMS, cfg).tolist() == [[4.0, 0.0], [0.0, 0.0]]
        cfg2 = _cfg(Asymmetric(1, starter=Receiver.R2))
        assert transmissions(cfg2) == (0, 1)
        assert power_schedule(PARAMS, cfg2).tolist() == [[0.0, 6.0], [0.0, 0.0]]

    @pytest.mark.parametrize("k", range(1, 7))
    @pytest.mark.parametrize("starter", [Receiver.R1, Receiver.R2])
    def test_asymmetric_budget_conservation(self, k, starter):
        cfg = _cfg(Asymmetric(k, starter=starter))
        spent = {Receiver.R1: 0.0, Receiver.R2: 0.0}
        for i, (p12, p21) in enumerate(_layout(power_schedule(PARAMS, cfg), k), start=1):
            tx = transmitter_at(cfg.scheme, i)
            assert (p21 if tx is Receiver.R1 else p12) == 0.0  # the listener is silent
            spent[tx] += p12 if tx is Receiver.R1 else p21
        assert spent[starter] == pytest.approx(4.0 if starter is Receiver.R1 else 6.0)
        other_budget = 6.0 if starter is Receiver.R1 else 4.0
        assert spent[other(starter)] == pytest.approx(0.0 if k == 1 else other_budget)

    @pytest.mark.parametrize("k", range(1, 7))
    def test_symmetric_budget_conservation(self, k):
        cfg = _cfg(Symmetric(k))
        total = _layout(power_schedule(PARAMS, cfg), k).sum(axis=0)
        assert total == pytest.approx([4.0, 6.0])

    @pytest.mark.parametrize("scheme", [
        Symmetric(0), Symmetric(3), Asymmetric(1), Asymmetric(4), Asymmetric(5, Receiver.R2),
    ])
    def test_schedule_lays_out_the_split(self, scheme):
        cfg = _cfg(scheme)
        period = power_schedule(PARAMS, cfg)
        assert period.shape == (2, 2)
        assert _layout(period, cfg.count).tolist() == exchange_powers(PARAMS, cfg).tolist()

    @given(
        scheme=st.one_of(
            st.builds(Symmetric, st.integers(0, 64)),
            st.builds(Asymmetric, st.integers(0, 64), st.sampled_from(list(Receiver))),
        ),
        budgets=st.tuples(*[st.one_of(st.just(0.0), st.floats(1e-300, 1e300))] * 2),
    )
    @settings(max_examples=300, deadline=None)
    def test_period_equals_the_per_exchange_split(self, scheme, budgets):
        # budget / sends and the case-by-case 2 budget / k or 2 budget / (k + 1)
        # are correctly rounded quotients of one real number, so equal
        params = dataclasses.replace(PARAMS, P12=budgets[0], P21=budgets[1])
        cfg = _cfg(scheme)
        expected = exchange_powers(params, cfg)
        assert np.array_equal(_layout(power_schedule(params, cfg), cfg.count), expected)
        if 0.0 not in budgets:  # a receiver's power goes out on its transmissions only
            assert transmissions(cfg) == tuple((expected > 0).sum(axis=0))


SCHEMES = st.sampled_from([Symmetric(0), Asymmetric(0), Asymmetric(0, Receiver.R2)])
# normal and subnormal bands: at B = 5e-324 every count that sends underflows
BANDS = st.one_of(st.floats(1e-3, 1e6), st.floats(5e-324, 1e-305), st.just(5e-324))
BUDGETS = st.tuples(*[st.one_of(st.just(0.0), st.floats(5e-324, 1e300))] * 2)


class TestPlanSweep:
    """`plan_sweep` runs the scalar rules of one count (the oracles'
    `scalar_plan`, `transmissions` and `power_schedule`) elementwise over a
    sweep of counts, bit for bit, and raises their first fault."""

    @given(scheme=SCHEMES, regime=st.sampled_from(list(Regime)), B=BANDS, budgets=BUDGETS,
           counts=st.lists(st.integers(0, 32768), max_size=6))
    @settings(max_examples=400, deadline=None)
    def test_equals_the_scalar_rules(self, scheme, regime, B, budgets, counts):
        params = dataclasses.replace(PARAMS, B=B, P12=budgets[0], P21=budgets[1])
        config = _cfg(scheme, regime)
        configs = [config.with_count(k) for k in counts]
        try:
            plans = [scalar_plan(params, c) for c in configs]
        except ValueError as exc:  # the line of the first count that underflows
            with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
                plan_sweep(params, config, counts)
            return
        bands, noises, periods, sends = plan_sweep(params, config, counts)
        S = len(counts)
        assert bands.tobytes() == np.array([(p.B_DL, p.B_C) for p in plans]).reshape(S, 2).tobytes()
        assert noises.tobytes() == np.array([(p.N1, p.N2, p.N12, p.N21) for p in plans]
                                            ).reshape(S, 4).tobytes()
        assert periods.tobytes() == np.array([power_schedule(params, c) for c in configs]
                                             ).reshape(S, 2, 2).tobytes()
        assert sends.tolist() == [list(transmissions(c)) for c in configs]

    @given(scheme=SCHEMES, regime=st.sampled_from(list(Regime)), budgets=BUDGETS,
           counts=st.lists(st.integers(0, 32768), min_size=1, max_size=6))
    @settings(max_examples=100, deadline=None)
    def test_plan_bandwidth_is_a_row_of_the_sweep(self, scheme, regime, budgets, counts):
        params = dataclasses.replace(PARAMS, P12=budgets[0], P21=budgets[1])
        config = _cfg(scheme, regime)
        bands, noises, _, _ = plan_sweep(params, config, counts)
        for k, band, noise in zip(counts, bands.tolist(), noises.tolist()):
            plan = plan_bandwidth(params, config.with_count(k))
            assert [plan.B_DL, plan.B_C] == band
            assert [plan.N1, plan.N2, plan.N12, plan.N21] == noise
        row = plan_bandwidth(params, config.with_count(counts[0]))
        assert dataclasses.astuple(row) == (*bands[0].tolist(), *noises[0].tolist())

    def test_the_empty_sweep_plans_nothing(self):
        shapes = [a.shape for a in plan_sweep(PARAMS, _cfg(Symmetric(0)), [])]
        assert shapes == [(0, 2), (0, 4), (0, 2, 2), (0, 2)]


class TestSchemes:
    def test_counts_and_transmissions(self):
        assert Symmetric(3).count == 3
        assert Asymmetric(5).count == 5
        assert transmissions(_cfg(Symmetric(3))) == (3, 3)
        assert transmissions(_cfg(Asymmetric(3))) == (2, 1)
        assert transmissions(_cfg(Asymmetric(3, starter=Receiver.R2))) == (1, 2)
        for scheme in (Symmetric(0), Symmetric(3), Asymmetric(0), Asymmetric(5)):
            plan = plan_bandwidth(PARAMS, _cfg(scheme))  # one sub-channel per transmission
            assert plan.B_C == pytest.approx(sum(transmissions(_cfg(scheme))) * plan.B_DL)

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
        assert other(Receiver.R1) is Receiver.R2
        assert other(Receiver.R2) is Receiver.R1


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
