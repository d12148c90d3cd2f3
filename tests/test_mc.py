"""Monte Carlo harness tests: determinism, closed-form BER oracles, empirical
SNR agreement, DF pipeline behavior and a cross-correlation replay of the
analytic recursion."""
from __future__ import annotations

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import oracles
from coopbc import af, mc
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
from coopbc.df import (
    RelayObservation,
    choose_compatible_modulation,
    estimate_relay_errors,
    mld_llr_batch,
    qam,
)
from coopbc.errors import ModulationError
from coopbc.mc import BerEstimate, TrialConfig, simulate_af, simulate_df

NO_COOP = ChannelParams(P=10.0, n1=1.0, n2=2.0, n12=1.0, n21=1.0, P12=0.0, P21=0.0, B=1.0)
AF0 = CoopConfig(Protocol.AF, Symmetric(0), Strategy.S1, Regime.H2)
DF0 = CoopConfig(Protocol.DF, Asymmetric(0), Strategy.S2, Regime.H2)


def qpsk_ber(rho: float) -> float:
    """Gray 4-QAM bit error rate over AWGN at symbol SNR rho."""
    return 0.5 * math.erfc(math.sqrt(rho / 2.0))


class TestTrialConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            TrialConfig(trials=0)
        with pytest.raises(ValueError):
            TrialConfig(trials=1, seed=1 << 64)
        with pytest.raises(ValueError):
            TrialConfig(trials=1, target_half_width=0.0)


class TestBerEstimate:
    def test_counting_invariants(self):
        est = BerEstimate.from_counts(errors=30, bits=1000, trials=500)
        assert est.ber == 30 / 1000
        assert est.stderr == pytest.approx(math.sqrt(0.03 * 0.97 / 1000))
        assert (est.errors, est.bits, est.trials) == (30, 1000, 500)

    def test_zero_errors(self):
        est = BerEstimate.from_counts(0, 100, 50)
        assert est.ber == 0.0 and est.stderr == 0.0


class TestSimulateAf:
    def test_no_cooperation_matches_qpsk_oracle(self):
        r = simulate_af(NO_COOP, [AF0], TrialConfig(trials=200_000, seed=7))[0]
        for est, rho in ((r.ber_I, 10.0), (r.ber_II, 5.0)):
            assert abs(est.ber - qpsk_ber(rho)) < 3.0 * est.stderr

    def test_wrong_protocol_rejected(self):
        with pytest.raises(ValueError, match="amplify"):
            simulate_af(NO_COOP, [DF0], TrialConfig(trials=10))

    def test_same_seed_bitwise_identical(self):
        tc = TrialConfig(trials=100_000, seed=42)
        a = simulate_af(NO_COOP, [AF0], tc)[0]
        b = simulate_af(NO_COOP, [AF0], tc)[0]
        assert a == b

    def test_thread_count_invariance(self):
        tc = TrialConfig(trials=150_000, seed=9)
        serial = simulate_af(NO_COOP, [AF0], tc, threads=1)[0]
        threaded = simulate_af(NO_COOP, [AF0], tc, threads=3)[0]
        assert serial == threaded

    @pytest.mark.parametrize("strategy", [Strategy.S1, Strategy.S2])
    def test_empirical_snr_matches_analytic(self, strategy):
        p = ChannelParams(P=10.0, n1=1.0, n2=2.0, n12=0.5, n21=0.5, P12=30.0, P21=30.0, B=1.0)
        cfg = CoopConfig(Protocol.AF, Symmetric(2), strategy, Regime.H2)
        r = simulate_af(p, [cfg], TrialConfig(trials=200_000, seed=3))[0]
        assert abs(r.snr_I.value - r.analytic.rho_I) < 3.0 * r.snr_I.stderr
        assert abs(r.snr_II.value - r.analytic.rho_II) < 3.0 * r.snr_II.stderr

    def test_single_exchange_lowers_helped_receiver_ber(self):
        p = ChannelParams(P=10.0, n1=1.0, n2=2.0, n12=0.25, n21=0.25, P12=20.0, P21=20.0, B=1.0)
        cfg = CoopConfig(Protocol.AF, Asymmetric(1, Receiver.R1), Strategy.S2, Regime.H2)
        r = simulate_af(p, [cfg], TrialConfig(trials=200_000, seed=5))[0]
        base = qpsk_ber(5.0)
        assert r.ber_II.ber + 3.0 * r.ber_II.stderr < base
        assert abs(r.ber_I.ber - qpsk_ber(10.0)) < 3.0 * r.ber_I.stderr

    def test_joint_error_sandwich(self):
        for seed in (1, 2, 3):
            r = simulate_af(NO_COOP, [AF0], TrialConfig(trials=50_000, seed=seed))[0]
            assert max(r.ber_I.ber, r.ber_II.ber) <= r.pe_sys.ber
            assert r.pe_sys.ber <= r.ber_I.ber + r.ber_II.ber

    def test_ber_monotone_in_power(self):
        tc = TrialConfig(trials=100_000, seed=11)
        low = simulate_af(NO_COOP, [AF0], tc)[0]
        high = simulate_af(replace(NO_COOP, P=2.0 * NO_COOP.P), [AF0], tc)[0]
        noise = 3.0 * math.hypot(low.ber_II.stderr, high.ber_II.stderr)
        assert high.ber_II.ber <= low.ber_II.ber + noise

    def test_sixteen_qam_matches_exact_oracle(self):
        p = ChannelParams(P=30.0, n1=1.0, n2=2.0, n12=1.0, n21=1.0, P12=0.0, P21=0.0, B=1.0)
        r = simulate_af(p, [AF0], TrialConfig(trials=200_000, seed=21), order=16)[0]
        want_I = oracles.exact_qam_ber(16, math.sqrt(30.0), 1.0)
        want_II = oracles.exact_qam_ber(16, math.sqrt(30.0), 2.0)
        assert abs(r.ber_I.ber - want_I) < 3.0 * r.ber_I.stderr
        assert abs(r.ber_II.ber - want_II) < 3.0 * r.ber_II.stderr

    def test_snr_confidence_coverage(self):
        # analytic SNR inside the 99% CI in nearly all independent runs
        inside = 0
        for seed in range(20):
            r = simulate_af(NO_COOP, [AF0], TrialConfig(trials=30_000, seed=seed))[0]
            inside += abs(r.snr_I.value - r.analytic.rho_I) <= 2.576 * r.snr_I.stderr
        assert inside >= 18

    @pytest.mark.parametrize("strategy", list(Strategy))
    @pytest.mark.parametrize("scheme", [Symmetric(8), Asymmetric(8, Receiver.R1)])
    def test_near_identical_outputs_at_200_db(self, scheme, strategy):
        # a 200 dB cooperation link makes both combiner outputs almost the same
        # signal: their 2x2 noise covariance is singular to rounding
        lin = 10.0**20
        p = ChannelParams(P=1.0, n1=0.1, n2=1.0, n12=1.0, n21=1.0, P12=lin, P21=lin, B=1.0)
        cfg = CoopConfig(Protocol.AF, scheme, strategy, Regime.H1)
        r = simulate_af(p, [cfg], TrialConfig(trials=200_000, seed=37))[0]
        for est, rho in ((r.snr_I, r.analytic.rho_I), (r.snr_II, r.analytic.rho_II)):
            assert math.isfinite(est.value) and math.isfinite(est.stderr)
            assert abs(est.value - rho) < 3.0 * est.stderr

    def test_qam1024_batch_has_bounded_memory(self):
        # one full batch: a distance table against all 1024 points would hold
        # 65,536 x 1024 complex values (1 GiB) per receiver
        tracemalloc.start()
        try:
            r = simulate_af(NO_COOP, [AF0], TrialConfig(trials=mc.BATCH_SYMBOLS, seed=43),
                            order=1024)[0]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert r.ber_I.trials == mc.BATCH_SYMBOLS
        assert peak < 64 * 2**20

    def test_early_stop_respects_target_and_threads(self):
        tc = TrialConfig(trials=4_000_000, seed=3, target_half_width=0.10)
        r = simulate_af(NO_COOP, [AF0], tc)[0]
        assert r.ber_I.bits < 2 * 4_000_000
        assert r.ber_I.stderr <= 0.10 * r.ber_I.ber
        assert r.ber_II.stderr <= 0.10 * r.ber_II.ber
        assert simulate_af(NO_COOP, [AF0], tc, threads=4)[0] == r


class TestSimulateDf:
    def test_no_cooperation_matches_oracle(self):
        r = simulate_df(NO_COOP, [DF0], 4, TrialConfig(trials=200_000, seed=5))[0]
        assert r.shape.n == 2 and r.relay_order == 4
        assert abs(r.ber_I.ber - qpsk_ber(10.0)) < 3.0 * r.ber_I.stderr
        assert abs(r.ber_II.ber - qpsk_ber(5.0)) < 3.0 * r.ber_II.stderr

    def test_wrong_protocol_rejected(self):
        with pytest.raises(ValueError, match="decode"):
            simulate_df(NO_COOP, [AF0], 4, TrialConfig(trials=10))

    def test_relay_order_mismatch_rejected(self):
        with pytest.raises(ModulationError, match="need 4"):
            simulate_df(NO_COOP, [DF0], (4, 16), TrialConfig(trials=10))

    def test_mrc_needs_symbol_alignment(self):
        p = ChannelParams(P=10.0, n1=1.0, n2=2.0, n12=1.0, n21=1.0, P12=4.0, P21=4.0, B=1.0)
        cfg = CoopConfig(Protocol.DF, Asymmetric(1), Strategy.S2, Regime.H2)
        with pytest.raises(ModulationError, match="source constellation"):
            simulate_df(
                p, [cfg], 4, TrialConfig(trials=10),
                combiner="mrc", coop_bandwidth_fraction=0.5,
            )

    def test_narrow_cooperation_band_raises_relay_order(self):
        # quarter-width cooperation slices force a BPSK source onto 16-QAM relays
        p = ChannelParams(P=10.0, n1=1.0, n2=2.0, n12=1.0, n21=1.0, P12=20.0, P21=20.0, B=1.0)
        cfg = CoopConfig(Protocol.DF, Asymmetric(1, Receiver.R1), Strategy.S2, Regime.H2)
        r = simulate_df(
            p, [cfg], 2, TrialConfig(trials=20_000, seed=2), coop_bandwidth_fraction=0.25
        )[0]
        assert r.relay_order == 16
        assert (r.shape.s, r.shape.r, r.shape.n) == (4, 1, 4)
        assert r.ber_II.ber < oracles.exact_qam_ber(2, math.sqrt(10.0), 2.0)

    def test_determinism_and_threads(self):
        p = ChannelParams(P=10.0, n1=1.0, n2=2.0, n12=0.5, n21=0.5, P12=10.0, P21=10.0, B=1.0)
        cfg = CoopConfig(Protocol.DF, Symmetric(2), Strategy.S2, Regime.H2)
        tc = TrialConfig(trials=60_000, seed=31)
        a = simulate_df(p, [cfg], 4, tc)[0]
        b = simulate_df(p, [cfg], 4, tc, threads=3)[0]
        assert a == b

    def test_early_stop_respects_target_and_threads(self):
        tc = TrialConfig(trials=2_000_000, seed=7, target_half_width=0.10)
        r = simulate_df(NO_COOP, [DF0], 4, tc)[0]
        assert r.ber_I.trials < 2_000_000
        assert r.ber_I.stderr <= 0.10 * r.ber_I.ber
        assert r.ber_II.stderr <= 0.10 * r.ber_II.ber
        assert simulate_df(NO_COOP, [DF0], 4, tc, threads=2)[0] == r

    def test_relay_order_256_batch_has_bounded_memory(self):
        # 16-QAM forwarded as 256-QAM: a full batch is 2^22 >> 8 two-symbol
        # blocks; a (blocks, r, Mr, Mr) substitution table would be 8 GiB,
        # and the 256-candidate tables of every block 168 MiB
        p = ChannelParams(P=1.0, n1=0.1, n2=1.0, n12=1.0, n21=1.0, P12=1e3, P21=1e3, B=1.0)
        cfg = CoopConfig(Protocol.DF, Symmetric(1), Strategy.S2, Regime.H2)
        blocks = mc._MLD_CELL_CAP >> 8
        tracemalloc.start()
        try:
            r = simulate_df(p, [cfg], 16, TrialConfig(trials=2 * blocks, seed=41),
                            coop_bandwidth_fraction=0.5)[0]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (r.relay_order, r.shape.s, r.shape.n) == (256, 2, 8)
        assert r.ber_I.trials == 2 * blocks
        assert peak < 64 * 2**20

    def test_relay_order_4096_detector_batch_has_bounded_memory(self):
        # 64-QAM forwarded as 4096-QAM on half-width slices: one full MLD
        # batch of 2^22 >> 12 blocks, each two 6-bit units of 64 labels; the
        # 2^12-candidate tables and the 4096 x 4096 law took 161 MiB
        Mr, shape = choose_compatible_modulation(64, 1.0, 0.5)
        src, rel = qam(64), qam(Mr)
        blocks = mc._MLD_CELL_CAP >> shape.n
        rng = np.random.default_rng(43)
        bits = rng.integers(0, 2, (blocks, shape.n), dtype=np.int8)
        y2 = 4.0 * src.points[src.bits_to_indices(bits)] + 0.1 * rng.standard_normal((blocks, shape.s))
        y12 = 30.0 * rel.points[rel.bits_to_indices(bits)] + 0.1 * rng.standard_normal((blocks, 1))
        model = estimate_relay_errors(src, rel, 4.0, 0.02)
        tracemalloc.start()
        try:
            llr = mld_llr_batch(y2, [RelayObservation(y12, 30.0, 0.02, model)], shape,
                                src, rel, 4.0, 0.02)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (Mr, shape.n, blocks) == (4096, 12, 1024)
        assert np.array_equal(llr > 1.0, bits == 1)
        assert peak < 16 * 2**20

    def test_genie_relay_matches_equivalent_af(self):
        # perfect decoding + error-free model: receiver 2 sees two independent
        # Gaussian branches, so its BER equals a one-branch run at the summed SNR
        p = ChannelParams(P=10.0, n1=1.0, n2=2.0, n12=4.0, n21=4.0, P12=20.0, P21=20.0, B=1.0)
        cfg = CoopConfig(Protocol.DF, Asymmetric(1, Receiver.R1), Strategy.S2, Regime.H2)
        r = simulate_df(p, [cfg], 4, TrialConfig(trials=300_000, seed=13), relay_model="genie")[0]
        rho_eq = 10.0 / 2.0 + 20.0 / 4.0
        equiv = ChannelParams(
            P=10.0, n1=1.0, n2=10.0 / rho_eq, n12=1.0, n21=1.0, P12=0.0, P21=0.0, B=1.0
        )
        ra = simulate_af(equiv, [AF0], TrialConfig(trials=300_000, seed=14))[0]
        gap = abs(r.ber_II.ber - ra.ber_II.ber)
        assert gap < 3.0 * math.hypot(r.ber_II.stderr, ra.ber_II.stderr)

    def test_mld_beats_mrc_with_imperfect_relay(self):
        snr1, snr2, snrc = 10**0.7, 10**0.3, 10**3.0
        p = ChannelParams(
            P=1.0, n1=1 / snr1, n2=1 / snr2, n12=1.0, n21=1.0, P12=snrc, P21=snrc, B=1.0
        )
        cfg = CoopConfig(Protocol.DF, Asymmetric(1, Receiver.R1), Strategy.S2, Regime.H2)
        tc = TrialConfig(trials=300_000, seed=17)
        mld = simulate_df(p, [cfg], 4, tc)[0]
        mrc = simulate_df(p, [cfg], 4, tc, combiner="mrc")[0]
        gap = mrc.ber_II.ber - mld.ber_II.ber
        assert gap > 3.0 * math.hypot(mrc.ber_II.stderr, mld.ber_II.stderr)

    def test_low_coop_schemes_indistinguishable(self):
        snr1, snr2, snrc = 10**0.7, 10**0.3, 10**0.2
        p = ChannelParams(
            P=1.0, n1=1 / snr1, n2=1 / snr2, n12=1.0, n21=1.0, P12=snrc, P21=snrc, B=1.0
        )
        sym = CoopConfig(Protocol.DF, Symmetric(1), Strategy.S2, Regime.H2)
        asym = CoopConfig(Protocol.DF, Asymmetric(2, Receiver.R1), Strategy.S2, Regime.H2)
        a = simulate_df(p, [sym], 4, TrialConfig(trials=150_000, seed=19))[0]
        b = simulate_df(p, [asym], 4, TrialConfig(trials=150_000, seed=20))[0]
        for x, y in ((a.ber_I, b.ber_I), (a.ber_II, b.ber_II)):
            assert abs(x.ber - y.ber) < 3.0 * math.hypot(x.stderr, y.stderr)

    def test_repeated_exchanges_do_not_hurt(self):
        p = ChannelParams(P=10.0, n1=1.0, n2=2.0, n12=0.5, n21=0.5, P12=10.0, P21=10.0, B=1.0)
        cfg = CoopConfig(Protocol.DF, Symmetric(2), Strategy.S2, Regime.H2)
        # the same budget in one round: repeating the relay block must not
        # count its decoding errors twice
        r, once = simulate_df(p, [cfg, cfg.with_count(1)], 4, TrialConfig(trials=100_000, seed=23))
        assert r.ber_II.ber < qpsk_ber(5.0)
        assert (r.source_order, r.relay_order) == (4, 4)
        for twice, single in ((r.ber_I, once.ber_I), (r.ber_II, once.ber_II)):
            assert twice.ber <= single.ber + 3.0 * math.hypot(twice.stderr, single.stderr)

    def test_second_exchange_keeps_starter_ber_over_qam16_relay(self):
        # BPSK forwarded as 16-QAM on quarter-width slices: at k = 2 receiver 1
        # hears receiver 2's block, and a relay model with holes let those
        # substitutions outvote its strong 10 dB direct signal
        p = ChannelParams(P=1.0, n1=0.1, n2=1.0, n12=1.0, n21=1.0, P12=1e3, P21=1e3, B=1.0)
        cfg = CoopConfig(Protocol.DF, Asymmetric(2, Receiver.R1), Strategy.S1, Regime.H2)
        tc = TrialConfig(trials=2 * mc.BATCH_SYMBOLS, seed=4973492152032735815)
        one, two = simulate_df(p, [cfg.with_count(1), cfg], 2, tc, coop_bandwidth_fraction=0.25)
        assert (two.relay_order, two.shape) == (16, one.shape)
        noise = 3.0 * math.hypot(one.ber_I.stderr, two.ber_I.stderr)
        assert two.ber_I.ber <= one.ber_I.ber + noise

    def test_mrc_skips_relay_pilot(self, monkeypatch):
        def no_model(*args, **kwargs):
            raise AssertionError("weight-and-add combining reads no relay error model")

        monkeypatch.setattr(mc, "estimate_relay_errors", no_model)
        p = ChannelParams(P=10.0, n1=1.0, n2=2.0, n12=0.5, n21=0.5, P12=10.0, P21=10.0, B=1.0)
        cfg = CoopConfig(Protocol.DF, Symmetric(2), Strategy.S2, Regime.H2)
        r = simulate_df(p, [cfg], 4, TrialConfig(trials=20_000, seed=3), combiner="mrc")[0]
        assert r.ber_II.ber < qpsk_ber(5.0)

    def test_idle_receiver_unaffected_in_single_exchange(self):
        p = ChannelParams(P=10.0, n1=1.0, n2=2.0, n12=0.25, n21=0.25, P12=20.0, P21=20.0, B=1.0)
        cfg = CoopConfig(Protocol.DF, Asymmetric(1, Receiver.R1), Strategy.S2, Regime.H2)
        r = simulate_df(p, [cfg], 4, TrialConfig(trials=200_000, seed=11))[0]
        assert abs(r.ber_I.ber - qpsk_ber(10.0)) < 3.0 * r.ber_I.stderr
        assert r.ber_II.ber + 3.0 * r.ber_II.stderr < qpsk_ber(5.0)


COOP = ChannelParams(P=10.0, n1=1.0, n2=2.0, n12=0.5, n21=0.5, P12=10.0, P21=10.0, B=1.0)


def af_sweep(scheme, strategies, regime, counts):
    return [CoopConfig(Protocol.AF, scheme, s, regime).with_count(k)
            for s in strategies for k in counts]


def df_sweep(scheme, regime, counts):
    return [CoopConfig(Protocol.DF, scheme, Strategy.S2, regime).with_count(k) for k in counts]


SWEEP_CASES = {
    "af_mixed_strategies": (
        simulate_af, af_sweep(Symmetric(0), list(Strategy), Regime.H1, range(3)), (), {}),
    "af_asymmetric_r2_16qam": (
        simulate_af, af_sweep(Asymmetric(0, Receiver.R2), [Strategy.S2], Regime.H2, range(4)),
        (), {"order": 16}),
    "df_h1": (simulate_df, df_sweep(Symmetric(0), Regime.H1, range(4)), (4,), {}),
    "df_h2": (simulate_df, df_sweep(Symmetric(0), Regime.H2, range(4)), (4,), {}),
    "df_asymmetric_r2_h1": (
        simulate_df, df_sweep(Asymmetric(0, Receiver.R2), Regime.H1, range(4)), (4,), {}),
    "df_genie": (simulate_df, df_sweep(Asymmetric(0, Receiver.R2), Regime.H1, range(3)), (4,),
                 {"relay_model": "genie"}),
    "df_bpsk_qam16": (simulate_df, df_sweep(Asymmetric(0), Regime.H2, range(4)), (2,),
                      {"coop_bandwidth_fraction": 0.25}),
    "df_mrc": (simulate_df, df_sweep(Symmetric(0), Regime.H1, range(3)), (4,),
               {"combiner": "mrc"}),
}


class TestSweep:
    """A sweep shares each batch's draws across its configs; every config's
    result must equal its own one-element sweep, exactly."""

    @pytest.mark.parametrize("threads", [1, 3])
    @pytest.mark.parametrize("case", list(SWEEP_CASES))
    def test_sweep_equals_singles(self, case, threads):
        simulate, configs, args, kwargs = SWEEP_CASES[case]
        tc = TrialConfig(trials=mc.BATCH_SYMBOLS + 3000, seed=61)
        sweep = simulate(COOP, configs, *args, tc, threads=threads, **kwargs)
        singles = tuple(simulate(COOP, [c], *args, tc, **kwargs)[0] for c in configs)
        assert sweep == singles

    def test_early_stop_per_config(self):
        # the counts reach the target after different numbers of 4-batch chunks
        configs = af_sweep(Symmetric(0), [Strategy.S1], Regime.H2, range(4))
        tc = TrialConfig(trials=2_000_000, seed=3, target_half_width=0.10)
        sweep = simulate_af(COOP, configs, tc, threads=3)
        chunk = mc._STOP_CHECK_BATCHES * mc.BATCH_SYMBOLS
        assert len({r.ber_I.trials // chunk for r in sweep}) > 1
        assert all(r.ber_I.trials < tc.trials for r in sweep)
        assert sweep == tuple(simulate_af(COOP, [c], tc)[0] for c in configs)

    def test_df_configs_must_share_block_shape(self, monkeypatch):
        # every count resolves one shape at a fixed fraction; a plan whose
        # cooperation band halves at count 2 asks 16-QAM relays of that count
        def narrowed(params, config):
            plan = plan_bandwidth(params, config)
            return replace(plan, deltaB=plan.deltaB / 2) if config.count == 2 else plan

        monkeypatch.setattr(mc, "plan_bandwidth", narrowed)
        with pytest.raises(ValueError, match="same block shape"):
            simulate_df(COOP, df_sweep(Symmetric(0), Regime.H2, range(3)), 4,
                        TrialConfig(trials=10))

    def test_batch_memory_does_not_grow_with_counts(self):
        # h1 gives every count its own downlink noise, so its direct signals
        # and relay decisions; weight-and-add keeps the detector's own tables
        # small, so per-count arrays kept alive across counts would show
        configs = df_sweep(Symmetric(0), Regime.H1, range(5))
        tc = TrialConfig(trials=mc.BATCH_SYMBOLS, seed=67)
        peaks = []
        for sweep in (configs[2:3], configs):
            tracemalloc.start()
            try:
                simulate_df(COOP, sweep, 4, tc, combiner="mrc")
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.5 * peaks[0]

    def test_pooled_receiver_one_counts(self):
        sweep = simulate_af(COOP, af_sweep(Symmetric(0), [Strategy.S1], Regime.H2, range(2)),
                            TrialConfig(trials=1000, seed=1))
        assert sweep.ber_I.trials == 2000
        assert sweep.ber_I.bits == sum(r.ber_I.bits for r in sweep)
        assert sweep.ber_I.errors == sum(r.ber_I.errors for r in sweep)


class TestEmpiricalCrossCorrelation:
    # elementary noises replayed with the coefficient vectors of the
    # independent oracle campaign check the package recursion's e
    PARAMS = ChannelParams(P=10.0, n1=1.0, n2=2.0, n12=0.5, n21=0.5, P12=30.0, P21=30.0, B=1.0)

    def test_independent_downlinks_at_start(self):
        cfg = CoopConfig(Protocol.AF, Symmetric(1), Strategy.S1, Regime.H2)
        replay = oracles.campaign(self.PARAMS, cfg)
        est = oracles.empirical_cross_correlation(replay, 200_000, seed=23)[0]
        analytic = af.campaign(self.PARAMS, cfg)[0].e
        assert abs(est.estimate) < 3.0 * est.stderr and analytic == 0.0

    @pytest.mark.parametrize(
        "config,K",
        [
            (CoopConfig(Protocol.AF, Asymmetric(1), Strategy.S1, Regime.H2), 1),
            (CoopConfig(Protocol.AF, Symmetric(2), Strategy.S1, Regime.H1), 2),
            (CoopConfig(Protocol.AF, Symmetric(2), Strategy.S2, Regime.H2), 2),
        ],
    )
    def test_matches_analytic_recursion(self, config, K):
        replay = oracles.campaign(self.PARAMS, config, K)
        states = af.campaign(self.PARAMS, config)
        assert len(states) == len(replay.coeffs)
        for est, state in zip(oracles.empirical_cross_correlation(replay, 200_000, seed=29), states):
            if est.stderr:
                assert abs(est.estimate - state.e) < 4.0 * est.stderr
