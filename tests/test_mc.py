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
)
from coopbc.df import qam
from coopbc.errors import ModulationError
from coopbc.mc import BerEstimate, TrialConfig, simulate_af, simulate_df

NO_COOP = ChannelParams(P=10.0, n1=1.0, n2=2.0, n12=1.0, n21=1.0, P12=0.0, P21=0.0, B=1.0)
AF0 = CoopConfig(Protocol.AF, Symmetric(0), Strategy.S1, Regime.H2)
DF0 = CoopConfig(Protocol.DF, Asymmetric(0), Strategy.S2, Regime.H2)


def qpsk_ber(rho: float) -> float:
    """Gray 4-QAM bit error rate over AWGN at symbol SNR rho."""
    return 0.5 * math.erfc(math.sqrt(rho / 2.0))


def exact_qam_ber(order: int, amplitude: float, noise_power: float) -> float:
    """Exact Gray square-QAM BER from separable per-axis decision probabilities."""
    const = qam(order)
    if order == 2:
        return 0.5 * math.erfc(amplitude / math.sqrt(noise_power))
    m = const.bits_per_symbol
    sigma = math.sqrt(noise_power / 2.0)
    pts = amplitude * const.points
    levels = np.unique(np.round(pts.real, 12))
    bounds = (levels[:-1] + levels[1:]) / 2.0

    def cdf(x: float) -> float:
        return 0.5 * math.erfc(-x / math.sqrt(2.0))

    def cell_probs(value: float) -> np.ndarray:
        edges = [-math.inf, *((b - value) / sigma for b in bounds), math.inf]
        return np.diff([cdf(e) for e in edges])

    re_idx = np.abs(pts.real[:, None] - levels).argmin(axis=1)
    im_idx = np.abs(pts.imag[:, None] - levels).argmin(axis=1)
    trans = np.array([cell_probs(v) for v in levels])
    labels = np.arange(order)
    ham = np.array([[bin(a ^ b).count("1") for b in labels] for a in labels])
    total = 0.0
    for j in range(order):
        p = trans[re_idx[j]][re_idx] * trans[im_idx[j]][im_idx]
        total += float(p @ ham[j]) / m
    return total / order


class TestTrialConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            TrialConfig(trials=0)
        with pytest.raises(ValueError):
            TrialConfig(trials=1, batch=0)
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
        r = simulate_af(NO_COOP, AF0, 0, TrialConfig(trials=200_000, seed=7))
        for est, rho in ((r.ber_I, 10.0), (r.ber_II, 5.0)):
            assert abs(est.ber - qpsk_ber(rho)) < 3.0 * est.stderr

    def test_wrong_protocol_rejected(self):
        with pytest.raises(ValueError, match="amplify"):
            simulate_af(NO_COOP, DF0, 0, TrialConfig(trials=10))

    def test_same_seed_bitwise_identical(self):
        tc = TrialConfig(trials=100_000, seed=42)
        a = simulate_af(NO_COOP, AF0, 0, tc)
        b = simulate_af(NO_COOP, AF0, 0, tc)
        assert a == b

    def test_thread_count_invariance(self):
        tc = TrialConfig(trials=150_000, seed=9)
        serial = simulate_af(NO_COOP, AF0, 0, tc, threads=1)
        threaded = simulate_af(NO_COOP, AF0, 0, tc, threads=3)
        assert serial == threaded

    @pytest.mark.parametrize("strategy", [Strategy.S1, Strategy.S2])
    def test_empirical_snr_matches_analytic(self, strategy):
        p = ChannelParams(P=10.0, n1=1.0, n2=2.0, n12=0.5, n21=0.5, P12=30.0, P21=30.0, B=1.0)
        cfg = CoopConfig(Protocol.AF, Symmetric(2), strategy, Regime.H2)
        r = simulate_af(p, cfg, 2, TrialConfig(trials=200_000, seed=3))
        assert abs(r.snr_I.value - r.analytic.rho_I) < 3.0 * r.snr_I.stderr
        assert abs(r.snr_II.value - r.analytic.rho_II) < 3.0 * r.snr_II.stderr

    def test_single_exchange_lowers_helped_receiver_ber(self):
        p = ChannelParams(P=10.0, n1=1.0, n2=2.0, n12=0.25, n21=0.25, P12=20.0, P21=20.0, B=1.0)
        cfg = CoopConfig(Protocol.AF, Asymmetric(1, Receiver.R1), Strategy.S2, Regime.H2)
        r = simulate_af(p, cfg, 1, TrialConfig(trials=200_000, seed=5))
        base = qpsk_ber(5.0)
        assert r.ber_II.ber + 3.0 * r.ber_II.stderr < base
        assert abs(r.ber_I.ber - qpsk_ber(10.0)) < 3.0 * r.ber_I.stderr

    def test_joint_error_sandwich(self):
        for seed in (1, 2, 3):
            r = simulate_af(NO_COOP, AF0, 0, TrialConfig(trials=50_000, seed=seed))
            assert max(r.ber_I.ber, r.ber_II.ber) <= r.pe_sys.ber
            assert r.pe_sys.ber <= r.ber_I.ber + r.ber_II.ber

    def test_ber_monotone_in_power(self):
        tc = TrialConfig(trials=100_000, seed=11)
        low = simulate_af(NO_COOP, AF0, 0, tc)
        high = simulate_af(replace(NO_COOP, P=2.0 * NO_COOP.P), AF0, 0, tc)
        noise = 3.0 * math.hypot(low.ber_II.stderr, high.ber_II.stderr)
        assert high.ber_II.ber <= low.ber_II.ber + noise

    def test_sixteen_qam_matches_exact_oracle(self):
        p = ChannelParams(P=30.0, n1=1.0, n2=2.0, n12=1.0, n21=1.0, P12=0.0, P21=0.0, B=1.0)
        r = simulate_af(p, AF0, 0, TrialConfig(trials=200_000, seed=21), order=16)
        want_I = exact_qam_ber(16, math.sqrt(30.0), 1.0)
        want_II = exact_qam_ber(16, math.sqrt(30.0), 2.0)
        assert abs(r.ber_I.ber - want_I) < 3.0 * r.ber_I.stderr
        assert abs(r.ber_II.ber - want_II) < 3.0 * r.ber_II.stderr

    def test_snr_confidence_coverage(self):
        # analytic SNR inside the 99% CI in nearly all independent runs
        inside = 0
        for seed in range(20):
            r = simulate_af(NO_COOP, AF0, 0, TrialConfig(trials=30_000, seed=seed))
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
        r = simulate_af(p, cfg, 8, TrialConfig(trials=200_000, seed=37))
        for est, rho in ((r.snr_I, r.analytic.rho_I), (r.snr_II, r.analytic.rho_II)):
            assert math.isfinite(est.value) and math.isfinite(est.stderr)
            assert abs(est.value - rho) < 3.0 * est.stderr

    def test_early_stop_respects_target_and_threads(self):
        tc = TrialConfig(trials=4_000_000, seed=3, target_half_width=0.10)
        r = simulate_af(NO_COOP, AF0, 0, tc)
        assert r.ber_I.bits < 2 * 4_000_000
        assert r.ber_I.stderr <= 0.10 * r.ber_I.ber
        assert r.ber_II.stderr <= 0.10 * r.ber_II.ber
        assert simulate_af(NO_COOP, AF0, 0, tc, threads=4) == r


class TestSimulateDf:
    def test_no_cooperation_matches_oracle(self):
        r = simulate_df(NO_COOP, DF0, 0, 4, TrialConfig(trials=200_000, seed=5))
        assert r.shape.n == 2 and r.relay_order == 4
        assert abs(r.ber_I.ber - qpsk_ber(10.0)) < 3.0 * r.ber_I.stderr
        assert abs(r.ber_II.ber - qpsk_ber(5.0)) < 3.0 * r.ber_II.stderr

    def test_wrong_protocol_rejected(self):
        with pytest.raises(ValueError, match="decode"):
            simulate_df(NO_COOP, AF0, 0, 4, TrialConfig(trials=10))

    def test_relay_order_mismatch_rejected(self):
        with pytest.raises(ModulationError, match="need 4"):
            simulate_df(NO_COOP, DF0, 0, (4, 16), TrialConfig(trials=10))

    def test_mrc_needs_symbol_alignment(self):
        p = ChannelParams(P=10.0, n1=1.0, n2=2.0, n12=1.0, n21=1.0, P12=4.0, P21=4.0, B=1.0)
        cfg = CoopConfig(Protocol.DF, Asymmetric(1), Strategy.S2, Regime.H2)
        with pytest.raises(ModulationError, match="source constellation"):
            simulate_df(
                p, cfg, 1, 4, TrialConfig(trials=10),
                combiner="mrc", coop_bandwidth_fraction=0.5,
            )

    def test_narrow_cooperation_band_raises_relay_order(self):
        # quarter-width cooperation slices force a BPSK source onto 16-QAM relays
        p = ChannelParams(P=10.0, n1=1.0, n2=2.0, n12=1.0, n21=1.0, P12=20.0, P21=20.0, B=1.0)
        cfg = CoopConfig(Protocol.DF, Asymmetric(1, Receiver.R1), Strategy.S2, Regime.H2)
        r = simulate_df(
            p, cfg, 1, 2, TrialConfig(trials=20_000, seed=2), coop_bandwidth_fraction=0.25
        )
        assert r.relay_order == 16
        assert (r.shape.s, r.shape.r, r.shape.n) == (4, 1, 4)
        assert r.ber_II.ber < exact_qam_ber(2, math.sqrt(10.0), 2.0)

    def test_determinism_and_threads(self):
        p = ChannelParams(P=10.0, n1=1.0, n2=2.0, n12=0.5, n21=0.5, P12=10.0, P21=10.0, B=1.0)
        cfg = CoopConfig(Protocol.DF, Symmetric(2), Strategy.S2, Regime.H2)
        tc = TrialConfig(trials=60_000, seed=31)
        a = simulate_df(p, cfg, 2, 4, tc)
        b = simulate_df(p, cfg, 2, 4, tc, threads=3)
        assert a == b

    def test_early_stop_respects_target_and_threads(self):
        tc = TrialConfig(trials=2_000_000, seed=7, target_half_width=0.10)
        r = simulate_df(NO_COOP, DF0, 0, 4, tc)
        assert r.ber_I.trials < 2_000_000
        assert r.ber_I.stderr <= 0.10 * r.ber_I.ber
        assert r.ber_II.stderr <= 0.10 * r.ber_II.ber
        assert simulate_df(NO_COOP, DF0, 0, 4, tc, threads=2) == r

    def test_relay_order_256_batch_has_bounded_memory(self):
        # 16-QAM forwarded as 256-QAM: a full batch is 2^22 >> 8 two-symbol
        # blocks, and a (blocks, r, Mr, Mr) substitution table would be 8 GiB
        p = ChannelParams(P=1.0, n1=0.1, n2=1.0, n12=1.0, n21=1.0, P12=1e3, P21=1e3, B=1.0)
        cfg = CoopConfig(Protocol.DF, Symmetric(1), Strategy.S2, Regime.H2)
        blocks = mc._MLD_CELL_CAP >> 8
        tracemalloc.start()
        try:
            r = simulate_df(p, cfg, 1, 16, TrialConfig(trials=2 * blocks, seed=41),
                            coop_bandwidth_fraction=0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (r.relay_order, r.shape.s, r.shape.n) == (256, 2, 8)
        assert r.ber_I.trials == 2 * blocks
        assert peak < 256 * 2**20

    def test_genie_relay_matches_equivalent_af(self):
        # perfect decoding + error-free model: receiver 2 sees two independent
        # Gaussian branches, so its BER equals a one-branch run at the summed SNR
        p = ChannelParams(P=10.0, n1=1.0, n2=2.0, n12=4.0, n21=4.0, P12=20.0, P21=20.0, B=1.0)
        cfg = CoopConfig(Protocol.DF, Asymmetric(1, Receiver.R1), Strategy.S2, Regime.H2)
        r = simulate_df(p, cfg, 1, 4, TrialConfig(trials=300_000, seed=13), relay_model="genie")
        rho_eq = 10.0 / 2.0 + 20.0 / 4.0
        equiv = ChannelParams(
            P=10.0, n1=1.0, n2=10.0 / rho_eq, n12=1.0, n21=1.0, P12=0.0, P21=0.0, B=1.0
        )
        ra = simulate_af(equiv, AF0, 0, TrialConfig(trials=300_000, seed=14))
        gap = abs(r.ber_II.ber - ra.ber_II.ber)
        assert gap < 3.0 * math.hypot(r.ber_II.stderr, ra.ber_II.stderr)

    def test_mld_beats_mrc_with_imperfect_relay(self):
        snr1, snr2, snrc = 10**0.7, 10**0.3, 10**3.0
        p = ChannelParams(
            P=1.0, n1=1 / snr1, n2=1 / snr2, n12=1.0, n21=1.0, P12=snrc, P21=snrc, B=1.0
        )
        cfg = CoopConfig(Protocol.DF, Asymmetric(1, Receiver.R1), Strategy.S2, Regime.H2)
        tc = TrialConfig(trials=300_000, seed=17)
        mld = simulate_df(p, cfg, 1, 4, tc)
        mrc = simulate_df(p, cfg, 1, 4, tc, combiner="mrc")
        gap = mrc.ber_II.ber - mld.ber_II.ber
        assert gap > 3.0 * math.hypot(mrc.ber_II.stderr, mld.ber_II.stderr)

    def test_low_coop_schemes_indistinguishable(self):
        snr1, snr2, snrc = 10**0.7, 10**0.3, 10**0.2
        p = ChannelParams(
            P=1.0, n1=1 / snr1, n2=1 / snr2, n12=1.0, n21=1.0, P12=snrc, P21=snrc, B=1.0
        )
        sym = CoopConfig(Protocol.DF, Symmetric(1), Strategy.S2, Regime.H2)
        asym = CoopConfig(Protocol.DF, Asymmetric(2, Receiver.R1), Strategy.S2, Regime.H2)
        a = simulate_df(p, sym, 1, 4, TrialConfig(trials=150_000, seed=19))
        b = simulate_df(p, asym, 2, 4, TrialConfig(trials=150_000, seed=20))
        for x, y in ((a.ber_I, b.ber_I), (a.ber_II, b.ber_II)):
            assert abs(x.ber - y.ber) < 3.0 * math.hypot(x.stderr, y.stderr)

    def test_repeated_exchanges_do_not_hurt(self):
        p = ChannelParams(P=10.0, n1=1.0, n2=2.0, n12=0.5, n21=0.5, P12=10.0, P21=10.0, B=1.0)
        cfg = CoopConfig(Protocol.DF, Symmetric(2), Strategy.S2, Regime.H2)
        r = simulate_df(p, cfg, 2, 4, TrialConfig(trials=100_000, seed=23))
        assert r.ber_II.ber < qpsk_ber(5.0)
        assert (r.source_order, r.relay_order) == (4, 4)

    def test_idle_receiver_unaffected_in_single_exchange(self):
        p = ChannelParams(P=10.0, n1=1.0, n2=2.0, n12=0.25, n21=0.25, P12=20.0, P21=20.0, B=1.0)
        cfg = CoopConfig(Protocol.DF, Asymmetric(1, Receiver.R1), Strategy.S2, Regime.H2)
        r = simulate_df(p, cfg, 1, 4, TrialConfig(trials=200_000, seed=11))
        assert abs(r.ber_I.ber - qpsk_ber(10.0)) < 3.0 * r.ber_I.stderr
        assert r.ber_II.ber + 3.0 * r.ber_II.stderr < qpsk_ber(5.0)


class TestEmpiricalCrossCorrelation:
    # elementary noises replayed with the coefficient vectors of the
    # independent oracle campaign check the package recursion's e
    PARAMS = ChannelParams(P=10.0, n1=1.0, n2=2.0, n12=0.5, n21=0.5, P12=30.0, P21=30.0, B=1.0)

    def test_independent_downlinks_at_start(self):
        cfg = CoopConfig(Protocol.AF, Symmetric(1), Strategy.S1, Regime.H2)
        replay = oracles.campaign(self.PARAMS, cfg)
        est = oracles.empirical_cross_correlation(replay, 200_000, seed=23)[0]
        analytic = af.campaign(self.PARAMS, cfg).states[0].e
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
        states = af.campaign(self.PARAMS, config, K).states
        assert len(states) == len(replay.coeffs)
        for est, state in zip(oracles.empirical_cross_correlation(replay, 200_000, seed=29), states):
            if est.stderr:
                assert abs(est.estimate - state.e) < 4.0 * est.stderr
