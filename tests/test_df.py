"""Decode-and-forward kernel tests: constellations, compatibility rule,
relay error models, likelihoods, and the per-bit ML detector."""
from __future__ import annotations

import math

import numpy as np
import pytest

from coopbc.df import (
    BlockShape,
    Constellation,
    RelayErrorModel,
    RelayObservation,
    choose_compatible_modulation,
    estimate_relay_errors,
    mld_llr_batch,
    nearest_neighbor_error_model,
    qam,
    relay_decode_and_remap,
)
from coopbc.errors import EnumerationBoundError, ModulationError
from oracles import (
    LlrBlock,
    likelihood_direct,
    likelihood_relay,
    log_likelihood_direct,
    log_likelihood_relay,
    mld_llr,
)


def brute_force_llr(y2, observations, shape, src_c, rel_c, amp, N2):
    """Exhaustive reference detector in extended precision: enumerates every
    bit vector and every relay substitution explicitly."""
    n = shape.n
    num = np.zeros(n, dtype=np.longdouble)
    den = np.zeros(n, dtype=np.longdouble)
    for word in range(1 << n):
        bits = np.array([(word >> (n - 1 - k)) & 1 for k in range(n)], dtype=np.int8)
        x = amp * src_c.points[src_c.bits_to_indices(bits)]
        dens = np.longdouble(1.0)
        for i in range(shape.s):
            dens *= np.longdouble(1.0 / (math.pi * N2)) * np.exp(
                np.longdouble(-abs(y2[i] - x[i]) ** 2 / N2)
            )
        for obs in observations:
            ri = rel_c.bits_to_indices(bits)
            for i in range(shape.r):
                mix = np.longdouble(0.0)
                for l in range(rel_c.order):
                    mix += np.longdouble(obs.model.transition[ri[i], l]) * np.longdouble(
                        1.0 / (math.pi * obs.noise_power)
                    ) * np.exp(
                        np.longdouble(
                            -abs(obs.y12[i] - obs.amplitude * rel_c.points[l]) ** 2
                            / obs.noise_power
                        )
                    )
                dens *= mix
        num += np.where(bits == 1, dens, np.longdouble(0.0))
        den += np.where(bits == 0, dens, np.longdouble(0.0))
    return (num / den).astype(float)


class TestConstellation:
    @pytest.mark.parametrize("order", [2, 4, 16, 64, 256, 4096])
    def test_unit_power_and_bijection(self, order):
        c = qam(order)
        assert np.mean(np.abs(c.points) ** 2) == pytest.approx(1.0, abs=1e-12)
        assert len(np.unique(np.round(c.points, 9))) == order
        assert c.bits_per_symbol == int(math.log2(order))

    @pytest.mark.parametrize("order", [4, 16, 64])
    def test_gray_labeling(self, order):
        # nearest neighbors differ in exactly one label bit
        c = qam(order)
        for j in range(order):
            d = np.abs(c.points - c.points[j])
            d[j] = np.inf
            for l in np.where(np.isclose(d, d.min()))[0]:
                assert bin(j ^ l).count("1") == 1

    @pytest.mark.parametrize("order", [3, 8, 32, 16384])
    def test_unsupported_orders(self, order):
        with pytest.raises(ModulationError):
            qam(order)

    def test_bit_symbol_round_trip(self):
        c = qam(16)
        rng = np.random.default_rng(3)
        bits = rng.integers(0, 2, (7, 12), dtype=np.int8)
        idx = c.bits_to_indices(bits)
        assert np.array_equal(c.detect(c.points[idx]), idx)
        assert np.array_equal(c.indices_to_bits(idx), bits)

    def test_detect_with_amplitude(self):
        c = qam(4)
        assert np.array_equal(c.detect(5.0 * c.points, amplitude=5.0), np.arange(4))


class TestCompatibility:
    def test_equal_bandwidths(self):
        assert choose_compatible_modulation(4, 1.0, 1.0) == (4, BlockShape(1, 1, 2))

    def test_narrow_cooperation_band(self):
        # 1 bit/sym source, cooperation band a quarter of the downlink
        assert choose_compatible_modulation(2, 1.0, 0.25) == (16, BlockShape(4, 1, 4))

    def test_half_band(self):
        assert choose_compatible_modulation(16, 1.0, 0.5) == (256, BlockShape(2, 1, 8))

    def test_odd_width_rejected(self):
        with pytest.raises(ModulationError, match="1 bit"):
            choose_compatible_modulation(2, 1.0, 1.0)

    def test_fractional_width_rejected(self):
        with pytest.raises(ModulationError, match="no integral"):
            choose_compatible_modulation(4, 1.0, 0.3)

    def test_order_cap(self):
        with pytest.raises(ModulationError, match="4096"):
            choose_compatible_modulation(1024, 1.4, 1.0)

    def test_rate_conservation_invariant(self):
        for Ms, bdl, db in [(4, 1.0, 1.0), (2, 1.0, 0.25), (16, 1.0, 0.5), (1024, 1.2, 1.0)]:
            Mr, shape = choose_compatible_modulation(Ms, bdl, db)
            ms_bits = int(math.log2(Ms))
            mr_bits = int(math.log2(Mr))
            assert shape.r * mr_bits == shape.s * ms_bits == shape.n


class TestLikelihoods:
    def test_zero_noise_density(self):
        y = np.array([1.0 + 0.0j])
        assert likelihood_direct(y, y, 1.0) == pytest.approx(1.0 / math.pi)

    def test_product_over_symbols(self):
        rng = np.random.default_rng(5)
        y = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        x = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        single = math.prod(likelihood_direct(y[i : i + 1], x[i : i + 1], 0.7) for i in range(4))
        assert likelihood_direct(y, x, 0.7) == pytest.approx(single, rel=1e-12)

    def test_gaussian_density_oracle(self):
        rng = np.random.default_rng(6)
        y = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        x = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        N = 1.3
        expect = np.prod([math.exp(-abs(y[i] - x[i]) ** 2 / N) / (math.pi * N) for i in range(3)])
        assert likelihood_direct(y, x, N) == pytest.approx(float(expect), rel=1e-12)

    def test_error_free_relay_reduces_to_gaussian(self):
        c = qam(4)
        bits = np.array([1, 0], dtype=np.int8)
        y12 = np.array([0.3 - 0.2j])
        model = RelayErrorModel.error_free(4)
        lr = log_likelihood_relay(y12, bits, model, 2.0, 0.5, c)
        x = 2.0 * c.points[c.bits_to_indices(bits)]
        assert lr == pytest.approx(log_likelihood_direct(y12, x, 0.5), rel=1e-12)

    def test_uniform_substitutions_ignore_candidate(self):
        c = qam(4)
        model = RelayErrorModel(np.full((4, 4), 0.25))
        y12 = np.array([0.8 + 0.1j])
        vals = {
            round(
                log_likelihood_relay(y12, c.indices_to_bits(np.array([j])), model, 1.5, 0.9, c), 12
            )
            for j in range(4)
        }
        assert len(vals) == 1

    def test_two_component_mixture_by_hand(self):
        c = qam(2)
        t = np.array([[0.9, 0.1], [0.2, 0.8]])
        model = RelayErrorModel(t)
        y = np.array([0.4 + 0.0j])
        amp, N = 1.3, 0.6
        for j in (0, 1):
            bits = np.array([j], dtype=np.int8)
            expect = sum(
                t[j, l] * math.exp(-abs(y[0] - amp * c.points[l]) ** 2 / N) / (math.pi * N)
                for l in (0, 1)
            )
            got = likelihood_relay(y, bits, model, amp, N, c)
            assert got == pytest.approx(expect, rel=1e-12)


class TestRelayErrorModel:
    def test_row_validation(self):
        with pytest.raises(ValueError):
            RelayErrorModel(np.array([[0.5, 0.4], [0.0, 1.0]]))
        with pytest.raises(ValueError):
            RelayErrorModel(np.array([[1.1, -0.1], [0.0, 1.0]]))

    def test_estimated_model_is_stochastic(self):
        model = estimate_relay_errors(qam(4), qam(4), BlockShape(1, 1, 2), 2.0, 1.0, symbols=20000)
        np.testing.assert_allclose(model.transition.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(np.diag(model.transition) > 0.5)

    def test_estimated_model_near_identity_at_high_snr(self):
        model = estimate_relay_errors(qam(4), qam(4), BlockShape(1, 1, 2), 100.0, 1.0, symbols=20000)
        np.testing.assert_allclose(model.transition, np.eye(4), atol=1e-4)

    def test_estimation_is_deterministic(self):
        kw = dict(amplitude=2.0, noise_power=1.0, symbols=5000, seed=9)
        m1 = estimate_relay_errors(qam(4), qam(4), BlockShape(1, 1, 2), **kw)
        m2 = estimate_relay_errors(qam(4), qam(4), BlockShape(1, 1, 2), **kw)
        assert np.array_equal(m1.transition, m2.transition)

    def test_nearest_neighbor_fallback(self):
        model = nearest_neighbor_error_model(qam(4), 3.0, 1.0)
        np.testing.assert_allclose(model.transition.sum(axis=1), 1.0, atol=1e-12)
        # at this SNR the analytic symbol error rate should be within a factor
        # of two of the empirical one
        emp = estimate_relay_errors(qam(4), qam(4), BlockShape(1, 1, 2), 3.0, 1.0, symbols=200000)
        ser_analytic = 1.0 - np.mean(np.diag(model.transition))
        ser_emp = 1.0 - np.mean(np.diag(emp.transition))
        assert 0.5 < ser_analytic / ser_emp < 2.0


class TestDecodeAndRemap:
    def test_noiseless_round_trip(self):
        src, rel = qam(2), qam(16)
        shape = BlockShape(4, 1, 4)
        bits = np.array([1, 0, 1, 1], dtype=np.int8)
        x = src.points[src.bits_to_indices(bits)]
        labels = relay_decode_and_remap(x, src, rel)
        assert labels.shape == (shape.r,)
        assert np.array_equal(rel.indices_to_bits(labels), bits)

    def test_symbol_flip_localizes_to_label_bits(self):
        src = qam(4)
        bits = np.array([0, 0, 1, 1], dtype=np.int8)
        x = src.points[src.bits_to_indices(bits)].copy()
        x[1] = src.points[0]  # force the second symbol to decode as label 00
        got = src.indices_to_bits(relay_decode_and_remap(x, src, src))
        assert np.array_equal(got[:2], bits[:2])
        assert np.array_equal(got[2:], [0, 0])

    def test_symbol_error_rate_matches_qam_oracle(self):
        # 4-QAM with amplitude a over noise power N: per-axis error
        # q = Q(a/sqrt(N)), symbol error rate 2q - q^2
        src = qam(4)
        amp, N = 1.8, 1.0
        rng = np.random.default_rng(11)
        T = 200_000
        idx = rng.integers(0, 4, T)
        x = amp * src.points[idx]
        y = x + math.sqrt(N / 2.0) * (rng.standard_normal(T) + 1j * rng.standard_normal(T))
        ser = np.mean(relay_decode_and_remap(y, src, src, amplitude=amp) != idx)
        q = 0.5 * math.erfc(amp / math.sqrt(N) / math.sqrt(2.0))
        expect = 2 * q - q * q
        assert ser == pytest.approx(expect, abs=4 * math.sqrt(expect * (1 - expect) / T))


class TestMldDetector:
    def _setup(self, seed=0, T=64, relay_snr=4.0, model=None):
        c = qam(4)
        shape = BlockShape(1, 1, 2)
        rng = np.random.default_rng(seed)
        bits = rng.integers(0, 2, (T, 2), dtype=np.int8)
        idx = c.bits_to_indices(bits)
        amp = math.sqrt(10.0)
        noise = lambda: math.sqrt(0.5) * (
            rng.standard_normal((T, 1)) + 1j * rng.standard_normal((T, 1))
        )
        y2 = amp * c.points[idx] + noise()
        y12 = relay_snr * c.points[idx] + noise()
        return c, shape, bits, amp, y2, y12, rng

    def test_uninformative_relay_matches_direct_ml(self):
        c, shape, bits, amp, y2, y12, _ = self._setup()
        uniform = RelayErrorModel(np.full((4, 4), 0.25))
        with_relay = mld_llr_batch(
            y2, [RelayObservation(y12, 4.0, 1.0, uniform)], shape, c, c, amp, 1.0
        )
        without = mld_llr_batch(y2, [], shape, c, c, amp, 1.0)
        np.testing.assert_allclose(with_relay, without, rtol=1e-9)
        dec = (without > 1.0).astype(np.int8)
        ml_bits = c.indices_to_bits(c.detect(y2, amp)).reshape(dec.shape)
        assert np.array_equal(dec, ml_bits)

    def test_error_free_relay_equals_mrc_then_ml(self):
        # identical constellations: joint Gaussian ML = min distance on the
        # MRC-combined scalar; checked away from decision boundaries
        c, shape, bits, amp, y2, y12, _ = self._setup(seed=2, T=512, relay_snr=5.0)
        model = RelayErrorModel.error_free(4)
        llr = mld_llr_batch(y2, [RelayObservation(y12, 5.0, 1.0, model)], shape, c, c, amp, 1.0)
        dec = (llr > 1.0).astype(np.int8)
        u = (amp / 1.0) * y2 + (5.0 / 1.0) * y12
        g = amp * amp / 1.0 + 5.0 * 5.0 / 1.0
        mrc_bits = c.indices_to_bits(c.detect(u, g)).reshape(dec.shape)
        assert np.array_equal(dec, mrc_bits)

    @pytest.mark.parametrize(
        "Ms,Mr,shape",
        [
            (4, 4, BlockShape(1, 1, 2)),
            (2, 16, BlockShape(4, 1, 4)),
            (16, 256, BlockShape(2, 1, 8)),
            (2, 2, BlockShape(3, 3, 3)),  # odd n: unequal halves of the bit vector
        ],
    )
    def test_brute_force_oracle(self, Ms, Mr, shape):
        src, rel = qam(Ms), qam(Mr)
        rng = np.random.default_rng(Ms * 131 + Mr)
        amp = 2.0
        model = nearest_neighbor_error_model(rel, 1.7, 1.0)
        for _ in range(25):
            bits = rng.integers(0, 2, shape.n, dtype=np.int8)
            x = amp * src.points[src.bits_to_indices(bits)]
            y2 = x + math.sqrt(0.5) * (
                rng.standard_normal(shape.s) + 1j * rng.standard_normal(shape.s)
            )
            xr = 1.7 * rel.points[rel.bits_to_indices(bits)]
            y12 = xr + math.sqrt(0.5) * (
                rng.standard_normal(shape.r) + 1j * rng.standard_normal(shape.r)
            )
            obs = [RelayObservation(y12, 1.7, 1.0, model)]
            got = mld_llr(y2, obs, shape, src, rel, amp, 1.0).values
            want = brute_force_llr(y2, obs, shape, src, rel, amp, 1.0)
            np.testing.assert_allclose(got, want, rtol=1e-9)

    def test_multiple_relay_branches(self):
        c, shape, bits, amp, y2, y12, rng = self._setup(seed=4, T=8)
        y12b = 3.0 * c.points[c.bits_to_indices(bits)] + math.sqrt(0.5) * (
            rng.standard_normal((8, 1)) + 1j * rng.standard_normal((8, 1))
        )
        model = nearest_neighbor_error_model(c, 4.0, 1.0)
        obs = [
            RelayObservation(y12, 4.0, 1.0, model),
            RelayObservation(y12b, 3.0, 1.0, model),
        ]
        got = mld_llr_batch(y2, obs, shape, c, c, amp, 1.0)
        for t in range(8):
            single = [
                RelayObservation(o.y12[t], o.amplitude, o.noise_power, o.model) for o in obs
            ]
            want = brute_force_llr(y2[t], single, shape, c, c, amp, 1.0)
            np.testing.assert_allclose(got[t], want, rtol=1e-9)

    def test_enumeration_bound(self):
        with pytest.raises(EnumerationBoundError, match="2\\^60"):
            mld_llr_batch(
                np.zeros((1, 6), dtype=complex),
                [],
                BlockShape(6, 5, 60),
                qam(1024),
                qam(4096),
                1.0,
                1.0,
            )

    def test_llr_block_views(self):
        blk = LlrBlock(np.array([2.0, 0.5]))
        np.testing.assert_allclose(blk.log_values, [math.log(2.0), math.log(0.5)])
        assert np.array_equal(blk.hard_decisions, [1, 0])

    def test_flooring_keeps_llrs_finite(self):
        # a received point astronomically far from every candidate drives both
        # sums to the floor; the ratio must stay positive and finite
        c, shape = qam(4), BlockShape(1, 1, 2)
        y2 = np.array([[1e6 + 1e6j]])
        llr = mld_llr_batch(y2, [], shape, c, c, 1.0, 1.0)
        assert np.all(np.isfinite(llr)) and np.all(llr > 0)
