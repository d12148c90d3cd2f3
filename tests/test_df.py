"""Decode-and-forward kernel tests: constellations, compatibility rule,
the exact relay substitution law, likelihoods, and the per-bit ML detector."""
from __future__ import annotations

import functools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coopbc import df, mc
from coopbc.channel import Asymmetric, ChannelParams, CoopConfig, Protocol, Regime, Strategy
from coopbc.df import (
    BlockShape,
    RelayErrorModel,
    RelayObservation,
    choose_compatible_modulation,
    estimate_relay_errors,
    mld_llr_batch,
    qam,
    relay_decode_and_remap,
)
from coopbc.errors import ModulationError
from oracles import (
    LlrBlock,
    detect_min_distance,
    detect_searchsorted,
    exact_qam_ber,
    likelihood_direct,
    likelihood_relay,
    log_likelihood_direct,
    log_likelihood_relay,
    mld_llr,
    mld_llr_dense,
    relay_law_dense,
    relay_pilot_counts,
    relay_symbol_law,
)

# every (source order, cooperation bandwidth fraction) pair that
# choose_compatible_modulation accepts with a block of at most 20 bits: all
# pairs whose relay symbols carry whole source axes but 256 -> 4096 (n = 24),
# whose dense 4096 x 4096 law the oracles would build
ACCEPTED_PAIRS = [
    (1 << ms, ms / mr)
    for ms in (1, 2, 4, 6, 8, 10, 12)
    for mr in range(2, 13, 2)
    if mr >= ms and math.lcm(ms, mr) <= 20
]


def axis_samples(rng, const, amplitude, count):
    """Values on one axis of amplitude * const: a few ulps from a decision
    edge, a log-uniform distance (down to 2^-50 of a level step) from one,
    beyond the outer levels, and anywhere across the span."""
    scaled = amplitude * const.levels
    step = scaled[1] - scaled[0]
    edge = rng.choice((scaled[:-1] + scaled[1:]) / 2.0, count)
    ulps = edge + rng.integers(-4, 5, count) * np.spacing(edge)
    near = edge + rng.choice([-step, step], count) * 2.0 ** -rng.uniform(1.0, 50.0, count)
    outer = rng.choice([-1.0, 1.0], count) * scaled[-1] * (1.0 + rng.uniform(0.0, 10.0, count))
    anywhere = rng.uniform(scaled[0] - step, scaled[-1] + step, count)
    return np.choose(rng.integers(0, 4, count), [ulps, near, outer, anywhere])


def brute_force_llr(y2, observations, shape, src_c, rel_c, amp, N2):
    """Exhaustive reference detector in extended precision: enumerates every
    bit vector and every relay substitution explicitly."""
    n = shape.n
    laws = [relay_symbol_law(obs.model, rel_c) for obs in observations]
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
        for obs, law in zip(observations, laws):
            ri = rel_c.bits_to_indices(bits)
            for i in range(shape.r):
                mix = np.longdouble(0.0)
                for l in range(rel_c.order):
                    mix += np.longdouble(law[ri[i], l]) * np.longdouble(
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
        rng = np.random.default_rng(3)
        for order in (2, 4, 16, 256, 4096):
            c = qam(order)
            bits = rng.integers(0, 2, (7, 3 * c.bits_per_symbol), dtype=np.int8)
            idx = c.bits_to_indices(bits)
            weights = 1 << np.arange(c.bits_per_symbol - 1, -1, -1)
            assert idx.dtype == np.int64
            assert np.array_equal(idx, bits.reshape(7, 3, -1).astype(np.int64) @ weights)
            assert np.array_equal(c.detect(c.points[idx]), idx)
            got = c.indices_to_bits(idx)
            assert got.dtype == np.int8 and np.array_equal(got, bits)
            assert np.array_equal(c.indices_to_bits(idx[0]), bits[0])

    def test_detect_with_amplitude(self):
        c = qam(4)
        assert np.array_equal(c.detect(5.0 * c.points, amplitude=5.0), np.arange(4))

    @settings(max_examples=60, deadline=None)
    @given(
        order=st.sampled_from([2, 4, 16, 64, 256, 1024, 4096]),
        log_amplitude=st.floats(-6.0, 6.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_detect_matches_min_distance_oracle(self, order, log_amplitude, seed):
        c = qam(order)
        amplitude = 10.0**log_amplitude
        rng = np.random.default_rng(seed)
        count = 512
        # for BPSK the imaginary part is noise the slicer must ignore
        y = axis_samples(rng, c, amplitude, count) + 1j * axis_samples(rng, c, amplitude, count)
        got = c.detect(y, amplitude)
        want = detect_min_distance(c, y, amplitude)
        # exact midpoints at float precision: the oracle's two smallest squared
        # distances are equal to within their rounding (np.abs is not even
        # monotone there), so its lowest-label tie rule and the slicer's edge
        # side may pick different points
        d2 = np.sort(np.abs(y[:, None] - amplitude * c.points) ** 2, axis=1)
        resolved = d2[:, 1] - d2[:, 0] > 16.0 * np.spacing(d2[:, 0])
        assert np.count_nonzero(resolved) >= count // 4
        assert np.array_equal(got[resolved], want[resolved])

    @pytest.mark.parametrize("order", [2, 4, 64, 4096])
    @pytest.mark.parametrize("amplitude", [1.0, 0.3, 7.1, 1e-5])
    def test_edges_stand_for_the_exact_midpoints(self, order, amplitude):
        # each edge is the smallest float at or above the exact midpoint
        c = qam(order)
        scaled = amplitude * c.levels
        edges = c.edges(amplitude)
        assert len(edges) == len(scaled) - 1
        for lo, hi, e in zip(scaled[:-1], scaled[1:], edges):
            mid = (Fraction(lo) + Fraction(hi)) / 2
            assert Fraction(e) >= mid > Fraction(np.nextafter(e, -np.inf))

    @pytest.mark.parametrize("order", [2, 64])
    @pytest.mark.parametrize("amplitude", [1.0, 0.3, 7.1])
    def test_detect_takes_the_exact_nearest_level(self, order, amplitude):
        # on every rounded midpoint of two levels and the floats beside it,
        # the decision is the level nearest in exact arithmetic; on an exact
        # midpoint (the centre edge of these symmetric axes), the larger
        c = qam(order)
        scaled = amplitude * c.levels
        mids = (scaled[:-1] + scaled[1:]) / 2.0
        y = np.concatenate([np.nextafter(mids, -np.inf), mids, np.nextafter(mids, np.inf)])
        rank = []
        for v in y:
            dist = [abs(Fraction(v) - Fraction(s)) for s in scaled]
            rank.append(max(i for i, d in enumerate(dist) if d == min(dist)))
        want = c.labels[rank]
        if order > 2:  # the quadrature part sits on the lowest level
            want = (want << c.bits_per_symbol // 2) | c.labels[0]
        assert np.array_equal(c.detect(y + 1j * scaled[0], amplitude), want)


    @pytest.mark.parametrize("order", [2, 4, 16, 64, 256, 1024, 4096])
    @pytest.mark.parametrize("amplitude", [1e-6, 1e-3, 0.3, 1.0, 7.1, 1e3, 1e6])
    def test_detect_equals_the_searchsorted_slicer(self, order, amplitude):
        # every edge and the floats beside it, every level, signed zeros,
        # infinities and NaN, in every pairing of real and imaginary part
        c = qam(order)
        edges = c.edges(amplitude)
        axis = np.concatenate([np.nextafter(edges, -np.inf), edges, np.nextafter(edges, np.inf),
                               amplitude * c.levels, [0.0, -0.0, np.inf, -np.inf, np.nan]])
        y = np.empty((len(axis), len(axis)), dtype=complex)  # a (T, s) block
        y.real, y.imag = axis[:, None], axis[None, :]
        for batch in (y, y.ravel()):
            got, want = c.detect(batch, amplitude), detect_searchsorted(c, batch, amplitude)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert np.array_equal(got, want)
        # scalars: every axis value against each special value, both ways round
        specials = slice(-5, None)
        for v in np.concatenate([y[specials].ravel(), y[:, specials].ravel()]):
            want = detect_searchsorted(c, v, amplitude)
            for scalar in (v, complex(v)):
                got = c.detect(scalar, amplitude)
                assert got == want and np.asarray(got).dtype == want.dtype

    @settings(max_examples=200, deadline=None)
    @given(
        order=st.sampled_from([2, 4, 16, 64, 256, 1024, 4096]),
        log_amplitude=st.floats(-6.0, 6.0),
        y=st.lists(st.complex_numbers(allow_nan=True, allow_infinity=True), min_size=1,
                   max_size=32),
    )
    def test_detect_equals_the_searchsorted_slicer_on_any_floats(self, order, log_amplitude, y):
        c = qam(order)
        amplitude = 10.0**log_amplitude
        y = np.array(y, dtype=complex)
        assert np.array_equal(c.detect(y, amplitude), detect_searchsorted(c, y, amplitude))

    @settings(max_examples=100, deadline=None)
    @given(
        order=st.sampled_from([2, 4, 16, 64, 256, 1024, 4096]),
        log_amplitude=st.floats(-150.0, 150.0),
        imag=st.floats(allow_nan=True, allow_infinity=True),
    )
    @example(order=2, log_amplitude=-150.0, imag=math.nan)
    @example(order=4096, log_amplitude=150.0, imag=0.0)
    @example(order=4096, log_amplitude=-150.0, imag=-math.inf)
    def test_axis_samples_slice_to_each_points_axis_labels(self, order, log_amplitude, imag):
        # the layout: a QAM word is its in-phase axis label above its
        # quadrature one, a BPSK word its one axis label
        c = qam(order)
        amplitude = 10.0**log_amplitude
        y = amplitude * c.points
        words = np.arange(order)
        side = 1 << c.axis_bits
        want = words[:, None] if order == 2 else np.stack([words // side, words % side], axis=1)
        got = c.labels.take(df._slice_axis(c.edges(amplitude), c.axis_samples(y)))
        assert np.array_equal(got.reshape(order, -1), want)
        word = functools.reduce(lambda w, a: (w << c.axis_bits) | a, got.reshape(order, -1).T)
        assert np.array_equal(word, c.detect(y, amplitude))
        if order == 2:  # BPSK is decided on the real part alone
            z = y.copy()
            z.imag = imag
            assert np.array_equal(c.axis_samples(z), y.real)
            assert np.array_equal(c.detect(z, amplitude), words)

    def test_detect_does_not_call_searchsorted(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("detect called np.searchsorted")

        monkeypatch.setattr(np, "searchsorted", refuse)
        for order in (2, 4, 16, 4096):
            c = qam(order)
            assert np.array_equal(c.detect(3.0 * c.points, 3.0), np.arange(order))


class TestCompatibility:
    def test_equal_bandwidths(self):
        assert choose_compatible_modulation(4, 1.0) == (4, BlockShape(1, 1, 2))

    def test_narrow_cooperation_band(self):
        # 1 bit/sym source, cooperation band a quarter of the downlink
        assert choose_compatible_modulation(2, 0.25) == (16, BlockShape(4, 1, 4))

    def test_half_band(self):
        assert choose_compatible_modulation(16, 0.5) == (256, BlockShape(2, 1, 8))

    def test_odd_width_rejected(self):
        with pytest.raises(ModulationError, match="1 bit"):
            choose_compatible_modulation(2, 1.0)

    def test_fractional_width_rejected(self):
        with pytest.raises(ModulationError, match="no integral"):
            choose_compatible_modulation(4, 0.3)

    def test_order_cap(self):
        with pytest.raises(ModulationError, match="4096"):
            choose_compatible_modulation(1024, 1.0 / 1.4)

    def test_rate_conservation_invariant(self):
        for Ms, bdl, db in [(4, 1.0, 1.0), (2, 1.0, 0.25), (16, 1.0, 0.5), (1024, 1.2, 1.0)]:
            Mr, shape = choose_compatible_modulation(Ms, db / bdl)
            ms_bits = int(math.log2(Ms))
            mr_bits = int(math.log2(Mr))
            assert shape.r * mr_bits == shape.s * ms_bits == shape.n

    @settings(max_examples=300, deadline=None)
    @given(
        Ms=st.sampled_from([2, 4, 16, 64, 256, 1024, 4096]),
        fraction=st.floats(0.0, 1.0, exclude_min=True, allow_subnormal=True),
    )
    @example(Ms=4, fraction=1e-300)  # 2e300 relay bits: too many digits to shift by
    @example(Ms=4, fraction=5e-324)  # an infinite relay width
    def test_any_fraction_gives_a_shape_or_a_modulation_error(self, Ms, fraction):
        try:
            Mr, shape = choose_compatible_modulation(Ms, fraction)
        except ModulationError:
            return
        assert Mr <= 4096
        assert shape.r * (Mr.bit_length() - 1) == shape.s * (Ms.bit_length() - 1) == shape.n


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
        model = RelayErrorModel.error_free(c)
        lr = log_likelihood_relay(y12, bits, model, 2.0, 0.5, c)
        x = 2.0 * c.points[c.bits_to_indices(bits)]
        assert lr == pytest.approx(log_likelihood_direct(y12, x, 0.5), rel=1e-12)

    def test_uniform_substitutions_ignore_candidate(self):
        c = qam(4)
        model = RelayErrorModel(np.full((2, 2), 0.5))
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
        model = estimate_relay_errors(qam(4), 2.0, 1.0)
        np.testing.assert_allclose(model.axis_law.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(np.diag(model.axis_law) > 0.5)

    def test_estimated_model_near_identity_at_high_snr(self):
        model = estimate_relay_errors(qam(4), 100.0, 1.0)
        np.testing.assert_allclose(model.axis_law, np.eye(2), atol=1e-4)

    def test_error_free_is_the_axis_identity(self):
        for order, size in ((2, 2), (4, 2), (16, 4), (4096, 64)):
            assert np.array_equal(RelayErrorModel.error_free(qam(order)).axis_law, np.eye(size))

    @pytest.mark.parametrize("Ms,Mr,shape,amp,noise", [
        (2, 16, BlockShape(4, 1, 4), 1.0, 1.0),      # aligned: one relay symbol per block
        (16, 64, BlockShape(3, 2, 12), 2.0, 0.5),    # a source symbol split across relay symbols
    ])
    def test_exact_law_matches_relay_pilot(self, Ms, Mr, shape, amp, noise):
        src, rel = qam(Ms), qam(Mr)
        law = relay_symbol_law(estimate_relay_errors(src, amp, noise), rel)
        np.testing.assert_allclose(law.sum(axis=1), 1.0, rtol=0, atol=1e-12)
        counts = relay_pilot_counts(src, rel, shape, amp, noise, symbols=1_000_000, seed=5)
        expected = counts.sum(axis=1, keepdims=True) * law
        tested = expected >= 30
        z = (counts - expected)[tested] / np.sqrt((expected * (1.0 - law))[tested])
        assert tested.sum() >= 2 * Mr  # off-diagonal cells are tested, not only the diagonal
        assert np.max(np.abs(z)) < 5.0

    @pytest.mark.parametrize("order", [2, 4, 16, 64, 256])
    def test_aligned_law_reproduces_qam_ber(self, order):
        # with the relay reusing the source constellation, the bit errors the
        # law implies are the closed-form Gray QAM bit error rate; below 1e-6
        # the closed form's CDF differences cancel, so those SNRs are skipped
        c = qam(order)
        m = c.bits_per_symbol
        labels = np.arange(order)
        hamming = np.vectorize(lambda a: bin(a).count("1"))(labels[:, None] ^ labels)
        checked = 0
        for snr_db in np.arange(-10.0, 40.0, 2.5):
            amp = 10.0 ** (snr_db / 20.0)
            want = exact_qam_ber(order, amp, 1.0)
            if want < 1e-6:
                continue
            law = relay_symbol_law(estimate_relay_errors(c, amp, 1.0), c)
            got = float(np.sum(law * hamming)) / (order * m)
            assert got == pytest.approx(want, rel=1e-10, abs=0)
            checked += 1
        assert checked >= 8

    @settings(max_examples=60, deadline=None)
    @given(order=st.sampled_from([2, 4, 16, 64, 256, 1024, 4096]),
           snr_db=st.floats(-150.0, 150.0))
    def test_law_is_stochastic_and_identity_at_high_snr(self, order, snr_db):
        src = qam(order)
        size = len(src.levels)
        law = estimate_relay_errors(src, 1.0, 10.0 ** (-snr_db / 10.0)).axis_law
        assert law.shape == (size, size)
        assert np.all(np.isfinite(law)) and np.all(law >= 0.0)
        np.testing.assert_allclose(law.sum(axis=1), 1.0, rtol=0, atol=1e-12)
        top = estimate_relay_errors(src, 1.0, 1e-15).axis_law
        assert np.array_equal(top, np.eye(size))

    def test_largest_order_law_has_bounded_memory(self):
        # 4096-QAM relayed as 4096-QAM: the model is the 64 x 64 law of one axis
        c = qam(4096)
        tracemalloc.start()
        try:
            law = estimate_relay_errors(c, 30.0, 1.0).axis_law
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert law.shape == (64, 64)
        assert peak < 1 << 20

    @pytest.mark.parametrize("Ms,fraction", ACCEPTED_PAIRS)
    def test_kronecker_power_equals_pooled_law(self, Ms, fraction):
        # every relay symbol carries whole source axes, so pooling the
        # marginalized source laws over the block's relay symbols gives the
        # axis law's Kronecker power, for the exact law and for any other;
        # compared 64 rows at a time, so only the dense law is Mr x Mr
        Mr, shape = choose_compatible_modulation(Ms, fraction)
        src, rel = qam(Ms), qam(Mr)
        size = len(src.levels)
        axes = rel.bits_per_symbol // (size.bit_length() - 1)
        rng = np.random.default_rng(Ms * 4099 + Mr)
        for axis_law in (
            estimate_relay_errors(src, 1.5, 0.8).axis_law,
            rng.dirichlet(np.full(size, 2.0), size=size),
        ):
            self._assert_kronecker_power(relay_law_dense(axis_law, src, rel, shape), axis_law, axes)

    @staticmethod
    def _assert_kronecker_power(dense, axis_law, axes):
        # row j * len(rest) + k of the power is axis_law[j] ⊗ rest[k]
        rest = functools.reduce(np.kron, [axis_law] * (axes - 1), np.ones((1, 1)))
        step = min(64, len(rest))
        for i in range(0, len(dense), step):
            j, k = divmod(i, len(rest))
            want = np.kron(axis_law[j:j + 1], rest[k:k + step])
            np.testing.assert_allclose(dense[i:i + step], want, rtol=1e-12, atol=0)


class TestAlignment:
    def test_accepted_pairs_split_into_two_units(self):
        # a unit is one relay axis, or one relay symbol where a relay axis
        # would split a source axis (16 -> 64 and 16 -> 1024)
        assert len(ACCEPTED_PAIRS) == 22
        whole_symbol_units = set()
        for Ms, fraction in ACCEPTED_PAIRS:
            Mr, shape = choose_compatible_modulation(Ms, fraction)
            src, rel = qam(Ms), qam(Mr)
            source_axis = len(src.levels).bit_length() - 1
            assert rel.bits_per_symbol % source_axis == 0, (Ms, Mr)
            unit = df._unit_bits(src, rel)
            assert unit % source_axis == 0 and shape.n % unit == 0
            assert shape.n // unit == 2, (Ms, Mr, shape)
            if unit == rel.bits_per_symbol:
                whole_symbol_units.add((Ms, Mr))
        assert whole_symbol_units == {(16, 64), (16, 1024)}

    def test_split_source_axes_are_rejected(self):
        # 256-QAM axes carry 4 bits; a 4-QAM relay symbol carries 2
        src, rel = qam(256), qam(4)
        with pytest.raises(ModulationError, match="split"):
            mld_llr_batch(np.zeros((1, 1), dtype=complex), [None], BlockShape(1, 4, 8),
                          src, rel, 1.0, 1.0)

    def test_enumeration_bound_is_checked_first(self, monkeypatch):
        # 64 -> 256 splits 64-QAM axes; its 24-bit block sets no width bound,
        # and a sweep rejects the split before it builds any error model
        Mr, shape = choose_compatible_modulation(64, 0.75)
        assert (Mr, shape.n) == (256, 24)
        with pytest.raises(ModulationError, match="split"):
            mld_llr_batch(np.zeros((1, shape.s), dtype=complex), [None], shape,
                          qam(64), qam(Mr), 1.0, 1.0)

        def refuse(*args):
            raise AssertionError("error model built before the split check")

        monkeypatch.setattr(mc, "estimate_relay_errors", refuse)
        p = ChannelParams(P=10.0, n1=1.0, n2=2.0, n12=1.0, n21=1.0, P12=4.0, P21=4.0, B=1.0)
        cfg = CoopConfig(Protocol.DF, Asymmetric(1), Strategy.S2, Regime.H2)
        with pytest.raises(ModulationError, match="split"):
            mc.simulate_df(p, [cfg], 64, mc.TrialConfig(trials=10),
                           coop_bandwidth_fraction=0.75)


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
        uniform = RelayErrorModel(np.full((2, 2), 0.5))
        with_relay, without = mld_llr_batch(
            y2, [RelayObservation(y12, 4.0, 1.0, uniform), None], shape, c, c, amp, 1.0
        )
        np.testing.assert_allclose(with_relay, without, rtol=1e-9)
        dec = (without > 1.0).astype(np.int8)
        ml_bits = c.indices_to_bits(c.detect(y2, amp)).reshape(dec.shape)
        assert np.array_equal(dec, ml_bits)

    def test_error_free_relay_equals_mrc_then_ml(self):
        # identical constellations: joint Gaussian ML = min distance on the
        # MRC-combined scalar; checked away from decision boundaries
        c, shape, bits, amp, y2, y12, _ = self._setup(seed=2, T=512, relay_snr=5.0)
        model = RelayErrorModel.error_free(c)
        llr, = mld_llr_batch(y2, [RelayObservation(y12, 5.0, 1.0, model)], shape, c, c, amp, 1.0)
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
        model = estimate_relay_errors(src, amp, 1.0)
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
            obs = RelayObservation(y12, 1.7, 1.0, model)
            got = mld_llr(y2, obs, shape, src, rel, amp, 1.0).values
            want = brute_force_llr(y2, [obs], shape, src, rel, amp, 1.0)
            np.testing.assert_allclose(got, want, rtol=1e-9)

    def test_multiple_relay_branches(self):
        # a partner that sends its one decision twice: the two copies summed
        # into one branch (gain and noise power doubled) give the ratios of
        # the reference detector fed both copies as separate branches
        c, shape, bits, amp, y2, y12, rng = self._setup(seed=4, T=8)
        y12b = 4.0 * c.points[c.bits_to_indices(bits)] + math.sqrt(0.5) * (
            rng.standard_normal((8, 1)) + 1j * rng.standard_normal((8, 1))
        )
        model = RelayErrorModel.error_free(c)
        got, = mld_llr_batch(y2, [RelayObservation(y12 + y12b, 8.0, 2.0, model)], shape, c, c,
                             amp, 1.0)
        for t in range(8):
            copies = [RelayObservation(y[t], 4.0, 1.0, model) for y in (y12, y12b)]
            want = brute_force_llr(y2[t], copies, shape, c, c, amp, 1.0)
            np.testing.assert_allclose(got[t], want, rtol=1e-9)

    @pytest.mark.parametrize("Ms,fraction", [p for p in ACCEPTED_PAIRS if p != (16, 0.4)])
    def test_matches_dense_enumeration(self, Ms, fraction):
        # every accepted pair with n <= 12: exact, error-free and random axis
        # laws, against the 2^n enumerator with the dense pooled law
        Mr, shape = choose_compatible_modulation(Ms, fraction)
        assert shape.n <= 12
        src, rel = qam(Ms), qam(Mr)
        size = len(src.levels)
        rng = np.random.default_rng(Ms * 8191 + Mr)
        T, amp, N2 = 6, 1.2, 0.6
        bits = rng.integers(0, 2, (T, shape.n), dtype=np.int8)
        y2 = amp * src.points[src.bits_to_indices(bits)] + math.sqrt(N2 / 2.0) * (
            rng.standard_normal((T, shape.s)) + 1j * rng.standard_normal((T, shape.s))
        )

        def branch(model, gain, noise):
            y12 = gain * rel.points[rel.bits_to_indices(bits)] + math.sqrt(noise / 2.0) * (
                rng.standard_normal((T, shape.r)) + 1j * rng.standard_normal((T, shape.r))
            )
            return RelayObservation(y12, gain, noise, model)

        exact = branch(estimate_relay_errors(src, amp, 0.5), 1.7, 0.8)
        genie = branch(RelayErrorModel.error_free(src), 2.5, 1.1)
        dirichlet = branch(
            RelayErrorModel(rng.dirichlet(np.full(size, 3.0), size=size)), 0.9, 0.4
        )
        for obs in (exact, genie, dirichlet):
            got, = mld_llr_batch(y2, [obs], shape, src, rel, amp, N2)
            want = mld_llr_dense(y2, [obs], shape, src, rel, amp, N2)
            np.testing.assert_allclose(got, want, rtol=1e-9, atol=0)

    @settings(max_examples=60, deadline=None)
    @given(pair=st.sampled_from(ACCEPTED_PAIRS), seed=st.integers(0, 2**32 - 1),
           heard=st.lists(st.booleans(), min_size=1, max_size=4), trials=st.integers(1, 5))
    def test_one_call_equals_one_call_per_set(self, pair, seed, heard, trials):
        # the configs of a call share only the direct signal: each config's
        # ratios, with its branch or with none, are those of a call with that
        # config alone, bit for bit, whatever configs come before or after it
        Ms, fraction = pair
        Mr, shape = choose_compatible_modulation(Ms, fraction)
        src, rel = qam(Ms), qam(Mr)
        size = len(src.levels)
        rng = np.random.default_rng(seed)
        bits = rng.integers(0, 2, (trials, shape.n), dtype=np.int8)

        def received(const, a, noise, width):
            return a * const.points[const.bits_to_indices(bits)] + math.sqrt(noise / 2.0) * (
                rng.standard_normal((trials, width)) + 1j * rng.standard_normal((trials, width)))

        def branch():
            gain, noise = rng.uniform(0.3, 6.0), rng.uniform(0.05, 2.0)
            model = RelayErrorModel(rng.dirichlet(np.full(size, 2.0), size=size))
            return RelayObservation(received(rel, gain, noise, shape.r), gain, noise, model)

        amp, N2 = rng.uniform(0.3, 6.0), rng.uniform(0.05, 2.0)
        y2 = received(src, amp, N2, shape.s)
        branches = [branch() if has_branch else None for has_branch in heard]
        got = mld_llr_batch(y2, branches, shape, src, rel, amp, N2)
        assert got.shape == (len(branches), trials, shape.n)
        for ratios, obs in zip(got, branches):
            alone, = mld_llr_batch(y2, [obs], shape, src, rel, amp, N2)
            assert ratios.tobytes() == alone.tobytes()

    @settings(max_examples=80, deadline=None)
    @given(pair=st.sampled_from([p for p in ACCEPTED_PAIRS
                                 if choose_compatible_modulation(*p)[0] <= 256]),
           seed=st.integers(0, 2**32 - 1), log_scale=st.floats(-150.0, 150.0),
           log_eps=st.floats(-12.0, -1.0), direct_db=st.floats(0.0, 40.0),
           relay_db=st.floats(0.0, 40.0))
    @example(pair=(16, 1.0), seed=0, log_scale=-150.0, log_eps=-12.0, direct_db=40.0,
             relay_db=40.0)
    @example(pair=(4, 0.5), seed=1, log_scale=150.0, log_eps=-12.0, direct_db=40.0,
             relay_db=40.0)
    def test_decisions_equal_the_dense_oracle_at_any_scale(
            self, pair, seed, log_scale, log_eps, direct_db, relay_db):
        # near-identity axis laws and a relay that carries other bits than
        # the source sent, both up to 40 dB: the direct and relay likelihoods
        # then disagree by far more than exp(-707), where the detector
        # flushes terms, yet its decisions are the 2^n enumerator's; the
        # detector sees every sample and amplitude times `scale` and every
        # noise power times scale^2, which leaves each ratio as it is
        Ms, fraction = pair
        Mr, shape = choose_compatible_modulation(Ms, fraction)
        src, rel = qam(Ms), qam(Mr)
        size = len(src.levels)
        rng = np.random.default_rng(seed)
        T, N2, N12 = 8, 1.0, 1.0
        amp, gain = 10.0 ** (direct_db / 20.0), 10.0 ** (relay_db / 20.0)
        eps = 10.0 ** log_eps
        model = RelayErrorModel((1.0 - eps) * np.eye(size) + eps / size)
        bits = rng.integers(0, 2, (T, shape.n), dtype=np.int8)
        relayed = bits ^ rng.integers(0, 2, (T, shape.n), dtype=np.int8)

        def received(const, a, noise, sent, width):
            return a * const.points[const.bits_to_indices(sent)] + math.sqrt(noise / 2.0) * (
                rng.standard_normal((T, width)) + 1j * rng.standard_normal((T, width)))

        y2 = received(src, amp, N2, bits, shape.s)
        y12 = received(rel, gain, N12, relayed, shape.r)
        want = mld_llr_dense(y2, [RelayObservation(y12, gain, N12, model)], shape, src, rel,
                             amp, N2)
        scale = 10.0 ** log_scale
        got, = mld_llr_batch(
            scale * y2, [RelayObservation(scale * y12, scale * gain, scale**2 * N12, model)],
            shape, src, rel, scale * amp, scale**2 * N2)
        decided = np.abs(np.log(want)) > 1e-6  # ties within rounding decide nothing
        assert np.array_equal((got > 1.0)[decided], (want > 1.0)[decided])

    @pytest.mark.parametrize("scale", [1e-150, 1e150])
    def test_llrs_are_scale_free_up_to_the_float_limits(self, scale):
        # scaling every sample and amplitude by c and every noise power by
        # c^2 leaves each likelihood ratio as it is; at c = 1e150 a sample
        # squared before its division by the noise power overflowed
        Mr, shape = choose_compatible_modulation(4, 0.5)  # 4-QAM forwarded as 16-QAM
        src, rel = qam(4), qam(Mr)
        rng = np.random.default_rng(17)
        T, amp, gain, N2, N12 = 6, 1.2, 1.7, 0.6, 0.8
        bits = rng.integers(0, 2, (T, shape.n), dtype=np.int8)

        def received(const, a, noise, width):
            return a * const.points[const.bits_to_indices(bits)] + math.sqrt(noise / 2.0) * (
                rng.standard_normal((T, width)) + 1j * rng.standard_normal((T, width)))

        y2, y12 = received(src, amp, N2, shape.s), received(rel, gain, N12, shape.r)
        model = estimate_relay_errors(src, amp, N2)
        want, = mld_llr_batch(y2, [RelayObservation(y12, gain, N12, model)], shape, src, rel,
                              amp, N2)
        got, = mld_llr_batch(scale * y2,
                             [RelayObservation(scale * y12, scale * gain, scale**2 * N12, model)],
                             shape, src, rel, scale * amp, scale**2 * N2)
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=0)

    @pytest.mark.parametrize("size,modes", [(4, 1), (2, 4), (8, 2), (4, 5), (2, 7), (64, 1)])
    def test_mode_products_apply_the_kronecker_power(self, size, modes):
        # (4, 5) is the 16 -> 1024 unit law and (2, 7) a wider one: both are
        # applied one 4- or 2-label mode at a time, the others as one product
        rng = np.random.default_rng(size * 31 + modes)
        axis_law = rng.dirichlet(np.full(size, 2.0), size=size)
        lik = rng.random((size**modes, 5))
        want = functools.reduce(np.kron, [axis_law] * modes) @ lik
        np.testing.assert_allclose(df._mix(lik.copy(), axis_law, modes), want, rtol=1e-12)

    def test_enumeration_bound(self):
        # no 2^n bound remains: the 60-bit 1024 -> 4096 block is rejected only
        # for splitting source axes, and the 24-bit 256 -> 4096 block detects
        with pytest.raises(ModulationError, match="split"):
            mld_llr_batch(
                np.zeros((1, 6), dtype=complex),
                [None],
                BlockShape(6, 5, 60),
                qam(1024),
                qam(4096),
                1.0,
                1.0,
            )
        Mr, shape = choose_compatible_modulation(256, 2 / 3)
        assert (Mr, shape.n) == (4096, 24)
        src, rel = qam(256), qam(Mr)
        bits = np.random.default_rng(9).integers(0, 2, (4, shape.n), dtype=np.int8)
        y2 = src.points[src.bits_to_indices(bits)]
        y12 = rel.points[rel.bits_to_indices(bits)]
        genie = RelayObservation(y12, 1.0, 1e-3, RelayErrorModel.error_free(src))
        llr, = mld_llr_batch(y2, [genie], shape, src, rel, 1.0, 1e-3)
        assert llr.shape == (4, 24)
        np.testing.assert_array_equal(llr > 1.0, bits == 1)

    def test_llr_block_views(self):
        blk = LlrBlock(np.array([2.0, 0.5]))
        np.testing.assert_allclose(blk.log_values, [math.log(2.0), math.log(0.5)])
        assert np.array_equal(blk.hard_decisions, [1, 0])

    def test_flooring_keeps_llrs_finite(self):
        # a received point astronomically far from every candidate drives both
        # sums to the floor; the ratio must stay positive and finite
        c, shape = qam(4), BlockShape(1, 1, 2)
        y2 = np.array([[1e6 + 1e6j]])
        llr, = mld_llr_batch(y2, [None], shape, c, c, 1.0, 1.0)
        assert np.all(np.isfinite(llr)) and np.all(llr > 0)

    def test_an_outweighed_branch_is_renormalised_before_the_bit_floor(self):
        # the direct signal favours the sent point by e^700 on each axis; an
        # error-free relay branch carries the opposite point and rules the
        # sent one out far below the 1e-300 floor. The product of the two is
        # divided by each axis's largest label, so the sent label keeps mass 1
        # and the opposite one e^-700 / 1e-300; without that division both
        # would sit under the 1e-300 floor of the bit masses, and read 1
        c, shape = qam(4), BlockShape(1, 1, 2)
        sent = np.array([[0, 0]], dtype=np.int8)
        y2 = c.points[c.bits_to_indices(sent)]
        y12 = 30.0 * c.points[c.bits_to_indices(1 - sent)]
        genie = RelayObservation(y12, 30.0, 1.0, RelayErrorModel.error_free(c))
        llr, = mld_llr_batch(y2, [genie], shape, c, c, 1.0, 2.0 / 700.0)
        np.testing.assert_allclose(llr, [[math.exp(-700.0) / 1e-300] * 2], rtol=1e-9, atol=0)

    @pytest.mark.parametrize("margin", [500, 600, 680])
    def test_a_branch_past_the_mixture_floor_decides_as_the_unfloored_oracle(self, margin):
        # the direct signal favours the sent point by `margin` nats on each
        # axis, and an error-free branch the opposite point by 1800. The
        # detector floors the mixture of each unit (here one axis) at 1e-300,
        # so the branch keeps 690.8 nats of evidence per axis and outweighs
        # the direct signal, as it does in the unfloored likelihoods; a floor
        # per relay symbol keeps 690.8 nats for both axes together, and gives
        # the direct signal every margin above 345 nats
        c, shape = qam(4), BlockShape(1, 1, 2)
        sent = np.array([[0, 0]], dtype=np.int8)
        y2 = c.points[c.bits_to_indices(sent)]
        y12 = 30.0 * c.points[c.bits_to_indices(1 - sent)]
        genie = RelayObservation(y12, 30.0, 1.0, RelayErrorModel.error_free(c))
        got, = mld_llr_batch(y2, [genie], shape, c, c, 1.0, 2.0 / margin)
        want = mld_llr_dense(y2, [genie], shape, c, c, 1.0, 2.0 / margin)
        assert np.array_equal(want > 1.0, sent == 0)  # the branch wins in the oracle
        assert np.array_equal(got > 1.0, want > 1.0)
