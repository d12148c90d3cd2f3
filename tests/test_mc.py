"""Monte Carlo harness tests: determinism, closed-form BER oracles, empirical
SNR agreement, DF pipeline behavior and a cross-correlation replay of the
analytic recursion."""
from __future__ import annotations

import ast
import math
import threading
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from coopbc import af, df, mc
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
from coopbc.df import (
    RelayObservation,
    _unit_bits,
    choose_compatible_modulation,
    estimate_relay_errors,
    mld_llr_batch,
    qam,
)
from coopbc.errors import ModulationError
from coopbc.mc import BerEstimate, TrialConfig, simulate_af, simulate_df
from test_af import af_configs, extreme_params

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


# constructors of numpy's generators, bit generators and seed sequences
RNG_BUILDERS = {"default_rng", "Generator", "BitGenerator", "SeedSequence", "RandomState",
                "MT19937", "PCG64", "PCG64DXSM", "Philox", "SFC64"}


def _dotted(node: ast.AST) -> list[str]:
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    return parts[::-1]


def rng_builders(source: str) -> set[str]:
    """Qualified names of the functions ("" for module level) whose own code
    calls a constructor of RNG_BUILDERS or anything under a `random` module,
    or imports from numpy.random. Annotations are not calls, so a function
    that only takes a generator is not listed."""
    found: set[str] = set()

    def visit(node: ast.AST, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}".lstrip(".")
            elif isinstance(child, ast.Call):
                name = _dotted(child.func)
                if RNG_BUILDERS & set(name) or "random" in name[:-1]:
                    found.add(scope)
            elif isinstance(child, (ast.Import, ast.ImportFrom)):
                modules = [a.name for a in child.names] if isinstance(child, ast.Import) else [
                    child.module or ""]
                if any(m.startswith("numpy.random") for m in modules):
                    found.add(scope)
            visit(child, inner)

    visit(ast.parse(source), "")
    return found


class TestStreams:
    @pytest.mark.parametrize("seed, batch", [(0, 0), (2**63 + 5, 7), (2**64 - 1, 2**32)])
    def test_stream_is_sfc64_seeded_by_seed_and_batch(self, seed, batch):
        # as `_rng` states it: a change of stream must change this test too
        want = np.random.Generator(np.random.SFC64(np.random.SeedSequence([seed, batch])))
        got = mc._rng(seed, batch)
        assert type(got.bit_generator) is np.random.SFC64
        assert np.array_equal(got.integers(0, 4, 1000), want.integers(0, 4, 1000))
        assert (mc._unit_cn(got, (2, 1000)).tobytes()
                == mc._unit_cn(want, (2, 1000)).tobytes())

    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    def test_streams_differ_across_batches_and_seeds(self, seed):
        batches = [0, 1, 2**32 - 1, 2**32]
        draws = {(s, b): mc._rng(s, b).standard_normal(8).tobytes()
                 for s in (seed, seed ^ 1) for b in batches}
        assert len(set(draws.values())) == len(draws)

    def test_scan_finds_every_builder(self):
        source = ("import numpy as np\nfrom numpy.random import PCG64\n"
                  "def f():\n    return np.random.default_rng(1)\n"
                  "class A:\n    def g(self, rng: np.random.Generator) -> np.random.Generator:\n"
                  "        return rng.random(3)\n"
                  "    def h(self):\n        return Generator(PCG64(2))\n")
        assert rng_builders(source) == {"", "f", "A.h"}

    def test_only_rng_builds_a_generator(self):
        # one copy of the stream rule: every draw of the package comes from `_rng`
        found = {(path.stem, scope) for path in Path(mc.__file__).parent.glob("*.py")
                 for scope in rng_builders(path.read_text())}
        assert found == {("mc", "_rng")}


class TestUnitNormals:
    @pytest.mark.parametrize("shape", [(5000,), (2, 5000), (5000, 3)])
    def test_equal_to_the_summed_draws(self, shape):
        z = mc._unit_cn(mc._rng(2**63 + 5, 7), shape)
        rng = mc._rng(2**63 + 5, 7)
        re = rng.standard_normal(shape)
        im = rng.standard_normal(shape)
        summed = re + 1j * im
        assert z.shape == shape and z.dtype == complex
        assert np.array_equal(z, summed)
        for part, draw, through_sum in ((z.real, re, summed.real), (z.imag, im, summed.imag)):
            # the draws, bit for bit and in their order; the sum can move only
            # the sign of a draw that is exactly zero
            assert np.array_equal(part.view(np.uint64), draw.view(np.uint64))
            assert np.all(draw[through_sum.view(np.uint64) != draw.view(np.uint64)] == 0.0)

    def test_the_sign_of_a_zero_draw_reaches_no_signal(self):
        # every pairing of signed zeros and nonzero parts, written as drawn
        # and through re + 1j * im
        parts = np.array([0.0, -0.0, 1.25, -0.5])
        re, im = (a.ravel() for a in np.meshgrid(parts, parts))
        written = np.empty(re.shape, dtype=complex)
        written.real, written.imag = re, im
        summed = re + 1j * im
        moved = written.view(np.uint64) != summed.view(np.uint64)
        assert np.any(moved) and np.all(written.view(float)[moved] == 0.0)
        # every sampled signal adds scaled draws to a symbol, as the samplers
        # form it (one draw, or AF's second output with two)
        for order in (2, 4, 16, 4096):
            for amplitude in (1e-3, 1.0, 31.6):
                x = (amplitude * qam(order).points)[:, None]
                for scale in (0.0, 1e-300, 0.7, 3.0):
                    for g in (written, summed):
                        assert (x + scale * g).tobytes() == (x + scale * written).tobytes()
                        assert ((x + (scale * g + 0.5 * g[::-1])).tobytes()
                                == (x + (scale * written + 0.5 * written[::-1])).tobytes())


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

    @pytest.mark.parametrize("order", [2, 4, 16, 64, 256, 1024, 4096])
    def test_error_counts_equal_the_symbol_oracle(self, monkeypatch, order):
        # two batches, the second ending in a short tile: its 50,000 symbols
        # are one full tile and 17,232 axis samples for BPSK, three full tiles
        # and 1,696 samples for QAM; then tiles of 1,000 samples, which divide
        # no batch
        params = replace(COOP, P=1.0)
        configs = [*af_sweep(Symmetric(0), [Strategy.S1], Regime.H1, range(3)),
                   *af_sweep(Asymmetric(0, Receiver.R2), [Strategy.S2], Regime.H2, range(2))]
        tc = TrialConfig(trials=mc.BATCH_SYMBOLS + 50_000, seed=61)
        want = [oracles.af_error_counts(r.analytic, order, math.sqrt(params.P), tc.trials, tc.seed)
                for r in simulate_af(params, configs, TrialConfig(trials=1), order=order)]
        assert all(counts[1] for counts in want)
        for threads, tile_cells in ((1, mc._TILE_CELLS), (2, mc._TILE_CELLS),
                                    (3, mc._TILE_CELLS), (1, 1000)):
            monkeypatch.setattr(mc, "_TILE_CELLS", tile_cells)
            got = simulate_af(params, configs, tc, order=order, threads=threads)
            assert [(r.ber_I.errors, r.ber_II.errors, r.pe_sys.errors) for r in got] == want

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
        assert r.relay_order == 4 and choose_compatible_modulation(4, 1.0)[1].n == 2
        assert abs(r.ber_I.ber - qpsk_ber(10.0)) < 3.0 * r.ber_I.stderr
        assert abs(r.ber_II.ber - qpsk_ber(5.0)) < 3.0 * r.ber_II.stderr

    def test_wrong_protocol_rejected(self):
        with pytest.raises(ValueError, match="decode"):
            simulate_df(NO_COOP, [AF0], 4, TrialConfig(trials=10))

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
        shape = choose_compatible_modulation(2, 0.25)[1]
        assert r.relay_order == 16
        assert (shape.s, shape.r, shape.n) == (4, 1, 4)
        assert r.ber_II.ber < oracles.exact_qam_ber(2, math.sqrt(10.0), 2.0)

    def test_determinism_and_threads(self):
        p = ChannelParams(P=10.0, n1=1.0, n2=2.0, n12=0.5, n21=0.5, P12=10.0, P21=10.0, B=1.0)
        cfg = CoopConfig(Protocol.DF, Symmetric(2), Strategy.S2, Regime.H2)
        # 4-QAM, and 16-QAM forwarded as 1024-QAM over two batches of at
        # most 512 five-symbol blocks
        for source, trials, fraction in [(4, 60_000, 1.0), (16, 5000, 0.4)]:
            tc = TrialConfig(trials=trials, seed=31)
            a = simulate_df(p, [cfg], source, tc, coop_bandwidth_fraction=fraction)[0]
            b = simulate_df(p, [cfg], source, tc, coop_bandwidth_fraction=fraction, threads=3)[0]
            assert a == b

    def test_early_stop_respects_target_and_threads(self):
        tc = TrialConfig(trials=2_000_000, seed=7, target_half_width=0.10)
        r = simulate_df(NO_COOP, [DF0], 4, tc)[0]
        assert r.ber_I.trials < 2_000_000
        assert r.ber_I.stderr <= 0.10 * r.ber_I.ber
        assert r.ber_II.stderr <= 0.10 * r.ber_II.ber
        assert simulate_df(NO_COOP, [DF0], 4, tc, threads=2)[0] == r

    def test_relay_order_256_batch_has_bounded_memory(self):
        # 16-QAM forwarded as 256-QAM: a full batch is 2^20 // (2 << 4) =
        # 32,768 two-symbol blocks of two 4-bit units; a (blocks, r, Mr, Mr)
        # substitution table would be 16 GiB, and the 256-candidate table of
        # the batch alone 64 MiB
        p = ChannelParams(P=1.0, n1=0.1, n2=1.0, n12=1.0, n21=1.0, P12=1e3, P21=1e3, B=1.0)
        cfg = CoopConfig(Protocol.DF, Symmetric(1), Strategy.S2, Regime.H2)
        blocks = mc._MLD_CELL_CAP // (2 << 4)
        tracemalloc.start()
        try:
            r = simulate_df(p, [cfg], 16, TrialConfig(trials=2 * blocks, seed=41),
                            coop_bandwidth_fraction=0.5)[0]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        shape = choose_compatible_modulation(16, 0.5)[1]
        assert (r.relay_order, shape.s, shape.n, blocks) == (256, 2, 8, 32768)
        assert r.ber_I.trials == 2 * blocks
        assert peak < 64 * 2**20

    def test_relay_order_4096_24_bit_blocks_have_bounded_memory(self):
        # 256-QAM forwarded as 4096-QAM on two-thirds-width slices: a batch
        # is 2^20 // (2 << 12) = 128 three-symbol blocks of two 12-bit units,
        # so two batches peak as one does (40 MiB); a batch of twice the
        # blocks, or the 4096 x 4096 law alone (128 MiB), would pass the bound
        p = ChannelParams(P=1.0, n1=0.01, n2=0.1, n12=1.0, n21=1.0, P12=1e3, P21=1e3, B=1.0)
        cfg = CoopConfig(Protocol.DF, Symmetric(1), Strategy.S2, Regime.H2)
        blocks = mc._MLD_CELL_CAP // (2 << 12)
        tracemalloc.start()
        try:
            r = simulate_df(p, [cfg], 256, TrialConfig(trials=2 * 3 * blocks, seed=53),
                            coop_bandwidth_fraction=2 / 3)[0]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        shape = choose_compatible_modulation(256, 2 / 3)[1]
        assert (r.relay_order, shape.s, shape.n, blocks) == (4096, 3, 24, 128)
        assert r.ber_I.trials == 2 * 3 * blocks
        assert peak < 48 * 2**20

    def test_relay_order_4096_detector_batch_has_bounded_memory(self):
        # 64-QAM forwarded as 4096-QAM on half-width slices: 1024 blocks, each
        # two 6-bit units of 64 labels, an eighth of the 2^20 // (2 << 6)
        # blocks of a full batch (whose tables take 8 MiB each and peak at
        # 27 MiB); the 2^12-candidate tables of these blocks alone would take
        # 32 MiB, and the 4096 x 4096 law 128 MiB
        Mr, shape = choose_compatible_modulation(64, 0.5)
        src, rel = qam(64), qam(Mr)
        blocks = 1024
        rng = np.random.default_rng(43)
        bits = rng.integers(0, 2, (blocks, shape.n), dtype=np.int8)
        y2 = 4.0 * src.points[src.bits_to_indices(bits)] + 0.1 * rng.standard_normal((blocks, shape.s))
        y12 = 30.0 * rel.points[rel.bits_to_indices(bits)] + 0.1 * rng.standard_normal((blocks, 1))
        model = estimate_relay_errors(src, 4.0, 0.02)
        tracemalloc.start()
        try:
            llr, = mld_llr_batch(y2, [RelayObservation(y12, 30.0, 0.02, model)], shape,
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

    def test_genie_relay_ignores_its_downlink_noise(self):
        # a genie relay decodes the noiseless source symbols: receiver 1's
        # downlink noise reaches receiver 2's errors only through an exact relay
        cfg = CoopConfig(Protocol.DF, Asymmetric(1, Receiver.R1), Strategy.S2, Regime.H2)
        tc = TrialConfig(trials=70_000, seed=13)

        def ber_II(n1: float, relay_model: str) -> BerEstimate:
            p = ChannelParams(P=10.0, n1=n1, n2=2.0, n12=4.0, n21=4.0, P12=20.0, P21=20.0, B=1.0)
            return simulate_df(p, [cfg], 4, tc, relay_model=relay_model)[0].ber_II

        assert ber_II(1.0, "genie") == ber_II(5.0, "genie")
        exact = ber_II(1.0, "exact"), ber_II(5.0, "exact")
        assert exact[0].errors < exact[1].errors, exact

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
        assert (one.relay_order, two.relay_order) == (16, 16)
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


# Exact per-receiver BERs. An AF combiner output is X + Z at unit gain with
# Z ~ CN(0, N), and so, up to scale, is the weight-and-add output of a DF
# receiver that hears no relay (k = 0) or genie relays over a full-width band
# (at the sum of its branch SNRs). Each error count is then a sum of iid
# counts of one axis sample each, in [0, b] for b bits per axis, whose mean
# and variance oracles.decision_law_ber gives. Every count must lie within
# the Bernstein bound at level EXACT_ALPHA / EXACT_CHECKS: Bonferroni over
# every count of the grid, and for one-bit axes a bound on the binomial tail.
# The level and the grid are fixed, and every sweep runs at the default seed.
EXACT_ORDERS = (2, 4, 16, 64, 256, 1024, 4096)
EXACT_COUNTS = range(5)
EXACT_AF_CELLS = [(order, strategy, scheme, regime) for order in EXACT_ORDERS
                  for strategy in Strategy for scheme in (Symmetric, Asymmetric)
                  for regime in Regime]
EXACT_DF_CELLS = [("broadcast", 2), ("broadcast", 4),
                  *(("mrc-genie", order) for order in EXACT_ORDERS[1:])]
EXACT_CHECKS = 2 * (len(EXACT_AF_CELLS) * len(EXACT_COUNTS)  # two receivers per count
                    + sum(1 if case == "broadcast" else len(EXACT_COUNTS)
                          for case, _ in EXACT_DF_CELLS))
EXACT_ALPHA = 1e-4
# pe_sys, the rate of bits wrong at either receiver, is checked on the same
# sweeps, one count per config, against oracles.decision_law_pe_sys: the
# union count of one axis sample lies in [0, b] as well. Its checks form a
# Bonferroni family of their own, at a level fixed before the first run. A
# DF destination's noise is independent of its partner's, so the law there
# is that at e = 0
PE_SYS_CHECKS = (len(EXACT_AF_CELLS) * len(EXACT_COUNTS)
                 + sum(1 if case == "broadcast" else len(EXACT_COUNTS)
                       for case, _ in EXACT_DF_CELLS))
PE_SYS_ALPHA = 1e-4


def exact_params(order: int) -> ChannelParams:
    """A channel whose downlink SNRs, 2 (M - 1) and M - 1, put every order's
    BER near 1e-2 before cooperation."""
    P = float(order - 1)
    return ChannelParams(P=P, n1=0.5, n2=1.0, n12=0.5, n21=0.5, P12=P, P21=P, B=1.0)


def assert_bernstein(est: BerEstimate, order: int, law: tuple[float, float], checks: int,
                     alpha: float) -> None:
    """est's error count lies within the Bernstein bound at level alpha /
    checks around the exact law: (rate, variance of one axis sample's count)."""
    rate, var = law
    const = qam(order)
    axes = const.bits_per_symbol // const.axis_bits
    log_term = math.log(2.0 * checks / alpha)
    reach = const.axis_bits * log_term / 3.0
    tol = reach + math.sqrt(reach * reach + 2.0 * log_term * est.trials * axes * var)
    assert abs(est.errors - rate * est.bits) <= tol, (est.errors, rate * est.bits, tol)


def assert_exact_ber(est: BerEstimate, order: int, amplitude: float, noise_power: float) -> None:
    assert_bernstein(est, order, oracles.decision_law_ber(order, amplitude, noise_power),
                     EXACT_CHECKS, EXACT_ALPHA)


def assert_exact_pe_sys(est: BerEstimate, order: int, amplitude: float, N_I: float, N_II: float,
                        e: float) -> None:
    assert_bernstein(est, order, oracles.decision_law_pe_sys(order, amplitude, N_I, N_II, e),
                     PE_SYS_CHECKS, PE_SYS_ALPHA)


class TestPeSysOracle:
    """decision_law_pe_sys at its limits, and its bivariate law across the
    switch between its two branches."""

    @pytest.mark.parametrize("order", EXACT_ORDERS)
    def test_uncorrelated_outputs_factor_into_the_two_laws(self, order):
        amp, N_I, N_II = math.sqrt(order - 1.0), 0.7, 1.3
        law_I, law_II = (df._decision_law(qam(order), amp, N) for N in (N_I, N_II))
        labels = np.arange(len(law_I))
        wrong = labels[:, None] ^ labels  # [sent, decided], label order
        union = oracles._popcount(wrong[:, :, None] | wrong[:, None, :])
        joint = law_I[:, :, None] * law_II[:, None, :]
        mean = float(np.sum(joint * union)) / len(labels)
        var = float(np.sum(joint * union * union)) / len(labels) - mean * mean
        got = oracles.decision_law_pe_sys(order, amp, N_I, N_II, 0.0)
        assert got == pytest.approx((mean / qam(order).axis_bits, var), rel=1e-12, abs=1e-300)

    @pytest.mark.parametrize("order", EXACT_ORDERS)
    def test_identical_outputs_err_as_one_receiver(self, order):
        amp, N = math.sqrt(order - 1.0), 0.9
        assert oracles.decision_law_pe_sys(order, amp, N, N, N) == pytest.approx(
            oracles.decision_law_ber(order, amp, N), rel=1e-12)

    @pytest.mark.parametrize("rho", [0.925, -0.925, 1.0, -1.0])
    def test_bivariate_law_is_continuous_at_its_branches(self, rho):
        # one ulp inside |rho| = 0.925 the other branch holds, and the law moves
        # by less than 1e-16; one ulp inside +-1 the high-correlation branch
        # is at most acos|rho| / (2 pi), the integral of the density's bound
        # 1 / (2 pi sqrt(1 - r^2)), from the law of one variable
        h = np.linspace(-8.0, 8.0, 41)
        k = h[:, None]  # h = k and h = -k included
        inside = float(np.nextafter(rho, 0.0))
        gap = math.acos(abs(inside)) / (2.0 * math.pi)
        moved = np.abs(oracles.bivariate_upper(h, k, rho) - oracles.bivariate_upper(h, k, inside))
        assert np.max(moved) <= (gap if abs(rho) == 1.0 else 0.0) + 2e-15


class TestExactBer:
    @pytest.mark.parametrize("order, strategy, scheme, regime", EXACT_AF_CELLS)
    def test_af_receivers_match_the_decision_law(self, order, strategy, scheme, regime):
        params = exact_params(order)
        configs = [CoopConfig(Protocol.AF, scheme(k), strategy, regime) for k in EXACT_COUNTS]
        sweep = simulate_af(params, configs, TrialConfig(trials=mc.BATCH_SYMBOLS), order=order)
        states = af.run_recursion(params, configs[0], EXACT_COUNTS[-1])
        for r, state in zip(sweep, states, strict=True):
            assert_exact_ber(r.ber_I, order, math.sqrt(params.P), state.N_I)
            assert_exact_ber(r.ber_II, order, math.sqrt(params.P), state.N_II)
            assert_exact_pe_sys(r.pe_sys, order, math.sqrt(params.P), state.N_I, state.N_II,
                                state.e)

    @pytest.mark.parametrize("case, order", EXACT_DF_CELLS)
    def test_df_receivers_match_the_decision_law(self, case, order):
        params = exact_params(order)
        if case == "broadcast":  # a one-bit axis: the per-bit ML decision is the nearest level
            counts, kwargs = [0], {"coop_bandwidth_fraction": 0.5 if order == 2 else 1.0}
        else:
            counts, kwargs = list(EXACT_COUNTS), {"combiner": "mrc", "relay_model": "genie"}
        configs = [CoopConfig(Protocol.DF, Asymmetric(k), Strategy.S1, Regime.H1) for k in counts]
        sweep = simulate_df(params, configs, order, TrialConfig(trials=mc.BATCH_SYMBOLS),
                            **kwargs)
        for config, r in zip(configs, sweep, strict=True):
            sent = oracles.exchange_powers(params, config)  # (k, 2): receiver 1's, 2's sends
            band = params.B / (1 + np.count_nonzero(sent))  # H1: one sub-channel per send
            noises = []
            for dest, est in enumerate((r.ber_I, r.ber_II)):
                relay = 1 - dest  # the partner; its m repeats sum to one branch
                snr = (params.P / ((params.n1, params.n2)[dest] * band)
                       + sent[:, relay].sum() / ((params.n12, params.n21)[relay] * band))
                noises.append(params.P / snr)
                assert_exact_ber(est, order, math.sqrt(params.P), noises[-1])
            assert_exact_pe_sys(r.pe_sys, order, math.sqrt(params.P), *noises, 0.0)


COOP = ChannelParams(P=10.0, n1=1.0, n2=2.0, n12=0.5, n21=0.5, P12=10.0, P21=10.0, B=1.0)


def af_sweep(scheme, strategies, regime, counts):
    return [CoopConfig(Protocol.AF, scheme, s, regime).with_count(k)
            for s in strategies for k in counts]


def df_sweep(scheme, regime, counts):
    return [CoopConfig(Protocol.DF, scheme, Strategy.S2, regime).with_count(k) for k in counts]


# noisy links: relay decisions reach the destinations with errors a wrong
# link draw would move (at COOP's links it moves no error count)
NOISY_LINKS = replace(COOP, n12=20.0, n21=20.0, P12=4.0, P21=4.0)

SWEEP_CASES = {  # params, simulate, configs, positional and keyword arguments
    "af_mixed_strategies": (
        COOP, simulate_af, af_sweep(Symmetric(0), list(Strategy), Regime.H1, range(3)), (), {}),
    "af_asymmetric_r2_16qam": (
        COOP, simulate_af,
        af_sweep(Asymmetric(0, Receiver.R2), [Strategy.S2], Regime.H2, range(4)),
        (), {"order": 16}),
    "df_h1": (COOP, simulate_df, df_sweep(Symmetric(0), Regime.H1, range(4)), (4,), {}),
    "df_h2": (COOP, simulate_df, df_sweep(Symmetric(0), Regime.H2, range(4)), (4,), {}),
    "df_asymmetric_r2_h1": (
        COOP, simulate_df, df_sweep(Asymmetric(0, Receiver.R2), Regime.H1, range(4)), (4,), {}),
    # a slot's draw goes to receiver 1's link in one config and to receiver
    # 2's in another: draws follow the slot (first-send order), not the relay
    "df_mixed_starters_h1": (
        NOISY_LINKS, simulate_df,
        [*df_sweep(Asymmetric(0), Regime.H1, range(3)),
         *df_sweep(Asymmetric(0, Receiver.R2), Regime.H1, range(3))], (4,), {}),
    "df_genie": (COOP, simulate_df, df_sweep(Asymmetric(0, Receiver.R2), Regime.H1, range(3)),
                 (4,), {"relay_model": "genie"}),
    "df_bpsk_qam16": (COOP, simulate_df, df_sweep(Asymmetric(0), Regime.H2, range(4)), (2,),
                      {"coop_bandwidth_fraction": 0.25}),
    "df_mrc": (COOP, simulate_df, df_sweep(Symmetric(0), Regime.H1, range(3)), (4,),
               {"combiner": "mrc"}),
}


class TestSweep:
    """A sweep shares each batch's draws across its configs; every config's
    result must equal its own one-element sweep, exactly."""

    @pytest.mark.parametrize("threads", [1, 3])
    @pytest.mark.parametrize("case", list(SWEEP_CASES))
    def test_sweep_equals_singles(self, case, threads):
        params, simulate, configs, args, kwargs = SWEEP_CASES[case]
        tc = TrialConfig(trials=mc.BATCH_SYMBOLS + 3000, seed=61)
        sweep = simulate(params, configs, *args, tc, threads=threads, **kwargs)
        singles = tuple(simulate(params, [c], *args, tc, **kwargs)[0] for c in configs)
        assert sweep == singles

    @pytest.mark.parametrize("threads", [1, 3])
    def test_the_earliest_batch_error_reraises_once_every_thread_stops(self, monkeypatch,
                                                                       threads):
        # batches are taken in order, so every batch before a failing one has
        # run: the caller sees the error of the earliest failing batch (the CLI
        # maps a MemoryError to exit 3), after every worker thread has ended.
        # A worker knows its batch by its stream, patched to the batch index
        monkeypatch.setattr(mc, "_rng", lambda seed, b: b)

        def worker(b, T, active):
            if b in (1, 2):
                raise (MemoryError if b == 1 else ValueError)(f"batch {b}")
            return [(1, 2, 0, 0, 0)]

        alive = threading.active_count()
        with pytest.raises(MemoryError, match="batch 1"):
            mc._run_ordered(worker, [0], 8, 1, threads, TrialConfig(trials=8))
        assert threading.active_count() == alive

    @pytest.mark.parametrize("threads", [1, 3])
    def test_the_driver_samples_each_key_once_a_batch(self, monkeypatch, threads):
        # 10 units in batches of 4: batch b draws from its own stream, patched
        # to (seed, b), and gets 4, 4, then 2 units. The two configs keyed "a"
        # are one problem, sampled once a batch, and every config gets its
        # key's totals, in config order
        monkeypatch.setattr(mc, "_rng", lambda seed, b: (seed, b))
        calls = []

        def worker(rng, T, active):
            calls.append((rng, T, active))
            return [(T, 2 * T, len(key), 0, 0) for key in active]

        tc = TrialConfig(trials=1, seed=7)
        keys = ["a", "bb", "a", "ccc"]
        totals = mc._run_ordered(worker, keys, 10, 4, threads, tc)
        assert sorted(calls) == [((7, b), T, ("a", "bb", "ccc")) for b, T in enumerate((4, 4, 2))]
        assert totals == [(10, 20, 3 * len(key), 0, 0) for key in keys]
        assert mc._run_ordered(worker, [], 10, 4, threads, tc) == []
        assert len(calls) == 3  # an empty sweep runs no batch

    def test_early_stop_per_config(self):
        # the counts reach the target after different numbers of 4-batch chunks
        configs = af_sweep(Symmetric(0), [Strategy.S1], Regime.H2, range(4))
        tc = TrialConfig(trials=2_000_000, seed=3, target_half_width=0.10)
        sweep = simulate_af(COOP, configs, tc, threads=3)
        chunk = mc._STOP_CHECK_BATCHES * mc.BATCH_SYMBOLS
        assert len({r.ber_I.trials // chunk for r in sweep}) > 1
        assert all(r.ber_I.trials < tc.trials for r in sweep)
        assert sweep == tuple(simulate_af(COOP, [c], tc)[0] for c in configs)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_bit_cap_stops_at_the_first_check_past_it(self, monkeypatch, threads):
        # a target no run meets, under a cap of one bit: the config stops at
        # the first stop check, with one chunk of batches folded
        monkeypatch.setattr(mc, "BIT_CAP", 1)
        chunk = mc._STOP_CHECK_BATCHES * mc.BATCH_SYMBOLS
        tc = TrialConfig(trials=2 * chunk, seed=5, target_half_width=1e-9)
        r = simulate_af(NO_COOP, [AF0], tc, threads=threads)[0]
        assert r.ber_I.trials == chunk
        assert r == simulate_af(NO_COOP, [AF0], TrialConfig(trials=chunk, seed=5))[0]

    @pytest.mark.parametrize("threads", [1, 2])
    def test_zero_errors_never_meet_the_target(self, threads):
        # receiver 2 meets the target in the first chunk, but receiver 1, at
        # 40 dB, makes no error, so the config samples every trial
        tc = TrialConfig(trials=mc._STOP_CHECK_BATCHES * mc.BATCH_SYMBOLS + 1000, seed=9,
                         target_half_width=0.5)
        r = simulate_af(replace(NO_COOP, n1=1e-3), [AF0], tc, threads=threads)[0]
        assert r.ber_I.errors == 0 and r.ber_I.trials == tc.trials
        assert 0 < r.ber_II.stderr <= 0.5 * r.ber_II.ber

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

    def test_branch_draws_and_relay_decisions_are_released_after_last_read(self):
        # one full batch of 4-QAM blocks under weight-and-add, where every
        # complex signal of the batch takes 1 MiB: the two direct and two link
        # draws are made for the whole batch and stay alive through it, while
        # x, the direct signals, the relay decisions and the branches exist
        # for one tile of blocks at a time; both runs peak at 5.2 MiB.
        # Forming those signals for the whole batch peaked at 11.1 MiB
        # (sweep) and 10.9 MiB (count 2 alone) when every one was held
        # through detection, and at 10.1 and 7.8 MiB when each was released
        # after its last reader
        configs = df_sweep(Symmetric(0), Regime.H2, range(3))
        tc = TrialConfig(trials=mc.BATCH_SYMBOLS, seed=71)
        simulate_df(COOP, configs, 4, TrialConfig(trials=10), combiner="mrc")  # warm caches
        peaks = []
        for sweep in (configs, configs[2:]):
            tracemalloc.start()
            try:
                simulate_df(COOP, sweep, 4, tc, combiner="mrc")
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[0] < 10.6 * 2**20
        assert peaks[1] < 9 * 2**20

    def test_pooled_receiver_one_counts(self):
        sweep = simulate_af(COOP, af_sweep(Symmetric(0), [Strategy.S1], Regime.H2, range(2)),
                            TrialConfig(trials=1000, seed=1))
        assert sweep.ber_I.trials == 2000
        assert sweep.ber_I.bits == sum(r.ber_I.bits for r in sweep)
        assert sweep.ber_I.errors == sum(r.ber_I.errors for r in sweep)


# receiver 1's budget is the smallest subnormal: its one send at k = 1 carries
# 5e-324 W, but 5e-324 / 2 W a send rounds to 0 at k = 2
SUBNORMAL_BUDGET = ChannelParams(P=1.0, n1=0.5, n2=0.5, n12=0.5, n21=0.5, P12=5e-324, P21=1.0,
                                 B=1.0)
H2_SCHEMES = st.one_of(st.builds(Symmetric, st.integers(0, 5)),
                       st.builds(Asymmetric, st.integers(0, 5), st.sampled_from(list(Receiver))))


class TestDfFold:
    """A DF config's plan holds each relay's repeats as one branch of its
    whole budget, so configs that differ only in their count plan equal, and
    `simulate_df` samples each distinct plan once."""

    def test_a_branch_is_planned_from_the_whole_budget(self):
        # m sends of 10 / m W each sum to one branch of SNR 10 / 0.25 at any
        # m, planned as gain sqrt(10) over one half-width link's noise
        plans = set(mc._df_plans(COOP, df_sweep(Symmetric(0), Regime.H2, range(1, 6)), 0.5))
        branch = (math.sqrt(10.0), 0.25)
        assert plans == {((1.0, 2.0), ((1, *branch), (0, *branch)))}

    def test_who_sends_does_not_depend_on_the_count(self):
        # receiver 1 relays at every k >= 1 and takes the first slot, though
        # its budget over two or three sends rounds to 0 W a send
        configs = df_sweep(Symmetric(0), Regime.H2, range(1, 4))
        plans = set(mc._df_plans(SUBNORMAL_BUDGET, configs, 1.0))
        assert plans == {((0.5, 0.5), ((1, 1.0, 0.5), (0, math.sqrt(5e-324), 0.5)))}
        for combiner in ("mld", "mrc"):
            rows = simulate_df(SUBNORMAL_BUDGET, configs, 4, TrialConfig(trials=20_000, seed=3),
                               combiner=combiner)
            assert rows[0] == rows[1] == rows[2]

    def test_the_planned_snr_names_the_whole_budget(self):
        # the line names the whole budget over one link's noise, not the sum
        # of k = 2's two sends of 5e307 W (inf / 1)
        p = replace(SUBNORMAL_BUDGET, P12=1e308, n21=1.0)
        with pytest.raises(ValueError, match=r"^n12: the planned SNR 1e\+308 / 0\.5 is not"):
            simulate_df(p, df_sweep(Symmetric(0), Regime.H2, [2]), 4, TrialConfig(trials=10))

    @pytest.mark.parametrize("threads", [1, 3])
    @pytest.mark.parametrize("combiner", ["mld", "mrc"])
    @settings(max_examples=25, deadline=None)
    @given(schemes=st.lists(H2_SCHEMES, min_size=1, max_size=6),
           params=st.sampled_from([COOP, NOISY_LINKS, SUBNORMAL_BUDGET,
                                   replace(NOISY_LINKS, P21=0.0)]),
           trials=st.integers(1, 6 * 64), seed=st.integers(0, 2**64 - 1),
           target=st.sampled_from([None, 0.3]))
    def test_every_h2_config_equals_its_solo_run(self, combiner, threads, schemes, params,
                                                 trials, seed, target):
        # batches of 64 symbols, so that 3 threads run several side by side
        # and a target stops the problems of a sweep after different chunks
        configs = [CoopConfig(Protocol.DF, scheme, Strategy.S2, Regime.H2) for scheme in schemes]
        tc = TrialConfig(trials=trials, seed=seed, target_half_width=target)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(mc, "BATCH_SYMBOLS", 64)
            sweep = simulate_df(params, configs, 4, tc, combiner=combiner, threads=threads)
            assert sweep == tuple(simulate_df(params, [c], 4, tc, combiner=combiner)[0]
                                  for c in configs)

    def test_equivalent_h2_configs_give_equal_rows(self):
        # under h2 every symmetric config with k >= 1 and every asymmetric
        # one from receiver 1 with k >= 2 poses one problem: both relays send,
        # receiver 1 first. From receiver 2, k >= 2 poses another
        tc = TrialConfig(trials=3000, seed=89)
        sym, asym, asym_r2 = (df_sweep(scheme, Regime.H2, range(5)) for scheme in
                              (Symmetric(0), Asymmetric(0), Asymmetric(0, Receiver.R2)))
        rows = simulate_df(NOISY_LINKS, sym + asym + asym_r2, 16, tc)
        s, a, r = rows[:5], rows[5:10], rows[10:]
        assert len({*s[1:], *a[2:]}) == 1 and len(set(r[2:])) == 1
        assert len({s[0], s[1], a[1], r[1], r[2]}) == 5  # no two problems read alike
        assert s[0] == a[0] == r[0]  # k = 0 hears no branch under any scheme

    def test_a_13_row_sweep_detects_two_problems(self, monkeypatch):
        # k = 0 and k >= 1: two configs per destination in each of the
        # batch's three tiles of 8192 blocks, not 13
        sizes = []

        def spy(y2, observations, *args):
            sizes.append(len(observations))
            return mld_llr_batch(y2, observations, *args)

        monkeypatch.setattr(mc, "mld_llr_batch", spy)
        rows = simulate_df(COOP, df_sweep(Symmetric(0), Regime.H2, range(13)), 4,
                           TrialConfig(trials=20_000, seed=97))
        assert sizes == [2] * 6
        assert len(set(rows)) == 2


def compare_af_sweep(scheme, regime, k_max):
    """s1 at k = 0..k_max, then s2 at k >= 1: the AF half of `coopbc compare`
    but its s2 at k = 0, which poses s1's problem."""
    return [*af_sweep(scheme, [Strategy.S1], regime, range(k_max + 1)),
            *af_sweep(scheme, [Strategy.S2], regime, range(1, k_max + 1))]


def spy_sampled_keys(monkeypatch) -> list[set]:
    """Patch `mc._run_ordered` to record, for each call, the distinct keys its
    worker is asked to sample; returns the list it fills."""
    sampled: list[set] = []
    run_ordered = mc._run_ordered

    def spy(worker, *args):
        keys = set()
        sampled.append(keys)

        def recorded(rng, T, active):
            keys.update(active)
            return worker(rng, T, active)

        return run_ordered(recorded, *args)

    monkeypatch.setattr(mc, "_run_ordered", spy)
    return sampled


class TestAfFold:
    """Configs whose outputs share their noise factors (l_I, l_c, l_II) pose
    one AF sampling problem, which `simulate_af` samples once for all of
    them; each config keeps its own analytic final state."""

    @pytest.mark.parametrize("threads", [1, 3])
    @settings(max_examples=25, deadline=None)
    @given(configs=st.lists(st.sampled_from([
               *compare_af_sweep(Symmetric(0), Regime.H2, 3),
               *compare_af_sweep(Asymmetric(0, Receiver.R2), Regime.H2, 3),
               *compare_af_sweep(Symmetric(0), Regime.H1, 2)]), min_size=1, max_size=8),
           trials=st.integers(1, 6 * 64), seed=st.integers(0, 2**64 - 1),
           target=st.sampled_from([None, 0.3]))
    def test_every_config_equals_its_solo_run(self, threads, configs, trials, seed, target):
        # batches of 64 symbols, so that 3 threads run several side by side
        # and a target stops the problems of a sweep after different chunks
        tc = TrialConfig(trials=trials, seed=seed, target_half_width=target)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(mc, "BATCH_SYMBOLS", 64)
            sweep = simulate_af(COOP, configs, tc, threads=threads)
            assert sweep == tuple(simulate_af(COOP, [c], tc)[0] for c in configs)

    def test_a_5_config_h2_compare_sweep_samples_3_problems(self, monkeypatch):
        # s1 at k = 1 and s2 at k = 1 and 2 end in the same state under h2,
        # so k = 0, k = 1 and s1 at k = 2 are the three problems
        sampled = spy_sampled_keys(monkeypatch)
        configs = compare_af_sweep(Symmetric(0), Regime.H2, 2)
        rows = simulate_af(COOP, configs, TrialConfig(trials=3000, seed=13))
        assert [len(keys) for keys in sampled] == [3]
        s1, s2 = rows[:3], rows[3:]
        assert replace(s1[1], analytic=None) == replace(s2[0], analytic=None) == replace(
            s2[1], analytic=None)  # every sampled field
        assert len({r.snr_I for r in rows}) == 3
        assert [r.analytic.i for r in rows] == [0, 1, 2, 1, 2]  # each keeps its own final


# source order and cooperation band fraction of each DF block shape the tile
# tests run: 4->4, 16->16 and 64->64 (3-bit units) reuse the source
# constellation; BPSK->16-QAM and 16->256-QAM (4-bit units) do not
TILE_SHAPES = {"4": (4, 1.0), "16": (16, 1.0), "2to16": (2, 0.25), "64": (64, 1.0),
               "16to256": (16, 0.5)}
# weight-and-add only where the relay reuses the source constellation
TILE_RUNS = [(case, "mld", model) for case in TILE_SHAPES for model in ("exact", "genie")] + [
    (case, "mrc", "exact") for case, (_, fraction) in TILE_SHAPES.items() if fraction == 1.0]


@st.composite
def af_sweeps(draw):
    """Up to 8 AF configs on `extreme_params` with mixed strategies, schemes,
    starters and regimes; counts up to 64, unsorted and repeated."""
    pool = draw(st.lists(st.integers(0, 64), min_size=1, max_size=4))
    configs = st.lists(af_configs(st.sampled_from(list(Strategy)), st.sampled_from(pool)),
                       min_size=1, max_size=8)
    return draw(extreme_params()), draw(configs)


# mixed strategies, schemes and regimes; counts unsorted and repeated
MIXED = [CoopConfig(Protocol.AF, scheme, strategy, regime) for scheme, strategy, regime in [
    (Symmetric(5), Strategy.S2, Regime.H1), (Asymmetric(3, Receiver.R2), Strategy.S1, Regime.H2),
    (Symmetric(5), Strategy.S1, Regime.H1), (Symmetric(0), Strategy.S2, Regime.H2),
    (Asymmetric(3, Receiver.R2), Strategy.S1, Regime.H2), (Symmetric(1), Strategy.S1, Regime.H1),
]]


def _final_rows(states) -> bytes:
    return np.array([(s.i, s.N_I, s.N_II, s.e, s.rho_I, s.rho_II) for s in states]).tobytes()


class TestAfFinals:
    """A sweep reads every config's final state from one engine batch per
    strategy; each must be that config's own campaign's, bit for bit."""

    @settings(deadline=None, max_examples=150)
    @given(sweep=af_sweeps())
    @example(sweep=(COOP, MIXED))
    def test_sweep_finals_equal_campaigns(self, sweep):
        params, configs = sweep
        results = simulate_af(params, configs, TrialConfig(trials=1, seed=0))
        assert _final_rows(r.analytic for r in results) == _final_rows(
            af.campaign(params, c)[-1] for c in configs)

    def test_empty_sweep(self):
        assert simulate_af(COOP, [], TrialConfig(trials=1, seed=0)) == mc.Sweep()

    def test_one_final_state_per_strategy(self, monkeypatch):
        # a K^2 loop of one campaign per config must not come back: the sweep
        # calls the batched engine once per strategy present and no campaign
        strategies = []
        final_state = af.final_state

        def spy(*args):
            strategies.append(args[-1])
            return final_state(*args)

        def no_campaign(*args):
            raise AssertionError("a sweep stepped a campaign")

        monkeypatch.setattr(af, "final_state", spy)
        monkeypatch.setattr(af, "campaign", no_campaign)
        monkeypatch.setattr(mc, "campaign", no_campaign)
        assert len(simulate_af(COOP, MIXED, TrialConfig(trials=64, seed=1))) == len(MIXED)
        assert sorted(strategies) == [False, True]


class TestTiles:
    """A DF batch is drawn whole and then detected tile by tile; the tile
    size must set no result."""

    @pytest.mark.parametrize("threads", [1, 3])
    @pytest.mark.parametrize("case,combiner,relay_model", TILE_RUNS)
    def test_tile_size_sets_no_result(self, monkeypatch, case, combiner, relay_model, threads):
        source, fraction = TILE_SHAPES[case]
        # an h1 sweep gives each count its own downlink noises, so several noise
        # groups share a batch; batches of 64 symbols make 4 of them, the last
        # one short, so that 3 threads run batches side by side
        monkeypatch.setattr(mc, "BATCH_SYMBOLS", 64)
        monkeypatch.setattr(mc, "_TILE_MIN_BLOCKS", 1)
        params = replace(NOISY_LINKS, n1=10.0, n2=20.0, n12=40.0, n21=40.0)
        configs = df_sweep(Symmetric(0), Regime.H1, range(3))
        tc = TrialConfig(trials=3 * 64 + 40, seed=79)
        relay_order, shape = choose_compatible_modulation(source, fraction)
        unit = _unit_bits(qam(source), qam(relay_order))
        cells = (shape.n // unit) << unit

        def run(tile_blocks: int) -> mc.Sweep:
            monkeypatch.setattr(mc, "_TILE_CELLS", tile_blocks * cells)
            return simulate_df(params, configs, source, tc, combiner=combiner,
                               relay_model=relay_model, coop_bandwidth_fraction=fraction,
                               threads=threads)

        whole = run(64)  # one tile per batch
        assert all(r.ber_II.errors for r in whole)
        for tile_blocks in (1, 5):  # one block, and tiles that leave a ragged last one
            assert run(tile_blocks) == whole

    @pytest.mark.parametrize("combiner", ["mld", "mrc"])
    def test_detector_call_parts_set_no_result(self, monkeypatch, combiner):
        # an h2 sweep is one noise group of six configs and four distinct
        # plans, which one detector call per destination serves whole, or in
        # parts of one or three plans (the last part short); k = 0 hears no
        # branch at all
        configs = [*df_sweep(Symmetric(0), Regime.H2, range(3)),
                   *df_sweep(Asymmetric(0, Receiver.R2), Regime.H2, range(1, 4))]
        tc = TrialConfig(trials=3000, seed=83)

        def run(call_size: int) -> mc.Sweep:
            monkeypatch.setattr(mc, "_CALL_SIZE", call_size)
            return simulate_df(NOISY_LINKS, configs, 4, tc, combiner=combiner)

        whole = run(len(configs))
        assert all(r.ber_II.errors for r in whole)
        assert run(1) == whole and run(3) == whole

    def test_relay_order_256_batch_peaks_at_tile_size(self):
        # one full batch of 32,768 two-symbol 16-QAM blocks forwarded as
        # 256-QAM: the draws take 3 MiB and a tile's tables 256 KiB, where
        # detecting the whole batch at once held 2^20-cell (8 MiB) tables and
        # peaked at 36.8 MiB
        p = ChannelParams(P=1.0, n1=0.1, n2=1.0, n12=1.0, n21=1.0, P12=1e3, P21=1e3, B=1.0)
        cfg = CoopConfig(Protocol.DF, Symmetric(1), Strategy.S2, Regime.H2)
        blocks = mc._MLD_CELL_CAP // (2 << 4)
        tc = TrialConfig(trials=2 * blocks, seed=41)
        simulate_df(p, [cfg], 16, TrialConfig(trials=10), coop_bandwidth_fraction=0.5)  # warm caches
        tracemalloc.start()
        try:
            r = simulate_df(p, [cfg], 16, tc, coop_bandwidth_fraction=0.5)[0]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        shape = choose_compatible_modulation(16, 0.5)[1]
        assert (r.relay_order, shape.s, blocks) == (256, 2, 32768)
        assert r.ber_I.trials == 2 * blocks
        assert peak < 12 * 2**20


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
