"""Monte Carlo harness: samples the received signals of each protocol (for AF
the two combiner outputs, for DF the two direct signals plus one summed
cooperation branch per destination), applies the configured combiner, and
estimates raw bit error rates and empirical SNRs with standard errors.

The unit of work is a sweep: a sequence of configs (typically one per
exchange count) sampled together. Each call returns one result per config.

Reproducibility contract: work is split into fixed-size batches and batch b
draws from a counter-based stream keyed by (seed, b). Every config of a sweep
sees the same draws of batch b, scaled by its own noise powers and gains, so
each config's result equals the result of sampling it alone. Each config's
partial results are folded in batch order and its early-stop check happens
only at fixed batch-count boundaries, so estimates are bitwise identical for
a given (seed, config) regardless of the other configs of the sweep or of how
many worker threads execute the batches.
"""
from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

# campaign is not called here, but bench/tracing.py wraps it under this module's name
from .af import SnrState, _finals, campaign  # noqa: F401
from .channel import (
    ChannelParams,
    CoopConfig,
    Protocol,
    plan_bandwidth,
    power_schedule,
    transmissions,
)
from .df import (
    BlockShape,
    Constellation,
    RelayErrorModel,
    RelayObservation,
    _slice_axis,
    _unit_bits,
    choose_compatible_modulation,
    estimate_relay_errors,
    mld_llr_batch,
    qam,
    relay_decode_and_remap,
)
from .errors import ModulationError

__all__ = [
    "TrialConfig",
    "BerEstimate",
    "SnrEstimate",
    "AfRunResult",
    "DfRunResult",
    "Sweep",
    "simulate_af",
    "simulate_df",
]

BATCH_SYMBOLS = 65536
BIT_CAP = 10_000_000
_STOP_CHECK_BATCHES = 4  # early-stop boundary, fixed so thread count cannot move it
# detector-table cells one DF batch may fill: a block fills 2^L labels for
# each of its n / L units of L bits. 2^20 is the smallest cap at which
# 64->64 (two 3-bit units) still fills BATCH_SYMBOLS. The cap only fixes the
# partition, and so the random streams: it is part of the DF result of every
# shape it binds. The tile below bounds the detector's memory: in `coopbc
# ber` at one thread, 16->1024 (fraction 0.4, 20 k trials) reaches 38 MB max
# RSS, and 256->4096 (2/3, 30 k trials), whose tile is a whole batch, 80 MB
_MLD_CELL_CAP = 1 << 20
# a DF batch's draws are made whole, then every later stage runs over tiles
# of blocks whose detector tables take _TILE_CELLS cells (256 KiB each), so
# that they stay in a core's L2 cache. A shape whose tile would hold fewer
# than _TILE_MIN_BLOCKS blocks (256->4096, 2^13 cells a block) runs a whole
# batch as one tile: on 4- to 32-block tiles its per-call costs (BLAS
# threads, page faults) outweighed the cache gain. An AF tile is _TILE_CELLS
# axis samples, whose float outputs take 256 KiB each as well
_TILE_CELLS = 1 << 15
_TILE_MIN_BLOCKS = 16


@dataclass(frozen=True)
class TrialConfig:
    """Sampling budget and reproducibility knobs.

    trials: source symbols to simulate, in batches of BATCH_SYMBOLS per
    counter-based stream; seed: 64-bit stream seed; target_half_width:
    optional relative standard-error target enabling early stop, capped at
    BIT_CAP bits.
    """

    trials: int
    seed: int = 0
    target_half_width: Optional[float] = None

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if not 0 <= self.seed < 1 << 64:
            raise ValueError("seed must fit in 64 bits")
        if self.target_half_width is not None and not self.target_half_width > 0.0:
            raise ValueError("target_half_width must be positive when given")


@dataclass(frozen=True)
class BerEstimate:
    """Raw bit error rate with its binomial standard error."""

    ber: float
    stderr: float
    trials: int
    errors: int
    bits: int

    @classmethod
    def from_counts(cls, errors: int, bits: int, trials: int) -> "BerEstimate":
        ber = errors / bits
        return cls(ber, math.sqrt(ber * (1.0 - ber) / bits), trials, errors, bits)


@dataclass(frozen=True)
class SnrEstimate:
    value: float
    stderr: float


@dataclass(frozen=True)
class AfRunResult:
    """Sampled performance of one amplify-and-forward campaign plus the
    analytic final state it must agree with."""

    ber_I: BerEstimate
    ber_II: BerEstimate
    pe_sys: BerEstimate
    snr_I: SnrEstimate
    snr_II: SnrEstimate
    analytic: SnrState


@dataclass(frozen=True)
class DfRunResult:
    """Sampled performance of one decode-and-forward campaign."""

    ber_I: BerEstimate
    ber_II: BerEstimate
    pe_sys: BerEstimate
    source_order: int
    relay_order: int
    shape: BlockShape


class Sweep(tuple):
    """Results of one sweep, one per config in config order.

    `ber_I` pools receiver 1's counts over the sweep, so its trials and bits
    are the totals the sweep sampled across its configs: what a caller that
    counts sampled work per call (the benchmark's tracer) reads.
    """

    @property
    def ber_I(self) -> BerEstimate:
        return BerEstimate.from_counts(*(sum(getattr(r.ber_I, name) for r in self)
                                         for name in ("errors", "bits", "trials")))


def _rng(seed: int, batch: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=np.array([seed, batch], dtype=np.uint64)))


def _unit_cn(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    """Unit-variance complex normals (every real part drawn first, then every
    imaginary part), to be scaled by sqrt(noise power / 2).

    The draws are written straight into one complex array. Against forming
    re + 1j * im, only the sign of a draw that is exactly zero can differ
    (that sum turns -0.0 into +0.0), and no signal sees it: every sample adds
    the zero, scaled, to a symbol part, which is nonzero or +0.0.
    """
    z = np.empty(shape, dtype=complex)
    z.real = rng.standard_normal(shape)
    z.imag = rng.standard_normal(shape)
    return z


def _map_batches(worker: Callable[[int, tuple[int, ...]], list[tuple]], idxs: range,
                 active: tuple[int, ...], threads: int) -> list[list[tuple]]:
    """[worker(b, active) for b in idxs], run by the calling thread and up to
    threads - 1 worker threads, each taking the next batch under one lock
    and slotting its result by the batch's index. No thread outlives the
    call. Batches are taken in order, so every batch before a failing one
    has run: the exception of the earliest failing batch re-raises here,
    after every thread has stopped."""
    results: list = [None] * len(idxs)
    todo, lock, failed = iter(range(len(idxs))), threading.Lock(), []

    def run() -> None:
        while True:
            with lock:
                n = None if failed else next(todo, None)
            if n is None:
                return
            try:
                results[n] = worker(idxs[n], active)
            except BaseException as exc:
                with lock:
                    failed.append((n, exc))
                return

    helpers = [threading.Thread(target=run) for _ in range(min(threads, len(idxs)) - 1)]
    for t in helpers:
        t.start()
    try:
        run()
    finally:
        for t in helpers:
            t.join()
    if failed:
        raise min(failed, key=lambda f: f[0])[1]
    return results


def _run_ordered(
    worker: Callable[[int, tuple[int, ...]], list[tuple]],
    n_configs: int,
    n_batches: int,
    threads: int,
    should_stop: Callable[[tuple], bool],
) -> list[tuple]:
    """Execute worker(b, active) for b = 0..n_batches-1, where `active` lists
    the configs still sampling and the worker returns one tuple of batch sums
    per active config, led by (symbols, bits, err_I, err_II, err_sys). Return
    each config's sums folded in batch order. Each config's stop check runs
    at fixed chunk boundaries and every batch of a started chunk is folded
    for every config active in it, so the folded set of a config depends
    neither on the thread count nor on the other configs."""
    totals: list[tuple] = [()] * n_configs
    active = tuple(range(n_configs))
    for start in range(0, n_batches, _STOP_CHECK_BATCHES):
        if not active:
            break
        idxs = range(start, min(start + _STOP_CHECK_BATCHES, n_batches))
        for batch in _map_batches(worker, idxs, active, threads):
            for c, sums in zip(active, batch):
                totals[c] = tuple(a + b for a, b in zip(totals[c] or (0,) * len(sums), sums))
        active = tuple(c for c in active if not should_stop(totals[c]))
    return totals


def _stop_on_target(tc: TrialConfig, totals: tuple) -> bool:
    """Early-stop rule over one config's totals: stop at the bit cap, or once
    both receivers' BER standard errors meet the relative target."""
    if tc.target_half_width is None:
        return False
    bits = totals[1]
    if bits >= BIT_CAP:
        return True
    for errors in totals[2:4]:
        if errors == 0:
            return False
        est = BerEstimate.from_counts(errors, bits, totals[0])
        if est.stderr > tc.target_half_width * est.ber:
            return False
    return True


def _ber_estimates(totals: tuple) -> tuple[BerEstimate, BerEstimate, BerEstimate]:
    """(ber_I, ber_II, pe_sys) of one config's totals."""
    symbols, bits, *errors = totals[:5]
    ber_I, ber_II, pe_sys = (BerEstimate.from_counts(e, bits, symbols) for e in errors)
    return ber_I, ber_II, pe_sys


# ---------------------------------------------------------------------------
# Amplify-and-forward
# ---------------------------------------------------------------------------


def simulate_af(
    params: ChannelParams,
    configs: Sequence[CoopConfig],
    trial_config: TrialConfig,
    *,
    order: int = 4,
    threads: int = 1,
) -> Sweep:
    """Sample the combiner outputs of each config's campaign (of its own
    exchange count) and estimate raw BERs (per receiver and joint) and
    empirical equivalent SNRs; one AfRunResult per config, in config order.

    Both combiner outputs are X + Z at unit signal gain, so one symbol needs
    only the joint law of (Z_I, Z_II): a zero-mean complex normal pair with
    the final covariance [[N_I, e], [e, N_II]] of the config's campaign, read
    for the whole sweep from one engine batch per strategy and drawn through
    its Cholesky factor. Every config scales the same symbols and unit normals
    of a batch by its own factor, so each result equals that config's solo
    run.

    Decisions are minimum-distance on each output, taken per axis: the
    nearest point of a square grid is the nearest level on each axis, so
    every real axis sample (both parts of a QAM symbol, the real part of
    BPSK) is sliced on its own into a uint8 axis label, and its bit errors
    are the set bits of that label XOR the sent one. A batch's draws and
    moments are made whole; its outputs are formed, decided and counted in
    tiles of _TILE_CELLS axis samples, which split only integer sums, so the
    tile size sets no result.
    """
    if any(c.protocol is not Protocol.AF for c in configs):
        raise ValueError("simulate_af requires amplify-and-forward configs")
    finals = _finals(params, configs)
    # Z_I = l_I g_0 and Z_II = l_c g_0 + l_II g_1 for unit complex normals g;
    # when the outputs are nearly equal, rounding can push the Schur
    # complement N_II - e^2 / N_I a few ulps below zero. A noiseless output 1
    # (N_I = 0) is uncorrelated with output 2
    factors = [
        (math.sqrt(f.N_I / 2.0), f.e / math.sqrt(2.0 * f.N_I),
         math.sqrt(max(f.N_II - f.e**2 / f.N_I, 0.0) / 2.0)) if f.N_I
        else (0.0, 0.0, math.sqrt(f.N_II / 2.0))
        for f in finals
    ]
    const = qam(order)
    m = const.bits_per_symbol
    P = params.P
    amp = math.sqrt(P)
    points = amp * const.points
    edges = const.edges(amp)
    axes = 1 if order == 2 else 2
    axis_bits = m // axes
    labels = const.labels.astype(np.uint8)
    planes = [np.uint8(1 << i) for i in range(axis_bits)]  # bit errors are counted per plane
    # (order, axes): the axis labels of each symbol, in-phase first
    shifts = axis_bits * np.arange(axes - 1, -1, -1)
    sent_labels = ((np.arange(order)[:, None] >> shifts) & (len(labels) - 1)).astype(np.uint8)
    tc = trial_config

    def worker(b: int, active: tuple[int, ...]) -> list[tuple]:
        T = min(BATCH_SYMBOLS, tc.trials - b * BATCH_SYMBOLS)
        rng = _rng(tc.seed, b)
        idx = rng.integers(0, order, T)
        g = _unit_cn(rng, (2, T))
        # the moments of the symbols and the unit normals, shared by every
        # config; einsum sums without BLAS, so no BLAS setting moves them.
        # conj(x) is gathered and freed before x, and the index array before
        # the tile buffers, which take its place: a batch's heap then stays
        # under glibc's trim threshold, so its pages are not handed back to
        # the system and faulted in again by the next batch
        xc, (r0, r1) = points.conj().take(idx), g.view(float)
        xg0, xg1 = (complex(np.einsum("i,i->", xc, gi)) for gi in g)
        del xc
        x = points.take(idx)
        sxx = float(np.einsum("i,i->", x.view(float), x.view(float)))
        g00, g11, g01 = (float(np.einsum("i,i->", a, b)) for a, b in ((r0, r0), (r1, r1), (r0, r1)))
        sent = sent_labels.take(idx, axis=0).ravel()
        del idx
        # the outputs x + l_I g_0 and x + (l_c g_0 + l_II g_1), formed on the
        # float views of the axis samples: a real factor scales both parts of
        # a complex draw alone, so the samples are those of the complex sums
        if order == 2:
            xs, g0, g1 = x.real, g[0].real, g[1].real
        else:
            xs, g0, g1 = x.view(float), r0, r1
        n = len(xs)
        buffers = np.empty((2, min(n, _TILE_CELLS)))
        errors = {c: [0, 0, 0] for c in active}  # Python ints
        for a in range(0, n, _TILE_CELLS):
            tile = slice(a, a + _TILE_CELLS)
            y, z = buffers[:, :n - a]
            for c in active:
                l_I, l_c, l_II = factors[c]
                np.multiply(g0[tile], l_I, out=y)
                y += xs[tile]
                wrong_I = labels.take(_slice_axis(edges, y)) ^ sent[tile]
                np.multiply(g0[tile], l_c, out=y)
                y += np.multiply(g1[tile], l_II, out=z)
                y += xs[tile]
                wrong_II = labels.take(_slice_axis(edges, y)) ^ sent[tile]
                for i, wrong in enumerate((wrong_I, wrong_II, wrong_I | wrong_II)):
                    errors[c][i] += sum(np.count_nonzero(wrong & plane) for plane in planes)
        out = []
        for c in active:
            l_I, l_c, l_II = factors[c]
            out.append((
                T,
                T * m,
                *errors[c],
                sxx,
                l_I * xg0,  # sum of conj(x) Z_I, then sum of |Z_I|^2
                l_I * l_I * g00,
                l_c * xg0 + l_II * xg1,
                l_c * l_c * g00 + l_II * l_II * g11 + 2.0 * l_c * l_II * g01,
            ))
        return out

    totals = _run_ordered(worker, len(configs), -(-tc.trials // BATCH_SYMBOLS), threads,
                          lambda t: _stop_on_target(tc, t))

    def result(t: tuple, final: SnrState) -> AfRunResult:
        n, _, _, _, _, Sxx, Sxz_I, Szz_I, Sxz_II, Szz_II = t

        def snr_estimate(sxz: complex, szz: float) -> SnrEstimate:
            # project the known symbols out of the output y = x + z: signal
            # gain 1 + Sxz/Sxx, equivalent noise power from the residual
            # Szz - |Sxz|^2/Sxx. Both come from the noise moments, so a noise
            # far below the signal cancels nothing
            gain = abs(1.0 + sxz / Sxx)
            noise_hat = (szz - abs(sxz) * (abs(sxz) / Sxx)) / n
            # a noiseless output leaves no residual at all
            rho = gain * gain * P / noise_hat if noise_hat else math.inf
            return SnrEstimate(rho, rho * math.sqrt((1.0 + 2.0 / rho) / n))

        return AfRunResult(*_ber_estimates(t), snr_estimate(Sxz_I, Szz_I),
                           snr_estimate(Sxz_II, Szz_II), final)

    return Sweep(map(result, totals, finals))


# ---------------------------------------------------------------------------
# Decode-and-forward
# ---------------------------------------------------------------------------


def _mrc_decisions(
    y: np.ndarray,
    observations: Sequence[RelayObservation],
    const: Constellation,
    amplitude: float,
    noise_power: float,
) -> np.ndarray:
    """Weight-and-add baseline: each branch scaled by gain/noise, then
    minimum-distance detection — treats every relay block as a faithful copy
    of the source symbols."""
    u = (amplitude / noise_power) * y
    g = amplitude**2 / noise_power
    for obs in observations:
        u = u + (obs.amplitude / obs.noise_power) * obs.y12
        g += obs.amplitude**2 / obs.noise_power
    return const.indices_to_bits(const.detect(u, g))


def _df_plan(
    params: ChannelParams, config: CoopConfig, fraction: float,
) -> tuple[tuple[float, float], tuple[Optional[tuple[int, float, float]], ...]]:
    """Downlink noise powers (N1, N2) of one DF config, and for receivers 0
    and 1 the branch each hears from its partner: (link slot, gain, noise),
    or None if the partner never sends. Slots number the relays in the order
    of their first send, and each link is `fraction` of the downlink band
    wide. The detectors divide by every noise power and scale by every SNR,
    so a planned SNR (P over a downlink noise, gain^2 over a link noise) that
    is not positive and finite raises a ValueError naming its density: n1,
    n2, then the links in first-send order.
    """
    plan = plan_bandwidth(params, config)
    coop_band = fraction * plan.B_DL
    snrs = [("n1", params.P, plan.N1), ("n2", params.P, plan.N2)]
    heard: list[Optional[tuple[int, float, float]]] = [None, None]
    # m equal-power repeats (amplitude a, noise N) of one relay block are
    # sufficient as their sum: one branch of gain m*a and noise m*N
    period, sends = power_schedule(params, config), transmissions(config)
    for slot, relay in enumerate(dict.fromkeys(i % 2 for i in np.flatnonzero(period).tolist())):
        m = sends[relay]
        gain = m * math.sqrt(period[:, relay].max())
        noise = m * ((params.n12, params.n21)[relay] * coop_band)
        snrs.append((("n12", "n21")[relay], gain * gain, noise))
        heard[1 - relay] = (slot, gain, noise)
    for name, power, noise in snrs:
        if not (noise > 0.0 and 0.0 < power / noise < math.inf):
            raise ValueError(f"{name}: the planned SNR {power:.6g} / {noise:.6g} "
                             "is not positive and finite")
    return (plan.N1, plan.N2), tuple(heard)


def simulate_df(
    params: ChannelParams,
    configs: Sequence[CoopConfig],
    source_order: int,
    trial_config: TrialConfig,
    *,
    combiner: str = "mld",
    relay_model: str = "exact",
    coop_bandwidth_fraction: float = 1.0,
    threads: int = 1,
) -> Sweep:
    """Sample the full decode-and-forward chain of each config (at its own
    exchange count) and estimate raw BERs; one DfRunResult per config, in
    config order.

    Each receiver hard-decodes the source block from its own downlink signal
    once, re-modulates it onto the bit-rate-compatible relay constellation and
    retransmits the same block at every exchange it owns (fresh cooperation
    noise each time, equal power). A destination combines the one branch it
    hears from its partner (see `_df_plan`) with the signal received directly
    from the source: `combiner="mld"` runs the per-bit generalized ML
    detector with the relay's substitution-error model, `combiner="mrc"` the
    weight-and-add baseline (symbol-aligned constellations only, no error
    model).

    `relay_model` selects the substitution distribution: "exact" (the law of
    the relay's decode-and-remap chain at its receive SNR, see
    `estimate_relay_errors`) or "genie" (an error-free relay, which decodes
    the noiseless source symbols). `coop_bandwidth_fraction` narrows each
    cooperation sub-channel to that fraction of the downlink band, which
    raises the relay constellation order needed to conserve the coded bit
    rate and shrinks the integrated cooperation noise accordingly. Relay
    symbols that would split source axes raise ModulationError before any
    planned SNR is checked or error model built; the block width sets no
    bound.

    A batch holds whole blocks: at most BATCH_SYMBOLS source symbols and
    _MLD_CELL_CAP detector-table cells. The partition sets the random
    streams, so it is part of every DF result.

    The fraction alone fixes the ratio of relay to source symbol rates, so
    one relay order and block shape serve every config, and all of them share
    the source bits and unit normals of a batch: the two direct draws, then
    one per link slot, of which a config with fewer links uses a prefix.
    Every draw is made for the whole batch; every later stage (symbols,
    direct signals, relay decisions and branches, detection and error
    counts) runs over tiles of blocks whose detector tables stay cache-sized.
    Blocks are independent, so the tile size sets no result. Direct signals
    and relay decisions are formed once per distinct pair of downlink noise
    powers, relay error models once per distinct relay noise power, and each
    result equals that config's solo run.
    """
    if any(c.protocol is not Protocol.DF for c in configs):
        raise ValueError("simulate_df requires decode-and-forward configs")
    if combiner not in ("mld", "mrc"):
        raise ValueError(f"unknown combiner {combiner!r}")
    if relay_model not in ("exact", "genie"):
        raise ValueError(f"unknown relay model {relay_model!r}")
    if not 0.0 < coop_bandwidth_fraction <= 1.0:
        raise ValueError("coop_bandwidth_fraction must be in (0, 1]")
    src_c = qam(source_order)
    if not configs:
        return Sweep()
    rel_order, shape = choose_compatible_modulation(source_order, coop_bandwidth_fraction)
    rel_c = qam(rel_order)
    amp_s = math.sqrt(params.P)
    if combiner == "mrc" and rel_order != source_order:
        raise ModulationError(
            "weight-and-add combining requires the relay to reuse the source constellation"
        )
    unit = _unit_bits(src_c, rel_c)  # rejects split source axes before any error model
    plans = [_df_plan(params, c, coop_bandwidth_fraction) for c in configs]

    # the relay's substitution law depends only on its downlink noise power;
    # weight-and-add never reads it, so it skips building any
    relay_noises = dict.fromkeys(noises[1 - dest] for noises, heard in plans
                                 for dest, branch in enumerate(heard) if branch)
    models = {noise: RelayErrorModel.error_free(src_c) if relay_model == "genie"
              else estimate_relay_errors(src_c, rel_c, amp_s, noise)
              for noise in (relay_noises if combiner == "mld" else ())}

    def decide(y: np.ndarray, observations: list[RelayObservation], noise: float) -> np.ndarray:
        if combiner == "mld":
            return mld_llr_batch(y, observations, shape, src_c, rel_c, amp_s, noise) > 1.0
        return _mrc_decisions(y, observations, src_c, amp_s, noise)

    tc = trial_config
    cells = (shape.n // unit) << unit  # detector-table cells of one block
    blocks_per_batch = max(1, min(BATCH_SYMBOLS // shape.s, _MLD_CELL_CAP // cells))
    tile_blocks = _TILE_CELLS // cells
    if tile_blocks < _TILE_MIN_BLOCKS:
        tile_blocks = blocks_per_batch
    total_blocks = -(-tc.trials // shape.s)

    def worker(b: int, active: tuple[int, ...]) -> list[tuple]:
        T = min(blocks_per_batch, total_blocks - b * blocks_per_batch)
        rng = _rng(tc.seed, b)
        bits = rng.integers(0, 2, (T, shape.n), dtype=np.int8)
        unit_direct = [_unit_cn(rng, (T, shape.s)) for _ in range(2)]
        unit_links = [_unit_cn(rng, (T, shape.r))
                      for _ in range(max(sum(map(bool, plans[c][1])) for c in active))]
        groups: dict[tuple[float, float], list[int]] = {}  # downlink noises -> configs
        for c in active:
            groups.setdefault(plans[c][0], []).append(c)
        errors = {c: [0, 0, 0] for c in active}  # Python ints
        for tile in (slice(a, a + tile_blocks) for a in range(0, T, tile_blocks)):
            tile_bits = bits[tile]
            x = amp_s * src_c.points[src_c.bits_to_indices(tile_bits)]
            for noises, members in groups.items():
                direct = [x + math.sqrt(N / 2.0) * g[tile] for N, g in zip(noises, unit_direct)]
                # a genie relay decodes the noiseless source symbols
                relay_in = direct if relay_model == "exact" else (x, x)
                labels = {relay: relay_decode_and_remap(relay_in[relay], src_c, rel_c, amp_s)
                          for relay in {1 - dest for c in members
                                        for dest, branch in enumerate(plans[c][1]) if branch}}
                for c in members:
                    wrong = []
                    for dest, branch in enumerate(plans[c][1]):
                        received = []
                        if branch:  # a destination hears only its partner
                            slot, gain, noise = branch
                            received.append(RelayObservation(
                                gain * rel_c.points[labels[1 - dest]]
                                + math.sqrt(noise / 2.0) * unit_links[slot][tile],
                                gain, noise, models.get(noises[1 - dest])))
                        wrong.append(decide(direct[dest], received, noises[dest]) != tile_bits)
                    wrong.append(wrong[0] | wrong[1])
                    errors[c] = [e + np.count_nonzero(w) for e, w in zip(errors[c], wrong)]
        return [(T * shape.s, T * shape.n, *errors[c]) for c in active]

    totals = _run_ordered(worker, len(configs), -(-total_blocks // blocks_per_batch), threads,
                          lambda t: _stop_on_target(tc, t))
    return Sweep(DfRunResult(*_ber_estimates(t), source_order, rel_order, shape)
                 for t in totals)
