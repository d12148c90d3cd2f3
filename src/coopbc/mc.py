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
from dataclasses import dataclass
from itertools import repeat
from typing import Callable, Optional, Sequence, Union

import numpy as np

# campaign is not called here, but bench/tracing.py wraps it under this module's name
from .af import SnrState, _finals, campaign  # noqa: F401
from .channel import (
    ChannelParams,
    CoopConfig,
    Protocol,
    Receiver,
    plan_bandwidth,
    power_schedule,
    transmissions,
)
from .df import (
    BlockShape,
    Constellation,
    RelayErrorModel,
    RelayObservation,
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
# threads, page faults) outweighed the cache gain
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
    executor = None
    if threads > 1:  # imported here: a one-thread run never loads the pool's modules
        from concurrent.futures import ThreadPoolExecutor

        executor = ThreadPoolExecutor(max_workers=threads)
    try:
        for start in range(0, n_batches, _STOP_CHECK_BATCHES):
            if not active:
                break
            idxs = range(start, min(start + _STOP_CHECK_BATCHES, n_batches))
            runs = (executor.map if executor else map)(worker, idxs, repeat(active))
            for batch in runs:
                for c, sums in zip(active, batch):
                    totals[c] = tuple(a + b for a, b in zip(totals[c] or (0,) * len(sums), sums))
            active = tuple(c for c in active if not should_stop(totals[c]))
    finally:
        if executor:
            executor.shutdown()
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
    run. Decisions are minimum-distance on each output.
    """
    if any(c.protocol is not Protocol.AF for c in configs):
        raise ValueError("simulate_af requires amplify-and-forward configs")
    finals = _finals(params, configs)
    # Z_I = l_I g_0 and Z_II = l_c g_0 + l_II g_1 for unit complex normals g;
    # when the outputs are nearly equal, rounding can push the Schur
    # complement N_II - e^2 / N_I a few ulps below zero
    factors = [
        (math.sqrt(f.N_I / 2.0), f.e / math.sqrt(2.0 * f.N_I),
         math.sqrt(max(f.N_II - f.e**2 / f.N_I, 0.0) / 2.0))
        for f in finals
    ]
    const = qam(order)
    m = const.bits_per_symbol
    # bit errors of a symbol decision: the popcount of its label XOR the sent one
    popcount = np.array([bin(label).count("1") for label in range(order)], dtype=np.uint8)
    P = params.P
    amp = math.sqrt(P)
    tc = trial_config

    def worker(b: int, active: tuple[int, ...]) -> list[tuple]:
        T = min(BATCH_SYMBOLS, tc.trials - b * BATCH_SYMBOLS)
        rng = _rng(tc.seed, b)
        idx = rng.integers(0, order, T)
        x = amp * const.points[idx]
        g = _unit_cn(rng, (2, T))
        sxx = float(np.sum(np.abs(x) ** 2))
        out = []
        for c in active:
            l_I, l_c, l_II = factors[c]
            y_I = x + l_I * g[0]
            y_II = x + (l_c * g[0] + l_II * g[1])
            wrong_I = const.detect(y_I, amp) ^ idx
            wrong_II = const.detect(y_II, amp) ^ idx
            out.append((
                T,
                T * m,
                int(popcount[wrong_I].sum()),
                int(popcount[wrong_II].sum()),
                int(popcount[wrong_I | wrong_II].sum()),
                sxx,
                complex(np.vdot(x, y_I)),
                float(np.sum(np.abs(y_I) ** 2)),
                complex(np.vdot(x, y_II)),
                float(np.sum(np.abs(y_II) ** 2)),
            ))
        return out

    totals = _run_ordered(worker, len(configs), -(-tc.trials // BATCH_SYMBOLS), threads,
                          lambda t: _stop_on_target(tc, t))

    def result(t: tuple, final: SnrState) -> AfRunResult:
        n, _, _, _, _, Sxx, Syx_I, Syy_I, Syx_II, Syy_II = t

        def snr_estimate(syx: complex, syy: float) -> SnrEstimate:
            # project the known symbols out of the output: signal gain from
            # the cross-moment, equivalent noise power from the residual
            alpha_hat = syx / Sxx
            noise_hat = (syy - abs(syx) ** 2 / Sxx) / n
            # noise far below the signal can leave no residual at all
            rho = abs(alpha_hat) ** 2 * P / noise_hat if noise_hat else math.inf
            return SnrEstimate(rho, rho * math.sqrt((1.0 + 2.0 / rho) / n))

        return AfRunResult(*_ber_estimates(t), snr_estimate(Syx_I, Syy_I),
                           snr_estimate(Syx_II, Syy_II), final)

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
) -> tuple[tuple[float, float], dict[Receiver, tuple[int, float, float]]]:
    """Downlink noise powers (N1, N2) of one DF config, and for each sending
    relay its (link slot, gain, noise): slots number the relays in the order
    of their first send, and each link is `fraction` of the downlink band
    wide."""
    plan = plan_bandwidth(params, config)
    coop_band = fraction * plan.B_DL
    # m equal-power repeats (amplitude a, noise N) of one relay block are
    # sufficient as their sum: one branch of gain m*a and noise m*N
    period, sends = power_schedule(params, config), transmissions(config)
    senders = dict.fromkeys(Receiver(i % 2 + 1) for i in np.flatnonzero(period))
    links = {}
    for slot, relay in enumerate(senders):
        m = sends[relay.value - 1]
        density = params.n12 if relay is Receiver.R1 else params.n21
        links[relay] = (slot, m * math.sqrt(period[:, relay.value - 1].max()),
                        m * (density * coop_band))
    return (plan.N1, plan.N2), links


def simulate_df(
    params: ChannelParams,
    configs: Sequence[CoopConfig],
    modulations: Union[int, tuple[int, Optional[int]]],
    trial_config: TrialConfig,
    *,
    combiner: str = "mld",
    relay_model: str = "exact",
    coop_bandwidth_fraction: Optional[float] = None,
    threads: int = 1,
) -> Sweep:
    """Sample the full decode-and-forward chain of each config (at its own
    exchange count) and estimate raw BERs; one DfRunResult per config, in
    config order.

    Each receiver hard-decodes the source block from its own downlink signal
    once, re-modulates it onto the bit-rate-compatible relay constellation and
    retransmits the same block at every exchange it owns (fresh cooperation
    noise each time, equal power). The destination sums the m repeats into
    one branch of gain m*a and noise m*N, a sufficient statistic that keeps
    the one decoding error of the block from counting m times, and combines
    it with the signal received directly from the source: `combiner="mld"`
    runs the per-bit generalized ML detector with the relay's
    substitution-error model, `combiner="mrc"` the weight-and-add baseline
    (symbol-aligned constellations only, no error model).

    `modulations` is the source order, optionally paired with the expected
    relay order; `relay_model` selects the substitution distribution: "exact"
    (the law of the relay's decode-and-remap chain at its receive SNR, see
    `estimate_relay_errors`) or "genie" (error-free relay).
    `coop_bandwidth_fraction` narrows each cooperation sub-channel to that
    fraction of the downlink band (the full band when None), which raises the
    relay constellation order needed to conserve the coded bit rate and
    shrinks the integrated cooperation noise accordingly. Relay symbols that
    would split source axes raise ModulationError before any error model is
    built; the block width sets no bound.

    A batch holds whole blocks: at most BATCH_SYMBOLS source symbols and
    _MLD_CELL_CAP detector-table cells. The partition sets the random
    streams, so it is part of every DF result.

    The fraction alone fixes the ratio of relay to source symbol rates, so
    one relay order and block shape serve every config, and all of them share
    the source bits and unit normals of a batch: the two direct draws, then
    one per cooperation link slot in first-send order, of which a config with
    fewer links uses a prefix. Every draw is made for the whole batch; every
    later stage (symbols, direct signals, relay decisions and branches,
    detection and error counts) runs over tiles of blocks whose detector
    tables stay cache-sized, and each config's counts are summed over the
    tiles. Blocks are independent, so the tile size sets no result. Direct
    signals, relay decisions and relay error models are formed once per
    distinct downlink noise power, and each result equals that config's solo
    run.
    """
    if any(c.protocol is not Protocol.DF for c in configs):
        raise ValueError("simulate_df requires decode-and-forward configs")
    if combiner not in ("mld", "mrc"):
        raise ValueError(f"unknown combiner {combiner!r}")
    if relay_model not in ("exact", "genie"):
        raise ValueError(f"unknown relay model {relay_model!r}")
    if coop_bandwidth_fraction is not None and not 0.0 < coop_bandwidth_fraction <= 1.0:
        raise ValueError("coop_bandwidth_fraction must be in (0, 1]")
    source_order, relay_expect = (
        modulations if isinstance(modulations, tuple) else (modulations, None)
    )
    src_c = qam(source_order)
    if not configs:
        return Sweep()
    fraction = 1.0 if coop_bandwidth_fraction is None else coop_bandwidth_fraction
    relay_order, shape = choose_compatible_modulation(source_order, fraction)
    downlinks, links = zip(*(_df_plan(params, c, fraction) for c in configs))
    if relay_expect is not None and relay_expect != relay_order:
        raise ModulationError(
            f"relay order {relay_expect} cannot conserve the coded bit rate; need {relay_order}"
        )
    rel_c = qam(relay_order)
    amp_s = math.sqrt(params.P)
    if combiner == "mrc" and relay_order != source_order:
        raise ModulationError(
            "weight-and-add combining requires the relay to reuse the source constellation"
        )
    unit = _unit_bits(src_c, rel_c)  # rejects split source axes before any error model

    # the relay's substitution law depends only on its downlink noise power;
    # weight-and-add never reads it, so it skips building any
    models: dict[float, RelayErrorModel] = {}
    if combiner == "mld":
        for noises, config_links in zip(downlinks, links):
            for relay in config_links:
                noise = noises[relay.value - 1]
                if noise not in models:
                    models[noise] = (RelayErrorModel.error_free(src_c) if relay_model == "genie"
                                     else estimate_relay_errors(src_c, rel_c, amp_s, noise))

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
        unit_direct = [_unit_cn(rng, (T, shape.s)) for _ in Receiver]
        unit_links = [_unit_cn(rng, (T, shape.r))
                      for _ in range(max(len(links[c]) for c in active))]
        groups: dict[tuple[float, float], list[int]] = {}  # downlink noises -> configs
        for c in active:
            groups.setdefault(downlinks[c], []).append(c)
        errors = {c: np.zeros(3, dtype=np.int64) for c in active}
        for tile in (slice(a, a + tile_blocks) for a in range(0, T, tile_blocks)):
            tile_bits = bits[tile]
            x = amp_s * src_c.points[src_c.bits_to_indices(tile_bits)]
            if relay_model == "genie":  # perfect decoding: every relay transmits the true block
                true_labels = rel_c.bits_to_indices(tile_bits)
            for noises, members in groups.items():
                direct = {dest: x + math.sqrt(noises[dest.value - 1] / 2.0) * g[tile]
                          for dest, g in zip(Receiver, unit_direct)}
                labels: dict[Receiver, np.ndarray] = {}
                for c in members:
                    wrong = []
                    for dest in Receiver:
                        received = []
                        relay = dest.other  # a destination hears only its partner
                        if relay in links[c]:
                            slot, gain, noise = links[c][relay]
                            if relay not in labels:
                                labels[relay] = (true_labels if relay_model == "genie" else
                                                 relay_decode_and_remap(direct[relay], src_c, rel_c, amp_s))
                            received.append(RelayObservation(
                                gain * rel_c.points[labels[relay]]
                                + math.sqrt(noise / 2.0) * unit_links[slot][tile],
                                gain, noise, models.get(noises[relay.value - 1])))
                        wrong.append(decide(direct[dest], received, noises[dest.value - 1])
                                     != tile_bits)
                    wrong_I, wrong_II = wrong
                    errors[c] += wrong_I.sum(), wrong_II.sum(), (wrong_I | wrong_II).sum()
        return [(T * shape.s, T * shape.n, *map(int, errors[c])) for c in active]

    totals = _run_ordered(worker, len(configs), -(-total_blocks // blocks_per_batch), threads,
                          lambda t: _stop_on_target(tc, t))
    return Sweep(DfRunResult(*_ber_estimates(t), source_order, relay_order, shape)
                 for t in totals)
