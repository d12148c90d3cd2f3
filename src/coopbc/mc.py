"""Monte Carlo harness: samples the received signals of each protocol (for AF
the two combiner outputs, for DF the two direct signals plus one summed
cooperation branch per destination), applies the configured combiner, and
estimates raw bit error rates and empirical SNRs with standard errors.

The unit of work is a sweep: a sequence of configs (typically one per
exchange count) sampled together. Each call returns one result per config.

Reproducibility contract, held by `_run_ordered` alone: work is split into
fixed-size batches and batch b draws from one SFC64 stream seeded by
SeedSequence([seed, b]). Every config of a sweep sees the same draws of batch
b, scaled by its own noise powers and gains, so each config's result equals
the result of sampling it alone, and configs with equal keys pose one problem,
sampled once. Each problem's partial results are folded in batch order and its
early-stop check happens only at fixed batch-count boundaries, so estimates
are bitwise identical for a given (seed, config) regardless of the other
configs of the sweep or of how many worker threads execute the batches.
"""
from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import Callable, Hashable, Optional, Sequence

import numpy as np

# campaign is not called here, but bench/tracing.py wraps it under this module's name
from .af import SnrState, _finals, campaign  # noqa: F401
from .channel import ChannelParams, CoopConfig, Protocol, Receiver, plan_sweep
# plan_bandwidth is not called here, but bench/tracing.py wraps it under this module's name
from .channel import plan_bandwidth  # noqa: F401
from .df import (
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
# batch as one tile, whose large products OpenBLAS spreads over the cores:
# 1.8x faster than 4-block tiles at one worker, 1.3x slower at two (at 2-3x
# the max RSS). An AF tile is _TILE_CELLS axis samples, 256 KiB per output
_TILE_CELLS = 1 << 15
_TILE_MIN_BLOCKS = 16
_CALL_SIZE = 16  # configs per DF detector call, whose (C, T, n) arrays grow with C


@dataclass(frozen=True)
class TrialConfig:
    """Sampling budget and reproducibility knobs.

    trials: source symbols to simulate, in batches of BATCH_SYMBOLS, each
    drawn from its own random stream (`_rng`); seed: 64-bit seed of every
    batch's stream; target_half_width: optional relative standard-error
    target enabling early stop, capped at BIT_CAP bits.
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
    """Batch `batch`'s one stream under `seed`: SFC64 seeded by SeedSequence([seed, batch])."""
    return np.random.Generator(np.random.SFC64(np.random.SeedSequence([seed, batch])))


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


def _map_batches(worker: Callable[[int, tuple], list[tuple]], idxs: range,
                 active: tuple, threads: int) -> list[list[tuple]]:
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
    worker: Callable[[np.random.Generator, int, tuple], list[tuple]],
    keys: Sequence[Hashable],
    units: int,
    per_batch: int,
    threads: int,
    tc: TrialConfig,
) -> list[tuple]:
    """Sample `units` units in batches of `per_batch`, the last one short:
    batch b runs worker(_rng(tc.seed, b), T, active) on its T units, where
    `active` lists the distinct keys still sampling, and the worker returns
    one tuple of batch sums per active key, led by (symbols, bits, err_I,
    err_II, err_sys). Configs with equal keys pose one problem, sampled once.
    Return each config's sums folded in batch order, in config order. Each
    problem's stop check (`_stop_on_target` under `tc`) runs at fixed chunk
    boundaries and every batch of a started chunk is folded for every problem
    active in it, so the folded set of a config depends neither on the thread
    count nor on the other configs."""
    totals = dict.fromkeys(keys, ())
    active, n_batches = tuple(totals), -(-units // per_batch)

    def run_batch(b: int, active: tuple) -> list[tuple]:
        return worker(_rng(tc.seed, b), min(per_batch, units - b * per_batch), active)

    for start in range(0, n_batches, _STOP_CHECK_BATCHES):
        if not active:
            break
        idxs = range(start, min(start + _STOP_CHECK_BATCHES, n_batches))
        for batch in _map_batches(run_batch, idxs, active, threads):
            for key, sums in zip(active, batch):
                totals[key] = tuple(a + b for a, b in zip(totals[key] or (0,) * len(sums), sums))
        active = tuple(key for key in active if not _stop_on_target(tc, totals[key]))
    return [totals[key] for key in keys]


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
    of a batch by its own factors, so each result equals that config's solo
    run; the factor triple is the config's key (see `_run_ordered`).

    Decisions are minimum-distance on each output, taken per axis: the
    nearest point of a square grid is the nearest level on each axis, so
    every real axis sample (`Constellation.axis_samples`) is sliced on its
    own into a uint8 axis label, and its bit errors are the set bits of that
    label XOR the slice of its noiseless sample. A batch's draws and
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
    # each output's moments are those of the output times a power of two that
    # brings its noise factors to at most 1, so no finite moment overflows;
    # the scale is exact and cancels in the SNR
    scales = {f: [2.0 ** -max(math.frexp(x)[1], 0) for x in (f[0], max(abs(f[1]), f[2]))]
              for f in factors}
    const = qam(order)
    amp = math.sqrt(params.P)
    points = amp * const.points
    edges = const.edges(amp)
    labels = const.labels.astype(np.uint8)
    planes = [np.uint8(1 << i) for i in range(const.axis_bits)]  # bit errors are counted per plane
    # (order, axes): the axis labels of each point, in label-bit order; the
    # slice is exact, as every edge is a compensated midpoint
    sent_labels = labels.take(_slice_axis(edges, const.axis_samples(points))).reshape(order, -1)
    tc = trial_config

    def worker(rng: np.random.Generator, T: int, active: tuple) -> list[tuple]:
        idx = rng.integers(0, order, T)
        g = _unit_cn(rng, (2, T))
        # the moments of the unit-power symbols u (x = amp u) and the unit
        # normals, shared by every config; einsum sums without BLAS, so no
        # BLAS setting moves them. conj(u) is gathered and freed before x, and
        # the index array before the tile buffers, which take its place: a
        # batch's heap then stays under glibc's trim threshold, so its pages
        # are not handed back to the system and faulted in again by the next batch
        uc, (r0, r1) = const.points.conj().take(idx), g.view(float)
        ug0, ug1 = (complex(np.einsum("i,i->", uc, gi)) for gi in g)
        suu = float(np.einsum("i,i->", uc.view(float), uc.view(float)))
        del uc
        x = points.take(idx)
        g00, g11, g01 = (float(np.einsum("i,i->", a, b)) for a, b in ((r0, r0), (r1, r1), (r0, r1)))
        sent = sent_labels.take(idx, axis=0).ravel()
        del idx
        # the outputs x + l_I g_0 and x + (l_c g_0 + l_II g_1), formed on the
        # axis samples: a real factor scales both parts of a complex draw
        # alone, so the samples are those of the complex sums
        xs, g0, g1 = map(const.axis_samples, (x, *g))
        n = len(xs)
        buffers = np.empty((2, min(n, _TILE_CELLS)))
        errors = {c: [0, 0, 0] for c in active}  # Python ints
        for a in range(0, n, _TILE_CELLS):
            tile = slice(a, a + _TILE_CELLS)
            y, z = buffers[:, :n - a]
            for c in active:
                l_I, l_c, l_II = c
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
            (l_I, l_c, l_II), (s_I, s_II) = c, scales[c]
            l_I, l_c, l_II = s_I * l_I, s_II * l_c, s_II * l_II  # the scaled outputs' factors
            out.append((
                T,
                T * const.bits_per_symbol,
                *errors[c],
                suu,
                l_I * ug0,  # sum of conj(u) Z_I, then sum of |Z_I|^2
                l_I * l_I * g00,
                l_c * ug0 + l_II * ug1,
                l_c * l_c * g00 + l_II * l_II * g11 + 2.0 * l_c * l_II * g01,
            ))
        return out

    totals = _run_ordered(worker, factors, tc.trials, BATCH_SYMBOLS, threads, tc)

    def result(t: tuple, scale: list[float], final: SnrState) -> AfRunResult:
        n, _, _, _, _, Suu, Suz_I, Szz_I, Suz_II, Szz_II = t

        def snr_estimate(suz: complex, szz: float, s: float) -> SnrEstimate:
            # project the known symbols out of the scaled output s (amp u + z):
            # signal amplitude s amp + Suz/Suu, noise power from the residual
            # Szz - |Suz|^2/Suu. Noise moments cancel nothing when the noise is
            # far below the signal, and unit-symbol moments do not underflow
            a = abs(amp * s + suz / Suu)
            residual = szz - abs(suz) * (abs(suz) / Suu)
            # a noiseless output leaves no residual, and one symbol leaves none
            # but rounding error
            rho = a * a / (residual / n) if residual > 1e-12 * szz else math.inf
            return SnrEstimate(rho, math.sqrt(rho) * math.sqrt((rho + 2.0) / n))

        return AfRunResult(*_ber_estimates(t), snr_estimate(Suz_I, Szz_I, scale[0]),
                           snr_estimate(Suz_II, Szz_II, scale[1]), final)

    return Sweep(result(t, scales[f], final) for t, f, final in zip(totals, factors, finals))


# ---------------------------------------------------------------------------
# Decode-and-forward
# ---------------------------------------------------------------------------


def _mrc_decisions(
    y: np.ndarray,
    obs: Optional[RelayObservation],
    const: Constellation,
    amplitude: float,
    noise_power: float,
) -> np.ndarray:
    """Weight-and-add baseline: the direct signal and the partner's branch, if
    any, each scaled by gain/noise, then minimum-distance detection — treats
    the relay block as a faithful copy of the source symbols."""
    u = (amplitude / noise_power) * y
    g = amplitude**2 / noise_power
    if obs is not None:
        u = u + (obs.amplitude / obs.noise_power) * obs.y12
        g += obs.amplitude**2 / obs.noise_power
    return const.indices_to_bits(const.detect(u, g))


def _df_plans(params: ChannelParams, configs: Sequence[CoopConfig], fraction: float
              ) -> list[tuple[tuple[float, float], tuple[Optional[tuple[int, float, float]], ...]]]:
    """Downlink noise powers (N1, N2) of each DF config, and for receivers 0
    and 1 the branch each hears from its partner: (link slot, gain, noise),
    or None if the partner never sends. A relay sends if it has a
    transmission and a positive budget; slots number the senders in the
    order of their first send (the starter first, else receiver 1 first).
    A relay's m equal-power repeats of one block sum to one branch whose SNR,
    its budget over its link noise, does not depend on m, so the branch is
    planned as one send of the whole budget: gain sqrt(budget) and the noise
    of one link, `fraction` of the downlink band wide. The detectors divide
    by every noise power and scale by every SNR, so the first config with a
    planned SNR (P over a downlink noise, gain^2 over a link noise) that is
    not positive and finite raises a ValueError naming its density: n1, n2,
    then the links in first-send order. Each config is planned alone, in
    config order, so a band that underflows raises at its own config.
    """
    budgets, plans = (params.P12, params.P21), []
    for config in configs:
        (B_DL, _), (N1, N2, _, _), _, n = (part[0].tolist()
                                           for part in plan_sweep(params, config, [config.count]))
        band, snrs = fraction * B_DL, [("n1", params.P, N1), ("n2", params.P, N2)]
        heard: list[Optional[tuple[int, float, float]]] = [None, None]
        first = (1, 0) if getattr(config.scheme, "starter", None) is Receiver.R2 else (0, 1)
        for slot, relay in enumerate(r for r in first if n[r] and budgets[r] > 0.0):
            gain, noise = math.sqrt(budgets[relay]), (params.n12, params.n21)[relay] * band
            snrs.append((("n12", "n21")[relay], gain * gain, noise))
            heard[1 - relay] = (slot, gain, noise)
        for name, power, noise in snrs:
            if not (noise > 0.0 and 0.0 < power / noise < math.inf):
                raise ValueError(f"{name}: the planned SNR {power:.6g} / {noise:.6g} "
                                 "is not positive and finite")
        plans.append(((N1, N2), tuple(heard)))
    return plans


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
    hears from its partner, the sum of its repeats (see `_df_plans`), with the
    signal received directly from the source: `combiner="mld"` runs the
    per-bit generalized ML detector with the relay's substitution-error
    model, `combiner="mrc"` the weight-and-add baseline (symbol-aligned
    constellations only, no error model).

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
    Blocks are independent, so the tile size sets no result. A config's plan
    is its key (see `_run_ordered`), so configs with equal plans pose one
    detection problem (under h2, every symmetric config with k >= 1 and every
    asymmetric one with k >= 2). Each distinct pair of downlink noises forms
    its direct signals and relay decisions and detects each destination in
    one call per _CALL_SIZE of its problems; each relay noise power builds
    one error model; each result equals its solo run.
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
    plans = _df_plans(params, configs, coop_bandwidth_fraction)

    # the relay's substitution law depends only on its downlink noise power;
    # weight-and-add never reads it, so it skips building any
    relay_noises = dict.fromkeys(noises[1 - dest] for noises, heard in plans
                                 for dest, branch in enumerate(heard) if branch)
    models = {noise: RelayErrorModel.error_free(src_c) if relay_model == "genie"
              else estimate_relay_errors(src_c, amp_s, noise)
              for noise in (relay_noises if combiner == "mld" else ())}

    def decide(y: np.ndarray, heard: list[Optional[RelayObservation]], noise: float) -> np.ndarray:
        if combiner == "mld":
            return mld_llr_batch(y, heard, shape, src_c, rel_c, amp_s, noise) > 1.0
        return np.stack([_mrc_decisions(y, obs, src_c, amp_s, noise) for obs in heard])

    tc = trial_config
    cells = (shape.n // unit) << unit  # detector-table cells of one block
    blocks_per_batch = max(1, min(BATCH_SYMBOLS // shape.s, _MLD_CELL_CAP // cells))
    tile_blocks = _TILE_CELLS // cells
    if tile_blocks < _TILE_MIN_BLOCKS:
        tile_blocks = blocks_per_batch
    total_blocks = -(-tc.trials // shape.s)

    def worker(rng: np.random.Generator, T: int, active: tuple) -> list[tuple]:
        bits = rng.integers(0, 2, (T, shape.n), dtype=np.int8)
        unit_direct = [_unit_cn(rng, (T, shape.s)) for _ in range(2)]
        unit_links = [_unit_cn(rng, (T, shape.r))
                      for _ in range(max(sum(map(bool, links)) for _, links in active))]
        groups: dict[tuple[float, float], list] = {}  # downlink noises -> problems
        for plan in active:
            groups.setdefault(plan[0], []).append(plan)
        errors = {c: [0, 0, 0] for c in active}  # Python ints
        for tile in (slice(a, a + tile_blocks) for a in range(0, T, tile_blocks)):
            tile_bits = bits[tile]
            x = amp_s * src_c.points[src_c.bits_to_indices(tile_bits)]
            for noises, members in ((key, group[i:i + _CALL_SIZE]) for key, group in groups.items()
                                    for i in range(0, len(group), _CALL_SIZE)):
                direct = [x + math.sqrt(N / 2.0) * g[tile] for N, g in zip(noises, unit_direct)]
                # a genie relay decodes the noiseless source symbols
                relay_in = direct if relay_model == "exact" else (x, x)
                labels = {relay: relay_decode_and_remap(relay_in[relay], src_c, rel_c, amp_s)
                          for relay in {1 - dest for _, links in members
                                        for dest, branch in enumerate(links) if branch}}
                wrong = []
                for dest in (0, 1):  # one call; a member hears its partner's branch, or None
                    heard = [link and RelayObservation(  # link: (slot, gain, noise)
                        link[1] * rel_c.points[labels[1 - dest]]
                        + math.sqrt(link[2] / 2.0) * unit_links[link[0]][tile],
                        link[1], link[2], models.get(noises[1 - dest]))
                        for link in (links[dest] for _, links in members)]
                    wrong.append(decide(direct[dest], heard, noises[dest]) != tile_bits)
                for c, w_I, w_II in zip(members, *wrong):  # config-major slices
                    errors[c] = [e + np.count_nonzero(w)
                                 for e, w in zip(errors[c], (w_I, w_II, w_I | w_II))]
        return [(T * shape.s, T * shape.n, *errors[c]) for c in active]

    totals = _run_ordered(worker, plans, total_blocks, blocks_per_batch, threads, tc)
    return Sweep(DfRunResult(*_ber_estimates(t), source_order, rel_order) for t in totals)
