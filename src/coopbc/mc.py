"""Monte Carlo harness: samples the received signals of each protocol (for AF
the two combiner outputs, for DF the two direct signals plus one summed
cooperation branch per destination), applies the configured combiner, and
estimates raw bit error rates and empirical SNRs with standard errors.

Reproducibility contract: work is split into fixed-size batches and batch b
draws from a counter-based stream keyed by (seed, b). Partial results are
folded in batch order and early-stop checks happen only at fixed batch-count
boundaries, so estimates are bitwise identical for a given (seed, config)
regardless of how many worker threads execute the batches.
"""
from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .af import SnrState, campaign
from .channel import (
    ChannelParams,
    CoopConfig,
    Protocol,
    Receiver,
    plan_bandwidth,
    power_schedule,
    transmissions_per_step,
)
from .df import (
    BlockShape,
    Constellation,
    RelayErrorModel,
    RelayObservation,
    choose_compatible_modulation,
    ensure_enumerable,
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
    "simulate_af",
    "simulate_df",
]

BATCH_SYMBOLS = 65536
BIT_CAP = 10_000_000
_STOP_CHECK_BATCHES = 4  # early-stop boundary, fixed so thread count cannot move it
# blocks-per-batch * 2^n budget of the MLD batch partition: a conservative
# bound on the detector's tables, which hold 2^L labels per unit of L <= n
# bits. The partition fixes the RNG streams, and with them every DF result,
# so it does not follow the smaller tables
_MLD_CELL_CAP = 1 << 22


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


def _rng(seed: int, batch: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=np.array([seed, batch], dtype=np.uint64)))


def _cn(rng: np.random.Generator, var: float, shape: tuple[int, ...]) -> np.ndarray:
    return math.sqrt(var / 2.0) * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def _run_ordered(
    worker: Callable[[int], tuple],
    n_batches: int,
    threads: int,
    fold: Callable[[tuple], None],
    should_stop: Callable[[], bool],
) -> None:
    """Execute worker(0..n_batches-1), folding results in index order; stop
    checks run at fixed chunk boundaries and every batch of a started chunk is
    folded, so the folded set never depends on the thread count."""
    executor = ThreadPoolExecutor(max_workers=threads) if threads > 1 else None
    try:
        for start in range(0, n_batches, _STOP_CHECK_BATCHES):
            idxs = range(start, min(start + _STOP_CHECK_BATCHES, n_batches))
            for result in executor.map(worker, idxs) if executor else map(worker, idxs):
                fold(result)
            if should_stop():
                return
    finally:
        if executor:
            executor.shutdown()


def _stop_on_target(tc: TrialConfig, tally: dict, bits: int) -> bool:
    """Early-stop rule over the `bits` decided so far: stop at the bit cap,
    or once both receivers' BER standard errors meet the relative target."""
    if tc.target_half_width is None:
        return False
    if bits >= BIT_CAP:
        return True
    for errors in (tally["err_I"], tally["err_II"]):
        if errors == 0:
            return False
        ber = errors / bits
        if math.sqrt(ber * (1.0 - ber) / bits) > tc.target_half_width * ber:
            return False
    return True


# ---------------------------------------------------------------------------
# Amplify-and-forward
# ---------------------------------------------------------------------------


def simulate_af(
    params: ChannelParams,
    config: CoopConfig,
    K: Optional[int],
    trial_config: TrialConfig,
    *,
    order: int = 4,
    threads: int = 1,
) -> AfRunResult:
    """Sample the combiner outputs of a K-exchange campaign and estimate raw
    BERs (per receiver and joint) and empirical equivalent SNRs.

    Both combiner outputs are X + Z at unit signal gain, so one symbol needs
    only the joint law of (Z_I, Z_II): a zero-mean complex normal pair with
    the recursion's final covariance [[N_I, e], [e, N_II]], drawn through its
    Cholesky factor. Decisions are minimum-distance on each output.
    """
    if config.protocol is not Protocol.AF:
        raise ValueError("simulate_af requires an amplify-and-forward config")
    final = campaign(params, config, K).states[-1]
    # Z_I = l_I g_0 and Z_II = l_c g_0 + l_II g_1 for unit complex normals g;
    # when the outputs are nearly equal, rounding can push the Schur
    # complement N_II - e^2 / N_I a few ulps below zero
    l_I = math.sqrt(final.N_I / 2.0)
    l_c = final.e / math.sqrt(2.0 * final.N_I)
    l_II = math.sqrt(max(final.N_II - final.e**2 / final.N_I, 0.0) / 2.0)
    const = qam(order)
    m = const.bits_per_symbol
    P = params.P
    amp = math.sqrt(P)
    tc = trial_config
    n_batches = -(-tc.trials // BATCH_SYMBOLS)

    tally = {
        "symbols": 0,
        "err_I": 0,
        "err_II": 0,
        "err_sys": 0,
        "Sxx": 0.0,
        "Syx_I": 0.0 + 0.0j,
        "Syy_I": 0.0,
        "Syx_II": 0.0 + 0.0j,
        "Syy_II": 0.0,
    }

    def worker(b: int) -> tuple:
        T = min(BATCH_SYMBOLS, tc.trials - b * BATCH_SYMBOLS)
        rng = _rng(tc.seed, b)
        idx = rng.integers(0, order, T)
        x = amp * const.points[idx]
        g = rng.standard_normal((2, T)) + 1j * rng.standard_normal((2, T))
        y_I = x + l_I * g[0]
        y_II = x + (l_c * g[0] + l_II * g[1])
        sent = const.indices_to_bits(idx)
        wrong_I = const.indices_to_bits(const.detect(y_I, amp)) != sent
        wrong_II = const.indices_to_bits(const.detect(y_II, amp)) != sent
        return (
            T,
            int(wrong_I.sum()),
            int(wrong_II.sum()),
            int((wrong_I | wrong_II).sum()),
            float(np.sum(np.abs(x) ** 2)),
            complex(np.vdot(x, y_I)),
            float(np.sum(np.abs(y_I) ** 2)),
            complex(np.vdot(x, y_II)),
            float(np.sum(np.abs(y_II) ** 2)),
        )

    def fold(res: tuple) -> None:
        T, e1, e2, es, sxx, syx1, syy1, syx2, syy2 = res
        tally["symbols"] += T
        tally["err_I"] += e1
        tally["err_II"] += e2
        tally["err_sys"] += es
        tally["Sxx"] += sxx
        tally["Syx_I"] += syx1
        tally["Syy_I"] += syy1
        tally["Syx_II"] += syx2
        tally["Syy_II"] += syy2

    _run_ordered(worker, n_batches, threads, fold,
                 lambda: _stop_on_target(tc, tally, tally["symbols"] * m))

    n = tally["symbols"]
    bits = n * m

    def snr_estimate(syx: complex, syy: float) -> SnrEstimate:
        # project the known symbols out of the output: signal gain from the
        # cross-moment, equivalent noise power from the residual
        alpha_hat = syx / tally["Sxx"]
        noise_hat = (syy - abs(syx) ** 2 / tally["Sxx"]) / n
        rho = abs(alpha_hat) ** 2 * P / noise_hat
        return SnrEstimate(rho, rho * math.sqrt((1.0 + 2.0 / rho) / n))

    return AfRunResult(
        ber_I=BerEstimate.from_counts(tally["err_I"], bits, n),
        ber_II=BerEstimate.from_counts(tally["err_II"], bits, n),
        pe_sys=BerEstimate.from_counts(tally["err_sys"], bits, n),
        snr_I=snr_estimate(tally["Syx_I"], tally["Syy_I"]),
        snr_II=snr_estimate(tally["Syx_II"], tally["Syy_II"]),
        analytic=final,
    )


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


def simulate_df(
    params: ChannelParams,
    config: CoopConfig,
    K: Optional[int],
    modulations: Union[int, tuple[int, Optional[int]]],
    trial_config: TrialConfig,
    *,
    combiner: str = "mld",
    relay_model: str = "exact",
    coop_bandwidth_fraction: Optional[float] = None,
    threads: int = 1,
) -> DfRunResult:
    """Sample the full decode-and-forward chain and estimate raw BERs.

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
    fraction of the downlink band, which raises the relay constellation order
    needed to conserve the coded bit rate and shrinks the integrated
    cooperation noise accordingly.
    """
    if config.protocol is not Protocol.DF:
        raise ValueError("simulate_df requires a decode-and-forward config")
    if combiner not in ("mld", "mrc"):
        raise ValueError(f"unknown combiner {combiner!r}")
    if relay_model not in ("exact", "genie"):
        raise ValueError(f"unknown relay model {relay_model!r}")
    cfg = config if K is None else config.with_count(K)
    k = cfg.count
    plan = plan_bandwidth(params, cfg)
    if coop_bandwidth_fraction is not None:
        if not 0.0 < coop_bandwidth_fraction <= 1.0:
            raise ValueError("coop_bandwidth_fraction must be in (0, 1]")
        deltaB = coop_bandwidth_fraction * plan.B_DL
        plan = replace(
            plan,
            deltaB=deltaB,
            B_C=k * transmissions_per_step(cfg.scheme) * deltaB,
            N12=params.n12 * deltaB,
            N21=params.n21 * deltaB,
        )
    source_order, relay_expect = (
        modulations if isinstance(modulations, tuple) else (modulations, None)
    )
    src_c = qam(source_order)
    relay_order, shape = choose_compatible_modulation(source_order, plan.B_DL, plan.deltaB)
    if combiner == "mld":
        ensure_enumerable(shape.n)  # fail before building any error model
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

    # m equal-power repeats (amplitude a, noise N) of one relay block are
    # sufficient as their sum: one branch of gain m*a and noise m*N, drawn in
    # the order of each relay's first send
    sched = power_schedule(params, cfg)
    links: list[tuple[Receiver, float, float]] = []  # (relay, gain, noise)
    for relay in dict.fromkeys(Receiver(i % 2 + 1) for i in np.flatnonzero(sched)):
        powers = sched[:, relay.value - 1]
        m = int(np.count_nonzero(powers))
        noise = plan.N12 if relay is Receiver.R1 else plan.N21
        links.append((relay, m * math.sqrt(powers.max()), m * noise))
    downlink_noise = {Receiver.R1: plan.N1, Receiver.R2: plan.N2}

    tc = trial_config

    def build_model(relay: Receiver) -> RelayErrorModel:
        if relay_model == "genie":
            return RelayErrorModel.error_free(src_c)
        return estimate_relay_errors(src_c, rel_c, amp_s, downlink_noise[relay])

    # weight-and-add never reads the error model, so it skips building it
    models = {relay: build_model(relay) for relay, _, _ in links} if combiner == "mld" else {}

    def decide(y: np.ndarray, observations: list[RelayObservation], noise: float) -> np.ndarray:
        if combiner == "mld":
            return mld_llr_batch(y, observations, shape, src_c, rel_c, amp_s, noise) > 1.0
        return _mrc_decisions(y, observations, src_c, amp_s, noise)

    blocks_per_batch = max(1, min(BATCH_SYMBOLS // shape.s, _MLD_CELL_CAP >> shape.n))
    total_blocks = -(-tc.trials // shape.s)
    n_batches = -(-total_blocks // blocks_per_batch)
    tally = {"symbols": 0, "blocks": 0, "err_I": 0, "err_II": 0, "err_sys": 0}

    def worker(b: int) -> tuple:
        T = min(blocks_per_batch, total_blocks - b * blocks_per_batch)
        rng = _rng(tc.seed, b)
        bits = rng.integers(0, 2, (T, shape.n), dtype=np.int8)
        x = amp_s * src_c.points[src_c.bits_to_indices(bits)]
        direct = {dest: x + _cn(rng, downlink_noise[dest], x.shape) for dest in Receiver}
        received: dict[Receiver, list[RelayObservation]] = {Receiver.R1: [], Receiver.R2: []}
        for relay, gain, noise in links:
            if relay_model == "genie":  # perfect decoding: transmit the true block
                labels = rel_c.bits_to_indices(bits)
            else:
                labels = relay_decode_and_remap(direct[relay], src_c, rel_c, amp_s)
            y = gain * rel_c.points[labels] + _cn(rng, noise, (T, shape.r))
            received[relay.other] = [RelayObservation(y, gain, noise, models.get(relay))]
        wrong_I, wrong_II = (
            decide(direct[dest], received[dest], downlink_noise[dest]) != bits
            for dest in Receiver
        )
        return T, int(wrong_I.sum()), int(wrong_II.sum()), int((wrong_I | wrong_II).sum())

    def fold(res: tuple) -> None:
        T, e1, e2, es = res
        tally["blocks"] += T
        tally["symbols"] += T * shape.s
        tally["err_I"] += e1
        tally["err_II"] += e2
        tally["err_sys"] += es

    _run_ordered(worker, n_batches, threads, fold,
                 lambda: _stop_on_target(tc, tally, tally["blocks"] * shape.n))

    bits_total = tally["blocks"] * shape.n
    return DfRunResult(
        ber_I=BerEstimate.from_counts(tally["err_I"], bits_total, tally["symbols"]),
        ber_II=BerEstimate.from_counts(tally["err_II"], bits_total, tally["symbols"]),
        pe_sys=BerEstimate.from_counts(tally["err_sys"], bits_total, tally["symbols"]),
        source_order=source_order,
        relay_order=relay_order,
        shape=shape,
    )
