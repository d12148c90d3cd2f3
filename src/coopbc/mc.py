"""Monte Carlo harness: samples the received signals of each protocol (for AF
the two combiner outputs, for DF every link of the cooperation schedule),
applies the configured combiner, and estimates raw bit error rates and
empirical SNRs with standard errors.

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
    nearest_neighbor_error_model,
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
_MLD_CELL_CAP = 1 << 22  # blocks-per-batch * 2^n candidate table budget


@dataclass(frozen=True)
class TrialConfig:
    """Sampling budget and reproducibility knobs.

    trials: source symbols to simulate; seed: 64-bit stream seed; batch:
    symbols per counter-based stream; target_half_width: optional relative
    standard-error target enabling early stop, capped at bit_cap bits.
    """

    trials: int
    seed: int = 0
    target_half_width: Optional[float] = None
    batch: int = BATCH_SYMBOLS
    bit_cap: int = BIT_CAP

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.batch < 1:
            raise ValueError("batch must be >= 1")
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
    if bits >= tc.bit_cap:
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
    n_batches = -(-tc.trials // tc.batch)

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
        T = min(tc.batch, tc.trials - b * tc.batch)
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
    relay_model: str = "empirical",
    coop_bandwidth_fraction: Optional[float] = None,
    threads: int = 1,
) -> DfRunResult:
    """Sample the full decode-and-forward chain and estimate raw BERs.

    Each receiver hard-decodes the source block from its own downlink signal
    once, re-modulates it onto the bit-rate-compatible relay constellation and
    retransmits the same block at every exchange it owns (fresh cooperation
    noise each time). The destination always combines the cooperation signal
    with the signal received directly from the source: `combiner="mld"` runs
    the per-bit generalized ML detector with the relay's substitution-error
    model, `combiner="mrc"` the weight-and-add baseline (symbol-aligned
    constellations only).

    `modulations` is the source order, optionally paired with the expected
    relay order; `relay_model` selects how the substitution distribution is
    obtained: "empirical" (pilot run at the relay's receive SNR), "analytic"
    (nearest-neighbor approximation) or "genie" (error-free relay).
    `coop_bandwidth_fraction` narrows each cooperation sub-channel to that
    fraction of the downlink band, which raises the relay constellation order
    needed to conserve the coded bit rate and shrinks the integrated
    cooperation noise accordingly.
    """
    if config.protocol is not Protocol.DF:
        raise ValueError("simulate_df requires a decode-and-forward config")
    if combiner not in ("mld", "mrc"):
        raise ValueError(f"unknown combiner {combiner!r}")
    if relay_model not in ("empirical", "analytic", "genie"):
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
        ensure_enumerable(shape.n)  # fail before any pilot work
    if relay_expect is not None and relay_expect != relay_order:
        raise ModulationError(
            f"relay order {relay_expect} cannot conserve the coded bit rate; need {relay_order}"
        )
    rel_c = qam(relay_order)
    amp_s = math.sqrt(params.P)
    aligned = relay_order == source_order and shape.r == shape.s
    if combiner == "mrc" and not aligned:
        raise ModulationError(
            "weight-and-add combining requires the relay to reuse the source constellation"
        )

    schedule: list[tuple[Receiver, float]] = []  # (destination, transmit amplitude)
    for p12, p21 in power_schedule(params, cfg):
        if p12 > 0.0:
            schedule.append((Receiver.R2, math.sqrt(p12)))
        if p21 > 0.0:
            schedule.append((Receiver.R1, math.sqrt(p21)))
    active = {dest.other for dest, _ in schedule}

    tc = trial_config

    def build_model(relay: Receiver) -> RelayErrorModel:
        noise = plan.N1 if relay is Receiver.R1 else plan.N2
        if relay_model == "genie":
            return RelayErrorModel.error_free(relay_order)
        if relay_model == "analytic":
            if not aligned:
                raise ModulationError(
                    "analytic relay model requires the relay to reuse the source constellation"
                )
            return nearest_neighbor_error_model(src_c, amp_s, noise)
        return estimate_relay_errors(
            src_c, rel_c, shape, amp_s, noise,
            seed=tc.seed + (0 if relay is Receiver.R1 else 1),
        )

    models = {relay: build_model(relay) for relay in active}

    blocks_per_batch = max(1, min(tc.batch // shape.s, _MLD_CELL_CAP >> shape.n))
    total_blocks = -(-tc.trials // shape.s)
    n_batches = -(-total_blocks // blocks_per_batch)
    tally = {"symbols": 0, "blocks": 0, "err_I": 0, "err_II": 0, "err_sys": 0}

    def worker(b: int) -> tuple:
        T = min(blocks_per_batch, total_blocks - b * blocks_per_batch)
        rng = _rng(tc.seed, b)
        bits = rng.integers(0, 2, (T, shape.n), dtype=np.int8)
        x = amp_s * src_c.points[src_c.bits_to_indices(bits)]
        y1 = x + _cn(rng, plan.N1, x.shape)
        y2 = x + _cn(rng, plan.N2, x.shape)
        direct = {Receiver.R1: y1, Receiver.R2: y2}
        if relay_model == "genie":  # perfect decoding: transmit the true block
            true_block = rel_c.points[rel_c.bits_to_indices(bits)]
            tx_block = {relay: true_block for relay in active}
        else:
            tx_block = {
                relay: rel_c.points[relay_decode_and_remap(direct[relay], src_c, rel_c, amp_s)]
                for relay in sorted(active, key=lambda r: r.value)
            }
        received: dict[Receiver, list[RelayObservation]] = {Receiver.R1: [], Receiver.R2: []}
        for dest, a in schedule:
            relay = dest.other
            noise = plan.N12 if relay is Receiver.R1 else plan.N21
            y = a * tx_block[relay] + _cn(rng, noise, (T, shape.r))
            received[dest].append(RelayObservation(y, a, noise, models[relay]))
        if combiner == "mld":
            dec_I = (
                mld_llr_batch(y1, received[Receiver.R1], shape, src_c, rel_c, amp_s, plan.N1)
                > 1.0
            ).astype(np.int8)
            dec_II = (
                mld_llr_batch(y2, received[Receiver.R2], shape, src_c, rel_c, amp_s, plan.N2)
                > 1.0
            ).astype(np.int8)
        else:
            dec_I = _mrc_decisions(y1, received[Receiver.R1], src_c, amp_s, plan.N1)
            dec_II = _mrc_decisions(y2, received[Receiver.R2], src_c, amp_s, plan.N2)
        wrong_I = dec_I != bits
        wrong_II = dec_II != bits
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
