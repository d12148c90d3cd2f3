"""Decode-and-forward pipeline: constellations, relay modulation compatibility,
the relay decoding-noise model, and the generalized maximum-likelihood detector.

A DF relay hard-decodes the source block it received over its downlink channel,
re-maps the recovered bits onto its own (possibly larger) constellation so the
coded bit rate is conserved across the narrower cooperation sub-channel, and
retransmits. The destination detector marginalizes over the relay's possible
decoding errors — a per-symbol substitution distribution — and produces one
likelihood ratio per coded bit by enumerating all candidate bit vectors.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import EnumerationBoundError, ModulationError

__all__ = [
    "Constellation",
    "BlockShape",
    "RelayErrorModel",
    "RelayObservation",
    "qam",
    "choose_compatible_modulation",
    "ensure_enumerable",
    "mld_llr_batch",
    "relay_decode_and_remap",
    "estimate_relay_errors",
    "nearest_neighbor_error_model",
]

ENUMERATION_BIT_LIMIT = 20
_LOG_FLOOR = math.log(1e-300)


def ensure_enumerable(n: int) -> None:
    """Reject block widths whose candidate set cannot be enumerated."""
    if n > ENUMERATION_BIT_LIMIT:
        raise EnumerationBoundError(
            f"block carries {n} coded bits; enumerating 2^{n} candidates exceeds "
            f"the 2^{ENUMERATION_BIT_LIMIT} bound — use a smaller block shape"
        )


# ---------------------------------------------------------------------------
# Constellations
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Constellation:
    """Unit-average-power constellation indexed by MSB-first bit label."""

    order: int
    points: np.ndarray

    @property
    def bits_per_symbol(self) -> int:
        return self.order.bit_length() - 1

    def bits_to_indices(self, bits: np.ndarray) -> np.ndarray:
        """Group bits (..., k*m) into symbol labels (..., k)."""
        m = self.bits_per_symbol
        grouped = bits.reshape(*bits.shape[:-1], -1, m)
        weights = 1 << np.arange(m - 1, -1, -1)
        return grouped @ weights

    def indices_to_bits(self, indices: np.ndarray) -> np.ndarray:
        """Expand symbol labels (..., k) into bits (..., k*m)."""
        m = self.bits_per_symbol
        shifts = np.arange(m - 1, -1, -1)
        bits = (indices[..., None] >> shifts) & 1
        return bits.reshape(*indices.shape[:-1], -1).astype(np.int8)

    def detect(self, y: np.ndarray, amplitude: float = 1.0) -> np.ndarray:
        """Minimum-distance symbol decisions against amplitude * points."""
        d2 = np.abs(y[..., None] - amplitude * self.points) ** 2
        return d2.argmin(axis=-1)


def _gray_to_index(order: int) -> np.ndarray:
    """Inverse Gray map: word -> amplitude-level index (adjacent levels differ
    in one label bit)."""
    idx = np.arange(order)
    inv = np.empty(order, dtype=np.int64)
    inv[idx ^ (idx >> 1)] = idx
    return inv


@functools.lru_cache(maxsize=None)
def qam(order: int) -> Constellation:
    """Gray-labeled unit-power constellation: BPSK (order 2) or square QAM
    (order a power of 4, at most 4096)."""
    if order == 2:
        return Constellation(2, np.array([1.0 + 0.0j, -1.0 + 0.0j]))
    bits = order.bit_length() - 1
    if order < 4 or (1 << bits) != order or bits % 2 or order > 4096:
        raise ModulationError(
            f"unsupported constellation order {order}: need 2 or a power of 4 up to 4096"
        )
    half = bits // 2
    side = 1 << half
    levels = 2.0 * np.arange(side) - (side - 1)
    axis = levels[_gray_to_index(side)]
    words = np.arange(order)
    raw = axis[words >> half] + 1j * axis[words & (side - 1)]
    return Constellation(order, raw / math.sqrt(2.0 * (side**2 - 1) / 3.0))


@dataclass(frozen=True)
class BlockShape:
    """Block sizes tying the source and relay symbol streams together:
    s source symbols and r relay symbols carry the same n coded bits."""

    s: int
    r: int
    n: int

    def __post_init__(self) -> None:
        if min(self.s, self.r, self.n) < 1:
            raise ValueError("block shape fields must be positive")


def choose_compatible_modulation(Ms: int, B_DL: float, deltaB: float) -> tuple[int, BlockShape]:
    """Smallest relay constellation and block shape conserving the coded bit
    rate when the relay's symbol rate is deltaB/B_DL times the source's.

    The relay must pack log2(Ms) * B_DL/deltaB bits into each of its symbols,
    so that many bits per symbol must be a positive even integer (square QAM)
    with order at most 4096.
    """
    source = qam(Ms)  # validates the source order
    ms_bits = source.bits_per_symbol
    ratio = B_DL / deltaB
    mr_exact = ms_bits * ratio
    mr_bits = round(mr_exact)
    if abs(mr_exact - mr_bits) > 1e-9 * max(1.0, abs(mr_exact)) or mr_bits < 1:
        raise ModulationError(
            f"relay would need {mr_exact:g} bits per symbol; no integral QAM exists"
        )
    if mr_bits % 2:
        raise ModulationError(
            f"relay would need {mr_bits} bit(s) per symbol; no square QAM carries an odd width"
        )
    Mr = 1 << mr_bits
    if Mr > 4096:
        raise ModulationError(
            f"relay would need {mr_bits} bits per symbol (order {Mr}); largest supported is 4096"
        )
    n = math.lcm(ms_bits, mr_bits)
    return Mr, BlockShape(s=n // ms_bits, r=n // mr_bits, n=n)


# ---------------------------------------------------------------------------
# Relay decoding-noise model
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class RelayErrorModel:
    """Per-symbol substitution distribution: transition[j, l] is the
    probability that the relay transmits symbol l when a correct decode would
    have produced symbol j."""

    transition: np.ndarray

    def __post_init__(self) -> None:
        t = self.transition
        if t.ndim != 2 or t.shape[0] != t.shape[1]:
            raise ValueError("transition must be a square matrix")
        if np.any(t < 0) or np.any(np.abs(t.sum(axis=1) - 1.0) > 1e-12):
            raise ValueError("transition rows must be probability distributions")

    @classmethod
    def error_free(cls, order: int) -> "RelayErrorModel":
        return cls(np.eye(order))


def relay_decode_and_remap(
    y_relay_block: np.ndarray,
    source_constellation: Constellation,
    relay_constellation: Constellation,
    amplitude: float = 1.0,
) -> np.ndarray:
    """Hard-decode s source symbols, carry the recovered n bits across, and
    return the labels of the r relay symbols that carry them. Accepts (s,)
    blocks or (T, s) batches."""
    src_idx = source_constellation.detect(y_relay_block, amplitude)
    bits = source_constellation.indices_to_bits(src_idx)
    return relay_constellation.bits_to_indices(bits)


def estimate_relay_errors(
    source_constellation: Constellation,
    relay_constellation: Constellation,
    shape: BlockShape,
    amplitude: float,
    noise_power: float,
    symbols: int = 100_000,
    seed: int = 0,
) -> RelayErrorModel:
    """Estimate the substitution distribution by running the decode-and-remap
    chain over pilot symbols at the relay's receive SNR."""
    # key word 2 pinned to u64-max so pilot draws never collide with the
    # per-batch streams (seed, batch_index) used by the Monte Carlo harness
    rng = np.random.Generator(
        np.random.Philox(key=np.array([seed, 0xFFFFFFFFFFFFFFFF], dtype=np.uint64))
    )
    blocks = max(1, -(-symbols // shape.s))
    bits = rng.integers(0, 2, size=(blocks, shape.n), dtype=np.int8)
    src_idx = source_constellation.bits_to_indices(bits)
    intended = relay_constellation.bits_to_indices(bits)
    x = amplitude * source_constellation.points[src_idx]
    noise = math.sqrt(noise_power / 2.0) * (
        rng.standard_normal(x.shape) + 1j * rng.standard_normal(x.shape)
    )
    sent = relay_decode_and_remap(x + noise, source_constellation, relay_constellation, amplitude)
    Mr = relay_constellation.order
    counts = np.zeros((Mr, Mr))
    np.add.at(counts, (intended.ravel(), sent.ravel()), 1.0)
    rows = counts.sum(axis=1)
    never_seen = rows == 0
    counts[never_seen] = np.eye(Mr)[never_seen]
    return RelayErrorModel(counts / counts.sum(axis=1, keepdims=True))


def nearest_neighbor_error_model(
    constellation: Constellation, amplitude: float, noise_power: float
) -> RelayErrorModel:
    """Analytic fallback: pairwise-error substitution probabilities
    Q(amplitude*d / sqrt(2*noise_power)), row-normalized."""
    pts = amplitude * constellation.points
    d = np.abs(pts[:, None] - pts[None, :])
    q = 0.5 * np.vectorize(math.erfc)(d / math.sqrt(2.0 * noise_power) / math.sqrt(2.0))
    np.fill_diagonal(q, 0.0)
    off = q.sum(axis=1)
    diag = np.maximum(1.0 - off, 0.0)
    t = q + np.diag(diag)
    return RelayErrorModel(t / t.sum(axis=1, keepdims=True))


# ---------------------------------------------------------------------------
# The generalized ML detector
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class RelayObservation:
    """One received cooperation block: r symbols plus everything the detector
    needs to evaluate it (transmit scaling, noise power, error model)."""

    y12: np.ndarray
    amplitude: float
    noise_power: float
    model: RelayErrorModel


def _logsumexp(a: np.ndarray, axis: int) -> np.ndarray:
    m = np.max(a, axis=axis, keepdims=True)
    m = np.where(np.isfinite(m), m, 0.0)
    return np.squeeze(m, axis) + np.log(np.sum(np.exp(a - m), axis=axis))


@functools.lru_cache(maxsize=None)
def _candidates(n: int, ms_bits: int, mr_bits: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """All 2^n candidate bit vectors plus their source/relay symbol labels."""
    count = 1 << n
    bits = ((np.arange(count)[:, None] >> np.arange(n - 1, -1, -1)) & 1).astype(np.int8)
    src = bits.reshape(count, -1, ms_bits) @ (1 << np.arange(ms_bits - 1, -1, -1))
    rel = bits.reshape(count, -1, mr_bits) @ (1 << np.arange(mr_bits - 1, -1, -1))
    return bits, src, rel


def mld_llr_batch(
    y2: np.ndarray,
    observations: Sequence[RelayObservation],
    shape: BlockShape,
    source_constellation: Constellation,
    relay_constellation: Constellation,
    source_amplitude: float,
    direct_noise_power: float,
) -> np.ndarray:
    """Per-bit likelihood ratios for a batch of blocks: y2 is (T, s), each
    observation's y12 is (T, r); returns (T, n).

    Enumerates all 2^n candidate bit vectors, accumulates log likelihoods of
    the direct branch and every relay branch, and splits each bit's candidate
    set into numerator/denominator log-sums. Sums are max-shifted and floored
    at 1e-300 before the ratio.
    """
    ensure_enumerable(shape.n)
    y2 = np.atleast_2d(y2)
    trials = y2.shape[0]
    bits, src_idx, rel_idx = _candidates(
        shape.n, source_constellation.bits_per_symbol, relay_constellation.bits_per_symbol
    )
    # direct branch: per-position candidate tables, then gather per bit vector
    pts = source_amplitude * source_constellation.points
    direct_tab = (
        -np.abs(y2[:, :, None] - pts) ** 2 / direct_noise_power
        - math.log(math.pi * direct_noise_power)
    )
    total = np.zeros((trials, bits.shape[0]))
    for i in range(shape.s):
        total += direct_tab[:, i, src_idx[:, i]]
    for obs in observations:
        y12 = np.atleast_2d(obs.y12)
        g = (
            -np.abs(y12[:, :, None] - obs.amplitude * relay_constellation.points) ** 2
            / obs.noise_power
            - math.log(math.pi * obs.noise_power)
        )
        # mixture over substitutions, (T, r, Mr_intended), as a max-shifted
        # product so that no (T, r, Mr, Mr) table is formed
        top = g.max(axis=-1, keepdims=True)
        relay_tab = top + np.log(np.maximum(np.exp(g - top) @ obs.model.transition.T, 1e-300))
        for i in range(shape.r):
            total += relay_tab[:, i, rel_idx[:, i]]
    total -= total.max(axis=1, keepdims=True)
    llr = np.empty((trials, shape.n))
    for k in range(shape.n):
        ones = bits[:, k] == 1
        lnum = np.maximum(_logsumexp(total[:, ones], axis=1), _LOG_FLOOR)
        lden = np.maximum(_logsumexp(total[:, ~ones], axis=1), _LOG_FLOOR)
        llr[:, k] = np.exp(lnum - lden)
    return llr

