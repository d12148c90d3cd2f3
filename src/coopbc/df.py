"""Decode-and-forward pipeline: constellations, relay modulation compatibility,
the relay decoding-noise model, and the generalized maximum-likelihood detector.

A DF relay hard-decodes the source block it received over its downlink channel,
re-maps the recovered bits onto its own (possibly larger) constellation so the
coded bit rate is conserved across the narrower cooperation sub-channel, and
retransmits. The destination detector marginalizes over the relay's possible
decoding errors — a per-symbol substitution distribution, computed exactly
from the per-axis decision law of the source constellation — and produces one
likelihood ratio per coded bit by enumerating all candidate bit vectors.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

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
]

ENUMERATION_BIT_LIMIT = 20


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
    """Unit-average-power constellation indexed by MSB-first bit label.

    Square QAM is two identical Gray-labeled axes (BPSK is one): `levels`
    holds one axis's unit-power levels in ascending order and `labels[i]` the
    axis label at `levels[i]`. A point's label is its in-phase label shifted
    above its quadrature label.
    """

    order: int
    points: np.ndarray
    levels: np.ndarray
    labels: np.ndarray

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
        """Minimum-distance symbol decisions against amplitude * points.

        The nearest point of a square grid is the nearest level on each axis,
        so each axis is sliced on its own by a binary search over its decision
        edges: O(T) memory and O(T log M) time for T samples. BPSK slices the
        real part and ignores the imaginary one. Each edge is the exact
        midpoint of two neighbouring levels of amplitude * levels (the
        rounding of their sum is compensated), so every decision is the
        exactly nearest level; a sample exactly on a midpoint takes the larger
        level.
        """
        scaled = amplitude * self.levels
        lo, hi = scaled[:-1], scaled[1:]
        total = lo + hi  # rounded; lo + hi == total + err exactly (TwoSum)
        back = total - lo
        err = (lo - (total - back)) + (hi - back)
        mid = total / 2.0
        # a sample lies above the exact midpoint iff it is >= its edge
        edges = np.where(err > 0.0, np.nextafter(mid, np.inf), mid)
        i_label = self.labels[np.searchsorted(edges, y.real, side="right")]
        if self.order == 2:
            return i_label
        q_label = self.labels[np.searchsorted(edges, y.imag, side="right")]
        return (i_label << (self.bits_per_symbol // 2)) | q_label


@functools.lru_cache(maxsize=None)
def qam(order: int) -> Constellation:
    """Gray-labeled unit-power constellation: BPSK (order 2) or square QAM
    (order a power of 4, at most 4096)."""
    if order == 2:
        return Constellation(
            2, np.array([1.0 + 0.0j, -1.0 + 0.0j]), np.array([-1.0, 1.0]), np.array([1, 0])
        )
    bits = order.bit_length() - 1
    if order < 4 or (1 << bits) != order or bits % 2 or order > 4096:
        raise ModulationError(
            f"unsupported constellation order {order}: need 2 or a power of 4 up to 4096"
        )
    half = bits // 2
    side = 1 << half
    rank = np.arange(side)
    gray = rank ^ (rank >> 1)  # label of each level: adjacent levels differ in one bit
    axis = np.empty(side)
    axis[gray] = 2.0 * rank - (side - 1)
    words = np.arange(order)
    raw = axis[words >> half] + 1j * axis[words & (side - 1)]
    points = raw / math.sqrt(2.0 * (side**2 - 1) / 3.0)
    return Constellation(order, points, points.real[gray << half], gray)


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


def _decision_law(constellation: Constellation, amplitude: float, noise_power: float) -> np.ndarray:
    """law[j, l]: probability that minimum-distance detection decides axis
    label l when axis label j was sent at `amplitude` over complex noise of
    `noise_power`, on one axis of the constellation.

    Square QAM decides each axis on its own, so a symbol's law is the
    Kronecker square of this axis law in label order (BPSK has one axis). An
    entry is the Gaussian mass of a decision interval, taken from erfc of the
    tail nearer the sent level, so it keeps its precision far out in the
    tails.
    """
    pos = amplitude * constellation.levels
    edges = np.concatenate([[-np.inf], (pos[:-1] + pos[1:]) / 2.0, [np.inf]])
    d = (edges - pos[:, None]) / math.sqrt(noise_power)
    erfc = np.vectorize(math.erfc, otypes=[float])
    above = 0.5 * erfc(d)  # mass above each edge
    below = 0.5 * erfc(-d)  # mass below each edge
    k = np.arange(len(pos))
    mass = np.where(
        k > k[:, None],
        above[:, :-1] - above[:, 1:],
        np.where(k < k[:, None], below[:, 1:] - below[:, :-1], 1.0 - below[:, :-1] - above[:, 1:]),
    )
    law = np.empty_like(mass)  # mass is in level order; the law is in label order
    law[np.ix_(constellation.labels, constellation.labels)] = mass
    return law


def estimate_relay_errors(
    source_constellation: Constellation,
    relay_constellation: Constellation,
    shape: BlockShape,
    amplitude: float,
    noise_power: float,
) -> RelayErrorModel:
    """Exact substitution law of the decode-and-remap chain at the relay's
    receive SNR, pooled (averaged) over the r relay symbols of a block.

    Source symbols are decided independently, so relay symbol p's law is the
    Kronecker product, over the source symbols its bits overlap, of each
    one's decision law marginalized onto those bits: the mean over the
    intended bits outside the overlap (they are uniform) and the sum over the
    decided ones.
    """
    axis = _decision_law(source_constellation, amplitude, noise_power)
    law = axis if source_constellation.order == 2 else np.kron(axis, axis)
    ms = source_constellation.bits_per_symbol
    mr = relay_constellation.bits_per_symbol
    transition = np.zeros((relay_constellation.order, relay_constellation.order))
    for p in range(shape.r):
        factors = []
        for i in range(p * mr // ms, -(-(p + 1) * mr // ms)):
            start = max(p * mr - i * ms, 0)
            stop = min((p + 1) * mr - i * ms, ms)
            if stop - start == ms:  # a whole symbol: no marginal, no copy of the law
                factors.append(law)
                continue
            split = (1 << start, 1 << (stop - start), 1 << (ms - stop))
            factors.append(law.reshape(split + split).sum(axis=(3, 5)).mean(axis=(0, 2)))
        transition += functools.reduce(np.kron, factors)
    transition /= shape.r
    return RelayErrorModel(transition)


# ---------------------------------------------------------------------------
# The generalized ML detector
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class RelayObservation:
    """One received cooperation block: r symbols plus everything the detector
    needs to evaluate it (signal gain, noise power, error model; the model is
    None for combiners that treat the block as a faithful copy)."""

    y12: np.ndarray
    amplitude: float
    noise_power: float
    model: Optional[RelayErrorModel]


@functools.lru_cache(maxsize=None)
def _candidates(n: int, ms_bits: int, mr_bits: int) -> tuple[np.ndarray, np.ndarray]:
    """Source and relay symbol labels of all 2^n candidate bit vectors."""
    count = 1 << n
    bits = ((np.arange(count)[:, None] >> np.arange(n - 1, -1, -1)) & 1).astype(np.int8)
    src = bits.reshape(count, -1, ms_bits) @ (1 << np.arange(ms_bits - 1, -1, -1))
    rel = bits.reshape(count, -1, mr_bits) @ (1 << np.arange(mr_bits - 1, -1, -1))
    return src, rel


@functools.lru_cache(maxsize=None)
def _bit_columns(n: int) -> np.ndarray:
    """[bits, 1 - bits] of all 2^n bit vectors (MSB first), shape (2^n, 2n)."""
    bits = (np.arange(1 << n)[:, None] >> np.arange(n - 1, -1, -1)) & 1
    return np.hstack([bits, 1 - bits]).astype(float)


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

    Enumerates all 2^n candidate bit vectors and accumulates log likelihoods
    of the direct branch and of every relay branch; branches must carry
    independent relay decoding errors, so repeats of one relay block are
    passed as one summed observation. Each bit's numerator and denominator
    are masses of the max-shifted candidate likelihoods, floored at 1e-300
    before the ratio.
    """
    ensure_enumerable(shape.n)
    trials = y2.shape[0]
    src_idx, rel_idx = _candidates(
        shape.n, source_constellation.bits_per_symbol, relay_constellation.bits_per_symbol
    )
    # direct branch: per-position candidate tables, then gather per bit vector
    pts = source_amplitude * source_constellation.points
    direct_tab = (
        -np.abs(y2[:, :, None] - pts) ** 2 / direct_noise_power
        - math.log(math.pi * direct_noise_power)
    )
    total = np.zeros((trials, src_idx.shape[0]))
    for i in range(shape.s):
        total += direct_tab[:, i, src_idx[:, i]]
    for obs in observations:
        g = (
            -np.abs(obs.y12[:, :, None] - obs.amplitude * relay_constellation.points) ** 2
            / obs.noise_power
            - math.log(math.pi * obs.noise_power)
        )
        # mixture over substitutions, (T, r, Mr_intended), as a max-shifted
        # product so that no (T, r, Mr, Mr) table is formed
        top = g.max(axis=-1, keepdims=True)
        relay_tab = top + np.log(np.maximum(np.exp(g - top) @ obs.model.transition.T, 1e-300))
        for i in range(shape.r):
            total += relay_tab[:, i, rel_idx[:, i]]
    # masses at 1 and at 0 of every bit: one product of the likelihoods
    # against [bits, 1 - bits], taken over the leading and the trailing half
    # of the bit vector, so the selectors have 2^(n/2) rows, not 2^n
    lead_n = shape.n // 2
    trail_n = shape.n - lead_n
    lik = np.exp(total - total.max(axis=1, keepdims=True)).reshape(trials, 1 << lead_n, -1)
    lead = lik.sum(axis=2) @ _bit_columns(lead_n)
    trail = lik.sum(axis=1) @ _bit_columns(trail_n)
    num = np.hstack([lead[:, :lead_n], trail[:, :trail_n]])
    den = np.hstack([lead[:, lead_n:], trail[:, trail_n:]])
    return np.maximum(num, 1e-300) / np.maximum(den, 1e-300)
