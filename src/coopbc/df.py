"""Decode-and-forward pipeline: constellations, relay modulation compatibility,
the relay decoding-noise model, and the generalized maximum-likelihood detector.

A DF relay hard-decodes the source block it received over its downlink channel,
re-maps the recovered bits onto its own (possibly larger) constellation so the
coded bit rate is conserved across the narrower cooperation sub-channel, and
retransmits. The destination detector marginalizes over the relay's possible
decoding errors — the exact decision law of one source axis — and produces
one likelihood ratio per coded bit from the labels of per-axis bit units,
not from all candidate bit vectors of a block.
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
    """Reject blocks of more than ENUMERATION_BIT_LIMIT coded bits. The
    detector enumerates only the 2^L labels of each unit of L <= n bits, but
    the Monte Carlo batch partition still budgets 2^n cells per block."""
    if n > ENUMERATION_BIT_LIMIT:
        raise EnumerationBoundError(
            f"block carries {n} coded bits; its 2^{n} cells per block exceed the "
            f"2^{ENUMERATION_BIT_LIMIT} bound of the detector's batch partition — "
            "use a smaller block shape"
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

    def edges(self, amplitude: float) -> np.ndarray:
        """Decision edges of one axis of amplitude * levels, ascending.

        Each edge stands for the exact midpoint of two neighbouring levels
        (the rounding of their sum is compensated): a sample lies above that
        midpoint iff it is >= the edge.
        """
        scaled = amplitude * self.levels
        lo, hi = scaled[:-1], scaled[1:]
        total = lo + hi  # rounded; lo + hi == total + err exactly (TwoSum)
        back = total - lo
        err = (lo - (total - back)) + (hi - back)
        mid = total / 2.0
        return np.where(err > 0.0, np.nextafter(mid, np.inf), mid)

    def detect(self, y: np.ndarray, amplitude: float = 1.0) -> np.ndarray:
        """Minimum-distance symbol decisions against amplitude * points.

        The nearest point of a square grid is the nearest level on each axis,
        so each axis is sliced on its own by a binary search over its decision
        `edges`: O(T) memory and O(T log M) time for T samples. BPSK slices
        the real part and ignores the imaginary one. Every decision is the
        exactly nearest level; a sample exactly on a midpoint takes the larger
        level.
        """
        edges = self.edges(amplitude)
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
    """Per-axis substitution distribution of the decode-and-remap relay:
    axis_law[j, l] is the probability that the relay carries axis label l
    where a correct decode would have carried axis label j.

    The relay decides each source axis on its own (square QAM has two per
    symbol, BPSK one), and every relay symbol carries whole source axes, so
    the law of c consecutive axes is the Kronecker power axis_law^{⊗c}.
    """

    axis_law: np.ndarray

    def __post_init__(self) -> None:
        t = self.axis_law
        if t.ndim != 2 or t.shape[0] != t.shape[1]:
            raise ValueError("axis_law must be a square matrix")
        if np.any(t < 0) or np.any(np.abs(t.sum(axis=1) - 1.0) > 1e-12):
            raise ValueError("axis_law rows must be probability distributions")

    @classmethod
    def error_free(cls, source_constellation: Constellation) -> "RelayErrorModel":
        return cls(np.eye(len(source_constellation.levels)))


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
    `noise_power`, on one axis of the constellation, with the edges
    `Constellation.detect` slices at.

    An entry is the Gaussian mass of a decision interval, taken from erfc of
    the tail nearer the sent level, so it keeps its precision far out in the
    tails.
    """
    pos = amplitude * constellation.levels
    edges = np.concatenate([[-np.inf], constellation.edges(amplitude), [np.inf]])
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


def _axis_bits(constellation: Constellation) -> int:
    return len(constellation.levels).bit_length() - 1


def _unit_bits(source_constellation: Constellation, relay_constellation: Constellation) -> int:
    """Width L of the detector's bit units: one relay axis, or the whole relay
    symbol when a relay axis would split a source axis.

    Raises ModulationError when a relay symbol does not carry a whole number
    of source axes: its law would not be a Kronecker power of the axis law.
    """
    source_axis = _axis_bits(source_constellation)
    relay_axis = _axis_bits(relay_constellation)
    relay_bits = relay_constellation.bits_per_symbol
    if relay_bits % source_axis:
        raise ModulationError(
            f"{relay_constellation.order}-point relay symbols split the "
            f"{1 << source_axis}-level axes of {source_constellation.order}-point source symbols"
        )
    return relay_axis if relay_axis % source_axis == 0 else relay_bits


def estimate_relay_errors(
    source_constellation: Constellation,
    relay_constellation: Constellation,
    amplitude: float,
    noise_power: float,
) -> RelayErrorModel:
    """Exact substitution law of the decode-and-remap chain at the relay's
    receive SNR: the decision law of one source axis. Raises ModulationError
    when relay symbols split source axes."""
    _unit_bits(source_constellation, relay_constellation)
    return RelayErrorModel(_decision_law(source_constellation, amplitude, noise_power))


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
def _bit_columns(n: int) -> np.ndarray:
    """[bits, 1 - bits] of all 2^n bit vectors (MSB first), shape (2^n, 2n)."""
    bits = (np.arange(1 << n)[:, None] >> np.arange(n - 1, -1, -1)) & 1
    return np.hstack([bits, 1 - bits]).astype(float)


def _unit_table(
    y: np.ndarray, constellation: Constellation, amplitude: float, noise_power: float, units: int
) -> np.ndarray:
    """Gaussian log likelihoods, up to a constant, of every label of every
    unit's bits: (2^L, T * units) for the (T, k) symbols y, label-major so
    that reductions over labels are row operations.

    Each real axis sample (the real and imaginary parts of a QAM symbol, in
    label-bit order; the real part of a BPSK symbol) gets a table over its
    axis labels, and a unit's table is the outer sum of its axes' tables.
    """
    if constellation.order == 2:
        samples = y.real
    else:
        samples = np.ascontiguousarray(y, dtype=complex).view(float)
    level = np.empty(len(constellation.levels))
    level[constellation.labels] = amplitude * constellation.levels
    out = None
    for x in samples.reshape(len(y) * units, -1).T:  # the axes of a unit, MSB first
        tab = x - level[:, None]
        tab *= tab
        tab /= -noise_power
        out = tab if out is None else (out[:, None] + tab).reshape(-1, len(x))
    return out


def _exp(x: np.ndarray) -> np.ndarray:
    """exp(x) in place, with every result below exp(-707) ~ 9e-308 flushed to
    zero. numpy's exp takes a slow path (about 15 times slower) below about
    -708, and so does arithmetic on subnormal numbers. A flushed term moves a
    mixture over a law's row, or a sum of 2^L <= 2^12 terms, by less than
    4e-304, under the 1e-300 floor."""
    kept = x >= -707.0
    np.exp(np.maximum(x, -707.0, out=x), out=x)
    x *= kept
    return x


def _mix(lik: np.ndarray, axis_law: np.ndarray, modes: int) -> np.ndarray:
    """axis_law^{⊗modes} @ lik for label-major lik, by mode products (Van
    Loan, J. Comput. Appl. Math. 123, 2000): the axis law's Kronecker power
    over a group of modes is applied to the leading group, which then
    rotates to the back, once per group. A group is at most 64 labels wide:
    up to there one dense product beats several narrow ones."""
    group = max(g for g in range(1, modes + 1) if modes % g == 0 and len(axis_law) ** g <= 64)
    law = functools.reduce(np.kron, [axis_law] * group)
    for _ in range(modes // group):
        mixed = (law @ lik.reshape(len(law), -1)).reshape(len(law), -1, lik.shape[1])
        lik = mixed.swapaxes(0, 1).reshape(lik.shape)
    return lik


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

    The block likelihood factors over units of L bits: one relay axis, or one
    relay symbol when a relay axis would split a source axis (relay symbols
    that split source axes raise ModulationError). The Gaussian densities
    factor over real axes and the relay law over source axes, so each bit's
    ratio depends only on its own unit, and the detector enumerates the 2^L
    labels of each unit instead of all 2^n bit vectors. A relay branch mixes
    its max-shifted likelihoods over the unit law axis_law^{⊗c} (c source
    axes per unit) by mode products; branches must carry independent relay
    decoding errors, so repeats of one relay block are passed as one summed
    observation. Each bit's numerator and denominator are masses of the
    max-shifted unit likelihoods, floored at 1e-300 before the ratio.
    """
    ensure_enumerable(shape.n)
    unit = _unit_bits(source_constellation, relay_constellation)
    trials, units = y2.shape[0], shape.n // unit
    total = _unit_table(y2, source_constellation, source_amplitude, direct_noise_power, units)
    axes_per_unit = unit // _axis_bits(source_constellation)
    for obs in observations:
        g = _unit_table(obs.y12, relay_constellation, obs.amplitude, obs.noise_power, units)
        top = g.max(axis=0)
        g -= top
        mix = _mix(_exp(g), obs.model.axis_law, axes_per_unit)
        mix = np.log(np.maximum(mix, 1e-300, out=mix), out=mix)
        mix += top
        total += mix
    # masses at 1 and at 0 of every bit of a unit: one product of the
    # max-shifted likelihoods against [bits, 1 - bits]
    total -= total.max(axis=0)
    mass = np.maximum(_bit_columns(unit).T @ _exp(total), 1e-300)
    return (mass[:unit] / mass[unit:]).T.reshape(trials, shape.n)
