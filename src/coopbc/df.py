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

from .errors import ModulationError

__all__ = [
    "Constellation",
    "BlockShape",
    "RelayErrorModel",
    "RelayObservation",
    "qam",
    "choose_compatible_modulation",
    "mld_llr_batch",
    "relay_decode_and_remap",
    "estimate_relay_errors",
]

# ---------------------------------------------------------------------------
# Constellations
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Constellation:
    """Unit-average-power constellation indexed by MSB-first bit label.

    Square QAM is two identical Gray-labeled axes (BPSK is one): `levels`
    holds one axis's unit-power levels in ascending order and `labels[i]` the
    axis label at `levels[i]`. A point's label is its in-phase label shifted
    above its quadrature label, the order of `axis_samples`.
    """

    order: int
    points: np.ndarray
    levels: np.ndarray
    labels: np.ndarray

    @property
    def bits_per_symbol(self) -> int:
        return self.order.bit_length() - 1

    @property
    def axis_bits(self) -> int:
        return len(self.levels).bit_length() - 1

    def axis_samples(self, y: np.ndarray) -> np.ndarray:
        """The real samples the symbols y are decided on, in label-bit order:
        both parts of each QAM symbol, in-phase first (a float view of a
        contiguous y), or the real part of each BPSK symbol."""
        if self.order == 2:
            return y.real
        return np.ascontiguousarray(y, dtype=complex).view(float)

    def bits_to_indices(self, bits: np.ndarray) -> np.ndarray:
        """Group bits (..., k*m) into symbol labels (..., k)."""
        m = self.bits_per_symbol
        grouped = bits.reshape(*bits.shape[:-1], -1, m)
        labels = grouped[..., 0].astype(np.int64)
        for j in range(1, m):  # integer products have no BLAS path; shifts are cheap
            labels = (labels << 1) | grouped[..., j]
        return labels

    def indices_to_bits(self, indices: np.ndarray) -> np.ndarray:
        """Expand symbol labels (..., k) into bits (..., k*m), as int8."""
        return _label_bits(self.bits_per_symbol).take(indices, axis=0).reshape(
            *indices.shape[:-1], -1)

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
        """Minimum-distance symbol decisions against amplitude * points, for
        a scalar or an array y of any shape (1-D batches, (T, s) blocks).

        The nearest point of a square grid is the nearest level on each axis,
        so each axis is sliced on its own by a branchless binary search over
        its decision `edges`: O(T) memory and h = log2(levels) compares per
        axis sample. BPSK slices the real part and ignores the imaginary one.
        Every decision is the exactly nearest level; a sample exactly on a
        midpoint takes the larger level, and a NaN part takes the top level.
        """
        edges = self.edges(amplitude)
        i_label = self.labels.take(_slice_axis(edges, y.real))
        if self.order == 2:
            return i_label
        q_label = self.labels.take(_slice_axis(edges, y.imag))
        return (i_label << (self.bits_per_symbol // 2)) | q_label


@functools.lru_cache(maxsize=None)
def _label_bits(m: int) -> np.ndarray:
    """The MSB-first bits of all 2^m labels of m bits, (2^m, m) int8: one
    gather expands a batch of labels."""
    return ((np.arange(1 << m)[:, None] >> np.arange(m - 1, -1, -1)) & 1).astype(np.int8)


def _slice_axis(edges: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Level index of each sample of x: the count of the 2^h - 1 ascending
    `edges` at or below it, as uint8. A branchless binary search: a scalar
    compare against the middle edge, then h - 1 steps that each gather one
    edge per sample. `~(x < edge)` counts a NaN as above every edge, so every
    float, signed zeros and infinities included, gets the index of numpy's
    right-sided sorted search. Gathers by a uint8 index use `take`, about
    twice as fast as fancy indexing with it."""
    step = (len(edges) + 1) >> 1
    idx = np.uint8(step) * ~(x < edges[step - 1])
    while step > 1:
        step >>= 1
        idx += np.uint8(step) * ~(x < edges.take(idx + (step - 1)))
    return idx


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


def choose_compatible_modulation(Ms: int, fraction: float) -> tuple[int, BlockShape]:
    """Smallest relay constellation and block shape conserving the coded bit
    rate when the relay's symbol rate is `fraction` times the source's.

    The relay must pack log2(Ms) / fraction bits into each of its symbols,
    so that many bits per symbol must be a positive even integer (square QAM)
    of at most 12 (order 4096).
    """
    source = qam(Ms)  # validates the source order
    ms_bits = source.bits_per_symbol
    mr_exact = ms_bits / fraction
    # checked before any rounding: a tiny fraction makes mr_exact too large
    # for an integer shift, or infinite
    if not mr_exact <= 12.0 * (1.0 + 1e-9):
        raise ModulationError(
            f"relay would need {mr_exact:g} bits per symbol; the largest supported order, "
            "4096, carries 12"
        )
    mr_bits = round(mr_exact)
    if abs(mr_exact - mr_bits) > 1e-9 * max(1.0, abs(mr_exact)) or mr_bits < 1:
        raise ModulationError(
            f"relay would need {mr_exact:g} bits per symbol; no integral QAM exists"
        )
    if mr_bits % 2:
        raise ModulationError(
            f"relay would need {mr_bits} bit(s) per symbol; no square QAM carries an odd width"
        )
    n = math.lcm(ms_bits, mr_bits)
    return 1 << mr_bits, BlockShape(s=n // ms_bits, r=n // mr_bits, n=n)


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
    if relay_constellation is source_constellation:
        return src_idx
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


def _unit_bits(source_constellation: Constellation, relay_constellation: Constellation) -> int:
    """Width L of the detector's bit units: one relay axis, or the whole relay
    symbol when a relay axis would split a source axis.

    Raises ModulationError when a relay symbol does not carry a whole number
    of source axes: its law would not be a Kronecker power of the axis law.
    """
    source_axis = source_constellation.axis_bits
    relay_axis = relay_constellation.axis_bits
    relay_bits = relay_constellation.bits_per_symbol
    if relay_bits % source_axis:
        raise ModulationError(
            f"{relay_constellation.order}-point relay symbols split the "
            f"{1 << source_axis}-level axes of {source_constellation.order}-point source symbols"
        )
    return relay_axis if relay_axis % source_axis == 0 else relay_bits


def estimate_relay_errors(
    source_constellation: Constellation, amplitude: float, noise_power: float
) -> RelayErrorModel:
    """Exact substitution law of the decode-and-remap chain at the relay's
    receive SNR: the decision law of one source axis, for any relay whose
    symbols carry whole source axes (`mld_llr_batch` checks that)."""
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
    bits = _label_bits(n)
    return np.hstack([bits, 1 - bits]).astype(float)


def _unit_table(
    y: np.ndarray, constellation: Constellation, amplitude: float, noise_power: float, units: int
) -> np.ndarray:
    """Gaussian log likelihoods, up to a constant, of every label of every
    unit's bits: (2^L, T * units) for the (T, k) symbols y, label-major so
    that reductions over labels are row operations.

    Each real axis sample (`Constellation.axis_samples`, in label-bit order)
    gets a table over its axis labels, and a unit's table is the outer sum of
    its axes' tables. Samples and levels are divided by sqrt(noise_power)
    before they are squared, so no finite log likelihood overflows; a label
    so far from a sample that its square, or its sum over a unit's axes,
    overflows has log likelihood -inf.
    """
    samples = constellation.axis_samples(y)
    sigma = math.sqrt(noise_power)
    level = np.empty(len(constellation.levels))
    level[constellation.labels] = amplitude * constellation.levels / sigma
    out = None
    with np.errstate(over="ignore"):
        for x in (samples / sigma).reshape(len(y) * units, -1).T:  # a unit's axes, MSB first
            tab = x - level[:, None]
            tab *= tab
            np.negative(tab, out=tab)
            out = tab if out is None else (out[:, None] + tab).reshape(-1, len(x))
    return out


def _exp(x: np.ndarray) -> np.ndarray:
    """exp(x) in place, with every result below exp(-707) ~ 9e-308 flushed to
    zero. numpy's exp takes a slow path (about 15 times slower) below about
    -708, and so does arithmetic on subnormal numbers. A flushed term moves a
    mixture over a law's row, or a sum of 2^L <= 2^12 terms, by less than
    4e-304, under the 1e-300 floor. Without such an entry (or NaN), one exp."""
    if x.min() >= -707.0:
        return np.exp(x, out=x)
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
    observations: Sequence[Optional[RelayObservation]],
    shape: BlockShape,
    source_constellation: Constellation,
    relay_constellation: Constellation,
    source_amplitude: float,
    direct_noise_power: float,
) -> np.ndarray:
    """(C, T, n) per-bit likelihood ratios of T blocks, one (T, n) array per
    config sharing the direct signal y2 (T, s). A config's entry is the one
    branch its destination hears from its partner, with that relay's repeats
    already summed into it (y12 is (T, r)), or None when it hears nothing.

    The block likelihood factors over units of L bits: one relay axis, or one
    relay symbol when a relay axis would split a source axis (relay symbols
    that split source axes raise ModulationError). The Gaussian densities
    factor over real axes and the relay law over source axes, so each bit's
    ratio depends only on its own unit: the detector enumerates the 2^L
    labels of each unit, not all 2^n bit vectors. The direct max-shifted
    likelihoods are built once; a branch mixes its own over the unit law
    axis_law^{⊗c} (c source axes per unit) by mode products, floors the
    mixture at 1e-300 (so a branch outvotes the direct signal by at most
    ln 1e300 = 690.8 nats a unit), multiplies the direct likelihoods into it
    and divides the product by each unit's largest. Bit masses are floored
    at 1e-300 before the ratio.
    """
    unit = _unit_bits(source_constellation, relay_constellation)
    trials, units = y2.shape[0], shape.n // unit
    direct = _unit_table(y2, source_constellation, source_amplitude, direct_noise_power, units)
    direct = _exp(np.subtract(direct, direct.max(axis=0), out=direct))
    axes_per_unit = unit // source_constellation.axis_bits
    out = np.empty((len(observations), trials, shape.n))
    for ratios, obs in zip(out, observations):
        lik = direct
        if obs is not None:
            g = _unit_table(obs.y12, relay_constellation, obs.amplitude, obs.noise_power, units)
            g -= g.max(axis=0)
            mix = _mix(_exp(g), obs.model.axis_law, axes_per_unit)
            lik = np.multiply(np.maximum(mix, 1e-300, out=mix), direct, out=mix)
            lik /= lik.max(axis=0)
        # masses at 1 and at 0 of every bit of a unit: one product of the
        # likelihoods against [bits, 1 - bits]
        mass = _bit_columns(unit).T @ lik
        np.maximum(mass, 1e-300, out=mass)
        np.divide(mass[:unit], mass[unit:], out=ratios.reshape(-1, unit).T)
    return out
