"""Independent reference implementations the tests compare the package with.

None of this is used by the package itself:

- the verbatim scalar AF recursion (one exchange per call, unnormalized
  weights, forwarding the latest combiner output);
- the batched AF engine on the 4x4 covariance of both combiner outputs and
  both downlink noises (two matrix products per step), in float64 or long
  double;
- a receiver's partner, the asymmetric exchange parity rule (which receiver
  sends at exchange i) and the per-exchange cooperation power split, stated
  case by case;
- the coefficient-vector AF campaign, which represents every combiner output
  exactly as Y = alpha X + sum_k c_k zeta_k over the elementary noises and
  combines forward-original branches with a joint MRC solve, together with
  its per-combine mutual-information and ratio-form audits;
- a signal-level replay of that campaign on sampled elementary noises, which
  estimates the noise cross-correlation after every exchange;
- the AF sampler's bit-error tally on whole symbols: the batch draws of
  `mc.simulate_af`, complex combiner outputs, `Constellation.detect` and the
  popcount of each decided label XOR the sent one;
- the forward-original closed-form SNR pair and the two-exchange
  forward-original vs forward-latest SNR gap polynomial;
- the minimum-distance detector that compares each sample with every
  constellation point, and the per-axis slicer by np.searchsorted over the
  decision edges;
- single-block DF likelihoods and the single-block ML detector wrapper;
- the dense relay law: the Mr x Mr substitution matrix of a relay symbol,
  pooled over the r relay symbols of a block and built by marginalizing
  source symbol laws onto the bits each relay symbol overlaps, and the ML
  detector that enumerates all 2^n candidate bit vectors against it;
- the relay pilot: the decode-and-remap chain run over sampled symbols with
  the all-points detector, whose substitution counts the exact relay law is
  tested against;
- the exact Gray square-QAM bit error rate over AWGN, by CDF differences,
  and from one axis's decision law weighted by the Hamming distance of its
  labels;
- the exact joint AF error rate pe_sys of two correlated outputs, from
  bivariate-normal rectangle masses (Drezner-Wesolowsky in Genz's form)
  weighted by the union of the two label errors;
- the scenario INI writer, whose output the parser must read back exactly;
- the CLI's CSV writer before format templates: `csv.writer` with minimal
  quoting over cells formatted one at a time by their Python type.
"""
from __future__ import annotations

import configparser
import csv
import functools
import io
import math
from dataclasses import dataclass
from typing import Iterator, NamedTuple, Optional, Sequence

import numpy as np

from coopbc import mc
from coopbc.channel import (
    Asymmetric,
    BandwidthPlan,
    ChannelParams,
    CoopConfig,
    Receiver,
    Scheme,
    Strategy,
    Symmetric,
    plan_bandwidth,
)
from coopbc.df import (
    BlockShape,
    Constellation,
    RelayErrorModel,
    RelayObservation,
    _decision_law,
    mld_llr_batch,
    qam,
)
from coopbc.scenario import Scenario

_LOG_FLOOR = math.log(1e-300)


# ---------------------------------------------------------------------------
# Verbatim scalar AF recursion
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SnrState:
    """Unnormalized combiner state of both receivers after exchange `i`.

    alpha_*: useful-signal coefficients; N_*: equivalent noise powers;
    e: noise cross-correlation E[Z_I Z_II*]; rho_*: equivalent SNRs; w*/a*:
    weights and gains applied at this exchange (identity weights and zero
    gains at i = 0 or for a silent side).
    """

    i: int
    alpha_I: float
    alpha_II: float
    N_I: float
    N_II: float
    e: float
    rho_I: float
    rho_II: float
    w1: float
    w2: float
    w12: float
    w21: float
    a12: float
    a21: float


def initial_state(params: ChannelParams, plan: BandwidthPlan) -> SnrState:
    """State before any cooperation: unit signal gain, independent downlink noises."""
    return SnrState(
        i=0, alpha_I=1.0, alpha_II=1.0, N_I=plan.N1, N_II=plan.N2, e=0.0,
        rho_I=params.P / plan.N1, rho_II=params.P / plan.N2,
        w1=1.0, w2=1.0, w12=0.0, w21=0.0, a12=0.0, a21=0.0,
    )


def amplification_gains(state: SnrState, powers: tuple[float, float], P: float) -> tuple[float, float]:
    """Power-constrained relay gains a_tx = sqrt(P_tx / (alpha_tx^2 P + N_tx))."""
    P12_i, P21_i = powers
    a12 = math.sqrt(P12_i / (state.alpha_I**2 * P + state.N_I))
    a21 = math.sqrt(P21_i / (state.alpha_II**2 * P + state.N_II))
    return a12, a21


def mrc_weights_symmetric(
    state: SnrState, gains: tuple[float, float], noises: tuple[float, float]
) -> tuple[float, float, float, float]:
    """Unnormalized MRC weights (w12, w2, w21, w1) for a simultaneous round:
    w_branch = a*alpha_tx*N_dest - a*alpha_dest*e and
    w_keep = (a^2*N_tx + N_coop)*alpha_dest - a^2*alpha_tx*e, i.e. adj(R_zz)h
    for the 2x2 branch noise covariance."""
    a12, a21 = gains
    N12, N21 = noises
    w12 = a12 * state.alpha_I * state.N_II - a12 * state.alpha_II * state.e
    w2 = (a12**2 * state.N_I + N12) * state.alpha_II - a12**2 * state.alpha_I * state.e
    w21 = a21 * state.alpha_II * state.N_I - a21 * state.alpha_I * state.e
    w1 = (a21**2 * state.N_II + N21) * state.alpha_I - a21**2 * state.alpha_II * state.e
    return w12, w2, w21, w1


def step_symmetric(
    state: SnrState, P: float, plan: BandwidthPlan, powers: tuple[float, float]
) -> SnrState:
    """One simultaneous round: both receivers forward their latest output and
    combine the partner's branch with their previous state. A zero-power
    branch delivers no signal and leaves its receiver unchanged."""
    a12, a21 = amplification_gains(state, powers, P)
    w12, w2, w21, w1 = mrc_weights_symmetric(state, (a12, a21), (plan.N12, plan.N21))
    if powers[0] == 0.0:
        w12, w2 = 0.0, 1.0
    if powers[1] == 0.0:
        w21, w1 = 0.0, 1.0
    alpha_I = w21 * a21 * state.alpha_II + w1 * state.alpha_I
    alpha_II = w12 * a12 * state.alpha_I + w2 * state.alpha_II
    # Z_I' = w1 Z_I + w21 (a21 Z_II + Z21); Z_II' = w2 Z_II + w12 (a12 Z_I + Z12)
    N_I = w1**2 * state.N_I + w21**2 * (a21**2 * state.N_II + plan.N21) + 2 * w1 * w21 * a21 * state.e
    N_II = w2**2 * state.N_II + w12**2 * (a12**2 * state.N_I + plan.N12) + 2 * w2 * w12 * a12 * state.e
    e = (
        w12 * a12 * w1 * state.N_I
        + w21 * a21 * w2 * state.N_II
        + (w1 * w2 + w12 * a12 * w21 * a21) * state.e
    )
    return SnrState(
        i=state.i + 1, alpha_I=alpha_I, alpha_II=alpha_II, N_I=N_I, N_II=N_II, e=e,
        rho_I=alpha_I**2 * P / N_I, rho_II=alpha_II**2 * P / N_II,
        w1=w1, w2=w2, w12=w12, w21=w21, a12=a12, a21=a21,
    )


def step_asymmetric(
    state: SnrState,
    P: float,
    plan: BandwidthPlan,
    powers: tuple[float, float],
    i: int,
    starter: Receiver = Receiver.R1,
) -> SnrState:
    """One alternating exchange: the starter transmits at odd `i`, the partner
    combines; the idle receiver's state passes through unchanged."""
    transmitter = starter if i % 2 == 1 else other(starter)
    P12_i, P21_i = powers
    if transmitter is Receiver.R1 and P12_i == 0.0 or transmitter is Receiver.R2 and P21_i == 0.0:
        return SnrState(
            i=state.i + 1, alpha_I=state.alpha_I, alpha_II=state.alpha_II,
            N_I=state.N_I, N_II=state.N_II, e=state.e,
            rho_I=state.rho_I, rho_II=state.rho_II,
            w1=1.0, w2=1.0, w12=0.0, w21=0.0, a12=0.0, a21=0.0,
        )
    if transmitter is Receiver.R1:
        a12 = math.sqrt(P12_i / (state.alpha_I**2 * P + state.N_I))
        w12, w2, _, _ = mrc_weights_symmetric(state, (a12, 0.0), (plan.N12, plan.N21))
        alpha_II = w12 * a12 * state.alpha_I + w2 * state.alpha_II
        N_II = w2**2 * state.N_II + w12**2 * (a12**2 * state.N_I + plan.N12) + 2 * w2 * w12 * a12 * state.e
        e = w2 * state.e + w12 * a12 * state.N_I
        return SnrState(
            i=state.i + 1, alpha_I=state.alpha_I, alpha_II=alpha_II,
            N_I=state.N_I, N_II=N_II, e=e,
            rho_I=state.rho_I, rho_II=alpha_II**2 * P / N_II,
            w1=1.0, w2=w2, w12=w12, w21=0.0, a12=a12, a21=0.0,
        )
    a21 = math.sqrt(P21_i / (state.alpha_II**2 * P + state.N_II))
    _, _, w21, w1 = mrc_weights_symmetric(state, (0.0, a21), (plan.N12, plan.N21))
    alpha_I = w21 * a21 * state.alpha_II + w1 * state.alpha_I
    N_I = w1**2 * state.N_I + w21**2 * (a21**2 * state.N_II + plan.N21) + 2 * w1 * w21 * a21 * state.e
    e = w1 * state.e + w21 * a21 * state.N_II
    return SnrState(
        i=state.i + 1, alpha_I=alpha_I, alpha_II=state.alpha_II,
        N_I=N_I, N_II=state.N_II, e=e,
        rho_I=alpha_I**2 * P / N_I, rho_II=state.rho_II,
        w1=w1, w2=1.0, w12=0.0, w21=w21, a12=0.0, a21=a21,
    )


def ratio_form_snr(
    P: float,
    alpha_fwd: float,
    rho_fwd: float,
    alpha_dest: float,
    rho_dest: float,
    N_dest: float,
    e_cross: float,
    rho_coop: float,
) -> float:
    """Post-combine SNR as the closed ratio of two polynomial forms.

    Inputs describe the forwarded signal (alpha_fwd, rho_fwd), the
    destination's current state (alpha_dest, rho_dest, N_dest), their noise
    cross-correlation e_cross = E[Z_fwd Z_dest*] and the cooperation
    sub-channel SNR rho_coop = P_coop / N_coop. Numerator and denominator are
    individually sign-flipped relative to the underlying quadratic forms; the
    ratio is the combined SNR.
    """
    aa = alpha_fwd * alpha_dest
    S = aa * 2.0 * e_cross * rho_fwd * rho_dest * rho_coop - aa**2 * P * (
        rho_dest * (1.0 + rho_fwd) + rho_coop * (rho_fwd + rho_dest)
    )
    T = (
        (e_cross**2 / P) * rho_fwd * rho_dest * rho_coop
        - aa**2 * P * (1.0 + rho_coop)
        - alpha_fwd**2 * N_dest * rho_fwd * rho_dest
    )
    return S / T


def mi_conservation_check(
    state: SnrState,
    P: float,
    powers: tuple[float, float],
    coop_noises: tuple[float, float],
    receiver: Receiver = Receiver.R2,
) -> tuple[float, float]:
    """Mutual information before/after collapsing one forward-latest combine
    at `receiver` to a scalar: log2(1 + rho_combined) and the two-branch
    vector MI log2(1 + P h^T adj(R) h / det R). The combiner is
    information-lossless, so both coincide."""
    a12, a21 = amplification_gains(state, powers, P)
    N12, N21 = coop_noises
    if receiver is Receiver.R2:
        alpha_keep, N_keep = state.alpha_II, state.N_II
        alpha_fwd, N_fwd = state.alpha_I, state.N_I
        g, N_coop = a12, N12
    else:
        alpha_keep, N_keep = state.alpha_I, state.N_I
        alpha_fwd, N_fwd = state.alpha_II, state.N_II
        g, N_coop = a21, N21
    alpha_br = g * alpha_fwd
    N_br = g * g * N_fwd + N_coop
    c = g * state.e  # cross-correlation between kept noise and branch noise
    w_keep = N_br * alpha_keep - c * alpha_br
    w_br = N_keep * alpha_br - c * alpha_keep
    alpha_new = w_keep * alpha_keep + w_br * alpha_br
    N_new = w_keep**2 * N_keep + w_br**2 * N_br + 2.0 * w_keep * w_br * c
    mi_combined = math.log2(1.0 + alpha_new**2 * P / N_new)
    num = alpha_keep**2 * N_br - 2.0 * alpha_keep * alpha_br * c + alpha_br**2 * N_keep
    det = N_keep * N_br - c * c
    mi_vector = math.log2(1.0 + P * num / det)
    return mi_combined, mi_vector


# ---------------------------------------------------------------------------
# Closed forms for the forward-original strategy and the strategy comparison.
# ---------------------------------------------------------------------------


def s2_closed_form(params: ChannelParams, plan: BandwidthPlan, Ks: int) -> tuple[float, float]:
    """Final SNR pair when both receivers always forward their original
    downlink signal: rho_dest = rho_direct + a^2 P / (a^2 N_src + N_coop) with
    a^2 = P_budget / (P + N_src).

    Splitting the budget over Ks rounds scales each gain by 1/sqrt(Ks), which
    cancels exactly against jointly combining the Ks repetition branches, so
    the value is independent of Ks for a fixed plan.
    """
    if Ks < 1:
        raise ValueError("closed form requires at least one exchange")
    P = params.P
    a12sq = params.P12 / (P + plan.N1)
    a21sq = params.P21 / (P + plan.N2)
    rho_I = P / plan.N1 + a21sq * P / (a21sq * plan.N2 + plan.N21)
    rho_II = P / plan.N2 + a12sq * P / (a12sq * plan.N1 + plan.N12)
    return rho_I, rho_II


def s1_vs_s2_numerator(params: ChannelParams, plan: BandwidthPlan) -> float:
    """Numerator polynomial of rho_I(forward-original) - rho_I(forward-latest)
    for a two-exchange alternating campaign under fixed downlink bandwidth;
    nonnegative for all positive parameters."""
    P, P12, P21 = params.P, params.P12, params.P21
    N1, N2, N12, N21 = plan.N1, plan.N2, plan.N12, plan.N21
    poly = (
        2.0 * N21 * N12 * P**2
        + P * N21 * N12 * N2
        + 2.0 * P * N1 * N21 * N12
        + P * P21 * N12 * N2
        + 2.0 * P * N1 * P12 * N21
        + P * P12 * N21 * N2
        + N1 * N21 * N12 * N2
        + N1 * P21 * N12 * N2
        + N1 * P12 * N21 * N2
    )
    return P * N2 * P21 * P12 * poly


# ---------------------------------------------------------------------------
# The 4x4 covariance AF engine
# ---------------------------------------------------------------------------

# A combine whose 2x2 branch noise covariance has a determinant this small
# relative to the product of its variances is singular to rounding.
_SINGULAR = 1e-12


def evolve(
    P: float, noises: np.ndarray, periods: np.ndarray, counts: np.ndarray,
    forward_original: bool, dtype: type = float,
) -> Iterator[np.ndarray]:
    """Run the unit-gain covariance recursion for S scenarios at once, in
    `dtype` arithmetic (np.longdouble for a higher-precision reference).

    The state is the 4x4 covariance of the noise vector (Z_I, Z_II, Z_1, Z_2):
    the two combiner outputs and the two original downlink noises. A step
    applies one 4x4 linear map T to it, C -> T C T^T, and then sets the
    combined noise powers.

    P: source power; noises: (S, 4) plan noise powers (N1, N2, N12, N21);
    periods: (S, 2, 2) power schedules (see `channel.power_schedule`): step t
    sends row t % 2, the power from receiver 1 to 2 and from 2 to 1, zero
    where silent; counts: (S,) steps per scenario, all silent past its count.
    Yields max(counts) + 1 covariances (S, 4, 4): the initial state, then one
    per step. A silent or singular combine leaves its receiver's state
    exactly as it was.
    """
    S, K = len(counts), int(np.max(counts, initial=0))
    N1, N2, N12, N21 = np.moveaxis(np.asarray(noises, dtype=dtype), -1, 0)
    periods = np.asarray(periods, dtype=dtype)
    C = np.zeros((S, 4, 4), dtype=dtype)
    C[:, [0, 0, 2, 2], [0, 2, 0, 2]] = N1[:, None]
    C[:, [1, 1, 3, 3], [1, 3, 1, 3]] = N2[:, None]
    eye = np.eye(4, dtype=dtype)
    yield C
    # column d is receiver d: what it keeps (k), what its partner forwards (f),
    # and the cooperation noise of the link it listens to
    rx = np.array([0, 1])
    k, f = (rx + 2, 3 - rx) if forward_original else (rx, 1 - rx)
    coop_noise = np.stack([N21, N12], axis=-1)
    repeats = np.zeros((S, 2), dtype=dtype)
    unchanged = np.broadcast_to(eye[2:], (S, 2, 4))  # the downlink noises
    for t in range(K):
        # power each receiver hears
        p = np.where((t < counts)[:, None], periods[:, t % 2, ::-1], 0.0)
        live = p > 0.0
        repeats += live
        m = repeats if forward_original else 1.0
        Nk, Nf, c = C[:, k, k], C[:, f, f], C[:, k, f]
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            a2 = p / (P + Nf)
            Nb = Nf + coop_noise / (m * a2)  # branch noise at unit gain
            live &= Nk * Nb - c * c > _SINGULAR * Nk * Nb
            D, E = Nb - c, Nk - c
            w_k, w_b = D / (D + E), E / (D + E)
            var = c + D * E / (D + E)
        rows = np.zeros((S, 2, 4), dtype=dtype)
        rows[:, rx, k] = w_k
        rows[:, rx, f] = w_b
        T = np.concatenate([np.where(live[..., None], rows, eye[:2]), unchanged], axis=1)
        C = T @ C @ T.transpose(0, 2, 1)
        C[:, rx, rx] = np.where(live, var, C[:, rx, rx])
        yield C


def final_covariance(
    P: float, noises: np.ndarray, periods: np.ndarray, counts: np.ndarray,
    forward_original: bool, dtype: type = float,
) -> np.ndarray:
    """Covariance (S, 4, 4) after the last step of `evolve`."""
    for C in evolve(P, noises, periods, counts, forward_original, dtype):
        pass
    return C


# ---------------------------------------------------------------------------
# Coefficient-vector AF campaign
# ---------------------------------------------------------------------------


def other(receiver: Receiver) -> Receiver:
    """The partner of `receiver`."""
    return Receiver.R2 if receiver is Receiver.R1 else Receiver.R1


def transmitter_at(scheme: Scheme, i: int) -> Receiver:
    """Which receiver transmits at asymmetric exchange `i` (starter at odd i)."""
    if not isinstance(scheme, Asymmetric):
        raise TypeError("exchange parity only applies to the asymmetric scheme")
    return scheme.starter if i % 2 == 1 else other(scheme.starter)


def power_per_exchange(params: ChannelParams, config: CoopConfig, i: int) -> tuple[float, float]:
    """Per-exchange cooperation powers (P12_i, P21_i) for exchange index `i`.

    Symmetric: each receiver spends budget/Ks per round. Asymmetric: the starter
    transmits ceil(Ka/2) times at 2*budget/Ka (Ka even) or 2*budget/(Ka+1)
    (Ka odd); the other receiver (Ka-1)//2 or Ka//2 times at 2*budget/Ka or
    2*budget/(Ka-1). Ka = 1 is a starter-only round: the non-starter transmits
    nothing and its per-exchange power is reported as zero.
    """
    k = config.count
    if k < 1:
        raise ValueError("power split requires at least one exchange")
    if not 1 <= i <= k:
        raise ValueError(f"exchange index {i} outside 1..{k}")
    scheme = config.scheme
    if isinstance(scheme, Symmetric):
        return params.P12 / k, params.P21 / k
    if k % 2 == 0:
        starter_power = 2.0 * _budget(params, scheme.starter) / k
        other_power = 2.0 * _budget(params, other(scheme.starter)) / k
    else:
        starter_power = 2.0 * _budget(params, scheme.starter) / (k + 1)
        other_power = 0.0 if k == 1 else 2.0 * _budget(params, other(scheme.starter)) / (k - 1)
    p = {scheme.starter: starter_power, other(scheme.starter): other_power}
    return p[Receiver.R1], p[Receiver.R2]


def _budget(params: ChannelParams, receiver: Receiver) -> float:
    return params.P12 if receiver is Receiver.R1 else params.P21


def exchange_powers(params: ChannelParams, config: CoopConfig) -> np.ndarray:
    """(K, 2) power sent from receiver 1 to 2 and from 2 to 1 at each exchange
    1..K under `power_per_exchange`, zero where a receiver is silent."""
    rows = []
    for i in range(1, config.count + 1):
        powers = power_per_exchange(params, config, i)
        sends = ((True, True) if isinstance(config.scheme, Symmetric)
                 else (transmitter_at(config.scheme, i) is Receiver.R1,
                       transmitter_at(config.scheme, i) is Receiver.R2))
        rows.append([p if s else 0.0 for p, s in zip(powers, sends)])
    return np.array(rows).reshape(config.count, 2)


@dataclass(frozen=True)
class CombineAudit:
    """Independent per-combine checks: scalar vs vector mutual information and
    ratio-form vs signal-model SNR."""

    exchange: int
    receiver: Receiver
    mi_combined: float
    mi_vector: float
    rho_ratio_form: float
    rho_state: float


@dataclass(frozen=True, eq=False)
class Campaign:
    """Per-step states of one campaign plus its audits; `noise_vars[k]` is the
    variance of elementary noise source k (downlink noises first, then one
    cooperation noise per transmission) and `coeffs[i]` holds the coefficients
    of Z_I and Z_II over those sources after step i, at unit signal gain."""

    states: tuple[SnrState, ...]
    audits: tuple[CombineAudit, ...]
    noise_vars: np.ndarray
    coeffs: np.ndarray


class _Signal(NamedTuple):
    alpha: float
    coeffs: np.ndarray  # real coefficients over the elementary noise basis


def _noise_power(sig: _Signal, var: np.ndarray) -> float:
    return float(np.dot(sig.coeffs * sig.coeffs, var))


def _cross(a: _Signal, b: _Signal, var: np.ndarray) -> float:
    return float(np.dot(a.coeffs * b.coeffs, var))


def _combine(keep: _Signal, branch: _Signal, var: np.ndarray) -> tuple[_Signal, float, float]:
    """MRC of the kept signal with a received branch; returns the unnormalized
    combined signal and the weight pair (w_keep, w_branch) = adj(R_zz) h."""
    N_keep = _noise_power(keep, var)
    N_br = _noise_power(branch, var)
    c = _cross(keep, branch, var)
    w_keep = N_br * keep.alpha - c * branch.alpha
    w_br = N_keep * branch.alpha - c * keep.alpha
    combined = _Signal(
        w_keep * keep.alpha + w_br * branch.alpha,
        w_keep * keep.coeffs + w_br * branch.coeffs,
    )
    return combined, w_keep, w_br


def _joint_mrc(branches: list[_Signal], var: np.ndarray) -> tuple[_Signal, np.ndarray]:
    """Maximum-ratio combiner over an arbitrary set of branches with exactly
    correlated noises: weights w = R_zz^{-1} h."""
    C = np.array([b.coeffs for b in branches])
    h = np.array([b.alpha for b in branches])
    R = (C * var) @ C.T
    w = np.linalg.solve(R, h)
    return _Signal(float(w @ h), w @ C), w


def _vector_snr(keep: _Signal, branch: _Signal, var: np.ndarray, P: float) -> float:
    """SNR of the optimal two-branch combiner, P h^T adj(R) h / det(R)."""
    N_keep = _noise_power(keep, var)
    N_br = _noise_power(branch, var)
    c = _cross(keep, branch, var)
    num = keep.alpha**2 * N_br - 2.0 * keep.alpha * branch.alpha * c + branch.alpha**2 * N_keep
    det = N_keep * N_br - c * c
    return P * num / det


def campaign(
    params: ChannelParams,
    config: CoopConfig,
    count: Optional[int] = None,
    *,
    normalize: bool = True,
    audit: bool = False,
) -> Campaign:
    """Run one campaign of `count` scheme steps on exact coefficient vectors.

    Forward-latest (S1): each receiver MRC-combines its running output
    pairwise with every new branch. Forward-original (S2): every branch is a
    fresh copy of the partner's downlink signal, and the receiver jointly
    combines its direct signal with all branches received so far.
    `normalize` rescales each combined signal to unit signal gain (the raw
    weights overflow float64 after a handful of rounds); `audit` records the
    per-combine identities.
    """
    cfg = config if count is None else config.with_count(count)
    K = cfg.count
    plan = plan_bandwidth(params, cfg)
    P = params.P
    symmetric = isinstance(cfg.scheme, Symmetric)
    forward_latest = cfg.strategy is Strategy.S1
    n_sources = 2 + (2 * K if symmetric else K)
    var = np.zeros(n_sources)
    var[0], var[1] = plan.N1, plan.N2

    def unit(idx: int) -> np.ndarray:
        v = np.zeros(n_sources)
        v[idx] = 1.0
        return v

    orig_I = _Signal(1.0, unit(0))
    orig_II = _Signal(1.0, unit(1))
    sig_I, sig_II = orig_I, orig_II
    branches_I, branches_II = [orig_I], [orig_II]
    coop_power_I, coop_power_II = 0.0, 0.0  # cumulative received relay power
    states = [initial_state(params, plan)]
    audits: list[CombineAudit] = []
    coeffs = [np.array([orig_I.coeffs, orig_II.coeffs])]

    def gain(fwd: _Signal, power: float) -> float:
        return math.sqrt(power / (fwd.alpha**2 * P + _noise_power(fwd, var)))

    def audit_pairwise(i: int, rx: Receiver, keep: _Signal, fwd: _Signal, br: _Signal,
                       g: float, N_coop: float, combined: _Signal) -> None:
        rho_new = combined.alpha**2 * P / _noise_power(combined, var)
        N_fwd = _noise_power(fwd, var)
        audits.append(CombineAudit(
            exchange=i,
            receiver=rx,
            mi_combined=math.log2(1.0 + rho_new),
            mi_vector=math.log2(1.0 + _vector_snr(keep, br, var, P)),
            rho_ratio_form=ratio_form_snr(
                P,
                fwd.alpha,
                fwd.alpha**2 * P / N_fwd,
                keep.alpha,
                keep.alpha**2 * P / _noise_power(keep, var),
                _noise_power(keep, var),
                _cross(fwd, keep, var),
                g * g * (fwd.alpha**2 * P + N_fwd) / N_coop,
            ),
            rho_state=rho_new,
        ))

    def audit_joint(i: int, rx: Receiver, branches: list[_Signal], combined: _Signal,
                    N_direct: float, N_fwd: float, N_coop: float, coop_power: float) -> None:
        # Joint MRC of identical-repetition branches reduces to one pairwise
        # combine of the direct signal with the branch average, whose
        # cooperation sub-channel carries the cumulative relay power.
        rho_new = combined.alpha**2 * P / _noise_power(combined, var)
        C = np.array([b.coeffs for b in branches])
        h = np.array([b.alpha for b in branches])
        R = (C * var) @ C.T
        rho_vec = float(P * h @ np.linalg.solve(R, h))
        audits.append(CombineAudit(
            exchange=i,
            receiver=rx,
            mi_combined=math.log2(1.0 + rho_new),
            mi_vector=math.log2(1.0 + rho_vec),
            rho_ratio_form=ratio_form_snr(
                P, 1.0, P / N_fwd, 1.0, P / N_direct, N_direct, 0.0, coop_power / N_coop,
            ),
            rho_state=rho_new,
        ))

    def renorm(sig: _Signal) -> _Signal:
        return _Signal(1.0, sig.coeffs / sig.alpha) if normalize else sig

    def receive_at_II(i: int, P12_i: float, src: int,
                      tx_state: _Signal, keep: _Signal) -> tuple[float, float, float]:
        nonlocal sig_II, coop_power_II
        if P12_i == 0.0:  # nothing transmitted: the combiner state is untouched
            sig_II = keep
            return 0.0, 1.0, 0.0
        fwd = tx_state if forward_latest else orig_I
        a12 = gain(fwd, P12_i)
        br = _Signal(a12 * fwd.alpha, a12 * fwd.coeffs + unit(src))
        if forward_latest:
            new_II, w2, w12 = _combine(keep, br, var)
            if audit:
                audit_pairwise(i, Receiver.R2, keep, fwd, br, a12, plan.N12, new_II)
        else:
            branches_II.append(br)
            coop_power_II += P12_i
            new_II, wvec = _joint_mrc(branches_II, var)
            w2, w12 = float(wvec[0]), float(wvec[-1])
            if audit:
                audit_joint(i, Receiver.R2, branches_II, new_II,
                            plan.N2, plan.N1, plan.N12, coop_power_II)
        sig_II = renorm(new_II)
        return a12, w2, w12

    def receive_at_I(i: int, P21_i: float, src: int,
                     tx_state: _Signal, keep: _Signal) -> tuple[float, float, float]:
        nonlocal sig_I, coop_power_I
        if P21_i == 0.0:
            sig_I = keep
            return 0.0, 1.0, 0.0
        fwd = tx_state if forward_latest else orig_II
        a21 = gain(fwd, P21_i)
        br = _Signal(a21 * fwd.alpha, a21 * fwd.coeffs + unit(src))
        if forward_latest:
            new_I, w1, w21 = _combine(keep, br, var)
            if audit:
                audit_pairwise(i, Receiver.R1, keep, fwd, br, a21, plan.N21, new_I)
        else:
            branches_I.append(br)
            coop_power_I += P21_i
            new_I, wvec = _joint_mrc(branches_I, var)
            w1, w21 = float(wvec[0]), float(wvec[-1])
            if audit:
                audit_joint(i, Receiver.R1, branches_I, new_I,
                            plan.N1, plan.N2, plan.N21, coop_power_I)
        sig_I = renorm(new_I)
        return a21, w1, w21

    for i in range(1, K + 1):
        P12_i, P21_i = power_per_exchange(params, cfg, i)
        a12 = a21 = w12 = w21 = 0.0
        w1 = w2 = 1.0
        if symmetric:
            src12, src21 = 2 + 2 * (i - 1), 3 + 2 * (i - 1)
            var[src12], var[src21] = plan.N12, plan.N21
            # Both receivers transmit simultaneously, so both combines are
            # formed from the pre-round states.
            prev_I, prev_II = sig_I, sig_II
            a12, w2, w12 = receive_at_II(i, P12_i, src12, prev_I, prev_II)
            a21, w1, w21 = receive_at_I(i, P21_i, src21, prev_II, prev_I)
        else:
            src = 2 + (i - 1)
            if transmitter_at(cfg.scheme, i) is Receiver.R1:
                var[src] = plan.N12
                a12, w2, w12 = receive_at_II(i, P12_i, src, sig_I, sig_II)
            else:
                var[src] = plan.N21
                a21, w1, w21 = receive_at_I(i, P21_i, src, sig_II, sig_I)
        N_I, N_II = _noise_power(sig_I, var), _noise_power(sig_II, var)
        states.append(SnrState(
            i=i,
            alpha_I=sig_I.alpha,
            alpha_II=sig_II.alpha,
            N_I=N_I,
            N_II=N_II,
            e=_cross(sig_I, sig_II, var),
            rho_I=sig_I.alpha**2 * P / N_I,
            rho_II=sig_II.alpha**2 * P / N_II,
            w1=w1, w2=w2, w12=w12, w21=w21, a12=a12, a21=a21,
        ))
        coeffs.append(np.array([sig_I.coeffs / sig_I.alpha, sig_II.coeffs / sig_II.alpha]))
    return Campaign(tuple(states), tuple(audits), var, np.array(coeffs))


class CrossCorrelationEstimate(NamedTuple):
    """Sampled noise cross-correlation E[Z_I Z_II*] after one exchange."""

    estimate: float
    stderr: float


def empirical_cross_correlation(
    camp: Campaign, trials: int, seed: int, batch: int = 65536
) -> list[CrossCorrelationEstimate]:
    """Sample the elementary noises, form both receivers' equivalent noises
    with the campaign's coefficient vectors, and estimate their
    cross-correlation after every exchange. Batch b draws from the Philox
    stream keyed by (seed, b)."""
    scale = np.sqrt(camp.noise_vars / 2.0)[:, None]
    shape = (len(camp.noise_vars),)
    sums = np.zeros(len(camp.coeffs))
    squares = np.zeros(len(camp.coeffs))
    for b in range(-(-trials // batch)):
        rng = np.random.Generator(np.random.Philox(key=np.array([seed, b], dtype=np.uint64)))
        T = min(batch, trials - b * batch)
        z = scale * (rng.standard_normal(shape + (T,)) + 1j * rng.standard_normal(shape + (T,)))
        for j, (c_I, c_II) in enumerate(camp.coeffs):
            w = ((c_I @ z) * np.conj(c_II @ z)).real
            sums[j] += w.sum()
            squares[j] += (w * w).sum()
    estimates = sums / trials
    stderrs = np.sqrt(np.maximum(squares / trials - estimates**2, 0.0) / trials)
    return [CrossCorrelationEstimate(float(m), float(s)) for m, s in zip(estimates, stderrs)]


def af_error_counts(
    final, order: int, amplitude: float, trials: int, seed: int,
) -> tuple[int, int, int]:
    """Bit errors of output I, of output II and of either, as `mc.simulate_af`
    counts them for one config whose final noise covariance is `final`
    (N_I, e, N_II). Each batch of mc.BATCH_SYMBOLS symbols is drawn through
    mc._rng and mc._unit_cn as the sampler draws it; the complex outputs x +
    Z_I and x + Z_II are formed through the covariance's Cholesky factor and
    decided whole by Constellation.detect, and a decision costs
    popcount(decided label ^ sent label) bits."""
    const = qam(order)
    if final.N_I:
        l_I, l_c = math.sqrt(final.N_I / 2.0), final.e / math.sqrt(2.0 * final.N_I)
        l_II = math.sqrt(max(final.N_II - final.e**2 / final.N_I, 0.0) / 2.0)
    else:
        l_I, l_c, l_II = 0.0, 0.0, math.sqrt(final.N_II / 2.0)
    popcount = np.array([bin(label).count("1") for label in range(order)])
    errors = [0, 0, 0]
    for b in range(-(-trials // mc.BATCH_SYMBOLS)):
        T = min(mc.BATCH_SYMBOLS, trials - b * mc.BATCH_SYMBOLS)
        rng = mc._rng(seed, b)
        idx = rng.integers(0, order, T)
        g = mc._unit_cn(rng, (2, T))
        x = amplitude * const.points[idx]
        wrong_I = const.detect(x + l_I * g[0], amplitude) ^ idx
        wrong_II = const.detect(x + (l_c * g[0] + l_II * g[1]), amplitude) ^ idx
        for i, wrong in enumerate((wrong_I, wrong_II, wrong_I | wrong_II)):
            errors[i] += int(popcount[wrong].sum())
    return errors[0], errors[1], errors[2]


# ---------------------------------------------------------------------------
# Single-block DF likelihoods and detector
# ---------------------------------------------------------------------------


def detect_min_distance(const: Constellation, y: np.ndarray, amplitude: float = 1.0) -> np.ndarray:
    """Minimum-distance symbol decisions against amplitude * points, taken by
    comparing each sample with all M points (a (T, M) table); an exact tie
    goes to the lowest label."""
    d2 = np.abs(y[..., None] - amplitude * const.points) ** 2
    return d2.argmin(axis=-1)


def detect_searchsorted(const: Constellation, y: np.ndarray, amplitude: float = 1.0) -> np.ndarray:
    """The per-axis slicer by np.searchsorted(edges, axis, side="right") over
    the decision edges: each axis's level index is the number of edges at or
    below it, with NaN above every edge."""
    edges = const.edges(amplitude)
    i_label = const.labels[np.searchsorted(edges, np.real(y), side="right")]
    if const.order == 2:
        return i_label
    q_label = const.labels[np.searchsorted(edges, np.imag(y), side="right")]
    return (i_label << (const.bits_per_symbol // 2)) | q_label


def _logsumexp(a: np.ndarray, axis: int) -> np.ndarray:
    m = np.max(a, axis=axis, keepdims=True)
    m = np.where(np.isfinite(m), m, 0.0)
    return np.squeeze(m, axis) + np.log(np.sum(np.exp(a - m), axis=axis))


def log_likelihood_direct(y_block: np.ndarray, x_block: np.ndarray, noise_power: float) -> float:
    """Log density of a complex-Gaussian block: sum_i log N(y_i; x_i, N)."""
    return float(
        np.sum(-np.abs(y_block - x_block) ** 2 / noise_power - math.log(math.pi * noise_power))
    )


def likelihood_direct(y_block: np.ndarray, x_block: np.ndarray, noise_power: float) -> float:
    """Density form of log_likelihood_direct, floored at 1e-300."""
    return math.exp(max(log_likelihood_direct(y_block, x_block, noise_power), _LOG_FLOOR))


def relay_symbol_law(model: RelayErrorModel, relay_constellation: Constellation) -> np.ndarray:
    """law[j, l] of one relay symbol: the Kronecker power of the model's axis
    law over the source axes the symbol carries (a whole number of them)."""
    axis_bits = len(model.axis_law).bit_length() - 1
    axes = relay_constellation.bits_per_symbol // axis_bits
    return functools.reduce(np.kron, [model.axis_law] * axes)


def log_likelihood_relay(
    y12_block: np.ndarray,
    bits: np.ndarray,
    model: RelayErrorModel,
    amplitude: float,
    noise_power: float,
    relay_constellation: Constellation,
) -> float:
    """Log density of a relay block given candidate coded bits, marginalized
    over the relay's substitution errors:
    sum_i log sum_l Pr[l | j_i] N(y_i; amplitude * p_l, N)."""
    j = relay_constellation.bits_to_indices(np.asarray(bits))
    g = (
        -np.abs(y12_block[:, None] - amplitude * relay_constellation.points) ** 2 / noise_power
        - math.log(math.pi * noise_power)
    )
    log_transition = np.log(np.maximum(relay_symbol_law(model, relay_constellation), 1e-300))
    return float(np.sum(_logsumexp(log_transition[j] + g, axis=-1)))


def likelihood_relay(
    y12_block: np.ndarray,
    bits: np.ndarray,
    model: RelayErrorModel,
    amplitude: float,
    noise_power: float,
    relay_constellation: Constellation,
) -> float:
    """Density form of log_likelihood_relay, floored at 1e-300."""
    return math.exp(max(
        log_likelihood_relay(y12_block, bits, model, amplitude, noise_power, relay_constellation),
        _LOG_FLOOR,
    ))


@dataclass(frozen=True, eq=False)
class LlrBlock:
    """Per-coded-bit likelihood ratios (ratio form; > 1 favors bit = 1)."""

    values: np.ndarray

    @property
    def log_values(self) -> np.ndarray:
        return np.log(self.values)

    @property
    def hard_decisions(self) -> np.ndarray:
        return (self.values > 1.0).astype(np.int8)


def mld_llr(
    y2_block: np.ndarray,
    observation: Optional[RelayObservation],
    shape: BlockShape,
    source_constellation: Constellation,
    relay_constellation: Constellation,
    source_amplitude: float,
    direct_noise_power: float,
) -> LlrBlock:
    """Single-block form of coopbc.df.mld_llr_batch, with one partner branch
    or none."""
    out = mld_llr_batch(
        np.asarray(y2_block)[None, :],
        [None if observation is None else RelayObservation(
            np.asarray(observation.y12)[None, :], observation.amplitude,
            observation.noise_power, observation.model)],
        shape,
        source_constellation,
        relay_constellation,
        source_amplitude,
        direct_noise_power,
    )
    return LlrBlock(out[0, 0])


# ---------------------------------------------------------------------------
# Dense relay law and the 2^n-candidate ML detector
# ---------------------------------------------------------------------------


def relay_law_dense(
    axis_law: np.ndarray,
    source_constellation: Constellation,
    relay_constellation: Constellation,
    shape: BlockShape,
) -> np.ndarray:
    """Mr x Mr substitution law of the decode-and-remap chain, pooled
    (averaged) over the r relay symbols of a block.

    A source symbol's law is the Kronecker square of `axis_law` (BPSK has
    one axis). Source symbols are decided independently, so relay symbol p's
    law is the Kronecker product, over the source symbols its bits overlap,
    of each one's law marginalized onto those bits: the mean over the
    intended bits outside the overlap (they are uniform) and the sum over the
    decided ones.
    """
    law = axis_law if source_constellation.order == 2 else np.kron(axis_law, axis_law)
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
    return transition


def _dense_relay_table(
    obs: RelayObservation,
    source_constellation: Constellation,
    relay_constellation: Constellation,
    shape: BlockShape,
) -> np.ndarray:
    """(T, r, Mr) log likelihoods of every intended relay symbol j, mixed
    over the dense pooled law with no floor: log sum_l law[j, l] exp(g_l).
    The sum is a product shifted by the largest g_l of the sample; an entry
    that falls more than 600 nats below that shift, where the product loses
    digits or reaches 0, is summed again in the log domain, shifted by its
    own largest term."""
    law = relay_law_dense(obs.model.axis_law, source_constellation, relay_constellation, shape)
    g = (
        -np.abs(obs.y12[:, :, None] - obs.amplitude * relay_constellation.points) ** 2
        / obs.noise_power
        - math.log(math.pi * obs.noise_power)
    )
    top = g.max(axis=-1, keepdims=True)
    with np.errstate(divide="ignore"):
        table = top + np.log(np.exp(g - top) @ law.T)
        log_law = np.log(law)
    for t, p, j in zip(*np.nonzero(table - top < -600.0)):
        table[t, p, j] = _logsumexp(g[t, p] + log_law[j], axis=-1)
    return table


def mld_llr_dense(
    y2: np.ndarray,
    observations: Sequence[RelayObservation],
    shape: BlockShape,
    source_constellation: Constellation,
    relay_constellation: Constellation,
    source_amplitude: float,
    direct_noise_power: float,
) -> np.ndarray:
    """Per-bit likelihood ratios (T, n) of coopbc.df.mld_llr_batch, computed
    by enumerating all 2^n candidate bit vectors of a block and mixing every
    relay symbol over the dense pooled law of `relay_law_dense`, with no
    floor on the mixture (the detector floors it at 1e-300 per unit)."""
    n, trials = shape.n, y2.shape[0]
    count = 1 << n
    bits = ((np.arange(count)[:, None] >> np.arange(n - 1, -1, -1)) & 1).astype(np.int8)
    src_idx = source_constellation.bits_to_indices(bits)
    rel_idx = relay_constellation.bits_to_indices(bits)
    pts = source_amplitude * source_constellation.points
    direct_tab = (
        -np.abs(y2[:, :, None] - pts) ** 2 / direct_noise_power
        - math.log(math.pi * direct_noise_power)
    )
    total = np.zeros((trials, count))
    for i in range(shape.s):
        total += direct_tab[:, i, src_idx[:, i]]
    for obs in observations:
        relay_tab = _dense_relay_table(obs, source_constellation, relay_constellation, shape)
        for i in range(shape.r):
            total += relay_tab[:, i, rel_idx[:, i]]
    lik = np.exp(total - total.max(axis=1, keepdims=True))
    num = lik @ bits
    den = lik @ (1 - bits)
    return np.maximum(num, 1e-300) / np.maximum(den, 1e-300)


# ---------------------------------------------------------------------------
# Relay pilot
# ---------------------------------------------------------------------------


def relay_pilot_counts(
    source_constellation: Constellation,
    relay_constellation: Constellation,
    shape: BlockShape,
    amplitude: float,
    noise_power: float,
    symbols: int = 100_000,
    seed: int = 0,
) -> np.ndarray:
    """Substitution counts[j, l] of the decode-and-remap chain run over
    pilot symbols at the relay's receive SNR: how often the relay sent l
    where a correct decode would have sent j, pooled over the r positions."""
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
    Mr = relay_constellation.order
    counts = np.zeros((Mr, Mr))
    for lo in range(0, blocks, 1 << 16):  # decode in chunks to bound the distance table
        part = slice(lo, lo + (1 << 16))
        decided = detect_min_distance(source_constellation, x[part] + noise[part], amplitude)
        sent = relay_constellation.bits_to_indices(source_constellation.indices_to_bits(decided))
        np.add.at(counts, (intended[part].ravel(), sent.ravel()), 1.0)
    return counts


def exact_qam_ber(order: int, amplitude: float, noise_power: float) -> float:
    """Exact Gray square-QAM BER from separable per-axis decision probabilities."""
    const = qam(order)
    if order == 2:
        return 0.5 * math.erfc(amplitude / math.sqrt(noise_power))
    m = const.bits_per_symbol
    sigma = math.sqrt(noise_power / 2.0)
    pts = amplitude * const.points
    levels = np.unique(np.round(pts.real, 12))
    bounds = (levels[:-1] + levels[1:]) / 2.0

    def cdf(x: float) -> float:
        return 0.5 * math.erfc(-x / math.sqrt(2.0))

    def cell_probs(value: float) -> np.ndarray:
        edges = [-math.inf, *((b - value) / sigma for b in bounds), math.inf]
        return np.diff([cdf(e) for e in edges])

    re_idx = np.abs(pts.real[:, None] - levels).argmin(axis=1)
    im_idx = np.abs(pts.imag[:, None] - levels).argmin(axis=1)
    trans = np.array([cell_probs(v) for v in levels])
    labels = np.arange(order)
    ham = np.array([[bin(a ^ b).count("1") for b in labels] for a in labels])
    total = 0.0
    for j in range(order):
        p = trans[re_idx[j]][re_idx] * trans[im_idx[j]][im_idx]
        total += float(p @ ham[j]) / m
    return total / order


_popcount = np.vectorize(lambda v: bin(v).count("1"), otypes=[int])


def decision_law_ber(order: int, amplitude: float, noise_power: float) -> tuple[float, float]:
    """Exact bit error rate of minimum-distance detection of qam(order) at
    `amplitude` over complex Gaussian noise of `noise_power`, and the
    variance of the bit-error count of one axis sample: the decision law of
    one axis (`df._decision_law`, at the edges the detector slices at)
    weighted by the Hamming distance of its Gray labels. A uniform symbol
    carries a uniform label on each axis, and its axes err independently."""
    law = _decision_law(qam(order), amplitude, noise_power)
    labels = np.arange(len(law))
    distance = _popcount(labels[:, None] ^ labels)
    mean = float(np.sum(law * distance)) / len(law)
    second = float(np.sum(law * distance * distance)) / len(law)
    return mean / (len(law).bit_length() - 1), second - mean * mean


def _normal_tail(x: np.ndarray) -> np.ndarray:
    """P(X > x) for a standard normal X."""
    return 0.5 * np.vectorize(math.erfc, otypes=[float])(x / math.sqrt(2.0))


def bivariate_upper(h: np.ndarray, k: np.ndarray, rho: float) -> np.ndarray:
    """P(X > h, Y > k) for standard normals X, Y at correlation rho, for
    arrays h and k that broadcast, each entry in [-40, 40] (beyond that a
    tail is 0 in double precision).

    Drezner and Wesolowsky's method in Genz's form (Stat. Comput. 14, 2004)
    on 20 Gauss-Legendre nodes. Below |rho| = 0.925: the value at rho = 0
    plus Plackett's integral of the density over the correlation from 0,
    substituted r = sin(t). Above it (rho < 0 reflects k): the value at
    rho = 1, P(X > max(h, k)), less the integral from rho to 1, substituted
    x = sqrt(1 - r^2); the integrand's expansion to O(x^4) is integrated in
    closed form, and only the smooth remainder is summed on the nodes.
    """
    x, w = np.polynomial.legendre.leggauss(20)
    t, w = (x + 1.0) / 2.0, w / 2.0  # on [0, 1]
    tail_h, tail_k = _normal_tail(h), _normal_tail(k)
    hk = h * k
    if abs(rho) < 0.925:
        top = math.asin(rho)
        hs = (h * h + k * k) / 2.0
        acc = sum(wi * np.exp((sn * hk - hs) / (1.0 - sn * sn))
                  for sn, wi in zip(np.sin(top * t), w))
        return tail_h * tail_k + top / (2.0 * math.pi) * acc
    if rho < 0.0:  # P(X > h, Y > k) = P(X > h) - P(X > h, -Y > -k)
        return tail_h - bivariate_upper(h, -k, -rho)
    near = np.minimum(tail_h, tail_k)  # the value at rho = 1: P(X > max(h, k))
    if rho == 1.0:
        return near
    a2 = (1.0 - rho) * (1.0 + rho)
    a = math.sqrt(a2)
    bs = (h - k) ** 2
    b = np.sqrt(bs)
    c, d = (4.0 - hk) / 8.0, (12.0 - hk) / 16.0
    # the closed form: a term in exp(-hk / 2) P(Z > b / a), negligible and
    # liable to overflow (inf * 0) once hk < -160
    with np.errstate(over="ignore", invalid="ignore"):
        far = np.exp(-hk / 2.0) * math.sqrt(2.0 * math.pi) * _normal_tail(b / a) * b
        far = np.where(hk > -160.0, far * (1.0 - c * bs * (1.0 - d * bs / 5.0) / 3.0), 0.0)
    closed = (a * np.exp(-(bs / a2 + hk) / 2.0)
              * (1.0 - c * (bs - a2) * (1.0 - d * bs / 5.0) / 3.0 + c * d * a2 * a2 / 5.0) - far)
    remainder = 0.0
    for ti, wi in zip(t, w):
        xs = (a * ti) ** 2
        r = math.sqrt(1.0 - xs)
        remainder += wi * (np.exp(-bs / (2.0 * xs) - hk / (1.0 + r)) / r
                           - np.exp(-(bs / xs + hk) / 2.0) * (1.0 + c * xs * (1.0 + d * xs)))
    return near - (closed + a * remainder) / (2.0 * math.pi)


@functools.lru_cache(maxsize=None)
def _union_counts(order: int) -> np.ndarray:
    """[s, i, j]: popcount((l_s ^ l_i) | (l_s ^ l_j)) over the axis labels l
    of qam(order)'s levels s, i, j."""
    wrong = qam(order).labels[:, None] ^ qam(order).labels
    return _popcount(wrong[:, :, None] | wrong[:, None, :])


def decision_law_pe_sys(order: int, amplitude: float, N_I: float, N_II: float,
                        e: float) -> tuple[float, float]:
    """Exact joint error rate pe_sys of minimum-distance detection of
    qam(order) at `amplitude` on two outputs X + Z_I and X + Z_II whose
    complex noises have powers N_I, N_II and real cross-correlation e, and
    the variance of the union error count popcount((s ^ d_I) | (s ^ d_II))
    of one axis sample, where s is its sent axis label and d_I, d_II are the
    two decisions.

    On one real axis (Z_I, Z_II) has variances N_I / 2, N_II / 2 and
    covariance e / 2, so each pair of decision intervals holds a
    bivariate-normal rectangle mass at rho = e / sqrt(N_I N_II), taken from
    `bivariate_upper` on the (L + 1)^2 grid of edge pairs of each sent level.
    As in `decision_law_ber`, axes are uniform and err independently, and the
    rate is the mean count over the axis's bits.
    """
    const = qam(order)
    pos = amplitude * const.levels
    edges = np.concatenate([[-math.inf], const.edges(amplitude), [math.inf]])
    h, k = (np.clip((edges - pos[:, None]) / math.sqrt(N / 2.0), -40.0, 40.0) for N in (N_I, N_II))
    upper = bivariate_upper(h[:, :, None], k[:, None, :], e / math.sqrt(N_I * N_II))
    # [s, i, j]: sent level s, level i decided on output I and j on output II
    mass = upper[:, :-1, :-1] - upper[:, 1:, :-1] - upper[:, :-1, 1:] + upper[:, 1:, 1:]
    union = _union_counts(order)
    mean = float(np.sum(mass * union)) / len(pos)
    second = float(np.sum(mass * union * union)) / len(pos)
    return mean / const.axis_bits, second - mean * mean


# ---------------------------------------------------------------------------
# Scenario writer
# ---------------------------------------------------------------------------


def serialize_scenario(s: Scenario) -> str:
    """Render a Scenario back to INI text; parsing the result reproduces the
    scenario exactly (floats are written with full precision)."""
    cp = configparser.ConfigParser()
    p = s.params
    cp["channel"] = {
        "p": repr(p.P), "n1": repr(p.n1), "n2": repr(p.n2), "n12": repr(p.n12),
        "n21": repr(p.n21), "p12": repr(p.P12), "p21": repr(p.P21), "b": repr(p.B),
    }
    coop = {
        "protocol": s.config.protocol.value,
        "scheme": "symmetric" if isinstance(s.config.scheme, Symmetric) else "asymmetric",
        "strategy": s.config.strategy.value,
        "regime": s.config.regime.value,
        "k": str(s.config.count),
        "k_max": str(s.k_max),
        "coop_bandwidth_fraction": repr(s.coop_bandwidth_fraction),
    }
    if isinstance(s.config.scheme, Asymmetric):
        coop["starter"] = "r1" if s.config.scheme.starter is Receiver.R1 else "r2"
    cp["cooperation"] = coop
    cp["modulation"] = {"source_order": str(s.source_order)}
    trials = {"trials": str(s.trial.trials), "seed": str(s.trial.seed), "combiner": s.combiner,
              "relay_model": s.relay_model}
    if s.trial.target_half_width is not None:
        trials["target_half_width"] = repr(s.trial.target_half_width)
    cp["trials"] = trials
    cp["regions"] = {
        "grid_points": str(s.grid_points),
        "grid_min": repr(s.grid_min),
        "grid_max": repr(s.grid_max),
        "ratios_db": ", ".join(repr(r) for r in s.ratios_db),
    }
    buf = io.StringIO()
    cp.write(buf)
    return buf.getvalue()


# ---------------------------------------------------------------------------
# CLI output
# ---------------------------------------------------------------------------


def format_cell(value) -> str:
    """One CSV cell: text as is, Python and numpy integers in decimal, every
    other number with 12 significant digits."""
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".12g")


def write_csv(stream, header: Sequence[str], rows) -> None:
    """The header line and one line per row, through `csv.writer`."""
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([format_cell(v) for v in row])
