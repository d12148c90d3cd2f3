"""Independent reference implementations the tests compare the package with.

None of this is used by the package itself:

- the verbatim scalar AF recursion (one exchange per call, unnormalized
  weights, forwarding the latest combiner output);
- the coefficient-vector AF campaign, which represents every combiner output
  exactly as Y = alpha X + sum_k c_k zeta_k over the elementary noises and
  combines forward-original branches with a joint MRC solve, together with
  its per-combine mutual-information and ratio-form audits;
- a signal-level replay of that campaign on sampled elementary noises, which
  estimates the noise cross-correlation after every exchange;
- single-block DF likelihoods and the single-block ML detector wrapper.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np

from coopbc.channel import (
    BandwidthPlan,
    ChannelParams,
    CoopConfig,
    Receiver,
    Strategy,
    Symmetric,
    plan_bandwidth,
    power_per_exchange,
    transmitter_at,
)
from coopbc.df import (
    BlockShape,
    Constellation,
    RelayErrorModel,
    RelayObservation,
    mld_llr_batch,
)

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
    transmitter = starter if i % 2 == 1 else starter.other
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
# Coefficient-vector AF campaign
# ---------------------------------------------------------------------------


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


# ---------------------------------------------------------------------------
# Single-block DF likelihoods and detector
# ---------------------------------------------------------------------------


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
    log_transition = np.log(np.maximum(model.transition, 1e-300))
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
    observations: Sequence[RelayObservation],
    shape: BlockShape,
    source_constellation: Constellation,
    relay_constellation: Constellation,
    source_amplitude: float,
    direct_noise_power: float,
) -> LlrBlock:
    """Single-block form of coopbc.df.mld_llr_batch."""
    out = mld_llr_batch(
        np.asarray(y2_block)[None, :],
        [
            RelayObservation(np.asarray(o.y12)[None, :], o.amplitude, o.noise_power, o.model)
            for o in observations
        ],
        shape,
        source_constellation,
        relay_constellation,
        source_amplitude,
        direct_noise_power,
    )
    return LlrBlock(out[0])
