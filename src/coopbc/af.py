"""Analytic equivalent-SNR engine for amplify-and-forward cooperation.

Every signal a receiver handles is linear in the common message X and in the
elementary noises (two downlink noises plus one noise per cooperation
transmission). A combiner output is only defined up to scale, so every one is
kept at unit signal gain, Y = X + Z, and its equivalent SNR is P / Var(Z).

The state of a scenario is the 4x4 covariance of the noise vector
(Z_I, Z_II, Z_1, Z_2): the two combiner outputs and the two original downlink
noises. At every cooperation step a destination maximum-ratio-combines a kept
unit-gain signal with a branch g (X + Z_fwd) + W, where W is cooperation noise
independent of everything before it. One rule serves both strategies:

- forward-latest (S1) keeps the destination's own output and receives the
  partner's output, with the relay gain a and cooperation noise N_c;
- forward-original (S2) keeps the destination's direct signal and receives the
  partner's direct signal. All m branches received so far have equal gain, so
  their sum is a sufficient statistic: one branch with gain m a and noise
  m N_c.

The recursion runs for a batch of scenarios at once (leading axis), which is
how rate sweeps and decision regions evaluate many counts and grid points.
The final (Z_I, Z_II) block is the noise law the Monte Carlo sampler draws.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .channel import (
    BandwidthPlan,
    ChannelParams,
    CoopConfig,
    Strategy,
    plan_bandwidth,
    power_schedule,
)

__all__ = [
    "SnrState",
    "SnrTrajectory",
    "evolve",
    "final_covariance",
    "campaign",
    "run_recursion",
    "s2_closed_form",
]

# A combine whose 2x2 branch noise covariance has a determinant this small
# relative to the product of its variances is singular to rounding: the branch
# repeats the kept signal, carries no new information and is skipped.
_SINGULAR = 1e-12


@dataclass(frozen=True)
class SnrState:
    """Combiner state of both receivers after exchange `i`, at unit signal gain.

    N_*: equivalent noise powers; e: noise cross-correlation E[Z_I Z_II*]
    (real in this model); rho_* = P / N_*: equivalent SNRs.
    """

    i: int
    N_I: float
    N_II: float
    e: float
    rho_I: float
    rho_II: float


@dataclass(frozen=True)
class SnrTrajectory:
    states: tuple[SnrState, ...]


def evolve(
    P, noises: np.ndarray, periods: np.ndarray, counts: np.ndarray, forward_original: bool
) -> Iterator[np.ndarray]:
    """Run the unit-gain covariance recursion for S scenarios at once.

    P: source power, (S,) or a scalar; noises: (S, 4) plan noise powers
    (N1, N2, N12, N21); periods: (S, 2, 2) power schedules (see
    `channel.power_schedule`): step t sends row t % 2, the power from
    receiver 1 to 2 and from 2 to 1, zero where silent; counts: (S,) steps
    per scenario, all silent past its count. Yields max(counts) + 1
    covariances (S, 4, 4): the initial state, then one per step. A silent or
    singular combine leaves its receiver's state exactly as it was.
    """
    S, K = len(counts), int(np.max(counts, initial=0))
    N1, N2, N12, N21 = np.moveaxis(np.asarray(noises, dtype=float), -1, 0)
    P = np.asarray(P, dtype=float)[..., None]
    C = np.zeros((S, 4, 4))
    C[:, [0, 0, 2, 2], [0, 2, 0, 2]] = N1[:, None]
    C[:, [1, 1, 3, 3], [1, 3, 1, 3]] = N2[:, None]
    eye = np.eye(4)
    yield C
    # column d is receiver d: what it keeps (k), what its partner forwards (f),
    # and the cooperation noise of the link it listens to
    rx = np.array([0, 1])
    k, f = (rx + 2, 3 - rx) if forward_original else (rx, 1 - rx)
    coop_noise = np.stack([N21, N12], axis=-1)
    repeats = np.zeros((S, 2))
    unchanged = np.broadcast_to(eye[2:], (S, 2, 4))  # the downlink noises
    for t in range(K):
        # power each receiver hears
        p = np.where((t < counts)[:, None], periods[:, t % 2, ::-1], 0.0)
        live = p > 0.0
        repeats += live
        m = repeats if forward_original else 1.0
        Nk, Nf, c = C[:, k, k], C[:, f, f], C[:, k, f]
        with np.errstate(divide="ignore", invalid="ignore"):
            a2 = p / (P + Nf)
            Nb = Nf + coop_noise / (m * a2)  # branch noise at unit gain
            live &= Nk * Nb - c * c > _SINGULAR * Nk * Nb
            D, E = Nb - c, Nk - c
            w_k, w_b = D / (D + E), E / (D + E)
            # combined noise power (Nk Nb - c^2) / (D + E), in a form that does
            # not cancel when one branch is far noisier than the other
            var = c + D * E / (D + E)
        rows = np.zeros((S, 2, 4))
        rows[:, rx, k] = w_k
        rows[:, rx, f] = w_b
        T = np.concatenate([np.where(live[..., None], rows, eye[:2]), unchanged], axis=1)
        C = T @ C @ T.transpose(0, 2, 1)
        C[:, rx, rx] = np.where(live, var, C[:, rx, rx])
        yield C


def final_covariance(
    P, noises: np.ndarray, periods: np.ndarray, counts: np.ndarray, forward_original: bool
) -> np.ndarray:
    """Covariance (S, 4, 4) after the last step of `evolve`."""
    for C in evolve(P, noises, periods, counts, forward_original):
        pass
    return C


def _state(i: int, P: float, C: np.ndarray) -> SnrState:
    N_I, N_II = float(C[0, 0]), float(C[1, 1])
    return SnrState(i, N_I, N_II, float(C[0, 1]), P / N_I, P / N_II)


def _plan_noises(plan: BandwidthPlan) -> tuple[float, float, float, float]:
    return plan.N1, plan.N2, plan.N12, plan.N21


def campaign(params: ChannelParams, config: CoopConfig) -> SnrTrajectory:
    """Run one cooperation campaign of the config's count of scheme steps
    under its bandwidth plan and power schedule.

    The trajectory holds one state per step, index 0 = before cooperation at
    this campaign's bandwidth plan.
    """
    steps = evolve(params.P, np.array([_plan_noises(plan_bandwidth(params, config))]),
                   power_schedule(params, config)[None], np.array([config.count]),
                   config.strategy is Strategy.S2)
    return SnrTrajectory(tuple(_state(i, params.P, C[0]) for i, C in enumerate(steps)))


def run_recursion(params: ChannelParams, config: CoopConfig, K: int) -> SnrTrajectory:
    """Equivalent SNRs as a function of the exchange count.

    Entry i is the final state of an i-step campaign run under the bandwidth
    plan and power schedule belonging to count i (entry 0 = pure broadcast), so
    the trajectory answers "what do the receivers end up with if the system is
    provisioned for i exchanges". All counts run as one batch.
    """
    if K < 0:
        raise ValueError("exchange count must be >= 0")
    configs = [config.with_count(k) for k in range(K + 1)]
    C = final_covariance(params.P,
                         np.array([_plan_noises(plan_bandwidth(params, c)) for c in configs]),
                         np.array([power_schedule(params, c) for c in configs]),
                         np.arange(K + 1), config.strategy is Strategy.S2)
    return SnrTrajectory(tuple(_state(k, params.P, C[k]) for k in range(K + 1)))


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

