"""Analytic equivalent-SNR engine for amplify-and-forward cooperation.

Every signal a receiver handles is linear in the common message X and in the
elementary noises (two downlink noises plus one noise per cooperation
transmission). A combiner output is only defined up to scale, so every one is
kept at unit signal gain, Y = X + Z, and its equivalent SNR is P / Var(Z).

At every cooperation step a destination maximum-ratio-combines a kept
unit-gain signal with a branch g (X + Z_fwd) + W, where W is cooperation noise
independent of everything before it. The state of a scenario is what the next
combine reads: the noise powers N_I, N_II of the two outputs and their
cross-correlation e.

- forward-latest (S1) keeps the destination's own output and receives the
  partner's output. A batch steps the three arrays elementwise, on the slice
  of a count-ordered batch that is still cooperating; a single campaign steps
  its trajectory on Python floats, with the same operations in the same
  order, so both agree bit for bit.
- forward-original (S2) keeps the destination's direct signal and receives
  the partner's direct signal. The m branches received so far have equal
  gain, so their sum is one branch with gain m a and noise m N_c. Every
  combine rebuilds the output from the direct signals, whose noises are
  independent, so a state is a closed form of the branch counts: O(1) per
  count, with no loop over steps.

Sweeps (`run_recursion`, the Monte Carlo sweeps) read their final states from
one `final_state` batch per strategy; only `campaign` steps a trajectory.

A silent branch, a combine singular to rounding (the branch repeats the kept
signal) and one whose noise product overflows leave the receiver unchanged.
No step calls BLAS, so results do not depend on the BLAS kernel.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# plan_bandwidth is not called here, but bench/tracing.py wraps it under this module's name
from .channel import ChannelParams, CoopConfig, Strategy, plan_bandwidth, plan_sweep  # noqa: F401

__all__ = ["SnrState", "final_state", "campaign", "run_recursion"]

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


# a silent or overflowing branch is skipped, not reported
@np.errstate(divide="ignore", over="ignore", invalid="ignore")
def _combine(P: float, N: np.ndarray, c: np.ndarray | float, Nc: np.ndarray,
             p: np.ndarray, m: np.ndarray | float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Both receivers' combines, receiver d in column d: kept noise N, the
    partner's column of N forwarded, cross term c, m branches of power p over
    cooperation noise Nc. Returns the weights on the kept signal and on the
    branch, and the new noise powers; a skipped combine has weights (1, 0)."""
    Nf = N[:, ::-1]
    a2 = p / (P + Nf)
    Nb = Nf + Nc / (m * a2)  # branch noise at unit gain
    D, E = Nb - c, N - c
    DE = D + E
    # combined noise power (N Nb - c^2) / (D + E), in a form that does not
    # cancel when one branch is far noisier than the other
    var = c + D * E / DE
    NNb = N * Nb
    live = (p > 0.0) & (NNb - c * c > _SINGULAR * NNb)
    return np.where(live, D / DE, 1.0), np.where(live, E / DE, 0.0), np.where(live, var, N)


def _cross(w_k, w_b, N, e):
    """Cross-correlation of the two outputs after the combines of `_combine`
    from (receiver 1, receiver 2) pairs of kept weights, branch weights and
    kept noises, Python floats or columns; bit-exact under a receiver swap."""
    (k1, k2), (b1, b2), (N1, N2) = w_k, w_b, N
    return (k1 * k2 + b1 * b2) * e + ((k1 * b2) * N1 + (b1 * k2) * N2)


def _forward_latest(
    P: float, noises: np.ndarray, periods: np.ndarray, counts: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The S1 state (N, e), N = (N_I, N_II) per row, after the steps of
    ascending `counts`."""
    N, e = noises[:, :2].copy(), np.zeros(len(counts))
    Nc, heard = noises[:, [3, 2]], periods[:, :, ::-1]  # receiver 1 hears 2, and back
    # the scenarios still cooperating at step t: those from starts[t] on
    starts = np.searchsorted(counts, np.arange(counts[-1] if len(counts) else 0), side="right")
    for t, start in enumerate(starts.tolist()):
        Ns, es = N[start:], e[start:]
        w_k, w_b, var = _combine(P, Ns, es[:, None], Nc[start:], heard[start:, t % 2], 1.0)
        e[start:] = _cross(w_k.T, w_b.T, Ns.T, es)
        N[start:] = var
    return N, e


def _combine_one(P: float, N: float, Nf: float, c: float, Nc: float,
                 p: float) -> tuple[float, float, float]:
    """One receiver's `_combine` (m = 1) on Python floats, bit for bit. Every
    combine `_combine` skips (silent or NaN power, a gain that underflows to
    0, an overflowing or NaN noise product, a singular branch) returns
    (1, 0, N) before it could divide by zero, which a Python float raises."""
    if not p > 0.0:
        return 1.0, 0.0, N
    a2 = p / (P + Nf)
    if a2 == 0.0:
        return 1.0, 0.0, N
    Nb = Nf + Nc / a2
    NNb = N * Nb
    if not NNb - c * c > _SINGULAR * NNb:
        return 1.0, 0.0, N
    D, E = Nb - c, N - c
    DE = D + E
    return D / DE, E / DE, c + D * E / DE


def _trajectory(P: float, noises: list[float],
                period: list[list[float]], k: int) -> list[tuple[float, float, float]]:
    """The S1 states (N_I, N_II, e) before and after each of k steps of one
    scenario: `_forward_latest`'s arithmetic on Python floats."""
    N1, N2, N12, N21 = noises
    state = [(N1, N2, 0.0)]
    for t in range(k):
        (N_I, N_II, e), (p12, p21) = state[-1], period[t % 2]
        k1, b1, v1 = _combine_one(P, N_I, N_II, e, N21, p21)
        k2, b2, v2 = _combine_one(P, N_II, N_I, e, N12, p12)
        state.append((v1, v2, _cross((k1, k2), (b1, b2), (N_I, N_II), e)))
    return state


def final_state(
    P: float, noises: np.ndarray, periods: np.ndarray, counts: np.ndarray, forward_original: bool
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(N_I, N_II, e), each (S,), after `counts` (S,) steps of S scenarios
    with plan noise powers (S, 4) (N1, N2, N12, N21) and power periods
    (S, 2, 2) (see `channel.plan_sweep`: step t sends row t % 2)."""
    noises, counts = np.asarray(noises, dtype=float), np.asarray(counts)
    if forward_original:
        N, heard, steps = noises[:, :2], periods[:, :, ::-1], counts[:, None]
        # branches each receiver has heard: one per passed row that it hears
        m = (steps + 1) // 2 * (heard[:, 0] > 0.0) + steps // 2 * (heard[:, 1] > 0.0)
        p = np.maximum(heard[:, 0], heard[:, 1])  # the power of each branch heard
        w_k, w_b, var = _combine(P, N, 0.0, noises[:, [3, 2]], p, m)
        return var[:, 0], var[:, 1], _cross(w_k.T, w_b.T, N.T, 0.0)
    order = slice(None) if np.all(np.diff(counts) >= 0) else np.argsort(counts, kind="stable")
    N, e = _forward_latest(P, noises[order], periods[order], counts[order])
    state = np.empty((len(counts), 3))
    state[order, :2], state[order, 2] = N, e
    return state[:, 0], state[:, 1], state[:, 2]


def _states(P: float, steps: range | list[int], rows: list) -> tuple[SnrState, ...]:
    """One state per step and (N_I, N_II, e) row of Python floats; N = 0 is rho = inf."""
    return tuple(SnrState(i, a, b, c, P / a if a else np.inf, P / b if b else np.inf)
                 for i, (a, b, c) in zip(steps, rows))


def _finals(params: ChannelParams, configs: list[CoopConfig]) -> tuple[SnrState, ...]:
    """Each config's final state (i = its count), one `final_state` per strategy.
    Each config is planned alone, in config order, so a fault raises the line
    of the first config at fault."""
    plans = [plan_sweep(params, c, [c.count]) for c in configs]
    noises, periods = (np.array([plan[part][0] for plan in plans]) for part in (1, 2))
    counts, rows = np.array([c.count for c in configs]), np.empty((len(configs), 3))
    for strategy in dict.fromkeys(c.strategy for c in configs):
        pick = np.array([c.strategy is strategy for c in configs])
        rows[pick] = np.column_stack(final_state(
            params.P, noises[pick], periods[pick], counts[pick], strategy is Strategy.S2))
    return _states(params.P, counts.tolist(), rows.tolist())


def campaign(params: ChannelParams, config: CoopConfig) -> tuple[SnrState, ...]:
    """Run one cooperation campaign of the config's count of scheme steps
    under its bandwidth plan and power schedule.

    Returns one state per step, index 0 = before cooperation at this
    campaign's bandwidth plan.
    """
    k, (_, noises, period, _) = config.count, plan_sweep(params, config, [config.count])
    if config.strategy is Strategy.S1:
        return _states(params.P, range(k + 1), _trajectory(
            params.P, noises[0].tolist(), period[0].tolist(), k))
    return _states(params.P, range(k + 1), np.column_stack(final_state(
        params.P, noises.repeat(k + 1, 0), period.repeat(k + 1, 0), np.arange(k + 1), True)).tolist())


def run_recursion(params: ChannelParams, config: CoopConfig, K: int) -> tuple[SnrState, ...]:
    """Equivalent SNRs as a function of the exchange count.

    Entry i is the final state of an i-step campaign run under the bandwidth
    plan and power schedule belonging to count i (entry 0 = pure broadcast), so
    the trajectory answers "what do the receivers end up with if the system is
    provisioned for i exchanges". All counts run as one batch.
    """
    if K < 0:
        raise ValueError("exchange count must be >= 0")
    _, noises, periods, _ = plan_sweep(params, config, range(K + 1))
    return _states(params.P, range(K + 1), np.column_stack(final_state(
        params.P, noises, periods, np.arange(K + 1), config.strategy is Strategy.S2)).tolist())
