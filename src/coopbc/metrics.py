"""System-level performance criteria: worst-receiver rate, per-user and joint
error criteria, the noiseless-cooperation combining ceiling, the optimal
exchange count, and who-starts-first decision regions."""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import islice
from typing import Sequence

import numpy as np

# campaign is not called here, but bench/tracing.py wraps it under this module's name
from .af import campaign, final_state, run_recursion  # noqa: F401
from .channel import (
    Asymmetric,
    BandwidthPlan,
    ChannelParams,
    CoopConfig,
    Receiver,
    Strategy,
    plan_bandwidth,
    plan_sweep,
)

__all__ = [
    "RegionMap",
    "rate_af",
    "error_criteria",
    "simo_bound",
    "optimal_k",
    "decision_regions",
]

_TIE_TOL = 1e-12

# Grid points per `_starter_gaps` batch of `decision_regions`, two scenarios
# each (one per starter): 2^14 scenarios, which bounds the batch's memory.
_CHUNK = 1 << 13


def rate_af(plan: BandwidthPlan, rho_pair: tuple[float, float]) -> float:
    """Worst-receiver common-message rate B_DL * min_j log2(1 + rho_j) in bits/s
    (elementwise when B_DL or the SNRs are arrays)."""
    rho_I, rho_II = rho_pair
    return plan.B_DL * np.minimum(np.log2(1.0 + rho_I), np.log2(1.0 + rho_II))


def error_criteria(ber_I: float, ber_II: float, pe_sys: float) -> tuple[float, float]:
    """(pe_max, pe_sum): the larger of the two raw BERs (every user's minimum
    quality) and their sum (system average bound). Raises ValueError unless
    the joint error rate pe_sys lands in [pe_max, pe_sum]."""
    if not (0.0 <= ber_I <= 1.0 and 0.0 <= ber_II <= 1.0):
        raise ValueError("bit error rates must lie in [0, 1]")
    pe_max, pe_sum = max(ber_I, ber_II), ber_I + ber_II
    if not pe_max - 1e-15 <= pe_sys <= pe_sum + 1e-15:
        raise ValueError("joint error estimate violates the max/union sandwich")
    return pe_max, pe_sum


def simo_bound(params: ChannelParams) -> float:
    """Cooperation ceiling: the rate of a single receiver owning both downlink
    branches over the full band, B log2(1 + P/N1 + P/N2). It bounds every
    `rate_af`, so a ValueError naming b is raised when it alone overflows. A
    noise power that underflows to 0 is an infinite SNR."""
    B = params.B
    rho1, rho2 = (params.P / N if N else math.inf for N in (params.n1 * B, params.n2 * B))
    spectral = math.log2(1.0 + rho1 + rho2)
    if math.isinf(B * spectral) and math.isfinite(spectral):
        raise ValueError(f"the rate over the band B = {B:g} overflows; lower b")
    return B * spectral


def optimal_k(
    params: ChannelParams, config: CoopConfig, k_max: int
) -> tuple[int, tuple[float, ...]]:
    """Exchange count maximizing the worst-receiver rate over 0..k_max, with
    ties broken toward fewer exchanges; returns (K*, rate per count). Raises
    the ValueError of `simo_bound`, which bounds every rate."""
    simo_bound(params)
    rhos = [(st.rho_I, st.rho_II) for st in run_recursion(params, config, k_max)]
    bands, noises, _, _ = plan_sweep(params, config, range(k_max + 1))
    rates = tuple(rate_af(BandwidthPlan(*bands.T, *noises.T), np.array(rhos).T).tolist())
    best = 0
    for k, rate in enumerate(rates):
        if rate > rates[best] * (1.0 + _TIE_TOL) + _TIE_TOL:
            best = k
    return best, rates


@dataclass(frozen=True, eq=False)
class RegionMap:
    """Who-starts-first map: winners[r, i, j] is +1 when starting at receiver 1
    yields the higher rate at (n1, n2) = (grid[i], grid[j]) under cooperation
    power ratio ratios_db[r], -1 for receiver 2 and 0 for a tie; boundaries[r]
    is the polyline of refined crossing points (n1, n2) along each grid column."""

    grid: np.ndarray
    ratios_db: tuple[float, ...]
    winners: np.ndarray
    boundaries: tuple[tuple[tuple[float, float], ...], ...]


def _starter_gaps(params: ChannelParams, config: CoopConfig, plan: BandwidthPlan, n1: np.ndarray,
                  n2: np.ndarray, periods: np.ndarray, ratio: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Rate(start at receiver 1) - rate(start at receiver 2) and the rate
    scale at noise densities n1, n2 under the config's `plan` and the power
    periods (starter, budget split, 2, 2) of each starter (receiver 1 first)
    at split `ratio`, evaluated as one batch over both starters."""
    noises = np.stack([n1 * plan.B_DL, n2 * plan.B_DL,
                       np.full(n1.shape, plan.N12), np.full(n1.shape, plan.N21)], axis=-1)
    N_I, N_II, _ = final_state(params.P, np.concatenate([noises, noises]),
                               periods[:, ratio].reshape(-1, 2, 2),
                               np.full(2 * len(n1), config.count), config.strategy is Strategy.S2)
    # a subnormal noise density makes P / N infinite (an overflow, or a
    # division by a noise power that underflowed to 0); when both starters'
    # rates are infinite their gap is NaN, which compares as a tie
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        rates = rate_af(plan, (params.P / N_I, params.P / N_II))
        r1, r2 = np.split(rates, 2)
        return r1 - r2, np.maximum(np.maximum(r1, r2), 1.0)


def decision_regions(
    params: ChannelParams,
    config: CoopConfig,
    *,
    grid: Sequence[float],
    ratios_db: Sequence[float],
) -> RegionMap:
    """Which receiver should start cooperating, over a noise-density grid.

    The total cooperation budget params.P12 + params.P21 is reallocated per
    power ratio P12/P21; at every grid point the final worst-receiver rates of
    the two starter choices after the config's count of exchanges are
    compared. Boundary crossings along each n1 column are refined with one
    geometric bisection step.
    """
    if not isinstance(config.scheme, Asymmetric):
        raise ValueError("the starter comparison requires the asymmetric scheme")
    if config.count < 1:
        raise ValueError("the starter choice only exists for K >= 1")
    total = params.P12 + params.P21
    if not total > 0.0:
        raise ValueError("decision regions need a positive total cooperation budget")
    g = np.asarray(grid, dtype=float)
    if not np.all(np.isfinite(g) & (g > 0.0)):
        raise ValueError("the noise density grid must be finite and strictly positive")
    # a noise power is a density times a band of at most B
    top = float(g.max(initial=0.0))
    if top * params.B == math.inf:
        raise ValueError(f"a grid noise density of {top:g} times the band B = {params.B:g} "
                         "overflows the noise power; lower grid_max or b")
    ratios = [10.0 ** (r / 10.0) for r in ratios_db]
    budgets = [(total * r / (1.0 + r), total / (1.0 + r)) for r in ratios]
    plan = plan_bandwidth(params, config)  # the split ignores noises and budgets
    starts = [replace(config, scheme=replace(config.scheme, starter=r)) for r in Receiver]
    periods = np.array([[plan_sweep(replace(params, P12=p12, P21=p21), c, [c.count])[2][0]
                         for p12, p21 in budgets] for c in starts])
    winners = np.zeros((len(ratios), len(g), len(g)), dtype=np.int8)
    flat = winners.reshape(-1)
    for start in range(0, flat.size, _CHUNK):
        cells = np.arange(start, min(start + _CHUNK, flat.size))
        r_idx, i_idx, j_idx = np.unravel_index(cells, winners.shape)
        diffs, scale = _starter_gaps(params, config, plan, g[i_idx], g[j_idx], periods, r_idx)
        flat[cells[diffs > _TIE_TOL * scale]] = 1
        flat[cells[diffs < -_TIE_TOL * scale]] = -1

    # one geometric bisection step at every sign change along an n1 column;
    # the gap there has the sign of the winner
    r_c, i_c, j_c = np.nonzero(winners[:, :, :-1] * winners[:, :, 1:] < 0)
    lo, hi = g[j_c], g[j_c + 1]
    mid = np.sqrt(lo * hi)
    d_mid = np.empty(len(mid))
    for start in range(0, len(mid), _CHUNK):
        part = slice(start, start + _CHUNK)
        d_mid[part], _ = _starter_gaps(params, config, plan, g[i_c[part]], mid[part], periods,
                                       r_c[part])
    keep_lo = (d_mid > 0) == (winners[r_c, i_c, j_c] > 0)
    # boundary points in (r, i, j) order: every tie at its grid n2, every
    # crossing at its refined n2
    points_n2 = np.broadcast_to(g, winners.shape).copy()
    points_n2[r_c, i_c, j_c] = np.sqrt(np.where(keep_lo, mid, lo) * np.where(keep_lo, hi, mid))
    on_boundary = winners == 0
    on_boundary[r_c, i_c, j_c] = True
    r_b, i_b, j_b = np.nonzero(on_boundary)
    points = zip(g[i_b].tolist(), points_n2[r_b, i_b, j_b].tolist())
    per_ratio = np.bincount(r_b, minlength=len(ratios)).tolist()
    boundaries = tuple(tuple(islice(points, n)) for n in per_ratio)

    return RegionMap(g, tuple(float(r) for r in ratios_db), winners, boundaries)
