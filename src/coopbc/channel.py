"""Physical-channel parameterization and spectral-resource accounting.

One source broadcasts a common message to two receivers over downlink channels
with noise densities n1, n2. The receivers help each other over an orthogonal
(frequency-division) cooperation link with noise densities n12 (receiver 1 to
receiver 2) and n21, spending total cooperation power budgets P12, P21.

Two regimes split the spectrum: under H1 the total bandwidth B is fixed and the
downlink shrinks as cooperation sub-channels are added; under H2 the downlink
keeps the full bandwidth B and cooperation bandwidth is added on top.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass, fields, replace
from typing import Union

import numpy as np


class Protocol(enum.Enum):
    AF = "af"  # amplify-and-forward
    DF = "df"  # decode-and-forward


class Strategy(enum.Enum):
    """What a receiver forwards when cooperating."""

    S1 = "s1"  # latest combiner output
    S2 = "s2"  # original downlink signal


class Regime(enum.Enum):
    """Spectral-resource constraint."""

    H1 = "h1"  # total bandwidth fixed: B_DL + B_C = B
    H2 = "h2"  # downlink bandwidth fixed: B_DL = B


class Receiver(enum.Enum):
    R1 = 1
    R2 = 2

    @property
    def other(self) -> "Receiver":
        return Receiver.R2 if self is Receiver.R1 else Receiver.R1


@dataclass(frozen=True)
class Symmetric:
    """Both receivers transmit one cooperation signal per round; `pairs` rounds."""

    pairs: int

    def __post_init__(self) -> None:
        if self.pairs < 0:
            raise ValueError(f"pair count must be >= 0, got {self.pairs}")

    @property
    def count(self) -> int:
        return self.pairs


@dataclass(frozen=True)
class Asymmetric:
    """Receivers alternate single transmissions, `starter` first; `exchanges` total."""

    exchanges: int
    starter: Receiver = Receiver.R1

    def __post_init__(self) -> None:
        if self.exchanges < 0:
            raise ValueError(f"exchange count must be >= 0, got {self.exchanges}")

    @property
    def count(self) -> int:
        return self.exchanges


Scheme = Union[Symmetric, Asymmetric]


@dataclass(frozen=True)
class ChannelParams:
    """Linear-unit channel parameters (dB exists only at the CLI boundary).

    P: source transmit power (W); n1, n2: downlink noise densities (W/Hz);
    n12, n21: cooperation-link noise densities (W/Hz); P12, P21: cooperation
    power budgets (W, may be zero); B: reference bandwidth (Hz).
    """

    P: float
    n1: float
    n2: float
    n12: float
    n21: float
    P12: float
    P21: float
    B: float

    def __post_init__(self) -> None:
        for f in fields(self):
            if not math.isfinite(getattr(self, f.name)):
                raise ValueError(f"{f.name} must be finite")
        for name in ("P", "n1", "n2", "n12", "n21", "B"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be strictly positive")
        for name in ("P12", "P21"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be >= 0")


@dataclass(frozen=True)
class CoopConfig:
    """Cooperation protocol configuration.

    `strategy` is meaningful for AF only: a DF receiver always combines the
    cooperation signal with the signal received directly from the source.
    """

    protocol: Protocol
    scheme: Scheme
    strategy: Strategy
    regime: Regime

    @property
    def count(self) -> int:
        """Scheme-unit exchange count (pairs if symmetric, exchanges if asymmetric)."""
        return self.scheme.count

    def with_count(self, k: int) -> "CoopConfig":
        """Copy of this config with the scheme count replaced by `k`."""
        return replace(self, scheme=replace(self.scheme, **{_count_field(self.scheme): k}))


def _count_field(scheme: Scheme) -> str:
    return "pairs" if isinstance(scheme, Symmetric) else "exchanges"


def transmissions_per_step(scheme: Scheme) -> int:
    """Cooperation transmissions per scheme step (2 per symmetric round, 1 otherwise)."""
    return 2 if isinstance(scheme, Symmetric) else 1


@dataclass(frozen=True)
class BandwidthPlan:
    """Bandwidth split and the resulting integrated noise powers (W)."""

    B_DL: float
    deltaB: float
    B_C: float
    N1: float
    N2: float
    N12: float
    N21: float


def plan_bandwidth(params: ChannelParams, config: CoopConfig) -> BandwidthPlan:
    """Split the spectrum for the configured scheme, count and regime.

    Fixed total bandwidth: deltaB = B/(2*Ks+1) (symmetric) or B/(Ka+1)
    (asymmetric), with B_DL = deltaB. Fixed downlink bandwidth: deltaB = B_DL = B.
    K = 0 yields B_DL = B, B_C = 0 under both regimes.
    """
    B = params.B
    k = config.count
    n_coop = k * transmissions_per_step(config.scheme)  # cooperation sub-channels
    if n_coop == 0:
        B_DL, deltaB = B, B  # deltaB irrelevant without cooperation
    elif config.regime is Regime.H1:
        deltaB = B / (n_coop + 1)
        B_DL = deltaB
    else:
        B_DL = B
        deltaB = B
    B_C = n_coop * deltaB if n_coop else 0.0
    return BandwidthPlan(
        B_DL=B_DL,
        deltaB=deltaB,
        B_C=B_C,
        N1=params.n1 * B_DL,
        N2=params.n2 * B_DL,
        N12=params.n12 * deltaB,
        N21=params.n21 * deltaB,
    )


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
        other_power = 2.0 * _budget(params, scheme.starter.other) / k
    else:
        starter_power = 2.0 * _budget(params, scheme.starter) / (k + 1)
        other_power = 0.0 if k == 1 else 2.0 * _budget(params, scheme.starter.other) / (k - 1)
    p = {scheme.starter: starter_power, scheme.starter.other: other_power}
    return p[Receiver.R1], p[Receiver.R2]


def power_schedule(params: ChannelParams, config: CoopConfig) -> np.ndarray:
    """Cooperation power sent from receiver 1 to 2 and from 2 to 1 at each
    exchange 1..K, shape (K, 2); zero where a receiver is silent.

    Every transmission of one receiver in a campaign carries the same power,
    so the split of power_per_exchange is laid out over the transmission
    pattern of the scheme (both receivers every round, or alternating).
    """
    k = config.count
    schedule = np.zeros((k, 2))
    if k == 0:
        return schedule
    powers = power_per_exchange(params, config, 1)
    scheme = config.scheme
    if isinstance(scheme, Symmetric):
        schedule[:] = powers
    else:
        first = scheme.starter.value - 1
        schedule[0::2, first] = powers[first]
        schedule[1::2, 1 - first] = powers[1 - first]
    return schedule


def _budget(params: ChannelParams, receiver: Receiver) -> float:
    return params.P12 if receiver is Receiver.R1 else params.P21


def transmitter_at(scheme: Scheme, i: int) -> Receiver:
    """Which receiver transmits at asymmetric exchange `i` (starter at odd i)."""
    if not isinstance(scheme, Asymmetric):
        raise TypeError("exchange parity only applies to the asymmetric scheme")
    return scheme.starter if i % 2 == 1 else scheme.starter.other
