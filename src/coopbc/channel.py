"""Physical-channel parameterization and spectral-resource accounting.

One source broadcasts a common message to two receivers over downlink channels
with noise densities n1, n2. The receivers help each other over an orthogonal
(frequency-division) cooperation link with noise densities n12 (receiver 1 to
receiver 2) and n21, spending total cooperation power budgets P12, P21.

Two regimes split the spectrum: under H1 the total bandwidth B is fixed and the
downlink shrinks as cooperation sub-channels are added; under H2 the downlink
keeps the full bandwidth B and cooperation bandwidth is added on top.

Each receiver spends its cooperation budget evenly over its own transmissions.
Under the symmetric scheme both receivers send every round; under the
asymmetric scheme the starter sends ceil(K/2) times and its partner floor(K/2)
times, alternating. `transmissions` gives the send counts, and
`power_schedule` the per-send powers as a two-row period.
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
    """Both receivers transmit one cooperation signal per round; `count` rounds."""

    count: int

    def __post_init__(self) -> None:
        if self.count < 0:
            raise ValueError(f"pair count must be >= 0, got {self.count}")


@dataclass(frozen=True)
class Asymmetric:
    """Receivers alternate single transmissions, `starter` first; `count` in total."""

    count: int
    starter: Receiver = Receiver.R1

    def __post_init__(self) -> None:
        if self.count < 0:
            raise ValueError(f"exchange count must be >= 0, got {self.count}")


Scheme = Union[Symmetric, Asymmetric]


@dataclass(frozen=True)
class ChannelParams:
    """Linear-unit channel parameters (dB exists only at the CLI boundary).

    P: source transmit power (W); n1, n2: downlink noise densities (W/Hz);
    n12, n21: cooperation-link noise densities (W/Hz); P12, P21: cooperation
    power budgets (W, may be zero); B: reference bandwidth (Hz). Each density
    times B must be a finite noise power.
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
        # a plan integrates each density over a band of at most B
        for name in ("n1", "n2", "n12", "n21"):
            if getattr(self, name) * self.B == math.inf:
                raise ValueError(f"{name} = {getattr(self, name):g} times the band B = {self.B:g} "
                                 "overflows the noise power")


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
        return replace(self, scheme=replace(self.scheme, count=k))


@dataclass(frozen=True)
class BandwidthPlan:
    """Bandwidth split and the resulting integrated noise powers (W). Every
    cooperation sub-channel is B_DL wide, so N12 and N21 integrate over B_DL;
    only `mc.simulate_df` narrows a sub-channel, to a fraction of B_DL."""

    B_DL: float
    B_C: float
    N1: float
    N2: float
    N12: float
    N21: float


def plan_bandwidth(params: ChannelParams, config: CoopConfig) -> BandwidthPlan:
    """Split the spectrum for the configured scheme, count and regime.

    With n cooperation sub-channels, fixed total bandwidth (H1) gives
    B_DL = B/(n+1), fixed downlink bandwidth (H2) gives B_DL = B; either way
    B_C = n * B_DL, so K = 0 yields B_DL = B, B_C = 0 under both regimes.
    """
    n_coop = sum(transmissions(config))  # cooperation sub-channels
    B_DL = params.B / (n_coop + 1) if config.regime is Regime.H1 else params.B
    return BandwidthPlan(
        B_DL=B_DL,
        B_C=n_coop * B_DL,
        N1=params.n1 * B_DL,
        N2=params.n2 * B_DL,
        N12=params.n12 * B_DL,
        N21=params.n21 * B_DL,
    )


def transmissions(config: CoopConfig) -> tuple[int, int]:
    """Cooperation transmissions (n1, n2) that receivers 1 and 2 send in a
    campaign: K each under the symmetric scheme; ceil(K/2) for the starter
    and floor(K/2) for its partner under the asymmetric scheme."""
    k = config.count
    scheme = config.scheme
    if isinstance(scheme, Symmetric):
        return k, k
    first, second = (k + 1) // 2, k // 2
    return (first, second) if scheme.starter is Receiver.R1 else (second, first)


def power_schedule(params: ChannelParams, config: CoopConfig) -> np.ndarray:
    """Cooperation power sent from receiver 1 to 2 and from 2 to 1, as a (2, 2)
    period: exchange t (from 0) sends row t % 2.

    Each receiver spends its budget evenly over its own transmissions (zero
    when it sends none). Symmetric: both rows carry both powers. Asymmetric:
    row 0 carries the starter's power, row 1 its partner's.
    """
    budgets = (params.P12, params.P21)
    per_send = [b / n if n else 0.0 for b, n in zip(budgets, transmissions(config))]
    if isinstance(config.scheme, Symmetric):
        return np.array([per_send, per_send])
    period = np.diag(per_send)  # row r: receiver r + 1 sends
    return period if config.scheme.starter is Receiver.R1 else period[::-1]
