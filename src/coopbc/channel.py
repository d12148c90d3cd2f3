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
times, alternating. `plan_sweep` is the one copy of these rules: it plans a
whole sweep of exchange counts as arrays, and `plan_bandwidth` is one row of it.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass, fields
from typing import Sequence, Union

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
        s = self.scheme
        scheme = Symmetric(k) if isinstance(s, Symmetric) else Asymmetric(k, s.starter)
        return CoopConfig(self.protocol, scheme, self.strategy, self.regime)


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


def plan_sweep(params: ChannelParams, config: CoopConfig, counts: Sequence[int]
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The plans of the config's scheme and regime at each of `counts` (S,),
    whatever its own count: bands (S, 2) (B_DL, B_C), noise powers (S, 4)
    (N1, N2, N12, N21), power periods (S, 2, 2) and sends (S, 2) (n1, n2).

    With n sends in all, one sub-channel each, H1 gives B_DL = B/(n+1) and H2
    B_DL = B; B_C = n * B_DL, and a noise power is its density times B_DL.
    Exchange t (from 0) sends row t % 2 of the period: both powers in both
    rows under the symmetric scheme; the starter's in row 0 and its partner's
    in row 1 under the asymmetric one. A subnormal B whose B_DL underflows to
    0 raises a ValueError naming b at the first such count.
    """
    k, scheme = np.asarray(counts, dtype=int), config.scheme
    if isinstance(scheme, Symmetric):
        sends, rows = np.column_stack([k, k]), np.ones((2, 2), dtype=bool)
    else:
        sends, rows = np.column_stack([(k + 1) // 2, k // 2]), np.eye(2, dtype=bool)
        if scheme.starter is Receiver.R2:
            sends, rows = sends[:, ::-1], rows[::-1]
    n = sends.sum(axis=1)  # cooperation sub-channels
    B_DL = params.B / (n + 1) if config.regime is Regime.H1 else np.full(len(n), params.B)
    if not B_DL.all():  # the first zero band is the first smallest
        raise ValueError(f"the downlink band B = {params.B:g} / {n[B_DL.argmin()] + 1} underflows "
                         "to 0; raise b")
    per_send = np.divide((params.P12, params.P21), sends, out=np.zeros(sends.shape),
                         where=sends > 0)
    return (np.column_stack([B_DL, n * B_DL]),
            B_DL[:, None] * (params.n1, params.n2, params.n12, params.n21),
            np.where(rows, per_send[:, None, :], 0.0), sends)


def plan_bandwidth(params: ChannelParams, config: CoopConfig) -> BandwidthPlan:
    """The bandwidth plan of the config's own count: row 0 of `plan_sweep`."""
    bands, noises, _, _ = plan_sweep(params, config, [config.count])
    return BandwidthPlan(*bands[0].tolist(), *noises[0].tolist())
