"""Scenario files: a flat INI format resolving to channel parameters, a
cooperation configuration, and run settings.

The [channel] section accepts either the four-tuple SNR form in dB —
snr1, snr2, snr12, snr21, the downlink and cooperation SNRs over the full
band — or explicit linear-unit keys (p, n1, n2, n12, n21, p12, p21); mixing
the two is an error. The dB form resolves to unit transmit power and unit
cooperation noise densities so each stated SNR is reproduced exactly.
"""
from __future__ import annotations

import configparser
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union

from .channel import (
    Asymmetric,
    ChannelParams,
    CoopConfig,
    Protocol,
    Receiver,
    Regime,
    Scheme,
    Strategy,
    Symmetric,
)
from .errors import ScenarioError
from .mc import TrialConfig

__all__ = ["Scenario", "parse_scenario", "parse_scenario_text"]

_DB_KEYS = ("snr1", "snr2", "snr12", "snr21")
_LINEAR_KEYS = ("p", "n1", "n2", "n12", "n21", "p12", "p21")
_KNOWN = {
    "channel": set(_DB_KEYS) | set(_LINEAR_KEYS) | {"b"},
    "cooperation": {
        "protocol", "scheme", "strategy", "regime", "k", "k_max", "starter",
        "coop_bandwidth_fraction",
    },
    "modulation": {"source_order", "relay_order"},
    "trials": {"trials", "seed", "target_half_width", "combiner", "relay_model"},
    "regions": {"grid_points", "grid_min", "grid_max", "ratios_db"},
}


@dataclass(frozen=True)
class Scenario:
    """Fully resolved run description (linear units throughout)."""

    params: ChannelParams
    config: CoopConfig
    k_max: int
    source_order: int
    relay_order: Optional[int]
    coop_bandwidth_fraction: Optional[float]
    trial: TrialConfig
    combiner: str
    relay_model: str
    grid_points: int
    grid_min: float
    grid_max: float
    ratios_db: tuple[float, ...]


class _Section:
    """Typed, error-reporting access to one INI section."""

    def __init__(self, name: str, values: dict[str, str]):
        self.name = name
        self.values = values

    def __contains__(self, key: str) -> bool:
        return key in self.values

    def raw(self, key: str, default: Optional[str] = None) -> Optional[str]:
        return self.values.get(key, default)

    def _convert(self, key: str, kind: type, default):
        raw = self.values.get(key)
        if raw is None:
            return default
        try:
            return kind(raw)
        except ValueError:
            raise ScenarioError(
                f"[{self.name}] {key}: expected {kind.__name__}, got {raw!r}"
            ) from None

    def number(self, key: str, default: Optional[float] = None) -> Optional[float]:
        return self._convert(key, float, default)

    def integer(self, key: str, default: Optional[int] = None) -> Optional[int]:
        return self._convert(key, int, default)

    def choice(self, key: str, options: dict[str, object], default: object) -> object:
        raw = self.values.get(key)
        if raw is None:
            return default
        token = raw.strip().lower()
        if token not in options:
            raise ScenarioError(
                f"[{self.name}] {key}: expected one of {sorted(options)}, got {raw!r}"
            )
        return options[token]

    def require(self, key: str) -> float:
        if key not in self.values:
            raise ScenarioError(f"[{self.name}] missing required key {key!r}")
        return self.number(key)


def _channel_params(sec: _Section) -> ChannelParams:
    has_db = [k for k in _DB_KEYS if k in sec]
    has_linear = [k for k in _LINEAR_KEYS if k in sec]
    if has_db and has_linear:
        raise ScenarioError(
            f"[channel] mixes dB keys {has_db} with linear keys {has_linear}"
        )
    B = sec.number("b", 1.0)
    try:
        if has_db:
            s1, s2, s12, s21 = (10.0 ** (sec.require(k) / 10.0) for k in _DB_KEYS)
            return ChannelParams(
                P=1.0, n1=1.0 / (B * s1), n2=1.0 / (B * s2),
                n12=1.0 / B, n21=1.0 / B, P12=s12, P21=s21, B=B,
            )
        if has_linear:
            vals = {k: sec.require(k) for k in _LINEAR_KEYS}
            return ChannelParams(
                P=vals["p"], n1=vals["n1"], n2=vals["n2"], n12=vals["n12"],
                n21=vals["n21"], P12=vals["p12"], P21=vals["p21"], B=B,
            )
    except ValueError as exc:
        raise ScenarioError(f"[channel] {exc}") from None
    raise ScenarioError(
        "[channel] needs either the dB keys snr1/snr2/snr12/snr21 or the "
        "linear keys p/n1/n2/n12/n21/p12/p21"
    )


def _coop_config(sec: _Section) -> tuple[CoopConfig, int, Optional[float]]:
    protocol = sec.choice("protocol", {"af": Protocol.AF, "df": Protocol.DF}, Protocol.AF)
    strategy = sec.choice("strategy", {"s1": Strategy.S1, "s2": Strategy.S2}, Strategy.S1)
    regime = sec.choice("regime", {"h1": Regime.H1, "h2": Regime.H2}, Regime.H1)
    scheme_kind = sec.choice(
        "scheme", {"symmetric": Symmetric, "asymmetric": Asymmetric}, Symmetric
    )
    k = sec.integer("k", 2)
    if k < 0:
        raise ScenarioError("[cooperation] k must be >= 0")
    starter = sec.choice("starter", {"r1": Receiver.R1, "r2": Receiver.R2}, None)
    if scheme_kind is Symmetric:
        if starter is not None:
            raise ScenarioError("[cooperation] starter only applies to the asymmetric scheme")
        scheme: Scheme = Symmetric(k)
    else:
        scheme = Asymmetric(k, starter or Receiver.R1)
    k_max = sec.integer("k_max", k)
    if k_max < 0:
        raise ScenarioError("[cooperation] k_max must be >= 0")
    fraction = sec.number("coop_bandwidth_fraction", None)
    if fraction is not None:
        if protocol is not Protocol.DF:
            raise ScenarioError(
                "[cooperation] coop_bandwidth_fraction only applies to the df protocol"
            )
        if not 0.0 < fraction <= 1.0:
            raise ScenarioError("[cooperation] coop_bandwidth_fraction must be in (0, 1]")
    return CoopConfig(protocol, scheme, strategy, regime), k_max, fraction


def _ratios(sec: _Section) -> tuple[float, ...]:
    raw = sec.raw("ratios_db", "-30, -10, 0, 10, 30")
    try:
        return tuple(float(tok) for tok in raw.split(","))
    except ValueError:
        raise ScenarioError(f"[regions] ratios_db: expected comma-separated numbers, got {raw!r}")


def parse_scenario_text(text: str, origin: str = "<scenario>") -> Scenario:
    """Parse scenario INI text into a fully resolved Scenario."""
    parser = configparser.ConfigParser()
    try:
        parser.read_string(text, source=origin)
    except configparser.Error as exc:
        raise ScenarioError(str(exc)) from None
    sections: dict[str, _Section] = {}
    for name in parser.sections():
        if name not in _KNOWN:
            raise ScenarioError(f"unknown section [{name}]; expected one of {sorted(_KNOWN)}")
        values = dict(parser.items(name))
        unknown = set(values) - _KNOWN[name]
        if unknown:
            raise ScenarioError(f"[{name}] unknown key(s) {sorted(unknown)}")
        sections[name] = _Section(name, values)
    if "channel" not in sections:
        raise ScenarioError("missing required section [channel]")
    params = _channel_params(sections["channel"])
    config, k_max, fraction = _coop_config(sections.get("cooperation", _Section("cooperation", {})))
    mod = sections.get("modulation", _Section("modulation", {}))
    trials = sections.get("trials", _Section("trials", {}))
    regions = sections.get("regions", _Section("regions", {}))

    try:
        trial = TrialConfig(trials.integer("trials", 100_000), seed=trials.integer("seed", 0),
                            target_half_width=trials.number("target_half_width", None))
    except ValueError as exc:
        raise ScenarioError(f"[trials] {exc}") from None
    combiner = trials.choice("combiner", {"mld": "mld", "mrc": "mrc"}, "mld")
    relay_model = trials.choice("relay_model", {"exact": "exact", "genie": "genie"}, "exact")
    grid_points = regions.integer("grid_points", 21)
    if grid_points < 2:
        raise ScenarioError("[regions] grid_points must be >= 2")
    grid_min = regions.number("grid_min", 1e-2)
    grid_max = regions.number("grid_max", 1e2)
    if not 0.0 < grid_min < grid_max:
        raise ScenarioError("[regions] need 0 < grid_min < grid_max")
    source_order = mod.integer("source_order", 4)
    relay_order = mod.integer("relay_order", None)
    return Scenario(
        params=params,
        config=config,
        k_max=k_max,
        source_order=source_order,
        relay_order=relay_order,
        coop_bandwidth_fraction=fraction,
        trial=trial,
        combiner=combiner,
        relay_model=relay_model,
        grid_points=grid_points,
        grid_min=grid_min,
        grid_max=grid_max,
        ratios_db=_ratios(regions),
    )


def parse_scenario(path: Union[str, Path]) -> Scenario:
    """Parse a scenario file."""
    p = Path(path)
    try:
        text = p.read_text()
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario {p}: {exc}") from None
    return parse_scenario_text(text, origin=str(p))

