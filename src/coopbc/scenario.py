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
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Union

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


def _float(text: str) -> float:
    """A finite float: nan and +-inf are refused like any other non-number."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(text)
    return value


def _floats(text: str) -> tuple[float, ...]:
    return tuple(_float(token) for token in text.split(","))


# How each key of each section is read: a conversion of its text, or the
# tokens it accepts (case-insensitive) and what each stands for.
_KEYS: dict[str, dict[str, object]] = {
    "channel": dict.fromkeys((*_DB_KEYS, *_LINEAR_KEYS, "b"), _float),
    "cooperation": {
        "protocol": {"af": Protocol.AF, "df": Protocol.DF},
        "scheme": {"symmetric": Symmetric, "asymmetric": Asymmetric},
        "strategy": {"s1": Strategy.S1, "s2": Strategy.S2},
        "regime": {"h1": Regime.H1, "h2": Regime.H2},
        "starter": {"r1": Receiver.R1, "r2": Receiver.R2},
        "k": int, "k_max": int, "coop_bandwidth_fraction": _float,
    },
    "modulation": {"source_order": int},
    "trials": {
        "trials": int, "seed": int, "target_half_width": _float,
        "combiner": {"mld": "mld", "mrc": "mrc"},
        "relay_model": {"exact": "exact", "genie": "genie"},
    },
    "regions": {"grid_points": int, "grid_min": _float, "grid_max": _float, "ratios_db": _floats},
}
_EXPECTED = {int: "int", _float: "float", _floats: "comma-separated numbers"}
_REQUIRED = object()  # the default of a key that must be given


@dataclass(frozen=True)
class Scenario:
    """Fully resolved run description (linear units throughout)."""

    params: ChannelParams
    config: CoopConfig
    k_max: int
    source_order: int
    coop_bandwidth_fraction: float
    trial: TrialConfig
    combiner: str
    relay_model: str
    grid_points: int
    grid_min: float
    grid_max: float
    ratios_db: tuple[float, ...]


def _read(raw: dict[str, dict[str, str]], section: str, key: str, default: object = None):
    """The value of `key` in `section` as `_KEYS` reads it, or `default` when
    the key is absent."""
    text = raw.get(section, {}).get(key)
    if text is None:
        if default is _REQUIRED:
            raise ScenarioError(f"[{section}] missing required key {key!r}")
        return default
    kind = _KEYS[section][key]
    try:
        return kind[text.strip().lower()] if isinstance(kind, dict) else kind(text)
    except (KeyError, ValueError):
        expected = f"one of {sorted(kind)}" if isinstance(kind, dict) else _EXPECTED[kind]
        raise ScenarioError(f"[{section}] {key}: expected {expected}, got {text!r}") from None


def _linear(section: str, key: str, db: float, inverted: bool = False) -> float:
    """10^(db/10), refusing a dB value whose linear value overflows, or, when
    it is `inverted`, whose reciprocal is not a positive finite float."""
    try:
        value = 10.0 ** (db / 10.0)
        if not inverted or 0.0 < value and 1.0 / value < math.inf:
            return value
    except OverflowError:
        pass
    raise ScenarioError(f"[{section}] {key}: {db:g} dB is out of range")


def _channel_params(raw: dict[str, dict[str, str]]) -> ChannelParams:
    has_db = [k for k in _DB_KEYS if k in raw["channel"]]
    has_linear = [k for k in _LINEAR_KEYS if k in raw["channel"]]
    if has_db and has_linear:
        raise ScenarioError(f"[channel] mixes dB keys {has_db} with linear keys {has_linear}")
    B = _read(raw, "channel", "b", 1.0)
    try:
        if has_db:
            # a downlink SNR is inverted into a noise density; a cooperation
            # one is a budget, which may be 0
            s1, s2, s12, s21 = (_linear("channel", k, _read(raw, "channel", k, _REQUIRED),
                                        inverted=k in ("snr1", "snr2")) for k in _DB_KEYS)
            if not B > 0.0:
                raise ScenarioError("[channel] b must be strictly positive")
            # a product b * snr that underflows to 0 puts its density out of range
            n1, n2, n12 = (1.0 / x if x else math.inf for x in (B * s1, B * s2, B))
            for name, density in (("1 / (b * snr1)", n1), ("1 / (b * snr2)", n2), ("1 / b", n12)):
                if not 0.0 < density < math.inf:
                    raise ScenarioError(f"[channel] b: {B:g} puts the noise density {name} "
                                        "out of range")
            return ChannelParams(P=1.0, n1=n1, n2=n2, n12=n12, n21=n12, P12=s12, P21=s21, B=B)
        if has_linear:  # the linear keys are ChannelParams' fields in order
            return ChannelParams(*(_read(raw, "channel", k, _REQUIRED) for k in _LINEAR_KEYS), B=B)
    except ValueError as exc:
        raise ScenarioError(f"[channel] {exc}") from None
    raise ScenarioError("[channel] needs either the dB keys snr1/snr2/snr12/snr21 or the "
                        "linear keys p/n1/n2/n12/n21/p12/p21")


def _coop_config(raw: dict[str, dict[str, str]]) -> tuple[CoopConfig, int, float]:
    protocol = _read(raw, "cooperation", "protocol", Protocol.AF)
    strategy = _read(raw, "cooperation", "strategy", Strategy.S1)
    regime = _read(raw, "cooperation", "regime", Regime.H1)
    scheme_kind = _read(raw, "cooperation", "scheme", Symmetric)
    k = _read(raw, "cooperation", "k", 2)
    if k < 0:
        raise ScenarioError("[cooperation] k must be >= 0")
    starter = _read(raw, "cooperation", "starter")
    if scheme_kind is Symmetric:
        if starter is not None:
            raise ScenarioError("[cooperation] starter only applies to the asymmetric scheme")
        scheme: Scheme = Symmetric(k)
    else:
        scheme = Asymmetric(k, starter or Receiver.R1)
    k_max = _read(raw, "cooperation", "k_max", k)
    if k_max < 0:
        raise ScenarioError("[cooperation] k_max must be >= 0")
    fraction = _read(raw, "cooperation", "coop_bandwidth_fraction", 1.0)
    if not 0.0 < fraction <= 1.0:
        raise ScenarioError("[cooperation] coop_bandwidth_fraction must be in (0, 1]")
    return CoopConfig(protocol, scheme, strategy, regime), k_max, fraction


def parse_scenario_text(text: str, origin: str = "<scenario>") -> Scenario:
    """Parse scenario INI text into a fully resolved Scenario."""
    parser = configparser.ConfigParser()
    try:
        parser.read_string(text, source=origin)
    except configparser.Error as exc:
        raise ScenarioError(str(exc)) from None
    raw: dict[str, dict[str, str]] = {}
    for name in parser.sections():
        if name not in _KEYS:
            raise ScenarioError(f"unknown section [{name}]; expected one of {sorted(_KEYS)}")
        raw[name] = dict(parser.items(name))
        unknown = set(raw[name]) - set(_KEYS[name])
        if unknown:
            raise ScenarioError(f"[{name}] unknown key(s) {sorted(unknown)}")
    if "channel" not in raw:
        raise ScenarioError("missing required section [channel]")
    params = _channel_params(raw)
    config, k_max, fraction = _coop_config(raw)
    try:
        trial = TrialConfig(_read(raw, "trials", "trials", 100_000),
                            seed=_read(raw, "trials", "seed", 0),
                            target_half_width=_read(raw, "trials", "target_half_width"))
    except ValueError as exc:
        raise ScenarioError(f"[trials] {exc}") from None
    combiner = _read(raw, "trials", "combiner", "mld")
    relay_model = _read(raw, "trials", "relay_model", "exact")
    grid_points = _read(raw, "regions", "grid_points", 21)
    if grid_points < 2:
        raise ScenarioError("[regions] grid_points must be >= 2")
    grid_min = _read(raw, "regions", "grid_min", 1e-2)
    grid_max = _read(raw, "regions", "grid_max", 1e2)
    if not 0.0 < grid_min < grid_max:
        raise ScenarioError("[regions] need 0 < grid_min < grid_max")
    source_order = _read(raw, "modulation", "source_order", 4)
    ratios_db = _read(raw, "regions", "ratios_db", (-30.0, -10.0, 0.0, 10.0, 30.0))
    for ratio in ratios_db:  # decision_regions converts each to a linear power ratio
        _linear("regions", "ratios_db", ratio)
    return Scenario(params, config, k_max, source_order, fraction, trial, combiner, relay_model,
                    grid_points, grid_min, grid_max, ratios_db)


def parse_scenario(path: Union[str, Path]) -> Scenario:
    """Parse a scenario file."""
    p = Path(path)
    try:
        text = p.read_text()
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario {p}: {exc}") from None
    return parse_scenario_text(text, origin=str(p))

