"""Scenario file parsing, resolution to linear units, and serialization."""
from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coopbc import (
    Asymmetric,
    Protocol,
    Receiver,
    Regime,
    ScenarioError,
    Strategy,
    Symmetric,
    parse_scenario,
    parse_scenario_text,
)
from oracles import serialize_scenario

DB_TEXT = """
[channel]
snr1 = 10
snr2 = 0
snr12 = 30
snr21 = 30

[cooperation]
protocol = af
scheme = symmetric
strategy = s1
regime = h1
k = 2
k_max = 4

[trials]
trials = 200000
seed = 7
"""

LINEAR_TEXT = """
[channel]
p = 10
n1 = 1
n2 = 2
n12 = 0.5
n21 = 0.5
p12 = 100
p21 = 100
b = 2.0

[cooperation]
protocol = df
scheme = asymmetric
strategy = s2
regime = h2
k = 3
starter = r2
coop_bandwidth_fraction = 0.5

[modulation]
source_order = 16
relay_order = 16

[trials]
trials = 50000
seed = 1
target_half_width = 0.05
combiner = mrc
relay_model = genie

[regions]
grid_points = 11
grid_min = 0.5
grid_max = 2.0
ratios_db = -3, 0, 3
"""


POSITIVE = st.floats(1e-6, 1e6)


@st.composite
def scenario_texts(draw) -> str:
    """Valid scenario INI text: either channel form, every scheme, strategy,
    regime, starter, combiner and relay model, optional keys present or not."""
    def line(key, value):
        return f"{key} = {value!r}" if isinstance(value, float) else f"{key} = {value}"

    def maybe(key, strategy):
        return [line(key, draw(strategy))] if draw(st.booleans()) else []

    channel = ["[channel]"]
    if draw(st.booleans()):
        snr_db = st.floats(-100.0, 100.0)
        channel += [line(k, draw(snr_db)) for k in ("snr1", "snr2", "snr12", "snr21")]
    else:
        channel += [line(k, draw(POSITIVE)) for k in ("p", "n1", "n2", "n12", "n21")]
        channel += [line(k, draw(st.floats(0.0, 1e6))) for k in ("p12", "p21")]
    channel += maybe("b", st.floats(1e-3, 1e3))
    protocol = draw(st.sampled_from(["af", "df"]))
    scheme = draw(st.sampled_from(["symmetric", "asymmetric"]))
    coop = ["[cooperation]", line("protocol", protocol), line("scheme", scheme)]
    coop += maybe("strategy", st.sampled_from(["s1", "s2"]))
    coop += maybe("regime", st.sampled_from(["h1", "h2"]))
    coop += maybe("k", st.integers(0, 64))
    coop += maybe("k_max", st.integers(0, 64))
    if scheme == "asymmetric":
        coop += maybe("starter", st.sampled_from(["r1", "r2"]))
    if protocol == "df":
        coop += maybe("coop_bandwidth_fraction", st.floats(1e-3, 1.0))
    orders = st.sampled_from([2, 4, 16, 64, 256, 1024, 4096])
    modulation = ["[modulation]", *maybe("source_order", orders), *maybe("relay_order", orders)]
    trials = ["[trials]", *maybe("trials", st.integers(1, 10**9))]
    trials += maybe("seed", st.integers(0, 2**64 - 1))
    trials += maybe("target_half_width", POSITIVE)
    trials += maybe("combiner", st.sampled_from(["mld", "mrc"]))
    trials += maybe("relay_model", st.sampled_from(["exact", "genie"]))
    grid_min = draw(POSITIVE)
    ratios = draw(st.lists(st.floats(-60.0, 60.0), min_size=1, max_size=6))
    regions = [
        "[regions]",
        *maybe("grid_points", st.integers(2, 1000)),
        line("grid_min", grid_min),
        line("grid_max", grid_min * draw(st.floats(1.01, 1e3))),
        line("ratios_db", ", ".join(repr(r) for r in ratios)),
    ]
    return "\n".join(channel + coop + modulation + trials + regions) + "\n"


class TestParsing:
    def test_db_form_resolves_to_unit_power(self):
        s = parse_scenario_text(DB_TEXT)
        p = s.params
        assert p.P == 1.0
        assert math.isclose(p.n1, 0.1)
        assert math.isclose(p.n2, 1.0)
        assert p.n12 == p.n21 == 1.0
        assert math.isclose(p.P12, 1000.0)
        assert math.isclose(p.P21, 1000.0)
        assert p.B == 1.0
        # each requested SNR is reproduced exactly over the full band
        assert math.isclose(p.P / (p.n1 * p.B), 10.0 ** (10 / 10))
        assert math.isclose(p.P12 / (p.n12 * p.B), 10.0 ** (30 / 10))

    def test_db_form_with_bandwidth(self):
        text = DB_TEXT.replace("snr21 = 30", "snr21 = 30\nb = 4")
        p = parse_scenario_text(text).params
        assert p.B == 4.0
        assert math.isclose(p.P / (p.n1 * p.B), 10.0)
        assert math.isclose(p.P21 / (p.n21 * p.B), 1000.0)

    def test_linear_form_passthrough(self):
        s = parse_scenario_text(LINEAR_TEXT)
        p = s.params
        assert (p.P, p.n1, p.n2, p.n12, p.n21, p.P12, p.P21, p.B) == (
            10.0, 1.0, 2.0, 0.5, 0.5, 100.0, 100.0, 2.0)

    def test_config_fields(self):
        s = parse_scenario_text(LINEAR_TEXT)
        assert s.config.protocol is Protocol.DF
        assert s.config.scheme == Asymmetric(3, Receiver.R2)
        assert s.config.strategy is Strategy.S2
        assert s.config.regime is Regime.H2
        assert s.k_max == 3  # defaults to k
        assert s.coop_bandwidth_fraction == 0.5
        assert (s.source_order, s.relay_order) == (16, 16)
        assert (s.trials, s.seed, s.target_half_width) == (50000, 1, 0.05)
        assert (s.combiner, s.relay_model) == ("mrc", "genie")
        assert (s.grid_points, s.grid_min, s.grid_max) == (11, 0.5, 2.0)
        assert s.ratios_db == (-3.0, 0.0, 3.0)

    def test_defaults(self):
        s = parse_scenario_text("[channel]\nsnr1=0\nsnr2=0\nsnr12=0\nsnr21=0\n")
        assert s.config.protocol is Protocol.AF
        assert s.config.scheme == Symmetric(2)
        assert s.config.strategy is Strategy.S1
        assert s.config.regime is Regime.H1
        assert s.k_max == 2
        assert s.relay_order is None
        assert s.coop_bandwidth_fraction is None
        assert (s.trials, s.seed) == (100000, 0)
        assert s.target_half_width is None
        assert (s.combiner, s.relay_model) == ("mld", "exact")
        assert s.ratios_db == (-30.0, -10.0, 0.0, 10.0, 30.0)

    def test_file_roundtrip(self, tmp_path):
        path = tmp_path / "scenario.ini"
        path.write_text(LINEAR_TEXT)
        assert parse_scenario(path) == parse_scenario_text(LINEAR_TEXT)


class TestValidation:
    @pytest.mark.parametrize("mutation, fragment", [
        ("[channel]\nsnr1=1\np=1\n", "mixes"),
        ("[channel]\nsnr1=1\nsnr2=1\nsnr12=1\n", "missing required key"),
        ("[channel]\nb=2\n", "needs either"),
        ("[channel]\np=1\nn1=1\nn2=1\nn12=1\nn21=1\np12=1\n", "missing required key"),
        ("[channel]\nsnr1=abc\nsnr2=1\nsnr12=1\nsnr21=1\n", "expected float"),
        ("[channel]\nbogus=1\n", "unknown key"),
        ("[bogus]\nx=1\n", "unknown section"),
        ("", "missing required section"),
    ])
    def test_channel_errors(self, mutation, fragment):
        with pytest.raises(ScenarioError, match=fragment):
            parse_scenario_text(mutation)

    def test_negative_noise_rejected(self):
        with pytest.raises(ScenarioError):
            parse_scenario_text("[channel]\np=1\nn1=-1\nn2=1\nn12=1\nn21=1\np12=1\np21=1\n")

    @pytest.mark.parametrize("coop, fragment", [
        ("protocol = xyz", "protocol"),
        ("k = -1", "k must be"),
        ("k_max = -2", "k_max"),
        ("scheme = symmetric\nstarter = r1", "starter only applies"),
        ("coop_bandwidth_fraction = 0.5", "only applies to the df"),
        ("protocol = df\ncoop_bandwidth_fraction = 1.5", "in \\(0, 1\\]"),
    ])
    def test_cooperation_errors(self, coop, fragment):
        text = f"[channel]\nsnr1=0\nsnr2=0\nsnr12=0\nsnr21=0\n[cooperation]\n{coop}\n"
        with pytest.raises(ScenarioError, match=fragment):
            parse_scenario_text(text)

    @pytest.mark.parametrize("trials, fragment", [
        ("trials = 0", "trials"),
        ("seed = -1", "seed"),
        ("target_half_width = 0", "target_half_width"),
        ("combiner = avg", "combiner"),
        ("relay_model = oracle", "relay_model"),
        ("relay_model = empirical", "relay_model"),
        ("relay_model = analytic", "relay_model"),
    ])
    def test_trials_errors(self, trials, fragment):
        text = f"[channel]\nsnr1=0\nsnr2=0\nsnr12=0\nsnr21=0\n[trials]\n{trials}\n"
        with pytest.raises(ScenarioError, match=fragment):
            parse_scenario_text(text)

    @pytest.mark.parametrize("regions, fragment", [
        ("grid_points = 1", "grid_points"),
        ("grid_min = 2\ngrid_max = 1", "grid_min < grid_max"),
        ("ratios_db = 1; 2", "comma-separated"),
    ])
    def test_regions_errors(self, regions, fragment):
        text = f"[channel]\nsnr1=0\nsnr2=0\nsnr12=0\nsnr21=0\n[regions]\n{regions}\n"
        with pytest.raises(ScenarioError, match=fragment):
            parse_scenario_text(text)

    def test_unreadable_file(self, tmp_path):
        with pytest.raises(ScenarioError, match="cannot read"):
            parse_scenario(tmp_path / "missing.ini")

    def test_ini_syntax_error_wrapped(self):
        with pytest.raises(ScenarioError):
            parse_scenario_text("not an ini file at all")


class TestSerialization:
    @pytest.mark.parametrize("text", [DB_TEXT, LINEAR_TEXT])
    def test_roundtrip_identity(self, text):
        s = parse_scenario_text(text)
        assert parse_scenario_text(serialize_scenario(s)) == s

    @settings(max_examples=200, deadline=None)
    @given(text=scenario_texts())
    def test_roundtrip_identity_property(self, text):
        s = parse_scenario_text(text)
        assert parse_scenario_text(serialize_scenario(s)) == s

    def test_serialized_form_is_linear(self):
        out = serialize_scenario(parse_scenario_text(DB_TEXT))
        assert "snr1" not in out
        assert "p = 1.0" in out

    def test_irrational_values_roundtrip_exactly(self):
        text = "[channel]\nsnr1=7\nsnr2=3.3\nsnr12=29.7\nsnr21=12.1\nb=3\n"
        s = parse_scenario_text(text)
        t = parse_scenario_text(serialize_scenario(s))
        assert t.params == s.params
