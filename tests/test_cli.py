"""Command-line interface: output shape, determinism, and exit codes."""
from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import numpy as np

from coopbc import cli
from coopbc.channel import (
    ChannelParams,
    CoopConfig,
    Protocol,
    Regime,
    Strategy,
    Symmetric,
    plan_bandwidth,
)
from coopbc.cli import main
from coopbc.df import _unit_bits, choose_compatible_modulation, qam
from coopbc.errors import ModulationError
from coopbc.mc import simulate_af
from coopbc.metrics import RegionMap
from coopbc.scenario import parse_scenario_text
from oracles import s2_closed_form, write_csv

AF_TEXT = """
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
k_max = 2

[trials]
trials = 30000
seed = 3
"""

DF_TEXT = """
[channel]
snr1 = 7
snr2 = 3
snr12 = 30
snr21 = 30

[cooperation]
protocol = df
scheme = asymmetric
strategy = s2
regime = h2
k = 1
k_max = 1
starter = r1

[trials]
trials = 30000
seed = 5
"""

# both receivers relay, receiver 2 first, over links weak enough that every
# cooperation noise draw moves the error counts
DF_R2_TEXT = (DF_TEXT.replace("starter = r1", "starter = r2").replace("k_max = 1", "k_max = 2")
              .replace("snr12 = 30", "snr12 = 5").replace("snr21 = 30", "snr21 = 5"))

# DF_R2_TEXT's channel under h2 at k_max 3, symmetric, and at k_max 4,
# asymmetric with receiver 2 first: the rows from k = 1 (symmetric) and from
# k = 2 (asymmetric) on pose one detection problem, which is sampled once
DF_H2_SYM_TEXT = (DF_R2_TEXT.replace("scheme = asymmetric", "scheme = symmetric")
                  .replace("starter = r2\n", "").replace("k_max = 2", "k_max = 3"))
DF_H2_ASYM_TEXT = DF_R2_TEXT.replace("k_max = 2", "k_max = 4")

# The DF CSVs byte for byte, each also pinned under every BLAS kernel and
# thread count the kernel test sets
DF_PINS = [
    ("ber", DF_R2_TEXT, "d25e742fdf4249f96c41361f2728ec56e11e039eb2b74af09a97152f78777109"),
    ("compare", DF_R2_TEXT, "1234297fd70062357b6f1f8e49c80e373e37cbdb5df86cf62160cdc8c102b4b2"),
    ("ber", DF_H2_SYM_TEXT, "956d76cbc0a04d16c60420dde4418b2c07761e9f5d253f977acb5dfc96848811"),
    ("compare", DF_H2_SYM_TEXT,
     "7dd4e67d1af26f47f3e254012e8ee64940ec8f22105ec23f2f7cff0a0a6b0bed"),
    ("ber", DF_H2_ASYM_TEXT, "8eebcbd16530026a54ab3d3ef647e0efbbc7891aa7005dccb112fa4536557c5a"),
    ("compare", DF_H2_ASYM_TEXT,
     "68965e6989d3254d47a22ca31e9b621060ccf9354e03c30ae7c730561cd8a69f"),
]

# 256-QAM AF on 10/10/30/30 dB, the bench's af_qam256 job at seed 101: its
# SNR moments are sums over 32768 symbols, which a BLAS dot product would
# order by kernel and thread count
AF_QAM256_TEXT = (AF_TEXT.replace("snr2 = 0", "snr2 = 10")
                  .replace("trials = 30000\nseed = 3", "trials = 32768\nseed = 8378308050785365554")
                  + "\n[modulation]\nsource_order = 256\n")

# asymmetric forward-original AF at 16-QAM, receiver 2 sending first
AF_S2_R2_QAM16_TEXT = (AF_TEXT.replace("scheme = symmetric", "scheme = asymmetric")
                       .replace("strategy = s1", "strategy = s2")
                       .replace("k_max = 2", "k_max = 2\nstarter = r2")
                       + "\n[modulation]\nsource_order = 16\n")

REGIONS_TEXT = """
[channel]
p = 1
n1 = 0.5
n2 = 0.5
n12 = 1
n21 = 1
p12 = 10
p21 = 10

[cooperation]
protocol = af
scheme = asymmetric
strategy = s1
regime = h1
k = 1
starter = r1

[regions]
grid_points = 3
grid_min = 0.1
grid_max = 10
ratios_db = 0
"""

# the channel several edge cases start from: p = 1, n1 = 0.1, n2 = 1 and unit
# links and budgets, AF from receiver 1, k = k_max = 2
BASE_TEXT = (REGIONS_TEXT.replace("n1 = 0.5", "n1 = 0.1").replace("n2 = 0.5", "n2 = 1")
             .replace("p12 = 10", "p12 = 1").replace("p21 = 10", "p21 = 1")
             .replace("k = 1", "k = 2\nk_max = 2"))

# REGIONS_TEXT under DF, for noise densities whose planned noise power
# leaves a detector SNR outside (0, inf)
DF_ZERO_NOISE = (REGIONS_TEXT.replace("protocol = af", "protocol = df")
                 .replace("k = 1", "k = 1\nk_max = 2") + "\n[trials]\ntrials = 2000\n")

# DF_ZERO_NOISE under the symmetric scheme: both receivers relay from k = 1
DF_SYM_TEXT = (DF_ZERO_NOISE.replace("scheme = asymmetric", "scheme = symmetric")
               .replace("starter = r1\n", ""))

SPLIT_TEXT = """
[channel]
snr1 = 7
snr2 = 3
snr12 = 30
snr21 = 30

[cooperation]
protocol = df
scheme = asymmetric
strategy = s1
regime = h2
k = 1
k_max = 1
starter = r1
coop_bandwidth_fraction = 0.8333333333333334

[modulation]
source_order = 1024

[trials]
trials = 1000
"""


# The analytic CSVs byte for byte: a change to the power schedule, the
# bandwidth plan or a combine moves these hashes.
ANALYTIC_PINS = [
    ("snr", AF_TEXT.replace("k = 2", "k = 512"),
     "1732bec8e0f7546a21d1851ec89289cd17c53ec0072010d49247ae847d220819"),
    ("rate", AF_TEXT.replace("k_max = 2", "k_max = 64"),
     "0b5c134ec0ce4e2a61ea31e4bd657b4911cf3a2031d975123219ffe316bda660"),
    ("rate", AF_TEXT.replace("k_max = 2", "k_max = 64").replace("s1", "s2")
     .replace("h1", "h2"),
     "0cf388892b27c13ee04bd5fa2aad170f47d55e9d7fc967c53bfce2d05f2b60fd"),
    ("rate", AF_TEXT.replace("k_max = 2", "k_max = 64").replace("h1", "h2")
     .replace("symmetric", "asymmetric\nstarter = r2"),
     "294eaa753071f9a70d6cd86017b910528e000b759e228d577a6d9176e5ed2da1"),
    ("rate", AF_TEXT.replace("k_max = 2", "k_max = 64").replace("s1", "s2")
     .replace("symmetric", "asymmetric\nstarter = r1"),
     "f244fe52884f2e571fe08bbf284b16ecb819f86c7d899c68bcbd47d4599a2a71"),
    ("regions", REGIONS_TEXT.replace("k = 1", "k = 2").replace("grid_points = 3", "grid_points = 9")
     .replace("ratios_db = 0", "ratios_db = -10, 0, 10"),
     "2502ba46f267a536fb91c3b65b964eb149259fcd12a6c0fc318e73a19b29b893"),
    # every cell ties under S2, so each ratio's cell rows are followed by one
    # boundary row per cell at its grid n2
    ("regions", REGIONS_TEXT.replace("k = 1", "k = 2").replace("strategy = s1", "strategy = s2")
     .replace("grid_points = 3", "grid_points = 9").replace("ratios_db = 0", "ratios_db = -10, 0, 10"),
     "fb9a4714b1f5d29652035861051a9b99315f5b5ee29043f09850755d8008e24e"),
]

# A branch whose noise overflows: receiver 1 sends 1e-300 W over a link of
# noise density 1e300, so receiver 2 must skip that branch.
OVERFLOW_TEXT = """
[channel]
p = 1
n1 = 0.1
n2 = 1
n12 = 1e300
n21 = 1
p12 = 1e-300
p21 = 1000

[cooperation]
protocol = af
scheme = symmetric
strategy = s2
regime = h1
k = 2
k_max = 2
"""

AF_EXTREMES = {
    # every link at 250 dB: the sampled noise is 1e-25 of the symbols
    "250dB": (AF_TEXT.replace("snr1 = 10", "snr1 = 250").replace("snr2 = 0", "snr2 = 250")
              .replace("snr12 = 30", "snr12 = 250").replace("snr21 = 30", "snr21 = 250")),
    # a signal power near the float limit, and receiver 2's noise near 0
    "float-max": """
[channel]
p = 1e300
n1 = 338.6
n2 = 1e-300
n12 = 1
n21 = 1
p12 = 0
p21 = 1e300

[cooperation]
protocol = af
k = 0
k_max = 0

[trials]
trials = 2236
seed = 87
""",
    # n1 = 5e-324 plans N1 = 0: output 1 is noiseless
    "zero-noise": REGIONS_TEXT.replace("n1 = 0.5", "n1 = 5e-324").replace("k = 1",
                                                                         "k = 1\nk_max = 2"),
}

# Runs each (command, scenario, out) of the JSON list in argv[1] and prints
# the SHA-256 of each output, one a line.
HASH_SCRIPT = """
import hashlib, json, sys
from coopbc.cli import main
for command, scenario, out in json.loads(sys.argv[1]):
    assert main([command, "--scenario", scenario, "--out", out]) == 0
    print(hashlib.sha256(open(out, "rb").read()).hexdigest())
"""


def child_env(**extra: str) -> dict[str, str]:
    """The environment of a child process that imports the same package as
    this test, installed or not, without an inherited BLAS kernel or thread
    count."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_CORETYPE", "OPENBLAS_NUM_THREADS")}
    return {**env, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1]), **extra}


@pytest.fixture
def scenario_file(tmp_path):
    def write(text: str, name: str = "scenario.ini") -> str:
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    return write


def run(capsys, argv) -> tuple[int, str]:
    code = main(argv)
    return code, capsys.readouterr().out


def parse_csv(text: str) -> tuple[str, list[str], list[list[str]]]:
    lines = text.splitlines()
    assert lines[0].startswith("# ")
    rows = list(csv.reader(lines[1:]))
    return lines[0], rows[0], rows[1:]


class TestOutputs:
    def test_snr_k0_is_pure_broadcast(self, capsys, scenario_file):
        path = scenario_file(AF_TEXT.replace("k = 2", "k = 0"))
        code, out = run(capsys, ["snr", "--scenario", path])
        assert code == 0
        comment, header, rows = parse_csv(out)
        assert "coopbc" in comment
        assert header == ["i", "alpha_1", "alpha_2", "N_1", "N_2", "e", "rho_1", "rho_2"]
        assert len(rows) == 1
        i, a1, a2, N1, N2, e, r1, r2 = map(float, rows[0])
        assert (i, a1, a2, e) == (0.0, 1.0, 1.0, 0.0)
        assert math.isclose(r1, 10.0) and math.isclose(r2, 1.0)

    def test_rate_s2_h2_final_snr_independent_of_count(self, capsys, scenario_file):
        text = AF_TEXT.replace("strategy = s1", "strategy = s2").replace(
            "regime = h1", "regime = h2").replace("k_max = 2", "k_max = 4")
        code, out = run(capsys, ["rate", "--scenario", scenario_file(text)])
        assert code == 0
        _, header, rows = parse_csv(out)
        rho = [(float(r[3]), float(r[4])) for r in rows[1:]]
        assert len(rho) == 4
        for pair in rho[1:]:
            assert pair[0] == pytest.approx(rho[0][0], rel=1e-12)
            assert pair[1] == pytest.approx(rho[0][1], rel=1e-12)

    def test_rate_sweep_columns(self, capsys, scenario_file):
        code, out = run(capsys, ["rate", "--scenario", scenario_file(AF_TEXT)])
        assert code == 0
        _, header, rows = parse_csv(out)
        assert header == ["k", "b_dl", "b_c", "rho_1", "rho_2", "rate_af", "simo_bound"]
        assert [int(r[0]) for r in rows] == [0, 1, 2]
        for r in rows:
            b_dl, b_c = float(r[1]), float(r[2])
            assert b_dl + b_c == pytest.approx(1.0)  # total band conserved
            rho_min = min(float(r[3]), float(r[4]))
            assert float(r[5]) == pytest.approx(b_dl * math.log2(1 + rho_min))
        bounds = {r[6] for r in rows}
        assert len(bounds) == 1
        assert float(bounds.pop()) == pytest.approx(math.log2(1 + 10 + 1))

    @pytest.mark.parametrize("text", [AF_TEXT, DF_TEXT])
    def test_ber_sandwich_columns(self, capsys, scenario_file, text):
        code, out = run(capsys, ["ber", "--scenario", scenario_file(text)])
        assert code == 0
        _, header, rows = parse_csv(out)
        for r in rows:
            row = dict(zip(header, r))
            pe_sys = float(row["pe_sys"])
            assert float(row["pe_max"]) <= pe_sys <= float(row["pe_sum"])
            assert float(row["pe_max"]) == pytest.approx(
                max(float(row["ber_1"]), float(row["ber_2"])))

    def test_ber_df_mld_relay_order_4096(self, capsys, scenario_file):
        # 64-QAM forwarded as 4096-QAM on half-width cooperation slices, and
        # 256-QAM on two-thirds-width ones (24-bit blocks of two 12-bit units)
        for source, fraction, trials in [("64", 0.5, 4096), ("256", 2 / 3, 600)]:
            coop = f"starter = r1\ncoop_bandwidth_fraction = {fraction!r}"
            text = (
                DF_TEXT.replace("starter = r1", coop)
                .replace("trials = 30000", f"trials = {trials}")
                + f"\n[modulation]\nsource_order = {source}\n"
            )
            code, out = run(capsys, ["ber", "--scenario", scenario_file(text)])
            assert code == 0
            _, header, rows = parse_csv(out)
            assert rows
            for r in rows:
                row = dict(zip(header, r))
                assert (row["source_order"], row["relay_order"]) == (source, "4096")

    def test_overflowing_branch_is_skipped_quietly(self, scenario_file):
        # a real process, so a numpy RuntimeWarning would reach its stderr
        res = subprocess.run(
            [sys.executable, "-m", "coopbc", "rate", "--scenario", scenario_file(OVERFLOW_TEXT)],
            capture_output=True, text=True, env=child_env(),
        )
        assert res.returncode == 0 and res.stderr == ""
        _, cols, rows = parse_csv(res.stdout)
        # receiver 2 keeps its direct signal: P / N2 with a downlink of B/3 and B/5
        rho_2 = [float(r[cols.index("rho_2")]) for r in rows]
        assert rho_2[1:] == pytest.approx([3.0, 5.0], rel=1e-12)
        assert all(math.isfinite(float(r[cols.index("rho_1")])) for r in rows)

    def test_ber_without_sampled_noise_reports_infinite_snr(self, capsys, scenario_file):
        # every link at 310 dB: the sampled noise is 1e-31 of the symbols, and
        # the estimate still reads it, within 5 sigma of the analytic SNR
        text = (AF_TEXT.replace("snr1 = 10", "snr1 = 310").replace("snr2 = 0", "snr2 = 310")
                .replace("snr12 = 30", "snr12 = 310").replace("snr21 = 30", "snr21 = 310"))
        code = main(["ber", "--scenario", scenario_file(text)])
        out, err = capsys.readouterr()
        assert code == 0 and err == ""
        _, header, rows = parse_csv(out)
        assert len(rows) == 3
        for r in rows:
            row = dict(zip(header, r))
            for i in ("1", "2"):
                rho, snr = float(row[f"rho_{i}"]), float(row[f"snr_{i}"])
                assert math.isfinite(rho)
                assert abs(snr - rho) <= 5.0 * rho * math.sqrt((1.0 + 2.0 / rho) / 30000)
        # n1 = 5e-324 plans N1 = 0: output 1 has no noise, so no residual
        text = REGIONS_TEXT.replace("n1 = 0.5", "n1 = 5e-324").replace("k = 1", "k = 1\nk_max = 2")
        code = main(["ber", "--scenario", scenario_file(text)])
        out, err = capsys.readouterr()
        assert code == 0 and err == ""
        _, header, rows = parse_csv(out)
        assert len(rows) == 3 and {r[header.index("snr_1")] for r in rows} == {"inf"}

    @pytest.mark.parametrize("grid_min", ["1e-320", "5e-324"])
    def test_regions_at_subnormal_densities_is_quiet(self, capsys, scenario_file, grid_min):
        # P / N overflows (or meets a noise power that underflowed to 0): both
        # starters' rates are infinite and the cell is a tie, without a warning
        text = REGIONS_TEXT.replace("grid_min = 0.1", f"grid_min = {grid_min}")
        code = main(["regions", "--scenario", scenario_file(text)])
        out, err = capsys.readouterr()
        assert code == 0 and err == ""
        _, _, rows = parse_csv(out)
        assert rows[0][:2] == ["cell", "0"] and rows[0][4] == "0"

    @pytest.mark.parametrize("command, band", [
        pytest.param("snr", "", id="snr"), pytest.param("rate", "", id="rate"),
        pytest.param("snr", "\nb = 0.5", id="snr-b0.5"),
        pytest.param("rate", "\nb = 0.5", id="rate-b0.5"),
    ])
    def test_zero_noise_power_is_infinite_snr(self, capsys, scenario_file, command, band):
        # n1 = 5e-324 plans N1 = 0: receiver 1 sees an infinite SNR at every
        # count; over b = 0.5 the full-band n1 b of the SIMO bound is 0 too
        text = (REGIONS_TEXT.replace("n1 = 0.5", "n1 = 5e-324").replace("k = 1", "k = 1\nk_max = 2")
                .replace("p21 = 10", "p21 = 10" + band))
        code = main([command, "--scenario", scenario_file(text)])
        out, err = capsys.readouterr()
        assert code == 0 and err == ""
        _, header, rows = parse_csv(out)
        assert len(rows) >= 2 and {r[header.index("rho_1")] for r in rows} == {"inf"}
        if command == "rate":
            assert {r[header.index("simo_bound")] for r in rows} == {"inf"}

    def test_regions_diagonal_ties(self, capsys, scenario_file):
        code, out = run(capsys, ["regions", "--scenario", scenario_file(REGIONS_TEXT)])
        assert code == 0
        _, header, rows = parse_csv(out)
        assert header == ["kind", "ratio_db", "n1", "n2", "winner"]
        cells = {(r[2], r[3]): int(r[4]) for r in rows if r[0] == "cell"}
        assert len(cells) == 9
        for (n1, n2), winner in cells.items():
            if n1 == n2:  # symmetric scenario at equal power ratio: exact tie
                assert winner == 0
            assert cells[(n2, n1)] == -winner  # swap antisymmetry

    def test_compare_columns(self, capsys, scenario_file):
        code, out = run(capsys, ["compare", "--scenario", scenario_file(DF_TEXT)])
        assert code == 0
        _, header, rows = parse_csv(out)
        assert header[0] == "k"
        assert {"af_s1_pe_sys", "af_s2_pe_sys", "df_pe_sys"} < set(header)
        assert len(rows) == 2
        for r in rows:
            assert all(0.0 <= float(v) <= 1.0 for v in r[1:])

    def test_compare_samples_k0_once(self, capsys, scenario_file, monkeypatch):
        # without an exchange S1 and S2 are one campaign: the AF sweep samples
        # it once and both strategy columns report it
        sizes = []

        def spy(params, configs, *args, **kwargs):
            sizes.append(len(configs))
            return simulate_af(params, configs, *args, **kwargs)

        monkeypatch.setattr(cli, "simulate_af", spy)
        text = AF_TEXT.replace("trials = 30000", "trials = 4096")
        code, out = run(capsys, ["compare", "--scenario", scenario_file(text)])
        assert code == 0
        assert sizes == [2 * 2 + 1]
        _, header, rows = parse_csv(out)
        k0 = dict(zip(header, rows[0]))
        assert [k0[f"af_s1_{c}"] for c in ("ber_max", "pe_sys")] == [
            k0[f"af_s2_{c}"] for c in ("ber_max", "pe_sys")]

    def test_compare_runs_bpsk_from_an_af_scenario(self, capsys, scenario_file):
        # compare's DF half reads the AF scenario's band fraction: BPSK on
        # half-width slices forwards as 4-QAM, where the full band would need
        # a 1-bit relay, which no square QAM carries
        text = (AF_TEXT.replace("k_max = 2", "k_max = 2\ncoop_bandwidth_fraction = 0.5")
                .replace("trials = 30000", "trials = 3000") + "\n[modulation]\nsource_order = 2\n")
        assert main(["compare", "--scenario", scenario_file(text)]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        _, _, rows = parse_csv(out)
        assert [r[0] for r in rows] == ["0", "1", "2"]

    def test_out_file_matches_stdout(self, capsys, scenario_file, tmp_path):
        path = scenario_file(AF_TEXT)
        dest = tmp_path / "out.csv"
        code, out = run(capsys, ["rate", "--scenario", path, "--out", str(dest)])
        assert code == 0 and out == ""
        code, out = run(capsys, ["rate", "--scenario", path])
        assert code == 0
        assert dest.read_text() == out


# Cells of each column format, with the values whose formatting is most
# likely to differ: signed zeros, non-finite values, subnormals, extreme
# exponents, values near a 12-digit rounding tie and numpy scalars.
_EDGE_FLOATS = (0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 1e300, -1e300,
                1e-300, 999999999999.5, 99999999999.95, 0.1 + 0.2, 1.0000000000005, 1e16)
_FLOATS = st.one_of(st.sampled_from(_EDGE_FLOATS), st.floats())
_CELLS = {
    cli._INT: st.one_of(st.integers(), st.integers(-2**63, 2**63 - 1).map(np.int64),
                        st.integers(-128, 127).map(np.int8)),
    cli._FLOAT: st.one_of(_FLOATS, _FLOATS.map(np.float64)),
    cli._TEXT: st.one_of(st.sampled_from(("cell", "boundary")),
                         st.text(st.characters(blacklist_characters=',"\r\n',
                                               blacklist_categories=("Cs",)))),
}
# values a region map holds: positive densities up to the float limits
_MAP_FLOATS = st.one_of(st.sampled_from((5e-324, 1e-300, 0.1, 1.0, 1e300, 1.7e308)),
                        st.floats(min_value=5e-324, max_value=1.7e308))
_UNQUOTED = ',"\r\n'  # csv.writer quotes a field holding any of these
_ALL_COLUMNS = [v for k, v in vars(cli).items() if k.endswith("_COLUMNS") and k[0] != "_"]


class TestEmit:
    @pytest.mark.parametrize("columns", _ALL_COLUMNS)
    def test_names_need_no_quoting(self, columns):
        assert {fmt for _, fmt in columns} <= set(_CELLS)
        for name, _ in columns:
            assert name and not set(name) & set(_UNQUOTED)

    def test_text_cells_need_no_quoting(self, capsys, scenario_file):
        code, out = run(capsys, ["regions", "--scenario", scenario_file(REGIONS_TEXT)])
        assert code == 0
        _, header, rows = parse_csv(out)
        kinds = {row[header.index("kind")] for row in rows}
        assert kinds == {"cell", "boundary"}
        assert not set("".join(kinds)) & set(_UNQUOTED)

    @pytest.mark.parametrize("columns", _ALL_COLUMNS)
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_matches_the_csv_writer_reference(self, columns, data):
        # one template per table gives the bytes of csv.writer over per-cell
        # formatting, on any cells of the declared formats and on no rows
        rows = data.draw(st.lists(st.tuples(*(_CELLS[fmt] for _, fmt in columns)), max_size=4))
        scenario = parse_scenario_text(AF_TEXT)
        for table in (rows, []):
            expected = io.StringIO()
            write_csv(expected, [name for name, _ in columns], table)
            with contextlib.redirect_stdout(io.StringIO()) as got:
                cli._emit(None, scenario, *cli._render(columns, table))
            comment, body = got.getvalue().split("\n", 1)
            assert comment.startswith("# ") and body == expected.getvalue()

    @pytest.mark.parametrize("command, text", [
        ("snr", AF_TEXT),
        ("rate", AF_TEXT),
        ("ber", AF_TEXT.replace("trials = 30000", "trials = 2048")),
        ("ber", DF_TEXT.replace("trials = 30000", "trials = 2048")),
        ("compare", DF_TEXT.replace("trials = 30000", "trials = 2048")),
    ])
    def test_rendered_rows_match_their_column_types(self, capsys, scenario_file, monkeypatch,
                                                    command, text):
        # every command hands `_render` integers for its %d columns, text for
        # its %s columns and real numbers for its %.12g columns; `%d` prints
        # a float truncated (1.5 as 1) without error, so this is the check
        render, seen = cli._render, []

        def checked(columns, rows):
            rows = list(rows)
            for row in rows:
                assert len(row) == len(columns)
                for (name, fmt), value in zip(columns, row):
                    kinds = {cli._INT: (int, np.integer), cli._TEXT: str,
                             cli._FLOAT: (float, np.floating, int, np.integer)}[fmt]
                    assert isinstance(value, kinds) and not isinstance(value, bool), (name, value)
            seen.append(len(rows))
            return render(columns, rows)

        monkeypatch.setattr(cli, "_render", checked)
        code, _ = run(capsys, [command, "--scenario", scenario_file(text)])
        assert code == 0 and seen and seen[0] > 0

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_regions_blocks_match_the_csv_writer_reference(self, data):
        # the pre-rendered cell and boundary blocks give the bytes of
        # csv.writer over per-cell formatting of the rows they stand for,
        # with repeated grid values and boundary points on and off the grid
        grid = data.draw(st.lists(_MAP_FLOATS, min_size=1, max_size=4))
        ratios = data.draw(st.lists(_FLOATS, min_size=1, max_size=3))
        cells = len(ratios) * len(grid) ** 2
        winners = np.array(data.draw(st.lists(st.sampled_from((-1, 0, 1)), min_size=cells,
                                              max_size=cells)), dtype=np.int8)
        winners = winners.reshape(len(ratios), len(grid), len(grid))
        on_grid = st.one_of(st.sampled_from(grid), _MAP_FLOATS)
        boundaries = tuple(tuple(data.draw(st.lists(st.tuples(on_grid, on_grid), max_size=4)))
                           for _ in ratios)
        rmap = RegionMap(np.array(grid), tuple(ratios), winners, boundaries)
        rows = []
        for ratio, w, boundary in zip(ratios, winners, boundaries):
            rows += [("cell", ratio, a, b, w[i, j]) for i, a in enumerate(grid)
                     for j, b in enumerate(grid)]
            rows += [("boundary", ratio, a, b, 0) for a, b in boundary]
        expected = io.StringIO()
        write_csv(expected, [name for name, _ in cli.REGIONS_COLUMNS], rows)
        with contextlib.redirect_stdout(io.StringIO()) as got:
            cli._emit(None, parse_scenario_text(REGIONS_TEXT), cli.REGIONS_COLUMNS,
                      cli._regions_lines(rmap))
        comment, body = got.getvalue().split("\n", 1)
        assert comment.startswith("# ") and body == expected.getvalue()


class TestDeterminism:
    @pytest.mark.parametrize("command, text", [
        ("snr", AF_TEXT),
        ("rate", AF_TEXT),
        ("ber", AF_TEXT),
        ("ber", DF_TEXT),
        ("regions", REGIONS_TEXT),
        ("compare", DF_TEXT),
    ])
    def test_same_seed_byte_identical(self, scenario_file, tmp_path, command, text):
        path = scenario_file(text)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main([command, "--scenario", path, "--out", str(a)]) == 0
        assert main([command, "--scenario", path, "--out", str(b), "--threads", "3"]) == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("command, text, digest", [
        ("ber", AF_TEXT, "57da71272515c3d62b11d95755d584e14fdf07acc86bd5a7435c3de4aff62b30"),
        ("compare", AF_TEXT, "d71248acb02cc02682bf65fbe0da6b74a19473405db135ea10138f00c5d8041c"),
        *DF_PINS,
        ("ber", AF_TEXT + "\n[modulation]\nsource_order = 2\n",
         "a4f328c001d827c9c6c7e4b421e2ab8ee3b9899bef065715b6fdd3e543af68c3"),
        ("ber", AF_QAM256_TEXT, "b3afbdea1e755be6c3a8f7d44c25f187401404e7ec6748695531257a2b639345"),
        ("ber", AF_TEXT + "\n[modulation]\nsource_order = 4096\n",
         "920acfac2e5a3ef1b14d00d3ca78a6112846173dcf1be7c2e599dee4c0d24bca"),
        ("ber", AF_S2_R2_QAM16_TEXT,
         "7c25f6603e598b3fd9556979fb2bc33a73ed122b48c098dcd0aff34bb3f8272f"),
        *(("ber", AF_EXTREMES[case], digest) for case, digest in [
            ("250dB", "6f7c78c5fbc1c58a4a078b7e55a74ed230dadad951683bd20343d7b7431ec2f4"),
            ("float-max", "a5648dfcdd5332285b7481a792ad32e9a552a8a468703fa56b6e2e2a7f18efb0"),
            ("zero-noise", "ea36040ec3462a914f953990b5ff6c6119fd57011bfc886c26931aec0fb68eb7"),
        ]),
    ])
    def test_monte_carlo_csv_is_pinned(self, scenario_file, tmp_path, command, text, digest):
        # a change to any draw, scaling, decision or tally of the samplers
        # moves these hashes; a deliberate change to the numbers re-pins them
        out = tmp_path / "out.csv"
        assert main([command, "--scenario", scenario_file(text), "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize("command, text, digest", ANALYTIC_PINS)
    def test_analytic_csv_is_pinned(self, scenario_file, tmp_path, command, text, digest):
        out = tmp_path / "out.csv"
        assert main([command, "--scenario", scenario_file(text), "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_analytic_csv_is_the_same_on_every_blas_kernel(self, scenario_file, tmp_path):
        # numpy's OpenBLAS picks its kernel from the CPU at load time, and
        # OPENBLAS_CORETYPE overrides that choice in the child processes only.
        # AF ber sums its sampled moments without BLAS, so it must not move
        # with the kernel or the BLAS thread count either. The DF detector's
        # matrix products are BLAS calls, yet the pinned DF CSVs hold their
        # digests under every setting here
        pins = ANALYTIC_PINS + DF_PINS
        cases = [*((command, text) for command, text, _ in pins), ("ber", AF_QAM256_TEXT)]
        jobs = [(command, scenario_file(text, f"case{i}.ini"), str(tmp_path / f"case{i}.csv"))
                for i, (command, text) in enumerate(cases)]
        hashes = []
        for blas in ({}, {"OPENBLAS_CORETYPE": "Prescott"}, {"OPENBLAS_CORETYPE": "Sandybridge"},
                     {"OPENBLAS_NUM_THREADS": "1"}, {"OPENBLAS_NUM_THREADS": "2"}):
            res = subprocess.run([sys.executable, "-c", HASH_SCRIPT, json.dumps(jobs)],
                                 capture_output=True, text=True, env=child_env(**blas))
            assert res.returncode == 0, res.stderr
            hashes.append(res.stdout.split())
        *pinned, af_ber = zip(*hashes)
        for (command, _, digest), per_blas in zip(pins, pinned):
            assert set(per_blas) == {digest}, command
        assert len(set(af_ber)) == 1, af_ber

    def test_seed_override_changes_monte_carlo_output(self, scenario_file, tmp_path):
        path = scenario_file(DF_TEXT)
        a, b, c = (tmp_path / n for n in ("a.csv", "b.csv", "c.csv"))
        assert main(["ber", "--scenario", path, "--out", str(a), "--seed", "5"]) == 0
        assert main(["ber", "--scenario", path, "--out", str(b), "--seed", "99"]) == 0
        assert main(["ber", "--scenario", path, "--out", str(c)]) == 0
        assert a.read_bytes() != b.read_bytes()  # different noise draws
        assert a.read_bytes() == c.read_bytes()  # --seed 5 equals the scenario seed

    def test_largest_seed_on_df_with_both_relays(self, capsys, scenario_file):
        # the largest --seed a user can give, on a DF MLD run where receiver 2 relays
        path = scenario_file(DF_TEXT.replace("starter = r1", "starter = r2"))
        code, out = run(capsys, ["ber", "--scenario", path, "--seed", str((1 << 64) - 1)])
        assert code == 0
        assert f"seed={(1 << 64) - 1}" in out.splitlines()[0]

    def test_largest_seed_on_af(self, capsys, scenario_file):
        # the largest --seed a user can give, on an AF sweep over three counts
        code, out = run(capsys, ["ber", "--scenario", scenario_file(AF_TEXT),
                                 "--seed", str((1 << 64) - 1)])
        assert code == 0
        assert f"seed={(1 << 64) - 1}" in out.splitlines()[0]

    def test_threads_import_no_pool(self, scenario_file, tmp_path):
        # two batches at two threads: one runs on a worker thread, which is a
        # plain threading.Thread, so concurrent.futures is never imported
        script = ("import sys; from coopbc.cli import main; "
                  "assert main(sys.argv[1:]) == 0; "
                  "assert 'concurrent.futures' not in sys.modules")
        text = AF_TEXT.replace("trials = 30000", "trials = 131072")
        res = subprocess.run(
            [sys.executable, "-c", script, "ber", "--scenario", scenario_file(text),
             "--out", str(tmp_path / "out.csv"), "--threads", "2"],
            capture_output=True, text=True, env=child_env(),
        )
        assert res.returncode == 0, res.stderr

    def test_module_entry_point(self, scenario_file, tmp_path):
        path = scenario_file(AF_TEXT)
        res = subprocess.run(
            [sys.executable, "-m", "coopbc", "rate", "--scenario", path],
            capture_output=True, text=True, env=child_env(),
        )
        assert res.returncode == 0
        assert res.stdout.splitlines()[1].startswith("k,")


class TestExitCodes:
    def test_success_is_zero(self, capsys, scenario_file):
        assert run(capsys, ["rate", "--scenario", scenario_file(AF_TEXT)])[0] == 0

    @pytest.mark.parametrize("breakage", [
        lambda t: t + "p = 1\n",                       # mixed dB and linear keys
        lambda t: t.replace("snr1 = 10\n", ""),        # missing required key
        lambda t: t.replace("symmetric", "sideways"),  # bad enum value
        lambda t: t + "\n[bogus]\nx = 1\n",            # unknown section
    ])
    def test_config_errors_exit_2(self, capsys, scenario_file, breakage):
        path = scenario_file(breakage(AF_TEXT))
        assert run(capsys, ["snr", "--scenario", path])[0] == 2

    def test_missing_file_exits_2(self, capsys, tmp_path):
        assert run(capsys, ["snr", "--scenario", str(tmp_path / "no.ini")])[0] == 2

    def test_unknown_command_exits_2(self, scenario_file, capsys):
        assert main(["frobnicate", "--scenario", "x"]) == 2
        capsys.readouterr()

    def test_missing_required_flag_exits_2(self, capsys):
        assert main(["snr"]) == 2
        capsys.readouterr()

    def test_df_scenario_rejected_by_af_commands(self, capsys, scenario_file):
        path = scenario_file(DF_TEXT)
        for command in ("snr", "rate", "regions"):
            assert run(capsys, [command, "--scenario", path])[0] == 2

    def test_relay_order_mismatch_exits_2(self, capsys, scenario_file):
        # the relay order is derived from the source order and the band
        # fraction, so the scenario key that named it is gone
        text = DF_TEXT + "\n[modulation]\nsource_order = 4\nrelay_order = 16\n"
        assert main(["ber", "--scenario", scenario_file(text)]) == 2
        assert capsys.readouterr().err == "error: [modulation] unknown key(s) ['relay_order']\n"

    def test_bad_thread_count_exits_2(self, capsys, scenario_file):
        path = scenario_file(AF_TEXT)
        assert run(capsys, ["ber", "--scenario", path, "--threads", "0"])[0] == 2

    @pytest.mark.parametrize("seed", ["-1", str(1 << 64)])
    def test_seed_outside_64_bits_exits_2(self, capsys, scenario_file, seed):
        path = scenario_file(AF_TEXT)
        assert main(["ber", "--scenario", path, "--seed", seed]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: seed must fit in 64 bits\n"

    def test_split_source_axes_exit_2(self, capsys, scenario_file):
        # 1024-QAM forwarded as 4096-QAM: a 60-bit block whose 6-bit relay
        # axes split the 5-bit source axes
        assert main(["ber", "--scenario", scenario_file(SPLIT_TEXT)]) == 2
        assert capsys.readouterr().err == ("error: 4096-point relay symbols split the "
                                           "32-level axes of 1024-point source symbols\n")

    @pytest.mark.parametrize("fraction", ["1e-300", "5e-324"])
    def test_vanishing_fraction_exits_2(self, capsys, scenario_file, fraction):
        text = DF_TEXT.replace("starter = r1",
                               f"starter = r1\ncoop_bandwidth_fraction = {fraction}")
        assert main(["ber", "--scenario", scenario_file(text)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: relay would need ") and err.count("\n") == 1

    def test_planned_branch_of_a_whole_budget_exits_2(self, capsys, scenario_file):
        # under h1 a link narrows as k grows: receiver 1's budget over one
        # link's noise is 5e307 / (1/3), finite, at k = 1 and 5e307 / 0.2,
        # which overflows, at k = 2. The line names that one branch of the
        # whole budget, not the sum of k = 2's two sends (1e+308 / 0.4)
        text = DF_SYM_TEXT.replace("p12 = 10", "p12 = 5e307")
        assert main(["ber", "--scenario", scenario_file(text)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: n12: the planned SNR 5e+307 / 0.2 "
                                "is not positive and finite\n")

    def test_a_link_whose_summed_noise_overflows_runs(self, capsys, scenario_file):
        # n12 = 1e308: the sum of k = 2's two sends would have noise power
        # 2e308, but the branch of the whole budget has SNR 1e-307, so the
        # sweep runs, and a link 3000 dB under its noise leaves receiver 2 as
        # it is without one
        text = (DF_SYM_TEXT.replace("regime = h1", "regime = h2")
                .replace("n12 = 1\n", "n12 = 1e308\n"))
        code, out = run(capsys, ["ber", "--scenario", scenario_file(text)])
        assert code == 0
        _, header, rows = parse_csv(out)
        assert [row[0] for row in rows] == ["0", "1", "2"] and rows[1][1:] == rows[2][1:]
        ber_2 = header.index("ber_2")
        assert rows[0][ber_2] == rows[1][ber_2]

    @pytest.mark.parametrize("out", ["missing/out.csv", "."])
    def test_unwritable_out_exits_2(self, scenario_file, tmp_path, out):
        # a path in a missing directory, and a directory
        dest = tmp_path / out
        res = subprocess.run(
            [sys.executable, "-m", "coopbc", "rate", "--scenario", scenario_file(AF_TEXT),
             "--out", str(dest)], capture_output=True, text=True, env=child_env(),
        )
        assert res.returncode == 2 and res.stdout == ""
        assert res.stderr.startswith(f"error: cannot write {dest}: ")
        assert res.stderr.count("\n") == 1 and "Traceback" not in res.stderr

    def test_failed_run_leaves_out_untouched(self, capsys, scenario_file, tmp_path):
        dest = tmp_path / "out.csv"
        dest.write_text("kept\n")
        path = scenario_file(DF_TEXT)
        assert run(capsys, ["regions", "--scenario", path, "--out", str(dest)])[0] == 2
        assert dest.read_text() == "kept\n"

    def test_help_exits_0(self, capsys):
        assert main(["--help"]) == 0
        capsys.readouterr()

    def test_help_lists_every_command(self, capsys):
        # one parser: a command's --help is the same page, with every command
        assert main(["snr", "--help"]) == 0
        out = capsys.readouterr().out
        assert out.count("--threads") == 2  # in the usage line and once as an option
        for name, fn in cli._COMMANDS.items():
            assert f"  {name:<8} {fn.__doc__}" in out

    @pytest.mark.parametrize("exc", [
        np.linalg.LinAlgError("Singular matrix"),
        FloatingPointError("overflow"),
        OverflowError("math range error"),
        ZeroDivisionError("float division by zero"),
        OverflowError("cannot convert float infinity to integer"),
        MemoryError(),
    ])
    def test_numeric_errors_exit_3(self, capsys, scenario_file, monkeypatch, exc):
        # LinAlgError subclasses ValueError, which would otherwise map to 2
        def fail(scenario, args):
            raise exc

        monkeypatch.setitem(cli._COMMANDS, "rate", fail)
        assert main(["rate", "--scenario", scenario_file(AF_TEXT)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_non_finite_channel_exits_2(self, capsys, scenario_file, value):
        path = scenario_file(AF_TEXT.replace("snr12 = 30", f"snr12 = {value}"))
        for command in ("snr", "rate"):
            assert main([command, "--scenario", path]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    @pytest.mark.parametrize("text, command, key", [
        # non-finite numbers, refused where they are read
        pytest.param(AF_TEXT.replace("snr21 = 30", "snr21 = 30\nb = nan"), "snr", "b", id="b-nan"),
        pytest.param(REGIONS_TEXT.replace("ratios_db = 0", "ratios_db = inf, 0"), "regions",
                     "ratios_db", id="ratios-inf"),
        pytest.param(REGIONS_TEXT.replace("ratios_db = 0", "ratios_db = nan, 0"), "regions",
                     "ratios_db", id="ratios-nan"),
        pytest.param(REGIONS_TEXT.replace("grid_max = 10", "grid_max = inf"), "regions",
                     "grid_max", id="grid_max-inf"),
        pytest.param(AF_TEXT.replace("seed = 3", "seed = 3\ntarget_half_width = inf"), "snr",
                     "target_half_width", id="target_half_width-inf"),
        # dB values and b that leave the float range
        pytest.param(AF_TEXT.replace("snr1 = 10", "snr1 = 4000"), "snr", "snr1",
                     id="snr1-overflows"),
        pytest.param(AF_TEXT.replace("snr1 = 10", "snr1 = -4000"), "snr", "snr1",
                     id="snr1-underflows"),
        pytest.param(AF_TEXT.replace("snr12 = 30", "snr12 = 4000"), "snr", "snr12",
                     id="snr12-overflows"),
        pytest.param(AF_TEXT.replace("snr21 = 30", "snr21 = 30\nb = 1e-400"), "snr", "b",
                     id="b-underflows"),
        pytest.param(AF_TEXT.replace("snr21 = 30", "snr21 = 30\nb = -1"), "snr", "b",
                     id="b-negative"),
        pytest.param(REGIONS_TEXT.replace("ratios_db = 0", "ratios_db = 4000, 0"), "regions",
                     "ratios_db", id="ratio-overflows"),
        # dB downlink SNRs whose noise density 1 / (b * snr) leaves the float range
        pytest.param(AF_TEXT.replace("snr1 = 10", "snr1 = -3100"), "snr", "snr1",
                     id="snr1-density-overflows"),
        pytest.param(AF_TEXT.replace("snr2 = 0", "snr2 = -3100"), "snr", "snr2",
                     id="snr2-density-overflows"),
        pytest.param(AF_TEXT.replace("snr21 = 30", "snr21 = 30\nb = 1e-310"), "snr", "b",
                     id="b-density-overflows"),
        pytest.param(AF_TEXT.replace("snr1 = 10", "snr1 = 300").replace("snr21 = 30",
                                                                       "snr21 = 30\nb = 1e300"),
                     "snr", "b", id="b-density-underflows"),
        pytest.param(AF_TEXT.replace("snr1 = 10", "snr1 = 3000").replace("snr21 = 30",
                                                                        "snr21 = 30\nb = 1e10"),
                     "snr", "b", id="b-product-overflows"),
        # DF sweeps whose detector would divide by a zero noise power
        pytest.param(DF_ZERO_NOISE.replace("n1 = 0.5", "n1 = 5e-324"), "ber", "n1",
                     id="df-downlink-noise"),
        pytest.param(DF_ZERO_NOISE.replace("n12 = 1", "n12 = 5e-324")
                     .replace("n21 = 1", "n21 = 5e-324"), "ber", "n12", id="df-link-noise"),
        pytest.param(DF_ZERO_NOISE.replace("p = 1\n", "p = 1e300\n")
                     .replace("n2 = 0.5", "n2 = 5e-324")
                     .replace("trials = 2000", "trials = 2000\ncombiner = mrc"), "ber", "n2",
                     id="df-mrc-snr-overflows"),
        # noise densities whose noise power over the band b leaves the float range
        pytest.param(REGIONS_TEXT.replace("n1 = 0.5", "n1 = 1.7e308").replace("n2 = 0.5", "n2 = 1")
                     .replace("p12 = 10", "p12 = 1e300").replace("p21 = 10", "p21 = 1e300\nb = 10")
                     .replace("k = 1", "k = 2\nk_max = 2"), "rate", "n1", id="n1-power-overflows"),
        pytest.param(REGIONS_TEXT.replace("n1 = 0.5", "n1 = 0.1").replace("n2 = 0.5", "n2 = 1")
                     .replace("p12 = 10", "p12 = 1").replace("p21 = 10", "p21 = 1\nb = 1.7e308")
                     .replace("k = 1", "k = 2\nk_max = 2"), "regions", "grid_max",
                     id="grid-power-overflows"),
        # a dB-form product b * snr2 that underflows to 0 before it is inverted
        pytest.param(AF_TEXT.replace("snr2 = 0", "snr2 = -400").replace("snr21 = 30",
                                                                       "snr21 = 30\nb = 1e-300"),
                     "snr", "b", id="b-product-underflows"),
        # a downlink band b / 2 that underflows to 0 at the first exchange
        pytest.param(BASE_TEXT.replace("p21 = 1", "p21 = 1\nb = 5e-324"), "rate", "b",
                     id="band-underflows"),
        # a rate over the band b beyond the float range
        pytest.param(REGIONS_TEXT.replace("p = 1\n", "p = 1e300\n")
                     .replace("n1 = 0.5", "n1 = 1e-10").replace("n2 = 0.5", "n2 = 1e-10")
                     .replace("p12 = 10", "p12 = 1").replace("p21 = 10", "p21 = 1\nb = 1e308")
                     .replace("k = 1", "k = 2\nk_max = 2"), "rate", "b", id="rate-overflows"),
        # the first of two faults is reported, as the keys are read in order
        pytest.param(AF_TEXT.replace("snr1 = 10", "snr1 = abc").replace("snr2 = 0\n", ""), "snr",
                     "snr1", id="first-of-two-faults"),
    ])
    def test_out_of_range_value_exits_2_naming_its_key(self, capsys, scenario_file, text,
                                                       command, key):
        assert main([command, "--scenario", scenario_file(text)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert re.search(rf"\b{key}\b", captured.err), captured.err


# every source order, and band fractions whose relay is square QAM, odd-width,
# not integral, splits source axes (1024 -> 4096 at 5/6) or is too wide
SPACE_ORDERS = (2, 4, 16, 64, 256, 1024, 4096)
SPACE_FRACTIONS = (1.0, 2 / 3, 0.4, 0.25, 1e-3, 0.8333333333333334)
SPACE_TEXT = """
[channel]
snr1 = 7
snr2 = 3
snr12 = 30
snr21 = 30

[cooperation]
protocol = {protocol}
scheme = asymmetric
strategy = s2
regime = h2
k = 1
k_max = {k_max}
coop_bandwidth_fraction = {fraction!r}

[modulation]
source_order = {order}

[trials]
trials = {trials}
seed = 11
combiner = {combiner}
relay_model = {relay_model}
"""


def df_refuses(order: int, fraction: float, combiner: str) -> bool:
    """Whether a DF sweep must refuse this modulation pair."""
    try:
        relay_order, _ = choose_compatible_modulation(order, fraction)
        _unit_bits(qam(order), qam(relay_order))
    except ModulationError:
        return True
    return combiner == "mrc" and relay_order != order


class TestModulationSpace:
    @settings(deadline=None, max_examples=100)
    @given(order=st.sampled_from(SPACE_ORDERS), fraction=st.sampled_from(SPACE_FRACTIONS),
           combiner=st.sampled_from(["mld", "mrc"]),
           relay_model=st.sampled_from(["exact", "genie"]),
           protocol=st.sampled_from(["af", "df"]), command=st.sampled_from(["ber", "compare"]),
           trials=st.integers(1, 300), k_max=st.integers(0, 2))
    def test_runs_or_refuses_the_pair_in_one_line(self, tmp_path_factory, order, fraction,
                                                   combiner, relay_model, protocol, command,
                                                   trials, k_max):
        # a run that reads a DF sweep (every compare, a df ber) exits 2 exactly
        # when the modulation pair does not exist; AF ignores the fraction
        path = tmp_path_factory.mktemp("space") / "scenario.ini"
        path.write_text(SPACE_TEXT.format(protocol=protocol, k_max=k_max, fraction=fraction,
                                          order=order, trials=trials, combiner=combiner,
                                          relay_model=relay_model))
        with contextlib.redirect_stdout(io.StringIO()) as out, \
                contextlib.redirect_stderr(io.StringIO()) as err:
            code = main([command, "--scenario", str(path)])
        refused = (protocol == "df" or command == "compare") and df_refuses(order, fraction,
                                                                           combiner)
        assert code == (2 if refused else 0), err.getvalue()
        if code:
            assert out.getvalue() == ""
            assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
            return
        assert err.getvalue() == ""
        _, header, rows = parse_csv(out.getvalue())
        bers = {"ber_1", "ber_2", "pe_sys", "pe_max"} if command == "ber" else set(header[1:])
        assert len(rows) == k_max + 1
        for row in rows:
            assert all(0.0 <= float(v) <= 1.0 for name, v in zip(header, row) if name in bers)


class TestAfExtremes:
    @pytest.mark.parametrize("command", ["ber", "compare"])
    @pytest.mark.parametrize("case, key", [("250dB", None), ("float-max", "n2"),
                                           ("zero-noise", "n1")])
    def test_sampled_snr_is_honest_or_the_key_is_named(self, capsys, monkeypatch,
                                                       scenario_file, command, case, key):
        # every AF sweep is recorded, so compare's SNRs are checked too; only
        # compare's DF half may refuse the scenario, after its AF sweep
        sweeps = []

        def recorded(*args, **kwargs):
            sweeps.append(simulate_af(*args, **kwargs))
            return sweeps[-1]

        monkeypatch.setattr(cli, "simulate_af", recorded)
        code = main([command, "--scenario", scenario_file(AF_EXTREMES[case])])
        out, err = capsys.readouterr()
        if code:
            assert (code, out) == (2, "") and command == "compare", err
            assert err.startswith("error: ") and err.count("\n") == 1
            assert re.search(rf"\b{key}\b", err), err
        else:
            assert err == ""
        assert len(sweeps) == 1
        for r in sweeps[0]:
            n = r.ber_I.trials
            for snr, rho in ((r.snr_I.value, r.analytic.rho_I), (r.snr_II.value, r.analytic.rho_II)):
                if math.isinf(rho):
                    assert snr == math.inf
                else:  # sigma as bench/checks.py::af_snr
                    assert abs(snr - rho) <= 5.0 * rho * math.sqrt((1.0 + 2.0 / rho) / n), (snr, rho)

    @pytest.mark.parametrize("power", ["1e-320", "5e-324"])
    def test_subnormal_signal_reads_the_estimator_floor(self, capsys, scenario_file, power):
        # with P far below the noise the projection's signal amplitude is
        # |sqrt(P) + Suz/Suu| ~ |Suz/Suu|, so the sampled SNR is the
        # estimator's floor, Exp(1) / trials, not inf or a division by zero
        text = (REGIONS_TEXT.replace("p = 1\n", f"p = {power}\n").replace("n1 = 0.5", "n1 = 0.1")
                .replace("n2 = 0.5", "n2 = 1").replace("p12 = 10", "p12 = 1")
                .replace("p21 = 10", "p21 = 1").replace("k = 1", "k = 2\nk_max = 2")
                + "\n[trials]\ntrials = 2000\nseed = 1\n")
        code = main(["ber", "--scenario", scenario_file(text)])
        out, err = capsys.readouterr()
        assert code == 0 and err == ""
        _, header, rows = parse_csv(out)
        assert len(rows) == 3
        for row in rows:
            cells = dict(zip(header, map(float, row)))
            assert 0.0 < cells["rho_1"] < 1e-318 and 0.0 < cells["rho_2"] < 1e-318
            assert 0.0 <= cells["snr_1"] < 20.0 / 2000 and 0.0 <= cells["snr_2"] < 20.0 / 2000


class TestEdgeScenarios:
    """Scenarios at the float limits that printed a rounding error as an SNR,
    printed a warning, or exited 3 where a finite answer exists."""

    @pytest.mark.parametrize("seed", range(1, 6))
    def test_one_trial_leaves_no_residual(self, capsys, scenario_file, seed):
        # with one symbol the residual Szz - |Suz|^2/Suu is 0 in exact
        # arithmetic; read as a noise power, its rounding error gave SNRs of
        # +-1e16 to 1e18
        path = scenario_file(BASE_TEXT + "\n[trials]\ntrials = 1\n")
        code = main(["ber", "--scenario", path, "--seed", str(seed)])
        out, err = capsys.readouterr()
        assert code == 0 and err == ""
        _, header, rows = parse_csv(out)
        assert {row[header.index(name)] for row in rows for name in ("snr_1", "snr_2")} == {"inf"}

    @pytest.mark.parametrize("command", ["ber", "compare"])
    def test_overflowing_noise_moment_is_scaled(self, capsys, monkeypatch, scenario_file, command):
        # n2 = 1e305: output 2's sampled noise power over 2000 symbols is about
        # 2e308, which overflowed to inf, read rho = 0 and divided by it
        sweeps = []

        def recorded(*args, **kwargs):
            sweeps.append(simulate_af(*args, **kwargs))
            return sweeps[-1]

        monkeypatch.setattr(cli, "simulate_af", recorded)
        text = BASE_TEXT.replace("n2 = 1", "n2 = 1e305") + "\n[trials]\ntrials = 2000\nseed = 1\n"
        code = main([command, "--scenario", scenario_file(text)])
        assert (code, capsys.readouterr().err) == (0, "")
        assert sweeps[0][0].analytic.rho_II < 1e-300  # no cooperation yet
        for r in sweeps[0]:
            n = r.ber_I.trials
            for snr, rho in ((r.snr_I.value, r.analytic.rho_I), (r.snr_II.value, r.analytic.rho_II)):
                # 5 sigma, or the estimator's floor of about Exp(1) / n
                assert abs(snr - rho) <= 5.0 * rho * math.sqrt((1.0 + 2.0 / rho) / n) + 20.0 / n

    @pytest.mark.parametrize("order, fraction", [(4, 1.0), (16, 0.5)])
    @pytest.mark.parametrize("command", ["ber", "compare"])
    def test_far_detector_labels_are_quiet(self, capsys, scenario_file, command, order, fraction):
        # p = 1e308 over unit noise: a far label's squared distance in the DF
        # detector overflows (4-QAM), or its sum over the two axes of a unit
        # does (16-QAM forwarded as 256-QAM); its log likelihood is -inf,
        # without a warning
        text = ("[channel]\np = 1e308\nn1 = 1\nn2 = 1\nn12 = 1\nn21 = 1\np12 = 1\np21 = 1\n"
                "[cooperation]\nprotocol = df\nscheme = symmetric\nregime = h2\nk = 1\n"
                f"coop_bandwidth_fraction = {fraction}\n[modulation]\nsource_order = {order}\n"
                "[trials]\ntrials = 2000\n")
        code = main([command, "--scenario", scenario_file(text)])
        out, err = capsys.readouterr()
        assert code == 0 and err == ""
        _, header, rows = parse_csv(out)
        assert len(rows) == 2
        bers = {"ber_1", "ber_2", "pe_sys"} if command == "ber" else set(header[1:])
        assert {cell for row in rows for name, cell in zip(header, row) if name in bers} == {"0"}


HIGH_COOP = AF_TEXT.replace("snr12 = 30", "snr12 = 200").replace("snr21 = 30", "snr21 = 200")


class TestNearNoiselessCooperation:
    # A 200 dB cooperation link: forward-original branches are almost exact
    # copies of the partner's downlink signal, and forward-latest combiners
    # converge to the two-antenna ceiling P/N1 + P/N2 = 11.

    def test_forward_original_matches_closed_form(self, capsys, scenario_file):
        path = scenario_file(HIGH_COOP.replace("strategy = s1", "strategy = s2"))
        params = ChannelParams(P=1.0, n1=0.1, n2=1.0, n12=1.0, n21=1.0,
                               P12=1e20, P21=1e20, B=1.0)
        code, out = run(capsys, ["snr", "--scenario", path])
        assert code == 0
        _, header, rows = parse_csv(out)
        plan = plan_bandwidth(params, CoopConfig(Protocol.AF, Symmetric(2), Strategy.S2, Regime.H1))
        expect = s2_closed_form(params, plan, 2)
        for row in rows[1:]:
            rho = (float(row[header.index("rho_1")]), float(row[header.index("rho_2")]))
            assert rho == pytest.approx(expect, rel=1e-9)
        code, out = run(capsys, ["rate", "--scenario", path])
        assert code == 0
        _, header, rows = parse_csv(out)
        for row in rows[1:]:
            k = int(row[0])
            plan = plan_bandwidth(params, CoopConfig(Protocol.AF, Symmetric(k), Strategy.S2, Regime.H1))
            expect = s2_closed_form(params, plan, k)
            rho = (float(row[header.index("rho_1")]), float(row[header.index("rho_2")]))
            assert rho == pytest.approx(expect, rel=1e-9)

    def test_forward_latest_stays_at_the_ceiling(self, capsys, scenario_file):
        text = HIGH_COOP.replace("regime = h1", "regime = h2").replace("k = 2", "k = 8")
        code, out = run(capsys, ["snr", "--scenario", scenario_file(text)])
        assert code == 0
        _, header, rows = parse_csv(out)
        assert len(rows) == 9
        for row in rows[4:]:
            rho = (float(row[header.index("rho_1")]), float(row[header.index("rho_2")]))
            assert rho == pytest.approx((11.0, 11.0), rel=1e-9)
