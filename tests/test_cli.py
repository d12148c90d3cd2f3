"""Command-line interface: output shape, determinism, and exit codes."""
from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import os
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
from coopbc.mc import simulate_af
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
    this test, installed or not, without an inherited BLAS kernel choice."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
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
        # every link at 310 dB: the sampled noise is exactly 0 beside the symbols
        text = (AF_TEXT.replace("snr1 = 10", "snr1 = 310").replace("snr2 = 0", "snr2 = 310")
                .replace("snr12 = 30", "snr12 = 310").replace("snr21 = 30", "snr21 = 310"))
        code = main(["ber", "--scenario", scenario_file(text)])
        out, err = capsys.readouterr()
        assert code == 0 and err == ""
        _, header, rows = parse_csv(out)
        assert len(rows) == 3
        cols = [header.index(c) for c in ("snr_1", "snr_2")]
        assert "inf" in {r[c] for r in rows for c in cols}
        for r in rows:
            row = dict(zip(header, r))
            assert math.isfinite(float(row["rho_1"])) and math.isfinite(float(row["rho_2"]))

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

    @pytest.mark.parametrize("command", ["snr", "rate"])
    def test_zero_noise_power_is_infinite_snr(self, capsys, scenario_file, command):
        # n1 = 5e-324 plans N1 = 0: receiver 1 sees an infinite SNR at every count
        text = REGIONS_TEXT.replace("n1 = 0.5", "n1 = 5e-324").replace("k = 1", "k = 1\nk_max = 2")
        code = main([command, "--scenario", scenario_file(text)])
        out, err = capsys.readouterr()
        assert code == 0 and err == ""
        _, header, rows = parse_csv(out)
        assert len(rows) >= 2 and {r[header.index("rho_1")] for r in rows} == {"inf"}

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
    "{:d}": st.one_of(st.integers(), st.integers(-2**63, 2**63 - 1).map(np.int64),
                      st.integers(-128, 127).map(np.int8)),
    "{:.12g}": st.one_of(_FLOATS, _FLOATS.map(np.float64)),
    "{}": st.one_of(st.sampled_from(("cell", "boundary")),
                    st.text(st.characters(blacklist_characters=',"\r\n',
                                          blacklist_categories=("Cs",)))),
}
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
                cli._emit(None, scenario, columns, table)
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
        ("ber", AF_TEXT, "a1c0600a471f3a635c8da6f3382838d78ecf3514c148651d2cb6b154787a0e5d"),
        ("compare", AF_TEXT, "d1b4d625c01a6063f97b87f2148141723d2c4078dbed13515da7640ca6e4b647"),
        ("ber", DF_R2_TEXT, "fff0631c3cd76898efd1dc7f6b99cee4f404dec0c9f2460f4c4f510627cee657"),
        ("compare", DF_R2_TEXT, "c488d2945f6ab9d05aff087bdbc1c969cebfc0b5b7120e613b6c5b89d033a4f5"),
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
        # ber and compare stay out: the AF sampler's np.vdot and the DF
        # detector's matrix products are BLAS calls
        jobs = [(command, scenario_file(text, f"case{i}.ini"), str(tmp_path / f"case{i}.csv"))
                for i, (command, text, _) in enumerate(ANALYTIC_PINS)]
        hashes = []
        for kernel in ({}, {"OPENBLAS_CORETYPE": "Prescott"},
                       {"OPENBLAS_CORETYPE": "Sandybridge"}):
            res = subprocess.run([sys.executable, "-c", HASH_SCRIPT, json.dumps(jobs)],
                                 capture_output=True, text=True, env=child_env(**kernel))
            assert res.returncode == 0, res.stderr
            hashes.append(res.stdout.split())
        for (command, _, digest), *per_kernel in zip(ANALYTIC_PINS, *hashes):
            assert set(per_kernel) == {digest}, command

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
        text = DF_TEXT + "\n[modulation]\nsource_order = 4\nrelay_order = 16\n"
        assert run(capsys, ["ber", "--scenario", scenario_file(text)])[0] == 2

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
