"""Acceptance criteria for the toolkit: thirteen end-to-end checks covering
analytic identities, Monte Carlo agreement, detector optimality, system-level
behaviour at reference scenarios, and CLI reproducibility.

Each test prints exactly one `criterion NN (...): PASS|FAIL` line.
"""
from __future__ import annotations

import contextlib
import math
import time

import numpy as np
import pytest

import oracles
from coopbc import (
    Asymmetric,
    ChannelParams,
    CoopConfig,
    Protocol,
    Receiver,
    RelayErrorModel,
    RelayObservation,
    Regime,
    Strategy,
    Symmetric,
    TrialConfig,
    campaign,
    choose_compatible_modulation,
    decision_regions,
    error_criteria,
    mld_llr_batch,
    optimal_k,
    plan_bandwidth,
    qam,
    rate_af,
    run_recursion,
    simo_bound,
    simulate_af,
    simulate_df,
)
from coopbc.cli import main
from oracles import relay_symbol_law, s1_vs_s2_numerator, s2_closed_form


@contextlib.contextmanager
def criterion(num: int, label: str):
    try:
        yield
    except BaseException:
        print(f"criterion {num:02d} ({label}): FAIL")
        raise
    print(f"criterion {num:02d} ({label}): PASS")


def from_db(snr1: float, snr2: float, snr12: float, snr21: float) -> ChannelParams:
    """Reference scenarios are given as full-band SNR four-tuples in dB."""
    lin = lambda d: 10.0 ** (d / 10.0)  # noqa: E731
    return ChannelParams(P=1.0, n1=1.0 / lin(snr1), n2=1.0 / lin(snr2),
                         n12=1.0, n21=1.0, P12=lin(snr12), P21=lin(snr21), B=1.0)


def draw_params(rng: np.random.Generator) -> ChannelParams:
    return ChannelParams(
        P=float(rng.uniform(0.5, 20.0)), n1=float(rng.uniform(0.05, 2.0)),
        n2=float(rng.uniform(0.05, 2.0)), n12=float(rng.uniform(0.1, 2.0)),
        n21=float(rng.uniform(0.1, 2.0)), P12=float(rng.uniform(1.0, 100.0)),
        P21=float(rng.uniform(1.0, 100.0)), B=1.0)


def test_criterion_01_analytic_vs_monte_carlo_snr():
    # Every (scheme, strategy, K <= 4) combination, each on its own random
    # scenario (20 in total): empirical combiner-output SNR from 1e6 samples
    # within 3 standard errors of the analytic value, for both receivers.
    with criterion(1, "analytic vs Monte Carlo SNR"):
        t0 = time.perf_counter()
        master_seed = 3000
        rng = np.random.default_rng(master_seed)
        combos = [(kind, strat, K)
                  for kind in ("symmetric", "asymmetric")
                  for strat in (Strategy.S1, Strategy.S2)
                  for K in range(5)]
        assert len(combos) == 20
        for idx, (kind, strat, K) in enumerate(combos):
            params = draw_params(rng)
            regime = Regime.H1 if idx % 2 == 0 else Regime.H2
            scheme = Symmetric(K) if kind == "symmetric" else Asymmetric(K, Receiver.R1)
            cfg = CoopConfig(Protocol.AF, scheme, strat, regime)
            r = simulate_af(params, [cfg], TrialConfig(1_000_000, seed=master_seed + idx))[0]
            for emp, ana in ((r.snr_I, r.analytic.rho_I), (r.snr_II, r.analytic.rho_II)):
                assert abs(emp.value - ana) <= 3.0 * emp.stderr, (idx, kind, strat, K)
        assert time.perf_counter() - t0 < 120.0


def test_criterion_02_combiner_information_conservation():
    # 100 random trajectories, K <= 5: at every combine, the scalar
    # post-combining mutual information equals the two-branch vector mutual
    # information to relative 1e-9.
    with criterion(2, "combiner information conservation"):
        rng = np.random.default_rng(20)
        audited = 0
        for _ in range(100):
            params = draw_params(rng)
            K = int(rng.integers(1, 6))
            scheme = (Symmetric(K) if rng.integers(2) == 0
                      else Asymmetric(K, Receiver.R1 if rng.integers(2) == 0 else Receiver.R2))
            cfg = CoopConfig(
                Protocol.AF, scheme,
                Strategy.S1 if rng.integers(2) == 0 else Strategy.S2,
                Regime.H1 if rng.integers(2) == 0 else Regime.H2)
            camp = oracles.campaign(params, cfg, audit=True)
            for audit in camp.audits:
                assert abs(audit.mi_combined - audit.mi_vector) < 1e-9 * audit.mi_vector
                audited += 1
        assert audited > 100  # the check must not be vacuous


def test_criterion_03_forward_original_closed_form():
    # Under the dedicated-band regime, the forward-original recursion's final
    # SNRs equal the closed form to relative 1e-9 and do not depend on the
    # provisioned exchange count (constant for every count >= 1).
    with criterion(3, "forward-original closed form"):
        rng = np.random.default_rng(30)
        cases = [draw_params(rng) for _ in range(25)]
        cases.append(ChannelParams(P=10.0, n1=1.0, n2=2.0, n12=1.0, n21=1.0,
                                   P12=0.0, P21=100.0, B=1.0))
        for params in cases:
            cfg = CoopConfig(Protocol.AF, Symmetric(1), Strategy.S2, Regime.H2)
            traj = run_recursion(params, cfg, 5)
            plan = plan_bandwidth(params, cfg.with_count(1))
            rho_I, rho_II = s2_closed_form(params, plan, 1)
            for st in traj[1:]:
                assert abs(st.rho_I - rho_I) <= 1e-9 * rho_I
                assert abs(st.rho_II - rho_II) <= 1e-9 * rho_II
        # worked instance with a silent forward link
        silent = cases[-1]
        plan = plan_bandwidth(silent, CoopConfig(Protocol.AF, Symmetric(1),
                                                 Strategy.S2, Regime.H2))
        assert s2_closed_form(silent, plan, 1)[0] == pytest.approx(
            14.716981132075471, rel=1e-12)


def test_criterion_04_strategy_gap_polynomial_sign():
    # Two alternating exchanges under the dedicated-band regime: the
    # strategy-gap numerator polynomial is nonnegative and sign-consistent
    # with the actual recursion difference on 1e4 random positive draws.
    with criterion(4, "strategy-gap polynomial sign"):
        rng = np.random.default_rng(40)
        violations = 0
        for _ in range(10_000):
            params = draw_params(rng)
            cfg_s1 = CoopConfig(Protocol.AF, Asymmetric(2, Receiver.R1),
                                Strategy.S1, Regime.H2)
            cfg_s2 = CoopConfig(Protocol.AF, Asymmetric(2, Receiver.R1),
                                Strategy.S2, Regime.H2)
            poly = s1_vs_s2_numerator(params, plan_bandwidth(params, cfg_s1))
            rho_s1 = campaign(params, cfg_s1)[-1].rho_I
            rho_s2 = campaign(params, cfg_s2)[-1].rho_I
            diff = rho_s2 - rho_s1
            if poly < 0.0:
                violations += 1
            elif poly > 0.0 and diff < -1e-9 * rho_s1:
                violations += 1  # polynomial says S2 wins but recursion disagrees
        assert violations == 0


def test_criterion_05_scheme_equivalence():
    # Forward-original: a symmetric campaign with Ks simultaneous rounds ends
    # at the same SNR pair as an alternating campaign with 2*Ks exchanges.
    with criterion(5, "scheme equivalence"):
        rng = np.random.default_rng(50)
        for _ in range(20):
            params = draw_params(rng)
            for Ks in range(1, 5):
                for regime in (Regime.H1, Regime.H2):
                    for starter in (Receiver.R1, Receiver.R2):
                        sym = campaign(params, CoopConfig(
                            Protocol.AF, Symmetric(Ks), Strategy.S2, regime)
                        )[-1]
                        alt = campaign(params, CoopConfig(
                            Protocol.AF, Asymmetric(2 * Ks, starter), Strategy.S2, regime)
                        )[-1]
                        assert abs(sym.rho_I - alt.rho_I) <= 1e-9 * sym.rho_I
                        assert abs(sym.rho_II - alt.rho_II) <= 1e-9 * sym.rho_II


def test_criterion_06_optimal_exchange_count_shared_band():
    # Shared-band regime at the three reference scenarios: the achievable rate
    # is non-increasing for K >= 2, so the optimum is at most two exchanges.
    with criterion(6, "optimal exchange count under shared band"):
        t0 = time.perf_counter()
        for db in ((10, 0, 30, 30), (-1, -4, 30, 30), (10, 0, 15, 15)):
            params = from_db(*db)
            for scheme in (Symmetric(1), Asymmetric(1, Receiver.R1)):
                for strat in (Strategy.S1, Strategy.S2):
                    cfg = CoopConfig(Protocol.AF, scheme, strat, Regime.H1)
                    best, rates = optimal_k(params, cfg, 8)
                    assert best <= 2, (db, scheme, strat, best)
                    for k in range(2, 8):
                        assert rates[k + 1] <= rates[k] * (1 + 1e-12) + 1e-12, (
                            db, scheme, strat, k)
        assert time.perf_counter() - t0 < 1.0


def test_criterion_07_simo_ceiling_dedicated_band():
    # Dedicated-band regime, forward-latest, scenario (10,10,30,30) dB: two
    # exchanges bring the rate within 2% of the one-source/two-antenna bound.
    with criterion(7, "SIMO ceiling under dedicated band"):
        params = from_db(10, 10, 30, 30)
        cfg = CoopConfig(Protocol.AF, Symmetric(2), Strategy.S1, Regime.H2)
        st = run_recursion(params, cfg, 2)[2]
        rate = rate_af(plan_bandwidth(params, cfg), (st.rho_I, st.rho_II))
        bound = simo_bound(params)
        assert rate <= bound * (1 + 1e-12)
        assert rate >= 0.98 * bound


def _oracle_llr(y2, observations, shape, src_c, rel_c, amp, N2):
    """Exhaustive reference detector: enumerate every candidate bit vector and
    every relay substitution with direct density products in extended
    precision (no log-domain shortcuts)."""
    n = shape.n
    words = np.arange(1 << n)
    bits = ((words[:, None] >> np.arange(n - 1, -1, -1)) & 1).astype(np.int8)
    src_idx = np.array([src_c.bits_to_indices(b) for b in bits])
    x = amp * src_c.points[src_idx]  # (W, s)
    expo = (-np.abs(y2[None, :] - x) ** 2 / N2).astype(np.longdouble)
    dens = np.prod(np.exp(expo) / np.longdouble(math.pi * N2), axis=1)
    for obs in observations:
        rel_idx = np.array([rel_c.bits_to_indices(b) for b in bits])  # (W, r)
        level_expo = (
            -np.abs(obs.y12[None, :] - obs.amplitude * rel_c.points[:, None]) ** 2
            / obs.noise_power
        ).astype(np.longdouble)
        level_dens = np.exp(level_expo) / np.longdouble(math.pi * obs.noise_power)
        trans = relay_symbol_law(obs.model, rel_c)  # the Kronecker power, (M, M)
        mix = trans.astype(np.longdouble) @ level_dens  # (M, r)
        dens = dens * np.prod(mix[rel_idx, np.arange(shape.r)], axis=1)
    num = (dens[:, None] * (bits == 1)).sum(axis=0)
    den = (dens[:, None] * (bits == 0)).sum(axis=0)
    return (num / den).astype(float)


def test_criterion_08_mld_vs_brute_force():
    # Per-bit ML detector against exhaustive enumeration, relative 1e-9, on
    # 1e3 random noise realizations spread over block shapes with n <= 8,
    # including the BPSK-source / 16-QAM-relay shape.
    with criterion(8, "per-bit ML detector vs brute force"):
        rng = np.random.default_rng(80)
        shape_specs = [
            (2, 0.25),    # BPSK x4 -> one 16-QAM symbol (n = 4)
            (4, 1.0),     # aligned 4-QAM (n = 2)
            (4, 0.5),     # 4-QAM x2 -> one 16-QAM symbol (n = 4)
            (16, 2.0),    # 16-QAM -> two 4-QAM symbols (n = 4)
            (2, 0.125),   # BPSK x8 -> one 256-QAM symbol (n = 8)
        ]
        total = 0
        for Ms, fraction in shape_specs:
            Mr, shape = choose_compatible_modulation(Ms, fraction)
            assert shape.n <= 8
            src_c, rel_c = qam(Ms), qam(Mr)
            T = 200
            # the aligned shape's relay sends its one decision twice, and the
            # destination sums the two copies into one branch
            repeats = 2 if (Ms, fraction) == (4, 1.0) else 1
            amp = float(rng.uniform(0.5, 2.0))
            N2 = float(rng.uniform(0.2, 2.0))
            bits = rng.integers(0, 2, size=(T, shape.n)).astype(np.int8)
            x = amp * src_c.points[np.array([src_c.bits_to_indices(b) for b in bits])]
            y2 = x + np.sqrt(N2 / 2) * (rng.standard_normal((T, shape.s))
                                        + 1j * rng.standard_normal((T, shape.s)))
            # a random axis law; the relay symbols sent are drawn from its
            # Kronecker power over each relay symbol's source axes
            axis = len(src_c.levels)
            model = RelayErrorModel(rng.dirichlet(np.full(axis, 5.0), size=axis))
            trans = relay_symbol_law(model, rel_c)
            rel_true = np.array([rel_c.bits_to_indices(b) for b in bits])
            sent = np.array([[rng.choice(Mr, p=trans[m]) for m in row] for row in rel_true])
            a12 = float(rng.uniform(0.5, 2.0))
            n12 = float(rng.uniform(0.2, 2.0))
            y12 = sum(a12 * rel_c.points[sent] + np.sqrt(n12 / 2) * (
                rng.standard_normal(sent.shape) + 1j * rng.standard_normal(sent.shape))
                for _ in range(repeats))
            obs = RelayObservation(y12, repeats * a12, repeats * n12, model)
            got, = mld_llr_batch(y2, [obs], shape, src_c, rel_c, amp, N2)
            for t in range(T):
                per_block = [RelayObservation(y12[t], obs.amplitude, obs.noise_power, model)]
                want = _oracle_llr(y2[t], per_block, shape, src_c, rel_c, amp, N2)
                assert np.all(np.abs(got[t] - want) <= 1e-9 * np.abs(want))
                total += 1
        assert total == 1000


def test_criterion_09_mld_vs_mrc_under_df():
    # Scenario (7,3,30,30) dB, 4-QAM, one exchange: joint ML detection beats
    # the MRC-style combiner by more than 3 sigma at 1e6 bits. With a single
    # exchange only one receiver combines anything, so the combiners are
    # compared at that receiver — the only place the choice can matter. (The
    # two-receiver union is dominated by the unhelped receiver and actually
    # rewards MRC for replicating the relay's own errors at high link SNR.)
    with criterion(9, "ML detection vs MRC under DF"):
        params = from_db(7, 3, 30, 30)
        cfg = CoopConfig(Protocol.DF, Asymmetric(1, Receiver.R1), Strategy.S1, Regime.H2)
        tc = TrialConfig(500_000, seed=9)  # 4-QAM: 1e6 bits
        mld = simulate_df(params, [cfg], 4, tc, combiner="mld")[0]
        mrc = simulate_df(params, [cfg], 4, tc, combiner="mrc")[0]
        gap = mrc.ber_II.ber - mld.ber_II.ber
        sigma = math.hypot(mld.ber_II.stderr, mrc.ber_II.stderr)
        assert mld.ber_II.ber <= mrc.ber_II.ber
        assert gap > 3.0 * sigma


def test_criterion_10_df_exchange_count_floor():
    # DF system error rate over K = 0..4 at 1e6 bits per point: the minimum is
    # attained at K = 2 (or K = 2 sits within one combined standard error of
    # the floor) for both reference scenarios.
    with criterion(10, "DF exchange-count floor"):
        t0 = time.perf_counter()
        for db in ((7, 3, 30, 30), (7, 3, 2, 2)):
            params = from_db(*db)
            configs = [CoopConfig(Protocol.DF, Asymmetric(k, Receiver.R1), Strategy.S1, Regime.H2)
                       for k in range(5)]
            points = [r.pe_sys for r in simulate_df(params, configs, 4, TrialConfig(500_000, seed=12))]
            best = min(range(5), key=lambda k: points[k].ber)
            slack = math.hypot(points[2].stderr, points[best].stderr)
            assert points[2].ber <= points[best].ber + slack, (db, [p.ber for p in points])
        assert time.perf_counter() - t0 < 600.0


def test_criterion_11_system_error_rate_sandwich():
    # On every joint Monte Carlo run the error counts satisfy
    # max(errors_1, errors_2) <= joint errors <= errors_1 + errors_2 exactly.
    with criterion(11, "system error-rate sandwich"):
        rng = np.random.default_rng(110)
        runs = []
        for i in range(8):
            params = draw_params(rng)
            cfg = CoopConfig(
                Protocol.AF,
                Symmetric(2) if i % 2 == 0 else Asymmetric(2, Receiver.R1),
                Strategy.S1 if i % 4 < 2 else Strategy.S2,
                Regime.H1 if i % 2 == 0 else Regime.H2)
            runs.append(simulate_af(params, [cfg], TrialConfig(100_000, seed=i))[0])
        for i in range(3):
            params = draw_params(rng)
            cfg = CoopConfig(Protocol.DF, Asymmetric(2, Receiver.R1),
                             Strategy.S1, Regime.H2)
            runs.append(simulate_df(params, [cfg], 4, TrialConfig(100_000, seed=i))[0])
        for r in runs:
            assert max(r.ber_I.errors, r.ber_II.errors) <= r.pe_sys.errors
            assert r.pe_sys.errors <= r.ber_I.errors + r.ber_II.errors
            # the error criteria enforce the same sandwich and must accept
            assert error_criteria(r.ber_I.ber, r.ber_II.ber, r.pe_sys.ber) == (
                max(r.ber_I.ber, r.ber_II.ber), r.ber_I.ber + r.ber_II.ber)


def test_criterion_12_decision_region_swap_symmetry():
    # 20x20 noise grid over [1e-2, 1e2]: swapping the receiver noises together
    # with the cooperation power split flips the winner at every point; all
    # five ratio curves are produced.
    with criterion(12, "decision-region swap symmetry"):
        params = ChannelParams(P=1.0, n1=1.0, n2=1.0, n12=1.0, n21=1.0,
                               P12=10.0, P21=10.0, B=1.0)
        cfg = CoopConfig(Protocol.AF, Asymmetric(2, Receiver.R1), Strategy.S1, Regime.H1)
        grid = np.logspace(-2.0, 2.0, 20)
        ratios = (-30.0, -10.0, 0.0, 10.0, 30.0)
        rmap = decision_regions(params, cfg, grid=grid, ratios_db=ratios)
        assert rmap.winners.shape == (5, 20, 20)
        assert len(rmap.boundaries) == 5
        for r_idx, ratio in enumerate(ratios):
            m_idx = ratios.index(-ratio)
            assert np.array_equal(rmap.winners[r_idx], -rmap.winners[m_idx].T)


def test_criterion_13_cli_determinism(tmp_path):
    # Every CLI command run twice with the same seed is byte-identical.
    with criterion(13, "CLI determinism"):
        af_text = (
            "[channel]\nsnr1 = 10\nsnr2 = 0\nsnr12 = 30\nsnr21 = 30\n"
            "[cooperation]\nprotocol = af\nscheme = symmetric\nstrategy = s1\n"
            "regime = h1\nk = 2\nk_max = 1\n[trials]\ntrials = 30000\nseed = 6\n")
        asym_text = (
            "[channel]\nsnr1 = 10\nsnr2 = 0\nsnr12 = 30\nsnr21 = 30\n"
            "[cooperation]\nprotocol = af\nscheme = asymmetric\nstrategy = s1\n"
            "regime = h1\nk = 2\nstarter = r1\n"
            "[regions]\ngrid_points = 5\nratios_db = -10, 0, 10\n")
        df_text = (
            "[channel]\nsnr1 = 7\nsnr2 = 3\nsnr12 = 30\nsnr21 = 30\n"
            "[cooperation]\nprotocol = df\nscheme = asymmetric\nstrategy = s1\n"
            "regime = h2\nk = 1\nk_max = 1\nstarter = r1\n"
            "[trials]\ntrials = 30000\nseed = 6\n")
        af = tmp_path / "af.ini"
        af.write_text(af_text)
        asym = tmp_path / "asym.ini"
        asym.write_text(asym_text)
        df = tmp_path / "df.ini"
        df.write_text(df_text)
        jobs = [
            ("snr", af), ("rate", af), ("ber", af), ("ber", df),
            ("regions", asym), ("compare", df),
        ]
        for idx, (command, scenario) in enumerate(jobs):
            a = tmp_path / f"{idx}a.csv"
            b = tmp_path / f"{idx}b.csv"
            assert main([command, "--scenario", str(scenario), "--out", str(a)]) == 0
            assert main([command, "--scenario", str(scenario), "--out", str(b)]) == 0
            assert a.read_bytes() == b.read_bytes(), command
