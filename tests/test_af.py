"""Analytic AF engine tests: the package's unit-gain recursion against the
verbatim scalar recursion, the coefficient-vector campaign and the 4x4
covariance engine (in float64 and long double) of `oracles`, plus the closed
forms."""
from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from coopbc.af import campaign, final_state, run_recursion
from coopbc.channel import (
    Asymmetric,
    ChannelParams,
    CoopConfig,
    Protocol,
    Receiver,
    Regime,
    Strategy,
    Symmetric,
    plan_bandwidth,
    power_schedule,
)
from oracles import (
    SnrState,
    amplification_gains,
    initial_state,
    mi_conservation_check,
    mrc_weights_symmetric,
    power_per_exchange,
    ratio_form_snr,
    s1_vs_s2_numerator,
    s2_closed_form,
    step_asymmetric,
    step_symmetric,
)


def make_state(alpha_I=1.0, alpha_II=1.0, N_I=1.0, N_II=1.0, e=0.0, P=10.0, i=0):
    return SnrState(
        i=i, alpha_I=alpha_I, alpha_II=alpha_II, N_I=N_I, N_II=N_II, e=e,
        rho_I=alpha_I**2 * P / N_I, rho_II=alpha_II**2 * P / N_II,
        w1=1.0, w2=1.0, w12=0.0, w21=0.0, a12=0.0, a21=0.0,
    )


def _cfg(scheme, strategy=Strategy.S1, regime=Regime.H1, protocol=Protocol.AF):
    return CoopConfig(protocol, scheme, strategy, regime)


log_scale = st.floats(min_value=-2.0, max_value=2.0)


@st.composite
def channel_params(draw):
    return ChannelParams(
        P=10.0 ** draw(log_scale),
        n1=10.0 ** draw(log_scale),
        n2=10.0 ** draw(log_scale),
        n12=10.0 ** draw(log_scale),
        n21=10.0 ** draw(log_scale),
        P12=10.0 ** draw(log_scale),
        P21=10.0 ** draw(log_scale),
        B=10.0 ** draw(st.floats(min_value=-1.0, max_value=1.0)),
    )


any_config = st.builds(
    _cfg,
    scheme=st.one_of(
        st.builds(Symmetric, st.integers(1, 4)),
        st.builds(Asymmetric, st.integers(1, 4), starter=st.sampled_from(list(Receiver))),
    ),
    strategy=st.sampled_from(list(Strategy)),
    regime=st.sampled_from(list(Regime)),
)


class TestAmplificationGains:
    def test_unit_gain(self):
        st0 = make_state(N_I=1.0, P=10.0)
        a12, _ = amplification_gains(st0, (11.0, 0.0), P=10.0)
        assert a12 == pytest.approx(1.0)

    def test_zero_power_zero_gain(self):
        st0 = make_state()
        a12, a21 = amplification_gains(st0, (0.0, 0.0), P=10.0)
        assert a12 == 0.0 and a21 == 0.0

    def test_scaled_state(self):
        st0 = make_state(alpha_I=2.0, N_I=3.0, P=10.0)
        a12, _ = amplification_gains(st0, (86.0, 0.0), P=10.0)
        assert a12 == pytest.approx(math.sqrt(2.0))


def assert_weights(got, expect, terms):
    """Weights within rtol 1e-8 of `expect`, or within 1e-12 of the sum of
    the magnitudes of the two terms each weight is the difference of."""
    err = np.abs(np.subtract(got, expect))
    assert np.all(err <= 1e-8 * np.abs(expect) + 1e-12 * np.asarray(terms)), (got, expect)


class TestMrcWeights:
    def test_independent_branches(self):
        st0 = make_state(N_I=1.0, N_II=2.0, e=0.0)
        w12, w2, _, _ = mrc_weights_symmetric(st0, (1.0, 0.0), (1.0, 1.0))
        assert w12 == pytest.approx(2.0)
        assert w2 == pytest.approx(2.0)

    def test_zero_gain_keeps_direct_branch(self):
        st0 = make_state(alpha_II=3.0, e=0.4)
        w12, w2, _, _ = mrc_weights_symmetric(st0, (0.0, 1.0), (5.0, 1.0))
        assert w12 == 0.0
        assert w2 == pytest.approx(5.0 * 3.0)

    @given(
        alpha_I=st.floats(0.1, 10),
        alpha_II=st.floats(0.1, 10),
        N_I=st.floats(0.1, 10),
        N_II=st.floats(0.1, 10),
        ecorr=st.floats(-0.99, 0.99),
        a12=st.floats(0.01, 10),
        a21=st.floats(0.01, 10),
        N12=st.floats(0.1, 10),
        N21=st.floats(0.1, 10),
    )
    # each weight is a difference of two terms; here w12 cancels to exactly 0.0
    # while the solve leaves a rounding residue of about -5.5e-18
    @example(alpha_I=1.0, alpha_II=1.0, N_I=10.0, N_II=0.1, ecorr=0.1,
             a12=1.0, a21=1.0, N12=1.0, N21=1.0)
    def test_matches_covariance_inverse(self, alpha_I, alpha_II, N_I, N_II, ecorr, a12, a21, N12, N21):
        # weights must equal det(R_zz) * R_zz^{-1} h for each receiver's
        # 2x2 branch noise covariance, to rtol, or to the rounding of the two
        # terms that cancel in the weight
        e = ecorr * math.sqrt(N_I * N_II)
        st0 = make_state(alpha_I, alpha_II, N_I, N_II, e)
        w12, w2, w21, w1 = mrc_weights_symmetric(st0, (a12, a21), (N12, N21))
        R2 = np.array([[a12**2 * N_I + N12, a12 * e], [a12 * e, N_II]])
        h2 = np.array([a12 * alpha_I, alpha_II])
        expect2 = np.linalg.det(R2) * np.linalg.solve(R2, h2)
        terms2 = [abs(a12 * alpha_I * N_II) + abs(a12 * alpha_II * e),
                  abs((a12**2 * N_I + N12) * alpha_II) + abs(a12**2 * alpha_I * e)]
        assert_weights([w12, w2], expect2, terms2)
        R1 = np.array([[a21**2 * N_II + N21, a21 * e], [a21 * e, N_I]])
        h1 = np.array([a21 * alpha_II, alpha_I])
        expect1 = np.linalg.det(R1) * np.linalg.solve(R1, h1)
        terms1 = [abs(a21 * alpha_II * N_I) + abs(a21 * alpha_I * e),
                  abs((a21**2 * N_II + N21) * alpha_I) + abs(a21**2 * alpha_II * e)]
        assert_weights([w21, w1], expect1, terms1)


TWO_BRANCH = ChannelParams(P=10.0, n1=1.0, n2=2.0, n12=1.0, n21=1.0, P12=100.0, P21=100.0, B=1.0)


class TestStepSymmetric:
    def test_zero_cooperation_is_identity(self):
        plan = plan_bandwidth(TWO_BRANCH, _cfg(Symmetric(1), regime=Regime.H2))
        st0 = initial_state(TWO_BRANCH, plan)
        st1 = step_symmetric(st0, TWO_BRANCH.P, plan, (0.0, 0.0))
        assert st1.i == 1
        for f in ("alpha_I", "alpha_II", "N_I", "N_II", "e", "rho_I", "rho_II"):
            assert getattr(st1, f) == getattr(st0, f)

    def test_strategies_coincide_on_first_round(self):
        # forwarding the latest output or the original signal is the same at i=1
        cfg1 = _cfg(Symmetric(1), Strategy.S1, Regime.H2)
        cfg2 = _cfg(Symmetric(1), Strategy.S2, Regime.H2)
        s1 = campaign(TWO_BRANCH, cfg1)[-1]
        s2 = campaign(TWO_BRANCH, cfg2)[-1]
        assert s1.rho_I == pytest.approx(s2.rho_I, rel=1e-12)
        assert s1.rho_II == pytest.approx(s2.rho_II, rel=1e-12)

    def test_two_branch_mrc_oracle(self):
        # independent branches at i=1: SNRs simply add
        cfg = _cfg(Symmetric(1), regime=Regime.H2)
        plan = plan_bandwidth(TWO_BRANCH, cfg)
        st0 = initial_state(TWO_BRANCH, plan)
        st1 = step_symmetric(st0, TWO_BRANCH.P, plan, power_per_exchange(TWO_BRANCH, cfg, 1))
        a12sq = 100.0 / 11.0
        assert st1.rho_II == pytest.approx(5.0 + a12sq * 10.0 / (a12sq * 1.0 + 1.0), rel=1e-12)
        assert st1.rho_II == pytest.approx(5.0 + 1000.0 / 111.0, rel=1e-12)

    def test_simultaneous_update_uses_previous_partner_state(self):
        # receiver 1's round-2 branch must be formed from receiver 2's round-1
        # state, not its round-2 state
        cfg = _cfg(Symmetric(2), regime=Regime.H2)
        plan = plan_bandwidth(TWO_BRANCH, cfg)
        powers = power_per_exchange(TWO_BRANCH, cfg, 1)
        st1 = step_symmetric(initial_state(TWO_BRANCH, plan), TWO_BRANCH.P, plan, powers)
        st2 = step_symmetric(st1, TWO_BRANCH.P, plan, powers)
        # manual: recompute receiver I's update from the (i-1) quantities
        a21 = math.sqrt(powers[1] / (st1.alpha_II**2 * 10.0 + st1.N_II))
        w21 = a21 * st1.alpha_II * st1.N_I - a21 * st1.alpha_I * st1.e
        w1 = (a21**2 * st1.N_II + plan.N21) * st1.alpha_I - a21**2 * st1.alpha_II * st1.e
        alpha_I = w21 * a21 * st1.alpha_II + w1 * st1.alpha_I
        N_I = w1**2 * st1.N_I + w21**2 * (a21**2 * st1.N_II + plan.N21) + 2 * w1 * w21 * a21 * st1.e
        assert st2.rho_I == pytest.approx(alpha_I**2 * 10.0 / N_I, rel=1e-12)


class TestStepAsymmetric:
    def test_idle_receiver_unchanged(self):
        cfg = _cfg(Asymmetric(2), regime=Regime.H2)
        plan = plan_bandwidth(TWO_BRANCH, cfg)
        st0 = initial_state(TWO_BRANCH, plan)
        st1 = step_asymmetric(st0, TWO_BRANCH.P, plan, power_per_exchange(TWO_BRANCH, cfg, 1), 1)
        assert st1.alpha_I == st0.alpha_I
        assert st1.N_I == st0.N_I
        assert st1.rho_I == st0.rho_I
        assert st1.rho_II > st0.rho_II

    def test_zero_power_leaves_state_unchanged(self):
        cfg = _cfg(Asymmetric(1), regime=Regime.H2)
        plan = plan_bandwidth(TWO_BRANCH, cfg)
        st0 = initial_state(TWO_BRANCH, plan)
        st1 = step_asymmetric(st0, TWO_BRANCH.P, plan, (0.0, 0.0), 1)
        for f in ("alpha_I", "alpha_II", "N_I", "N_II", "e", "rho_I", "rho_II"):
            assert getattr(st1, f) == getattr(st0, f)

    def test_starter_mirror(self):
        cfg = _cfg(Asymmetric(1, starter=Receiver.R2), regime=Regime.H2)
        plan = plan_bandwidth(TWO_BRANCH, cfg)
        st0 = initial_state(TWO_BRANCH, plan)
        st1 = step_asymmetric(
            st0, TWO_BRANCH.P, plan, power_per_exchange(TWO_BRANCH, cfg, 1), 1, starter=Receiver.R2
        )
        assert st1.rho_II == st0.rho_II
        assert st1.rho_I > st0.rho_I

    def test_cross_correlation_update(self):
        # e after a receiver-1 transmission: w2*e + w12*a12*N_I
        cfg = _cfg(Asymmetric(2), regime=Regime.H2)
        plan = plan_bandwidth(TWO_BRANCH, cfg)
        st0 = initial_state(TWO_BRANCH, plan)
        st1 = step_asymmetric(st0, TWO_BRANCH.P, plan, power_per_exchange(TWO_BRANCH, cfg, 1), 1)
        assert st1.e == pytest.approx(st1.w2 * st0.e + st1.w12 * st1.a12 * st0.N_I, rel=1e-12)


def assert_matches_raw(state, raw, rel):
    """A unit-gain engine state against an unnormalized reference state."""
    assert state.rho_I == pytest.approx(raw.rho_I, rel=rel)
    assert state.rho_II == pytest.approx(raw.rho_II, rel=rel)
    assert state.N_I == pytest.approx(raw.N_I / raw.alpha_I**2, rel=rel)
    assert state.N_II == pytest.approx(raw.N_II / raw.alpha_II**2, rel=rel)
    scale = math.sqrt(state.N_I * state.N_II)
    assert state.e == pytest.approx(raw.e / (raw.alpha_I * raw.alpha_II), rel=rel, abs=rel * scale)


class TestEngineMatchesScalarRecursion:
    @pytest.mark.parametrize("regime", list(Regime))
    def test_symmetric_forward_latest(self, regime):
        cfg = _cfg(Symmetric(3), Strategy.S1, regime)
        plan = plan_bandwidth(TWO_BRANCH, cfg)
        st = initial_state(TWO_BRANCH, plan)
        for i in range(1, 4):
            st = step_symmetric(st, TWO_BRANCH.P, plan, power_per_exchange(TWO_BRANCH, cfg, i))
        assert_matches_raw(campaign(TWO_BRANCH, cfg)[-1], st, 1e-9)

    @pytest.mark.parametrize("starter", list(Receiver))
    def test_asymmetric_forward_latest(self, starter):
        cfg = _cfg(Asymmetric(3, starter=starter), Strategy.S1, Regime.H1)
        plan = plan_bandwidth(TWO_BRANCH, cfg)
        st = initial_state(TWO_BRANCH, plan)
        for i in range(1, 4):
            st = step_asymmetric(
                st, TWO_BRANCH.P, plan, power_per_exchange(TWO_BRANCH, cfg, i), i, starter=starter
            )
        assert_matches_raw(campaign(TWO_BRANCH, cfg)[-1], st, 1e-9)

    def test_normalization_preserves_snrs(self):
        # the unit-gain engine carries the unnormalized trajectory's SNRs
        cfg = _cfg(Symmetric(4), Strategy.S1, Regime.H1)
        raw = oracles.campaign(TWO_BRANCH, cfg, normalize=False).states
        normed = campaign(TWO_BRANCH, cfg)
        for s0, s1 in zip(raw, normed):
            assert_matches_raw(s1, s0, 1e-12)

    def test_normalized_engine_survives_large_counts(self):
        # the raw weight recursion overflows float64 long before K = 12
        cfg = _cfg(Symmetric(12), Strategy.S1, Regime.H2)
        final = campaign(TWO_BRANCH, cfg)[-1]
        assert math.isfinite(final.rho_I) and final.rho_I > 0
        assert math.isfinite(final.rho_II) and final.rho_II > 0

    @settings(deadline=None)
    @given(params=channel_params(), config=any_config, data=st.data())
    def test_audit_identities(self, params, config, data):
        camp = oracles.campaign(params, config, audit=True)
        for a in camp.audits:
            assert a.mi_combined == pytest.approx(a.mi_vector, rel=1e-9)
            assert a.rho_ratio_form == pytest.approx(a.rho_state, rel=1e-9)

    @settings(deadline=None)
    @given(params=channel_params(), config=any_config)
    def test_state_invariants(self, params, config):
        traj = campaign(params, config)
        for s in traj:
            assert s.rho_I > 0 and math.isfinite(s.rho_I)
            assert s.rho_II > 0 and math.isfinite(s.rho_II)
            assert abs(s.e) <= math.sqrt(s.N_I * s.N_II) * (1 + 1e-12)

    def test_snapshots_reproduce_state_moments(self):
        # the oracle's per-step coefficient vectors, which the cross-correlation
        # replay samples, carry the engine's noise powers and cross-correlation
        for scheme in (Asymmetric(4), Symmetric(3)):
            for strategy in Strategy:
                cfg = _cfg(scheme, strategy, Regime.H1)
                replay = oracles.campaign(TWO_BRANCH, cfg)
                var = replay.noise_vars
                states = campaign(TWO_BRANCH, cfg)
                assert len(states) == len(replay.coeffs)
                for (c_I, c_II), state in zip(replay.coeffs, states):
                    assert float(np.dot(c_I**2, var)) == pytest.approx(state.N_I, rel=1e-12)
                    assert float(np.dot(c_II**2, var)) == pytest.approx(state.N_II, rel=1e-12)
                    e = float(np.dot(c_I * c_II, var))
                    assert e == pytest.approx(state.e, rel=1e-12, abs=1e-300)


def draw_scenario(rng):
    """Random channel (zero budgets included) and any of the eight variants."""
    lg = lambda: float(10.0 ** rng.uniform(-2.0, 2.0))  # noqa: E731
    params = ChannelParams(
        P=lg(), n1=lg(), n2=lg(), n12=lg(), n21=lg(),
        P12=0.0 if rng.random() < 0.1 else lg(), P21=0.0 if rng.random() < 0.1 else lg(),
        B=float(10.0 ** rng.uniform(-1.0, 1.0)))
    K = int(rng.integers(1, 9))
    starter = Receiver.R1 if rng.random() < 0.5 else Receiver.R2
    scheme = Symmetric(K) if rng.random() < 0.5 else Asymmetric(K, starter)
    strategy = Strategy.S1 if rng.random() < 0.5 else Strategy.S2
    return params, _cfg(scheme, strategy, Regime.H1 if rng.random() < 0.5 else Regime.H2)


class TestEngineMatchesCoefficientCampaign:
    def test_random_scenarios(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            params, cfg = draw_scenario(rng)
            ref = oracles.campaign(params, cfg).states
            got = campaign(params, cfg)
            assert len(got) == len(ref)
            for state, raw in zip(got, ref):
                assert_matches_raw(state, raw, 1e-12)


@st.composite
def count_sweeps(draw):
    """A channel of downlink and cooperation SNRs in [-30, 60] dB (P = 1,
    unit cooperation noise densities) with either budget possibly zero, any
    scheme and starter, strategy and regime, and a sweep bound K in 0..64."""
    lin = lambda d: 10.0 ** (d / 10.0)  # noqa: E731
    dbs = st.floats(min_value=-30.0, max_value=60.0)
    budget = st.one_of(st.just(0.0), dbs.map(lin))
    params = ChannelParams(P=1.0, n1=1.0 / lin(draw(dbs)), n2=1.0 / lin(draw(dbs)),
                           n12=1.0, n21=1.0, P12=draw(budget), P21=draw(budget), B=1.0)
    K = draw(st.integers(0, 64))
    scheme = draw(st.sampled_from([Symmetric(K), Asymmetric(K, Receiver.R1),
                                   Asymmetric(K, Receiver.R2)]))
    return params, _cfg(scheme, draw(st.sampled_from(list(Strategy))),
                        draw(st.sampled_from(list(Regime))))


def moments(C):
    """(N_I, N_II, e) per scenario of a batch of 4x4 covariances."""
    return np.stack([C[:, 0, 0], C[:, 1, 1], C[:, 0, 1]], axis=-1)


def max_error(got, exact):
    """Largest relative error of the noise powers, and of e relative to
    sqrt(N_I N_II), against a reference state."""
    scale = np.stack([exact[:, 0], exact[:, 1], np.sqrt(exact[:, 0] * exact[:, 1])], axis=-1)
    return float(np.max(np.abs(got - exact) / scale))


class TestEngineMatchesCovarianceEngine:
    @settings(deadline=None)
    @given(sweep=count_sweeps())
    def test_against_4x4_engine_and_long_double(self, sweep):
        # the elementwise engine against the 4x4 covariance engine, both in
        # float64, and against that engine run in long double: its error is
        # no worse than the 4x4 engine's, up to a few rounding units
        params, config = sweep
        K = config.count
        configs = [config.with_count(k) for k in range(K + 1)]
        plans = [plan_bandwidth(params, c) for c in configs]
        args = (params.P, np.array([(p.N1, p.N2, p.N12, p.N21) for p in plans]),
                np.array([power_schedule(params, c) for c in configs]), np.arange(K + 1),
                config.strategy is Strategy.S2)
        got = np.array([(s.N_I, s.N_II, s.e) for s in run_recursion(params, config, K)])
        ref = moments(oracles.final_covariance(*args))
        exact = moments(oracles.final_covariance(*args, dtype=np.longdouble))
        eps = np.finfo(float).eps
        assert max_error(got, ref) <= 1e-12
        assert max_error(got, exact) <= 2.0 * max_error(ref, exact) + 4.0 * eps


db = st.floats(min_value=-150.0, max_value=150.0)


@st.composite
def extreme_scenarios(draw):
    lin = lambda d: 10.0 ** (d / 10.0)  # noqa: E731
    budget = st.one_of(st.just(0.0), db.map(lin))
    params = ChannelParams(P=1.0, n1=1.0 / lin(draw(db)), n2=1.0 / lin(draw(db)),
                           n12=1.0, n21=1.0, P12=draw(budget), P21=draw(budget), B=1.0)
    K = draw(st.integers(1, 16))
    scheme = draw(st.sampled_from([Symmetric(K), Asymmetric(K, Receiver.R1),
                                   Asymmetric(K, Receiver.R2)]))
    config = _cfg(scheme, draw(st.sampled_from(list(Strategy))),
                  draw(st.sampled_from(list(Regime))))
    return params, config


class TestEngineRobustness:
    @settings(deadline=None, max_examples=300)
    @given(scenario=extreme_scenarios())
    def test_extreme_decibels(self, scenario):
        # channel and cooperation SNRs from -150 to +150 dB: SNRs stay finite
        # and positive, the cross-correlation obeys Cauchy-Schwarz, combining
        # never loses SNR, and no receiver beats owning both downlinks
        params, config = scenario
        traj = campaign(params, config)
        plan = plan_bandwidth(params, config)
        ceiling = params.P / plan.N1 + params.P / plan.N2
        prev = None
        for s in traj:
            for rho in (s.rho_I, s.rho_II):
                assert 0.0 < rho < math.inf
                assert rho <= ceiling * (1 + 1e-12)
            assert abs(s.e) <= math.sqrt(s.N_I * s.N_II) * (1 + 1e-12)
            if prev is not None:
                assert s.rho_I >= prev.rho_I * (1 - 1e-12)
                assert s.rho_II >= prev.rho_II * (1 - 1e-12)
            prev = s


# extreme SNRs, and the moderate ones at which every combine is live
huge_db = st.one_of(st.floats(min_value=-30.0, max_value=60.0),
                    st.floats(min_value=-320.0, max_value=320.0))


@st.composite
def single_campaigns(draw):
    """One S1 campaign: downlink and cooperation SNRs up to +-320 dB (P = 1),
    budgets that are zero, subnormal, 1e300 or any of those SNRs, any scheme,
    starter and regime, and a count in 0..64."""
    lin = lambda d: 10.0 ** (d / 10.0)  # noqa: E731
    budget = st.one_of(st.sampled_from([0.0, 5e-324, 1e-310, 1e300]), huge_db.map(lin))
    params = ChannelParams(P=1.0, n1=1.0 / lin(draw(huge_db)), n2=1.0 / lin(draw(huge_db)),
                           n12=1.0 / lin(draw(huge_db)), n21=1.0 / lin(draw(huge_db)),
                           P12=draw(budget), P21=draw(budget), B=1.0)
    K = draw(st.integers(0, 64))
    scheme = draw(st.sampled_from([Symmetric(K), Asymmetric(K, Receiver.R1),
                                   Asymmetric(K, Receiver.R2)]))
    return params, _cfg(scheme, Strategy.S1, draw(st.sampled_from(list(Regime))))


# receiver 1 sends 1e-300 W over a link of noise density 1e300: receiver 2's
# branch noise overflows and that combine is skipped
OVERFLOW = ChannelParams(P=1.0, n1=0.1, n2=1.0, n12=1e300, n21=1.0, P12=1e-300, P21=1000.0, B=1.0)


class TestScalarTrajectory:
    @settings(deadline=None, max_examples=300)
    @given(scenario=single_campaigns())
    @example(scenario=(OVERFLOW, _cfg(Symmetric(2))))
    @example(scenario=(ChannelParams(P=10.0, n1=1.0, n2=2.0, n12=1.0, n21=1.0, P12=0.0,
                                     P21=100.0, B=1.0), _cfg(Asymmetric(5, Receiver.R2))))
    def test_campaign_equals_batched_engine(self, scenario):
        # a campaign steps on Python floats; its states must be the batched
        # engine's, bit for bit, run over k + 1 copies of the plan inputs
        # with counts 0..k
        params, config = scenario
        k = config.count
        plan = plan_bandwidth(params, config)
        noises = np.tile([plan.N1, plan.N2, plan.N12, plan.N21], (k + 1, 1))
        periods = np.tile(power_schedule(params, config), (k + 1, 1, 1))
        ref = np.column_stack(final_state(params.P, noises, periods, np.arange(k + 1), False))
        got = np.array([(s.N_I, s.N_II, s.e) for s in campaign(params, config)])
        assert got.tobytes() == ref.tobytes()


class TestRunRecursion:
    def test_zero_exchanges(self):
        traj = run_recursion(TWO_BRANCH, _cfg(Symmetric(0)), 0)
        assert len(traj) == 1
        s = traj[0]
        assert s.rho_I == pytest.approx(10.0 / 1.0)
        assert s.rho_II == pytest.approx(10.0 / 2.0)
        assert (s.N_I, s.N_II, s.e) == (1.0, 2.0, 0.0)

    def test_length_and_determinism(self):
        cfg = _cfg(Symmetric(3), Strategy.S1, Regime.H1)
        t1 = run_recursion(TWO_BRANCH, cfg, 3)
        t2 = run_recursion(TWO_BRANCH, cfg, 3)
        assert len(t1) == 4
        assert t1 == t2

    def test_forward_original_flat_under_fixed_downlink(self):
        cfg = _cfg(Symmetric(5), Strategy.S2, Regime.H2)
        traj = run_recursion(TWO_BRANCH, cfg, 5)
        rI, rII = s2_closed_form(TWO_BRANCH, plan_bandwidth(TWO_BRANCH, cfg), 5)
        for s in traj[1:]:
            assert s.rho_I == pytest.approx(rI, rel=1e-12)
            assert s.rho_II == pytest.approx(rII, rel=1e-12)

    def test_forward_original_beats_forward_latest_two_exchanges(self):
        cfg1 = _cfg(Asymmetric(2), Strategy.S1, Regime.H2)
        cfg2 = _cfg(Asymmetric(2), Strategy.S2, Regime.H2)
        r1 = run_recursion(TWO_BRANCH, cfg1, 2)[-1].rho_I
        r2 = run_recursion(TWO_BRANCH, cfg2, 2)[-1].rho_I
        assert r1 <= r2 * (1 + 1e-12)

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            run_recursion(TWO_BRANCH, _cfg(Symmetric(1)), -1)

    @pytest.mark.parametrize("scheme", [Symmetric(1), Asymmetric(1, Receiver.R2)])
    def test_memory_is_linear_in_the_count(self, scheme):
        # a per-step power layout of every count would hold (K + 1) x K x 2
        # floats: 16 MiB at K = 1024
        tracemalloc.start()
        try:
            traj = run_recursion(TWO_BRANCH, _cfg(scheme), 1024)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(traj) == 1025
        assert peak < 4 * 2**20


FROZEN = ChannelParams(P=10.0, n1=1.0, n2=2.0, n12=1.0, n21=1.0, P12=0.0, P21=100.0, B=1.0)


class TestClosedForm:
    def test_frozen_value(self):
        plan = plan_bandwidth(FROZEN, _cfg(Symmetric(1), Strategy.S2, Regime.H2))
        rI, rII = s2_closed_form(FROZEN, plan, 1)
        assert rI == pytest.approx(10.0 + 1000.0 / 212.0, rel=1e-12)
        assert rI == pytest.approx(14.716981132075472, rel=1e-12)
        assert rII == pytest.approx(5.0)

    def test_zero_budgets(self):
        p = ChannelParams(P=10.0, n1=1.0, n2=2.0, n12=1.0, n21=1.0, P12=0.0, P21=0.0, B=1.0)
        plan = plan_bandwidth(p, _cfg(Symmetric(2), Strategy.S2, Regime.H2))
        assert s2_closed_form(p, plan, 2) == (10.0, 5.0)

    @settings(deadline=None)
    @given(params=channel_params(), Ks=st.integers(1, 4), regime=st.sampled_from(list(Regime)))
    def test_matches_recursion(self, params, Ks, regime):
        cfg = _cfg(Symmetric(Ks), Strategy.S2, regime)
        traj = run_recursion(params, cfg, Ks)
        rI, rII = s2_closed_form(params, plan_bandwidth(params, cfg), Ks)
        assert traj[-1].rho_I == pytest.approx(rI, rel=1e-9)
        assert traj[-1].rho_II == pytest.approx(rII, rel=1e-9)

    @settings(deadline=None)
    @given(params=channel_params())
    def test_fixed_downlink_band_independent_of_count(self, params):
        values = set()
        for Ks in (1, 2, 5):
            plan = plan_bandwidth(params, _cfg(Symmetric(Ks), Strategy.S2, Regime.H2))
            rI, rII = s2_closed_form(params, plan, Ks)
            values.add((round(rI, 12), round(rII, 12)))
        assert len(values) == 1

    def test_symmetric_pair_equals_two_asymmetric_exchanges(self):
        for regime in Regime:
            sym = campaign(TWO_BRANCH, _cfg(Symmetric(1), Strategy.S2, regime))[-1]
            asym = campaign(TWO_BRANCH, _cfg(Asymmetric(2), Strategy.S2, regime))[-1]
            assert asym.rho_I == pytest.approx(sym.rho_I, rel=1e-12)
            assert asym.rho_II == pytest.approx(sym.rho_II, rel=1e-12)


class TestStrategyComparison:
    def test_zero_budget_vanishes(self):
        plan = plan_bandwidth(FROZEN, _cfg(Asymmetric(2), regime=Regime.H2))
        assert s1_vs_s2_numerator(FROZEN, plan) == 0.0  # P12 = 0
        p = ChannelParams(P=10.0, n1=1.0, n2=2.0, n12=1.0, n21=1.0, P12=5.0, P21=0.0, B=1.0)
        assert s1_vs_s2_numerator(p, plan_bandwidth(p, _cfg(Asymmetric(2), regime=Regime.H2))) == 0.0

    @settings(deadline=None)
    @given(params=channel_params())
    def test_nonnegative_and_sign_agrees_with_recursion(self, params):
        cfg1 = _cfg(Asymmetric(2), Strategy.S1, Regime.H2)
        cfg2 = _cfg(Asymmetric(2), Strategy.S2, Regime.H2)
        plan = plan_bandwidth(params, cfg1)
        num = s1_vs_s2_numerator(params, plan)
        assert num >= 0.0
        diff = (
            run_recursion(params, cfg2, 2)[-1].rho_I
            - run_recursion(params, cfg1, 2)[-1].rho_I
        )
        assert diff >= -1e-9 * abs(run_recursion(params, cfg1, 2)[-1].rho_I)
        if num > 0:
            assert diff >= 0.0


class TestMiConservation:
    def test_first_exchange_independent_branches(self):
        cfg = _cfg(Symmetric(1), regime=Regime.H2)
        plan = plan_bandwidth(TWO_BRANCH, cfg)
        st0 = initial_state(TWO_BRANCH, plan)
        powers = power_per_exchange(TWO_BRANCH, cfg, 1)
        mi_c, mi_v = mi_conservation_check(st0, TWO_BRANCH.P, powers, (plan.N12, plan.N21))
        expect = math.log2(1.0 + 5.0 + 1000.0 / 111.0)
        assert mi_c == pytest.approx(expect, rel=1e-12)
        assert mi_v == pytest.approx(expect, rel=1e-12)

    def test_zero_gain_keeps_mi(self):
        plan = plan_bandwidth(TWO_BRANCH, _cfg(Symmetric(1), regime=Regime.H2))
        st0 = initial_state(TWO_BRANCH, plan)
        mi_c, mi_v = mi_conservation_check(st0, TWO_BRANCH.P, (0.0, 0.0), (plan.N12, plan.N21))
        assert mi_c == pytest.approx(math.log2(1.0 + st0.rho_II), rel=1e-12)
        assert mi_v == pytest.approx(mi_c, rel=1e-12)

    @settings(deadline=None)
    @given(params=channel_params(), K=st.integers(1, 3), receiver=st.sampled_from(list(Receiver)))
    def test_equality_on_evolved_states(self, params, K, receiver):
        cfg = _cfg(Symmetric(K), Strategy.S1, Regime.H1)
        state = oracles.campaign(params, cfg).states[-1]
        powers = power_per_exchange(params, cfg, K)
        plan = plan_bandwidth(params, cfg)
        mi_c, mi_v = mi_conservation_check(state, params.P, powers, (plan.N12, plan.N21), receiver)
        assert mi_c == pytest.approx(mi_v, rel=1e-9)


class TestRatioForm:
    def test_independent_equal_branches(self):
        # two independent branches with SNR 5 each combine to SNR 10
        assert ratio_form_snr(10.0, 1.0, 10.0, 1.0, 5.0, 2.0, 0.0, 11.0) == pytest.approx(10.0)
