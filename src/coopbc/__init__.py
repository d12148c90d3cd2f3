"""Simulation and analysis toolkit for a two-receiver broadcast channel with
an orthogonal bidirectional cooperation link."""
from __future__ import annotations

__version__ = "0.1.0"

from .channel import (
    Asymmetric,
    BandwidthPlan,
    ChannelParams,
    CoopConfig,
    Protocol,
    Receiver,
    Regime,
    Scheme,
    Strategy,
    Symmetric,
    plan_bandwidth,
    power_per_exchange,
    power_schedule,
    transmissions_per_step,
    transmitter_at,
)
from .af import (
    SnrState,
    SnrTrajectory,
    campaign,
    evolve,
    final_covariance,
    run_recursion,
    s1_vs_s2_numerator,
    s2_closed_form,
)
from .df import (
    BlockShape,
    Constellation,
    RelayErrorModel,
    RelayObservation,
    choose_compatible_modulation,
    ensure_enumerable,
    estimate_relay_errors,
    mld_llr_batch,
    nearest_neighbor_error_model,
    qam,
    relay_decode_and_remap,
)
from .mc import (
    AfRunResult,
    BerEstimate,
    DfRunResult,
    SnrEstimate,
    TrialConfig,
    simulate_af,
    simulate_df,
)
from .metrics import (
    CriteriaReport,
    RegionMap,
    criteria,
    decision_regions,
    optimal_k,
    rate_af,
    simo_bound,
)
from .scenario import Scenario, parse_scenario, parse_scenario_text, serialize_scenario
from .errors import EnumerationBoundError, ModulationError, ScenarioError
