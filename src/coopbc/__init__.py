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
    power_schedule,
    transmissions,
)
from .af import (
    SnrState,
    campaign,
    final_state,
    run_recursion,
)
from .df import (
    BlockShape,
    Constellation,
    RelayErrorModel,
    RelayObservation,
    choose_compatible_modulation,
    estimate_relay_errors,
    mld_llr_batch,
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
    RegionMap,
    decision_regions,
    error_criteria,
    optimal_k,
    rate_af,
    simo_bound,
)
from .scenario import Scenario, parse_scenario, parse_scenario_text
from .errors import ModulationError, ScenarioError
