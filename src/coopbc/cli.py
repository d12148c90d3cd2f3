"""Command-line front end.

Commands:
  snr      per-exchange combiner states of one amplify-and-forward campaign
  rate     achievable rate versus provisioned exchange count
  ber      Monte Carlo bit error rates versus provisioned exchange count
  regions  protocol decision regions over a receiver noise grid
  compare  AF (both strategies) versus DF error rates, shared noise seed

Every command reads a scenario file, writes CSV (stdout or --out) with one
leading comment line describing the resolved scenario, and is byte-for-byte
deterministic for a fixed scenario, seed and thread count. Exit codes:
0 success, 2 configuration, modulation or output error, 3 numeric error.
"""
from __future__ import annotations

import argparse
import contextlib
import dataclasses
import itertools
import math
import sys
from typing import Iterable, Iterator, Optional, Sequence, Union

import numpy as np

from . import __version__
from .af import campaign, run_recursion
from .channel import (
    Asymmetric,
    CoopConfig,
    Protocol,
    Strategy,
    Symmetric,
    plan_bandwidth,
)
from .errors import ModulationError, ScenarioError
from .mc import AfRunResult, DfRunResult, simulate_af, simulate_df
from .metrics import decision_regions, error_criteria, rate_af, simo_bound
from .scenario import Scenario, parse_scenario

__all__ = ["main"]

Row = Sequence[Union[str, int, float]]
# A table's columns as (name, format) pairs: counts and orders print as
# integers, every other number with 12 significant digits, text as is.
Columns = tuple[tuple[str, str], ...]
Table = tuple[Columns, Iterable[Row]]

_INT, _FLOAT, _TEXT = "{:d}", "{:.12g}", "{}"


def _floats(*names: str) -> Columns:
    return tuple((name, _FLOAT) for name in names)


SNR_COLUMNS = (("i", _INT), *_floats("alpha_1", "alpha_2", "N_1", "N_2", "e", "rho_1", "rho_2"))
RATE_COLUMNS = (("k", _INT), *_floats("b_dl", "b_c", "rho_1", "rho_2", "rate_af", "simo_bound"))
_BER_COLUMNS = (("k", _INT), *_floats("ber_1", "stderr_1", "ber_2", "stderr_2", "pe_sys",
                                      "pe_sys_stderr", "pe_max", "pe_sum"))
BER_AF_COLUMNS = _BER_COLUMNS + _floats("snr_1", "snr_2", "rho_1", "rho_2")
BER_DF_COLUMNS = _BER_COLUMNS + (("source_order", _INT), ("relay_order", _INT))
REGIONS_COLUMNS = (("kind", _TEXT), *_floats("ratio_db", "n1", "n2"), ("winner", _INT))
COMPARE_COLUMNS = (("k", _INT), *_floats("af_s1_ber_max", "af_s1_pe_sys", "af_s2_ber_max",
                                         "af_s2_pe_sys", "df_ber_max", "df_pe_sys"))


def _summary(s: Scenario) -> str:
    p, c = s.params, s.config
    scheme = "symmetric" if isinstance(c.scheme, Symmetric) else "asymmetric"
    parts = [
        f"protocol={c.protocol.value} scheme={scheme} strategy={c.strategy.value} "
        f"regime={c.regime.value} k={c.count} k_max={s.k_max}",
        f"P={p.P:.12g} n1={p.n1:.12g} n2={p.n2:.12g} n12={p.n12:.12g} "
        f"n21={p.n21:.12g} P12={p.P12:.12g} P21={p.P21:.12g} B={p.B:.12g}",
        f"trials={s.trial.trials} seed={s.trial.seed}",
    ]
    if isinstance(c.scheme, Asymmetric):
        parts[0] += f" starter=r{c.scheme.starter.value}"
    return " | ".join(parts)


def _emit(out: Optional[str], scenario: Scenario, columns: Columns, rows: Iterable[Row]) -> None:
    """Write the comment line, the header and one line per row. No name or
    text cell holds a comma, quote or line break, so no field is quoted."""
    names, formats = zip(*columns)
    line = ",".join(formats) + "\n"
    with contextlib.nullcontext(sys.stdout) if out is None else open(out, "w", newline="") as fh:
        fh.write(f"# {_summary(scenario)} | coopbc {__version__}\n{','.join(names)}\n")
        fh.writelines(itertools.starmap(line.format, rows))


def _require_af(s: Scenario, command: str) -> None:
    if s.config.protocol is not Protocol.AF:
        raise ScenarioError(
            f"the {command} command evaluates the amplify-and-forward recursion; "
            "set [cooperation] protocol = af"
        )


def cmd_snr(s: Scenario, args: argparse.Namespace) -> Table:
    """Within-campaign combiner states i = 0..k under the provisioned plan."""
    _require_af(s, "snr")
    # combiner outputs are kept at unit signal gain (alpha = 1)
    return SNR_COLUMNS, [(st.i, 1.0, 1.0, st.N_I, st.N_II, st.e, st.rho_I, st.rho_II)
                         for st in campaign(s.params, s.config)]


def cmd_rate(s: Scenario, args: argparse.Namespace) -> Table:
    """Final SNRs and achievable rate for each provisioned count k = 0..k_max."""
    _require_af(s, "rate")
    bound = simo_bound(s.params)
    rows: list[Row] = []
    for k, st in enumerate(run_recursion(s.params, s.config, s.k_max)):
        plan = plan_bandwidth(s.params, s.config.with_count(k))
        rows.append((k, plan.B_DL, plan.B_C, st.rho_I, st.rho_II,
                     rate_af(plan, (st.rho_I, st.rho_II)), bound))
    return RATE_COLUMNS, rows


def _sweep(s: Scenario, configs: Sequence[CoopConfig], args: argparse.Namespace
           ) -> Union[Sequence[AfRunResult], Sequence[DfRunResult]]:
    """One Monte Carlo sweep of `configs` (all of one protocol) with the
    scenario's trial budget, modulation and decode-and-forward options."""
    if configs[0].protocol is Protocol.AF:
        return simulate_af(s.params, configs, s.trial, order=s.source_order, threads=args.threads)
    return simulate_df(
        s.params, configs, s.source_order, s.trial,
        combiner=s.combiner, relay_model=s.relay_model,
        coop_bandwidth_fraction=s.coop_bandwidth_fraction, threads=args.threads,
    )


def cmd_ber(s: Scenario, args: argparse.Namespace) -> Table:
    """Monte Carlo error rates for each provisioned count k = 0..k_max."""
    af = s.config.protocol is Protocol.AF
    configs = [s.config.with_count(k) for k in range(s.k_max + 1)]
    rows: list[Row] = []
    for config, r in zip(configs, _sweep(s, configs, args)):
        pe_max, pe_sum = error_criteria(r.ber_I.ber, r.ber_II.ber, r.pe_sys.ber)
        tail = ((r.snr_I.value, r.snr_II.value, r.analytic.rho_I, r.analytic.rho_II) if af
                else (r.source_order, r.relay_order))
        rows.append((config.count, r.ber_I.ber, r.ber_I.stderr, r.ber_II.ber, r.ber_II.stderr,
                     r.pe_sys.ber, r.pe_sys.stderr, pe_max, pe_sum, *tail))
    return (BER_AF_COLUMNS if af else BER_DF_COLUMNS), rows


def cmd_regions(s: Scenario, args: argparse.Namespace) -> Table:
    """Winning-strategy map over a log grid of receiver noise densities."""
    _require_af(s, "regions")
    grid = np.logspace(math.log10(s.grid_min), math.log10(s.grid_max), s.grid_points)
    rmap = decision_regions(s.params, s.config, n1_grid=grid, n2_grid=grid,
                            ratios_db=s.ratios_db)

    def rows() -> Iterator[Row]:
        # the map is computed, so nothing raises from here: the rows stream
        n1 = np.repeat(rmap.n1_grid, len(rmap.n2_grid)).tolist()
        n2 = np.tile(rmap.n2_grid, len(rmap.n1_grid)).tolist()
        for ratio, winners, boundary in zip(rmap.ratios_db, rmap.winners, rmap.boundaries):
            yield from zip(itertools.repeat("cell"), itertools.repeat(ratio), n1, n2,
                           winners.ravel().tolist())
            yield from (("boundary", ratio, b1, b2, 0) for b1, b2 in boundary)

    return REGIONS_COLUMNS, rows()


def cmd_compare(s: Scenario, args: argparse.Namespace) -> Table:
    """AF under both forwarding strategies versus DF, shared seed, per count."""
    counts = range(s.k_max + 1)
    # without an exchange there is no strategy: S2 at k = 0 is the S1 campaign
    af = [dataclasses.replace(s.config, protocol=Protocol.AF, strategy=strategy).with_count(k)
          for strategy, ks in ((Strategy.S1, counts), (Strategy.S2, counts[1:])) for k in ks]
    df = [dataclasses.replace(s.config, protocol=Protocol.DF).with_count(k) for k in counts]
    af_runs, df_runs = _sweep(s, af, args), _sweep(s, df, args)
    return COMPARE_COLUMNS, [
        (k, *(x for r in runs for x in (max(r.ber_I.ber, r.ber_II.ber), r.pe_sys.ber)))
        for k, *runs in zip(counts, af_runs, af_runs[:1] + af_runs[len(counts):], df_runs)
    ]


_COMMANDS = {
    "snr": cmd_snr,
    "rate": cmd_rate,
    "ber": cmd_ber,
    "regions": cmd_regions,
    "compare": cmd_compare,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coopbc",
        description="Cooperative broadcast channel analysis and simulation.",
        epilog="commands:\n" + "\n".join(f"  {name:<8} {fn.__doc__}"
                                          for name, fn in _COMMANDS.items()),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("command", choices=_COMMANDS, help="one of the commands below")
    parser.add_argument("--scenario", required=True, help="scenario INI file")
    parser.add_argument("--out", default=None, help="output CSV path (default: stdout)")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the scenario seed (unsigned 64-bit)")
    parser.add_argument("--threads", type=int, default=1,
                        help="worker threads for Monte Carlo batches")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        scenario = parse_scenario(args.scenario)
        if args.seed is not None:
            trial = dataclasses.replace(scenario.trial, seed=args.seed)
            scenario = dataclasses.replace(scenario, trial=trial)
        if args.threads < 1:
            raise ScenarioError("--threads must be >= 1")
        columns, rows = _COMMANDS[args.command](scenario, args)
        try:
            _emit(args.out, scenario, columns, rows)
        except OSError as exc:
            where = "stdout" if args.out is None else args.out
            raise ScenarioError(f"cannot write {where}: {exc.strerror or exc}") from None
    # LinAlgError subclasses ValueError, so numeric errors are caught first
    except (FloatingPointError, OverflowError, ZeroDivisionError, np.linalg.LinAlgError,
            MemoryError) as exc:
        print(f"error: {exc or type(exc).__name__}", file=sys.stderr)
        return 3
    except (ScenarioError, ModulationError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0
