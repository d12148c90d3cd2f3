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
from .metrics import RegionMap, decision_regions, error_criteria, rate_af, simo_bound
from .scenario import Scenario, parse_scenario

__all__ = ["main"]

Row = tuple[Union[str, int, float], ...]
# A table's columns as (name, printf format) pairs: counts and orders print as
# integers, every other number with 12 significant digits, text as is.
Columns = tuple[tuple[str, str], ...]
# A table's columns and its body, rendered line by line or in larger blocks.
Table = tuple[Columns, Iterable[str]]

_INT, _FLOAT, _TEXT = "%d", "%.12g", "%s"


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


def _render(columns: Columns, rows: Iterable[Row]) -> Table:
    """The table of `rows`, each line rendered through one printf template of
    the column formats. No name or text cell holds a comma, quote or line
    break, so no field is quoted."""
    return columns, map((",".join(fmt for _, fmt in columns) + "\n").__mod__, rows)


def _emit(out: Optional[str], scenario: Scenario, columns: Columns, body: Iterable[str]) -> None:
    """Write the comment line, the header and the body."""
    with contextlib.nullcontext(sys.stdout) if out is None else open(out, "w", newline="") as fh:
        fh.write(f"# {_summary(scenario)} | coopbc {__version__}\n"
                 f"{','.join(name for name, _ in columns)}\n")
        fh.writelines(body)


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
    return _render(SNR_COLUMNS, [(st.i, 1.0, 1.0, st.N_I, st.N_II, st.e, st.rho_I, st.rho_II)
                                 for st in campaign(s.params, s.config)])


def cmd_rate(s: Scenario, args: argparse.Namespace) -> Table:
    """Final SNRs and achievable rate for each provisioned count k = 0..k_max."""
    _require_af(s, "rate")
    bound = simo_bound(s.params)
    rows: list[Row] = []
    for k, st in enumerate(run_recursion(s.params, s.config, s.k_max)):
        plan = plan_bandwidth(s.params, s.config.with_count(k))
        rows.append((k, plan.B_DL, plan.B_C, st.rho_I, st.rho_II,
                     rate_af(plan, (st.rho_I, st.rho_II)), bound))
    return _render(RATE_COLUMNS, rows)


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
    return _render(BER_AF_COLUMNS if af else BER_DF_COLUMNS, rows)


def cmd_regions(s: Scenario, args: argparse.Namespace) -> Table:
    """Winning-strategy map over a log grid of receiver noise densities."""
    _require_af(s, "regions")
    grid = np.logspace(math.log10(s.grid_min), math.log10(s.grid_max), s.grid_points)
    rmap = decision_regions(s.params, s.config, grid=grid, ratios_db=s.ratios_db)
    return REGIONS_COLUMNS, _regions_lines(rmap)


def _regions_lines(rmap: RegionMap) -> Iterator[str]:
    """The rows of a region map, ratio by ratio: one block of cell lines
    (n1 major), then one block of boundary lines. Every distinct grid value,
    ratio and winner is formatted once, in the format REGIONS_COLUMNS
    declares (n1 and n2 share one); the map is computed, so nothing raises
    from here."""
    kind, ratio_fmt, n_fmt, _, winner_fmt = (fmt for _, fmt in REGIONS_COLUMNS)
    grid = [n_fmt % v for v in rmap.grid.tolist()]
    # the end of a cell line at column j with winner w is tails[3 j + w + 1]
    tails = np.array([f"{v},{winner_fmt % w}\n" for v in grid for w in (-1, 0, 1)], dtype=object)
    column = np.arange(1, 3 * len(grid), 3)
    # a boundary point's n1 is a grid value, and so is a tie's n2; every map
    # value is positive, so no two keys (0.0 and -0.0) format apart
    known = dict(zip(rmap.grid.tolist(), grid))
    tie = winner_fmt % 0
    for ratio, winners, boundary in zip(rmap.ratios_db, rmap.winners, rmap.boundaries):
        ratio_text = ratio_fmt % ratio
        heads = [f"{kind % 'cell'},{ratio_text},{v}," for v in grid]
        # head + head.join(ends) puts the row's head before each of its ends
        yield "".join(head + head.join(ends)
                      for head, ends in zip(heads, tails[winners + column].tolist()) if ends)
        head = f"{kind % 'boundary'},{ratio_text},"
        yield "".join(f"{head}{known.get(b1) or n_fmt % b1},{known.get(b2) or n_fmt % b2},{tie}\n"
                      for b1, b2 in boundary)


def cmd_compare(s: Scenario, args: argparse.Namespace) -> Table:
    """AF under both forwarding strategies versus DF, shared seed, per count."""
    counts = range(s.k_max + 1)
    # without an exchange there is no strategy: S2 at k = 0 is the S1 campaign
    af = [dataclasses.replace(s.config, protocol=Protocol.AF, strategy=strategy).with_count(k)
          for strategy, ks in ((Strategy.S1, counts), (Strategy.S2, counts[1:])) for k in ks]
    df = [dataclasses.replace(s.config, protocol=Protocol.DF).with_count(k) for k in counts]
    af_runs, df_runs = _sweep(s, af, args), _sweep(s, df, args)
    return _render(COMPARE_COLUMNS, [
        (k, *(x for r in runs for x in (max(r.ber_I.ber, r.ber_II.ber), r.pe_sys.ber)))
        for k, *runs in zip(counts, af_runs, af_runs[:1] + af_runs[len(counts):], df_runs)
    ])


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
        columns, body = _COMMANDS[args.command](scenario, args)
        try:
            _emit(args.out, scenario, columns, body)
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
