"""The benchmark's workloads: lists of `coopbc` CLI jobs generated from a seed.

Every job is one call of the CLI entry point on a scenario INI file. The
sizes of a workload and the channel of each job are fixed; the seed moves
only values that leave the work of a pass unchanged: Monte Carlo seeds, and
for the analytic jobs grid bounds, power ratios, regimes and starters. No job
uses an early stop, so every Monte Carlo job decides a fixed number of bits.
"""
from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

# The reference channels of the acceptance tests: snr1, snr2, snr12, snr21 (dB).
REFERENCE_CHANNELS = ((10, 0, 30, 30), (7, 3, 30, 30), (10, 10, 30, 30))

# Symbols per Monte Carlo batch in coopbc.mc.
BATCH = 65536


@dataclass(frozen=True)
class Job:
    """One CLI call: `command` on the scenario built from `sections`.

    `checks` names the output checks of `checks.py` that the CSV must pass;
    `pair` names the job whose output a paired check compares against.
    """

    name: str
    command: str
    sections: dict
    checks: tuple[str, ...] = ()
    pair: Optional[str] = None

    def scenario_text(self) -> str:
        lines = []
        for section, values in self.sections.items():
            lines.append(f"[{section}]")
            lines.extend(f"{key} = {value}" for key, value in values.items())
        return "\n".join(lines) + "\n"

    def scenario_path(self, workdir: Path) -> Path:
        return workdir / f"{self.name}.ini"

    def out_path(self, workdir: Path, tag: str = "") -> Path:
        return workdir / f"{self.name}{tag}.csv"

    def argv(self, workdir: Path, threads: int, tag: str = "") -> list[str]:
        return [self.command, "--scenario", str(self.scenario_path(workdir)),
                "--out", str(self.out_path(workdir, tag)), "--threads", str(threads)]


@dataclass(frozen=True)
class Workload:
    """A job list run at `threads`; `probe` is the job that is run once more
    at `probe_threads`, to check that its output does not depend on the
    thread count and to measure the parallel speedup."""

    name: str
    jobs: tuple[Job, ...]
    threads: int
    probe: Optional[str] = None
    probe_threads: Optional[int] = None

    def job(self, name: str) -> Job:
        return next(j for j in self.jobs if j.name == name)


def _channel(db: tuple[int, int, int, int]) -> dict:
    return dict(zip(("snr1", "snr2", "snr12", "snr21"), db))


def analytic(seed: int) -> Workload:
    """Decision regions, rate sweeps and one long campaign; no Monte Carlo."""
    rng = random.Random(seed)
    channels = REFERENCE_CHANNELS
    low, high = round(-2.0 - rng.uniform(0.0, 0.5), 3), round(2.0 + rng.uniform(0.0, 0.5), 3)
    # ratios symmetric about 0 dB, so the swap check has a partner for each
    a, b = round(rng.uniform(2.0, 8.0), 2), round(rng.uniform(12.0, 30.0), 2)
    jobs = [Job("regions", "regions", {
        "channel": _channel(channels[0]),
        "cooperation": {"scheme": "asymmetric", "k": 2},
        "regions": {"grid_points": 31, "grid_min": repr(10.0**low),
                    "grid_max": repr(10.0**high), "ratios_db": f"{-b}, {-a}, 0, {a}, {b}"},
    }, checks=("regions_swap",))]
    for i, (strategy, scheme) in enumerate(
        itertools.product(("s1", "s2"), ("symmetric", "asymmetric"))
    ):
        coop = {"scheme": scheme, "strategy": strategy,
                "regime": rng.choice(("h1", "h2")), "k": 1, "k_max": 64}
        if scheme == "asymmetric":
            coop["starter"] = rng.choice(("r1", "r2"))
        checks = ("rate_bound", "s2_closed_form") if strategy == "s2" else ("rate_bound",)
        jobs.append(Job(f"rate_{strategy}_{scheme}", "rate", {
            "channel": _channel(channels[i % 3]), "cooperation": coop,
        }, checks=checks))
    jobs.append(Job("snr_k512", "snr", {
        "channel": _channel(channels[2]),
        "cooperation": {"scheme": "symmetric", "regime": rng.choice(("h1", "h2")), "k": 512},
    }, checks=("snr_states",)))
    return Workload("analytic", tuple(jobs), threads=1)


def af_mc(seed: int) -> Workload:
    """AF bit error rates at 4-QAM (sampler-bound) and 256-QAM (detector-bound)."""
    rng = random.Random(seed)
    jobs = []
    for order, trials, channel in ((4, 4 * BATCH, REFERENCE_CHANNELS[0]),
                                   (256, BATCH // 2, REFERENCE_CHANNELS[2])):
        jobs.append(Job(f"af_qam{order}", "ber", {
            "channel": _channel(channel),
            "cooperation": {"protocol": "af", "scheme": "symmetric",
                            "strategy": "s1", "regime": "h1", "k": 2, "k_max": 2},
            "modulation": {"source_order": order},
            "trials": {"trials": trials, "seed": rng.getrandbits(63)},
        }, checks=("pe_sandwich", "af_snr")))
    return Workload("af_mc", tuple(jobs), threads=1, probe="af_qam4", probe_threads=2)


def df_mc(seed: int) -> Workload:
    """DF bit error rates: MLD at 16-QAM and BPSK->16-QAM, the MRC baseline,
    and a compare job that shares the MRC job's scenario and seed."""
    rng = random.Random(seed)

    def df_sections(channel, order, trials, scheme, **coop) -> dict:
        return {
            "channel": _channel(channel),
            "cooperation": {"protocol": "df", "scheme": scheme, "regime": "h2",
                            "k": 2, "k_max": 2, **coop},
            "modulation": {"source_order": order},
            "trials": {"trials": trials, "seed": rng.getrandbits(63)},
        }

    shared = df_sections(REFERENCE_CHANNELS[1], 4, 2 * BATCH, "symmetric")
    mrc = {**shared, "trials": {**shared["trials"], "combiner": "mrc"}}
    jobs = (
        # half a batch: 16-QAM MLD sets the peak RSS of the workload
        Job("df_qam16", "ber", df_sections(REFERENCE_CHANNELS[2], 16, BATCH // 2, "symmetric"),
            checks=("pe_sandwich",)),
        # two batches, so that the probe at 2 threads splits it between them
        Job("df_bpsk_qam16", "ber",
            df_sections(REFERENCE_CHANNELS[0], 2, 2 * BATCH, "asymmetric",
                        coop_bandwidth_fraction=0.25),
            checks=("pe_sandwich",)),
        Job("df_mrc_qam4", "ber", mrc, checks=("pe_sandwich",)),
        Job("compare_qam4", "compare", shared, checks=("compare_order", "mld_vs_mrc"),
            pair="df_mrc_qam4"),
    )
    return Workload("df_mc", jobs, threads=1, probe="df_bpsk_qam16", probe_threads=2)


WORKLOADS = {"analytic": analytic, "af_mc": af_mc, "df_mc": df_mc}


def workload(name: str, seed: int) -> Workload:
    return WORKLOADS[name](seed)


def write_inputs(wl: Workload, workdir: Path) -> None:
    for job in wl.jobs:
        job.scenario_path(workdir).write_text(job.scenario_text())
