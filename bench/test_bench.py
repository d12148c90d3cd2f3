"""Tests of the benchmark itself: tracing leaves results and the package as
they were, and a traced name that no longer exists is reported as absent.

    python3 -m pytest -q bench
"""
from __future__ import annotations

import importlib
import sys

import pytest

import checks
import jobs
import run
import tracing

sys.path.insert(0, str(run.SRC))
cli = importlib.import_module("coopbc.cli")

_CHANNEL = {"snr1": 7, "snr2": 3, "snr12": 30, "snr21": 30}


def _small_workload() -> jobs.Workload:
    """Every command on tiny inputs; the DF job has two batches, so at two
    threads its detector spans open on worker threads."""
    af = {"channel": _CHANNEL, "cooperation": {"k": 2, "k_max": 1},
          "trials": {"trials": 3000, "seed": 5}}
    df = {"channel": _CHANNEL,
          "cooperation": {"protocol": "df", "regime": "h2", "k": 1, "k_max": 1},
          "trials": {"trials": 2 * jobs.BATCH, "seed": 5}}
    regions = {"channel": _CHANNEL, "cooperation": {"scheme": "asymmetric", "k": 2},
               "regions": {"grid_points": 4, "ratios_db": "-10, 0, 10"}}
    return jobs.Workload("small", (
        jobs.Job("snr", "snr", af, checks=("snr_states",)),
        jobs.Job("rate", "rate", af, checks=("rate_bound",)),
        jobs.Job("regions", "regions", regions, checks=("regions_swap",)),
        jobs.Job("af_ber", "ber", af, checks=("pe_sandwich", "af_snr")),
        jobs.Job("df_ber", "ber", df, checks=("pe_sandwich",)),
        jobs.Job("compare", "compare", af, checks=("compare_order",)),
    ), threads=2)


@pytest.fixture
def small(tmp_path):
    wl = _small_workload()
    jobs.write_inputs(wl, tmp_path)
    return wl, tmp_path


def _site_objects() -> dict[tracing.Site, object]:
    return {site: tracing._resolve(site)[2] for t in tracing.TARGETS for site in t.sites}


def test_traced_outputs_equal_untraced(small):
    wl, workdir = small
    untraced = run.run_pass(cli, wl, workdir)
    tracer = tracing.Tracer()
    with tracer.installed(tracing.TARGETS):
        traced = run.run_pass(cli, wl, workdir)
    for name, r in untraced.items():
        assert r.rc == 0 and traced[name].rc == 0, name
        assert traced[name].sha256 == r.sha256, name
        assert checks.check_job(wl.job(name), wl.job(name).out_path(workdir), None) is None
    assert not tracer.absent
    values = run.layer_values(tracer)
    assert all(v is not None for v in values.values())
    for name in ("af.campaign_calls", "metrics.region_cells", "df.detect_ops",
                 "df.mld_blocks", "df.relay_pilot_s", "mc.bits", "cli.self_s"):
        assert values[name] > 0, name
    # worker-thread detector spans are children of simulate_df, not roots
    assert 0.0 <= values["mc.simulate_df_self_s"] < values["mc.simulate_df_s"]


def test_every_wrapper_is_restored():
    before = _site_objects()
    tracer = tracing.Tracer()
    with pytest.raises(RuntimeError):
        with tracer.installed(tracing.TARGETS):
            during = _site_objects()
            raise RuntimeError("a job failed inside the traced run")
    assert all(getattr(obj, "__bench_traced__", False) for obj in during.values())
    after = _site_objects()
    assert all(after[site] is obj for site, obj in before.items())
    assert "__bench_traced__" not in vars(cli.main)


def test_missing_names_are_absent(small):
    wl, workdir = small
    gone = (
        tracing.Target("af.campaign", (("coopbc.metrics", "no_such_function"),
                                       ("coopbc.no_such_module", "campaign")),
                       counters=("af.campaign_steps",)),
        tracing.Target("df.detect", (("coopbc.df", "Constellation", "no_such_method"),),
                       counters=("df.detect_ops",)),
        # present, but its observer no longer understands the call
        tracing.Target("mc.simulate_af", (("coopbc.cli", "simulate_af"),),
                       observe=lambda tr, args, kwargs, result: result.no_such_field,
                       counters=("mc.symbols",)),
    )
    tracer = tracing.Tracer()
    with tracer.installed(gone):
        passed = run.run_pass(cli, wl, workdir)
    assert all(r.rc == 0 for r in passed.values())
    assert tracer.absent == {"af.campaign", "af.campaign_steps", "df.detect",
                             "df.detect_ops", "mc.symbols"}
    values = run.layer_values(tracer)
    for name in ("af.campaign_calls", "af.campaign_s", "af.campaign_steps",
                 "df.detect_s", "df.detect_ops", "mc.symbols"):
        assert values[name] is None, name
    assert values["mc.simulate_af_s"] > 0


def test_checks_reject_corrupted_outputs(small):
    wl, workdir = small
    for name in ("regions", "af_ber"):
        assert run.run_job(cli, wl.job(name), workdir, 1).rc == 0
    regions = wl.job("regions").out_path(workdir)
    lines = regions.read_text().splitlines()
    cell = next(i for i, line in enumerate(lines) if line.startswith("cell,") and
                not line.endswith(",0"))
    lines[cell] = lines[cell].rsplit(",", 1)[0] + ",0"
    regions.write_text("\n".join(lines) + "\n")
    assert "regions_swap" in checks.check_job(wl.job("regions"), regions, None)

    ber = wl.job("af_ber").out_path(workdir)
    table = checks.read_table(ber)
    table[0]["pe_sys"] = str(float(table[0]["pe_max"]) / 2)
    assert checks.pe_sandwich(wl.job("af_ber"), table, None)
