"""Checks on the CSV each benchmark job writes.

They recompute what they need from the job's own scenario and use no helper
of the package, so that a refactor of the package cannot weaken them. Each
check returns None when the output passes, else a one-line reason.
"""
from __future__ import annotations

import csv
import math
from pathlib import Path
from typing import Callable, Optional

from jobs import Job

Table = list[dict[str, str]]

_REL = 1e-9  # CSV numbers carry 12 significant digits
_SIGMAS = 5.0


def read_table(path: Path) -> Table:
    with open(path, newline="") as fh:
        lines = fh.read().splitlines()
    if not lines or not lines[0].startswith("# "):
        raise ValueError("missing the leading scenario comment line")
    return list(csv.DictReader(lines[1:]))


def _f(row: dict[str, str], key: str) -> float:
    return float(row[key])


def _close(a: float, b: float, rel: float = _REL) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


def _expect_rows(table: Table, n: int) -> Optional[str]:
    return None if len(table) == n else f"{len(table)} rows, expected {n}"


def regions_swap(job: Job, table: Table, pair: Optional[Table]) -> Optional[str]:
    """Swapping n1 <-> n2 together with ratio <-> -ratio flips every winner."""
    reg = job.sections["regions"]
    ratios = [float(r) for r in str(reg["ratios_db"]).split(",")]
    cells = {
        (float(r["ratio_db"]), r["n1"], r["n2"]): int(r["winner"])
        for r in table if r["kind"] == "cell"
    }
    if len(cells) != len(ratios) * reg["grid_points"] ** 2:
        return f"{len(cells)} distinct cells, expected {len(ratios)} x {reg['grid_points']}^2"
    for (ratio, n1, n2), winner in cells.items():
        partner = cells.get((-ratio, n2, n1))
        if partner != -winner:
            return f"winner {winner} at ({ratio}, {n1}, {n2}) but {partner} at the swapped cell"
    return None


def rate_bound(job: Job, table: Table, pair: Optional[Table]) -> Optional[str]:
    """The AF rate never exceeds the two-antenna SIMO ceiling."""
    bad = _expect_rows(table, job.sections["cooperation"]["k_max"] + 1)
    if bad:
        return bad
    for row in table:
        if _f(row, "rate_af") > _f(row, "simo_bound") * (1.0 + _REL):
            return f"k={row['k']}: rate_af {row['rate_af']} > simo_bound {row['simo_bound']}"
    return None


def s2_closed_form(job: Job, table: Table, pair: Optional[Table]) -> Optional[str]:
    """Forward-original SNRs equal rho = P/N_dir + a^2 P / (a^2 N_src + N_coop)
    with a^2 = P_coop / (P + N_src), under each row's bandwidth plan.

    The scenario is in dB with unit bandwidth: P = 1, n_j = 10^(-snr_j/10),
    n12 = n21 = 1 and P12 = 10^(snr12/10). Both regimes give every
    cooperation sub-channel the downlink band, so N_coop = b_dl. The closed
    form needs both receivers to spend their whole budget, which an
    asymmetric campaign does from two exchanges on.
    """
    ch, coop = job.sections["channel"], job.sections["cooperation"]
    n1, n2 = 10.0 ** (-ch["snr1"] / 10.0), 10.0 ** (-ch["snr2"] / 10.0)
    P12, P21 = 10.0 ** (ch["snr12"] / 10.0), 10.0 ** (ch["snr21"] / 10.0)
    first = 2 if coop["scheme"] == "asymmetric" else 1
    for row in table:
        if int(row["k"]) < first:
            continue
        b = _f(row, "b_dl")
        N1, N2, N_coop = n1 * b, n2 * b, b
        a12, a21 = P12 / (1.0 + N1), P21 / (1.0 + N2)
        rho_1 = 1.0 / N1 + a21 / (a21 * N2 + N_coop)
        rho_2 = 1.0 / N2 + a12 / (a12 * N1 + N_coop)
        if not (_close(_f(row, "rho_1"), rho_1) and _close(_f(row, "rho_2"), rho_2)):
            return (f"k={row['k']}: rho ({row['rho_1']}, {row['rho_2']}) "
                    f"!= closed form ({rho_1:.12g}, {rho_2:.12g})")
    return None


def snr_states(job: Job, table: Table, pair: Optional[Table]) -> Optional[str]:
    """One state per exchange; positive SNRs and noise powers, and a noise
    cross-correlation within the Cauchy-Schwarz bound."""
    bad = _expect_rows(table, job.sections["cooperation"]["k"] + 1)
    if bad:
        return bad
    for row in table:
        N1, N2, e = _f(row, "N_1"), _f(row, "N_2"), _f(row, "e")
        rhos = (_f(row, "rho_1"), _f(row, "rho_2"))
        if not (N1 > 0.0 and N2 > 0.0 and all(0.0 < r < math.inf for r in rhos)):
            return f"i={row['i']}: non-positive noise power or SNR"
        if e * e > N1 * N2 * (1.0 + _REL):
            return f"i={row['i']}: |e| exceeds sqrt(N_1 N_2)"
    return None


def pe_sandwich(job: Job, table: Table, pair: Optional[Table]) -> Optional[str]:
    """pe_max = max(ber_1, ber_2) <= pe_sys <= pe_sum = ber_1 + ber_2."""
    bad = _expect_rows(table, job.sections["cooperation"]["k_max"] + 1)
    if bad:
        return bad
    for row in table:
        b1, b2, sys_ = _f(row, "ber_1"), _f(row, "ber_2"), _f(row, "pe_sys")
        pe_max, pe_sum = _f(row, "pe_max"), _f(row, "pe_sum")
        if not (0.0 <= b1 <= 1.0 and 0.0 <= b2 <= 1.0):
            return f"k={row['k']}: BER outside [0, 1]"
        if not (_close(pe_max, max(b1, b2)) and _close(pe_sum, b1 + b2)):
            return f"k={row['k']}: pe_max/pe_sum disagree with the per-receiver BERs"
        if not pe_max * (1.0 - _REL) <= sys_ <= pe_sum * (1.0 + _REL):
            return f"k={row['k']}: pe_sys {sys_} outside [{pe_max}, {pe_sum}]"
    return None


def af_snr(job: Job, table: Table, pair: Optional[Table]) -> Optional[str]:
    """Sampled SNRs agree with the analytic ones within 5 sigma, with
    sigma = rho * sqrt((1 + 2/rho) / n) at n sampled symbols."""
    n = job.sections["trials"]["trials"]
    for row in table:
        for i in ("1", "2"):
            rho, snr = _f(row, f"rho_{i}"), _f(row, f"snr_{i}")
            sigma = rho * math.sqrt((1.0 + 2.0 / rho) / n)
            if abs(snr - rho) > _SIGMAS * sigma:
                return f"k={row['k']}: snr_{i} {snr} vs rho_{i} {rho} (sigma {sigma:.3g})"
    return None


def compare_order(job: Job, table: Table, pair: Optional[Table]) -> Optional[str]:
    """A joint error rate is never below the worse receiver's BER."""
    bad = _expect_rows(table, job.sections["cooperation"]["k_max"] + 1)
    if bad:
        return bad
    for row in table:
        for proto in ("af_s1", "af_s2", "df"):
            worst, joint = _f(row, f"{proto}_ber_max"), _f(row, f"{proto}_pe_sys")
            if not 0.0 <= worst <= joint * (1.0 + _REL) <= 1.0 + _REL:
                return f"k={row['k']}: {proto} pe_sys {joint} below ber_max {worst}"
    return None


def mld_vs_mrc(job: Job, table: Table, pair: Optional[Table]) -> Optional[str]:
    """On the shared scenario and seed, the DF ML detector's worse-receiver
    BER is at most the MRC baseline's plus 5 sigma."""
    if pair is None or len(pair) != len(table):
        return "no MRC baseline output to compare against"
    for row, base in zip(table, pair):
        mrc = max(_f(base, "ber_1"), _f(base, "ber_2"))
        sigma = max(_f(base, "stderr_1"), _f(base, "stderr_2"))
        if _f(row, "df_ber_max") > mrc + _SIGMAS * sigma:
            return f"k={row['k']}: MLD {row['df_ber_max']} > MRC {mrc:.6g} + 5 sigma"
    return None


CHECKS: dict[str, Callable[[Job, Table, Optional[Table]], Optional[str]]] = {
    f.__name__: f
    for f in (regions_swap, rate_bound, s2_closed_form, snr_states, pe_sandwich,
              af_snr, compare_order, mld_vs_mrc)
}


def check_job(job: Job, out: Path, pair_out: Optional[Path]) -> Optional[str]:
    """Run every check the job names on its CSV; None when all pass."""
    try:
        table = read_table(out)
        pair = read_table(pair_out) if pair_out is not None else None
        for name in job.checks:
            reason = CHECKS[name](job, table, pair)
            if reason:
                return f"{name}: {reason}"
    except (OSError, ValueError, KeyError, TypeError, ZeroDivisionError) as exc:
        return f"unreadable output: {exc!r}"
    return None
