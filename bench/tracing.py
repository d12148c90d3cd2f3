"""Spans around the public functions of each `coopbc` module, installed from
outside the package.

A wrapper goes on every name a caller looks the function up by (a module
global, a class attribute, or an entry of a dispatch dict), so the package
itself is not edited. `Tracer.installed` puts the wrappers in place and
restores every original on exit. A target whose names are all missing is
reported as absent, and so are its metrics, instead of failing the run.

Spans are kept per thread. A span opened on a worker thread, with nothing
open on that thread, is a child of the span open on the thread that
installed the tracer (the Monte Carlo driver waiting for its batches). A
span's self time is its duration minus the part of it that its children
cover, counted once where children on different threads overlap.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Optional

Site = tuple[str, ...]  # (module, attribute or dict key, ..., name)
Observer = Callable[["Tracer", tuple, dict, Any], None]


@dataclass(frozen=True)
class Target:
    """A function traced under span `span` at every lookup site in `sites`.

    `observe(tracer, args, kwargs, result)` adds the counters named in
    `counters` after each call; `cpu` also records process CPU time.
    """

    span: str
    sites: tuple[Site, ...]
    observe: Optional[Observer] = None
    counters: tuple[str, ...] = ()
    cpu: bool = False


class _Frame:
    __slots__ = ("name", "start", "cpu", "parent", "children")

    def __init__(self, name: str, parent: Optional["_Frame"], cpu: bool):
        self.name = name
        self.parent = parent
        self.children: list[tuple[float, float]] = []
        self.cpu = time.process_time() if cpu else None
        self.start = time.perf_counter()


@dataclass
class SpanTotals:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    cpu_s: float = 0.0


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of the intervals."""
    covered, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            covered += end - max(start, reach)
            reach = end
    return covered


def _resolve(site: Site) -> Optional[tuple[Any, str, Any]]:
    """(holder, name, current object) for a lookup site, or None if gone."""
    try:
        holder: Any = importlib.import_module(site[0])
        for part in site[1:-1]:
            holder = holder[part] if isinstance(holder, dict) else getattr(holder, part)
        name = site[-1]
        if isinstance(holder, dict):
            current = holder[name]
        elif isinstance(holder, type):
            current = vars(holder)[name]  # defined on the class, not inherited
        else:
            current = getattr(holder, name)
    except (ImportError, AttributeError, KeyError, TypeError):
        return None
    return (holder, name, current) if callable(current) else None


def _assign(holder: Any, name: str, value: Any) -> None:
    if isinstance(holder, dict):
        holder[name] = value
    else:
        setattr(holder, name, value)


class Tracer:
    """Aggregates spans and counters; `reset` starts a new measurement."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self._owner: Optional[int] = None
        self._owner_stack: list[_Frame] = []
        self.absent: set[str] = set()
        self.reset()

    def reset(self) -> None:
        with self._lock:
            self.spans: dict[str, SpanTotals] = defaultdict(SpanTotals)
            self.counters: dict[str, float] = defaultdict(float)
            self.maxima: dict[str, float] = defaultdict(float)

    # -- spans --------------------------------------------------------------

    def _stack(self) -> list[_Frame]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str, cpu: bool) -> _Frame:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        elif threading.get_ident() != self._owner and self._owner_stack:
            parent = self._owner_stack[-1]
        else:
            parent = None
        frame = _Frame(name, parent, cpu)
        stack.append(frame)
        return frame

    def _close(self, frame: _Frame) -> None:
        end = time.perf_counter()
        cpu = time.process_time() - frame.cpu if frame.cpu is not None else 0.0
        self._stack().pop()
        duration = end - frame.start
        with self._lock:
            covered = _covered(frame.children)
            totals = self.spans[frame.name]
            totals.calls += 1
            totals.total_s += duration
            totals.self_s += duration - covered
            totals.cpu_s += cpu
            if frame.parent is not None:
                frame.parent.children.append((frame.start, end))

    # -- counters -----------------------------------------------------------

    def count(self, name: str, value: float = 1.0) -> None:
        with self._lock:
            self.counters[name] += value

    def maximum(self, name: str, value: float) -> None:
        with self._lock:
            self.maxima[name] = max(self.maxima[name], value)

    # -- installation ---------------------------------------------------------

    def _wrap(self, target: Target, fn: Callable) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = tracer._open(target.span, target.cpu)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(frame)
            if target.observe is not None:
                try:
                    target.observe(tracer, args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError, ValueError):
                    # the call's signature or result moved: its counters are unknown
                    tracer.absent.update(target.counters)
            return result

        traced.__bench_traced__ = True
        return traced

    @contextlib.contextmanager
    def installed(self, targets: tuple[Target, ...]) -> Iterator["Tracer"]:
        """Wrap every resolvable site of every target for the duration of the
        block, then put each original back."""
        restore: list[tuple[Any, str, Any]] = []
        self._owner = threading.get_ident()
        self._owner_stack = self._stack()
        try:
            for target in targets:
                found = False
                for site in target.sites:
                    resolved = _resolve(site)
                    if resolved is None:
                        continue
                    holder, name, original = resolved
                    found = True
                    if getattr(original, "__bench_traced__", False):
                        continue  # the same holder reached by two sites
                    _assign(holder, name, self._wrap(target, original))
                    restore.append((holder, name, original))
                if not found:
                    self.absent.add(target.span)
                    self.absent.update(target.counters)
            yield self
        finally:
            for holder, name, original in reversed(restore):
                _assign(holder, name, original)
            self._owner = None


# ---------------------------------------------------------------------------
# What the benchmark traces in coopbc
# ---------------------------------------------------------------------------


def _arg(args: tuple, kwargs: dict, index: int, name: str) -> Any:
    return args[index] if len(args) > index else kwargs[name]


def _observe_campaign(tr: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    count = args[2] if len(args) > 2 else kwargs.get("count")
    tr.count("af.campaign_steps", _arg(args, kwargs, 1, "config").count if count is None else count)


def _observe_regions(tr: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    tr.count("metrics.region_cells", result.winners.size)


def _observe_detect(tr: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    const, y = args[0], _arg(args, kwargs, 1, "y")
    tr.count("df.detect_ops", y.size * const.order)


def _observe_mld(tr: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    shape = _arg(args, kwargs, 2, "shape")
    observations = _arg(args, kwargs, 1, "observations")
    relay_order = _arg(args, kwargs, 4, "relay_constellation").order
    blocks = result.shape[0]
    tr.count("df.mld_blocks", blocks)
    tr.count("df.mld_cells", blocks * (1 << shape.n))
    if observations:  # the (T, r, Mr, Mr) substitution mixture of one relay branch
        tr.maximum("df.mld_mixture_bytes_max", blocks * shape.r * relay_order**2 * 8)


def _observe_simulate(tr: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    tr.count("mc.symbols", result.ber_I.trials)
    tr.count("mc.bits", result.ber_I.bits)


def _sites(name: str, *modules: str) -> tuple[Site, ...]:
    return tuple((f"coopbc.{m}", name) for m in modules)


COMMANDS = ("snr", "rate", "ber", "regions", "compare")

TARGETS: tuple[Target, ...] = (
    Target("cli.main", _sites("main", "cli")),
    *(Target(f"cli.{c}", (("coopbc.cli", "_COMMANDS", c),)) for c in COMMANDS),
    Target("scenario.parse", _sites("parse_scenario", "scenario", "cli")),
    Target("af.campaign", _sites("campaign", "af", "cli", "mc", "metrics"),
           _observe_campaign, ("af.campaign_steps",)),
    Target("af.run_recursion", _sites("run_recursion", "af", "cli", "metrics")),
    Target("channel.plan_bandwidth",
           _sites("plan_bandwidth", "channel", "af", "cli", "mc", "metrics")),
    Target("metrics.decision_regions", _sites("decision_regions", "metrics", "cli"),
           _observe_regions, ("metrics.region_cells",)),
    Target("mc.simulate_af", _sites("simulate_af", "mc", "cli"),
           _observe_simulate, ("mc.symbols", "mc.bits"), cpu=True),
    Target("mc.simulate_df", _sites("simulate_df", "mc", "cli"),
           _observe_simulate, ("mc.symbols", "mc.bits"), cpu=True),
    Target("df.detect", (("coopbc.df", "Constellation", "detect"),),
           _observe_detect, ("df.detect_ops",)),
    Target("df.mld_llr_batch", _sites("mld_llr_batch", "df", "mc"), _observe_mld,
           ("df.mld_blocks", "df.mld_cells", "df.mld_mixture_bytes_max")),
    Target("df.relay_decode", _sites("relay_decode_and_remap", "df", "mc")),
    Target("df.relay_pilot", _sites("estimate_relay_errors", "df", "mc")),
)
