"""Outside-in layer timers for the traced benchmark run.

Nothing under ``src/`` is touched: :func:`install` replaces each public
function listed in :data:`FUNCTIONS` with a timing wrapper, at its
definition and at every module that imported it by name (for example
``repro.core.study.confidence_interval``), so callers find the wrapper
wherever they look the function up.  :func:`uninstall` puts the originals
back, which lets one process alternate traced and untraced ops.

Wrappers nest: each keeps a per-thread stack of its children's time, so a
function's *self* time is its duration minus the time spent in wrapped
calls it made.  The sum of self times on a thread plus the unwrapped
remainder (``unattributed_s``) is that thread's wall time.

Forked pool workers inherit the wrappers.  The pool initializer is
wrapped too: in each worker it clears the inherited totals and arranges
for the worker's own totals to be written to ``$PERFBENCH_TRACE_DIR`` when
the worker exits, so a CLI op's dump directory holds one ``main`` file
and one ``worker`` file per pool process.  Worker self times are summed
over processes; the benchmark reports them as CPU-seconds.

The async route handler and the scheduler's ``submit`` span awaits, so
they are not put on the stack; they record call counts and wall time.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

TRACE_DIR_ENV = "PERFBENCH_TRACE_DIR"


@dataclass(frozen=True)
class Target:
    """One wrapped function: ``attr`` is ``name`` or ``Class.method`` in
    ``module``.  ``in_workers`` marks the measurement-path functions that
    also run in pool workers, which get a ``worker_cpu_s`` metric.
    ``reports_self`` is off where the wrapped call is not where the cost
    lies, so only its count is reported."""

    name: str
    module: str
    attr: str
    in_workers: bool = False
    calls_metric: str = "calls"
    reports_self: bool = True


FUNCTIONS: tuple[Target, ...] = (
    Target("core.statistics.confidence_interval", "repro.core.statistics",
           "confidence_interval", True),
    Target("execution.kernels.compile_pair", "repro.execution.kernels",
           "compile_pair", True),
    Target("execution.kernels.PairKernel.draws", "repro.execution.kernels",
           "PairKernel.draws", True),
    Target("execution.kernels.run_pair", "repro.execution.kernels",
           "run_pair", True),
    Target("execution.engine.ExecutionEngine.execution_plan",
           "repro.execution.engine", "ExecutionEngine.execution_plan", True),
    Target("execution.engine.ExecutionEngine.execute",
           "repro.execution.engine", "ExecutionEngine.execute", True),
    Target("execution.engine.ExecutionEngine.instructions_for",
           "repro.execution.engine", "ExecutionEngine.instructions_for", True),
    Target("measurement.meter.PowerMeter.measure_kernel",
           "repro.measurement.meter", "PowerMeter.measure_kernel", True),
    Target("measurement.meter.PowerMeter.measure", "repro.measurement.meter",
           "PowerMeter.measure", True),
    Target("measurement.meter.PowerMeter.measure_batch",
           "repro.measurement.meter", "PowerMeter.measure_batch", True),
    Target("core.normalization.References.energy_joules",
           "repro.core.normalization", "References.energy_joules", True),
    Target("core.study.Study.run_pairs", "repro.core.study", "Study.run_pairs"),
    Target("core.executor.run_pairs", "repro.core.executor", "run_pairs"),
    # The constructor only builds the executor; the workers fork on the
    # first submit, so pool start cost shows in core.executor.run_pairs.
    Target("core.executor.SweepPool", "repro.core.executor",
           "SweepPool.__init__", calls_metric="starts", reports_self=False),
    Target("experiments.findings.evaluate_all", "repro.experiments.findings",
           "evaluate_all"),
    Target("projection.frontier.search", "repro.projection.frontier", "search"),
    Target("projection.frontier.synthesize_candidates",
           "repro.projection.synthesize", "synthesize_candidates"),
    Target("core.pareto.pareto_efficient", "repro.core.pareto",
           "pareto_efficient"),
    Target("service.store.ResultStore.journal_admit", "repro.service.store",
           "ResultStore.journal_admit"),
    Target("service.store.ResultStore.commit_batch", "repro.service.store",
           "ResultStore.commit_batch"),
    Target("service.store.ResultStore.records", "repro.service.store",
           "ResultStore.records"),
)

HANDLE = "service.server.CampaignServer.handle"
ROUTES = ("measure", "results", "pareto")
SUBMIT = "service.scheduler.CampaignScheduler.submit"


class Ledger:
    """Per-process totals: calls and self seconds per wrapped function,
    wall seconds of the awaited handlers, and the study's health sums."""

    def __init__(self) -> None:
        self.role = "main"
        self.reset()

    def reset(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.async_calls: dict[str, int] = defaultdict(int)
        self.async_s: dict[str, float] = defaultdict(float)
        self.attempted_pairs = 0
        self.cached_pairs = 0
        self.retries = 0
        # (start, end, {(benchmark, config), ...}) per Study.run_pairs call
        # and (start, end, (benchmark, config)) per submit: the scheduler
        # wait of a request is its submit time minus its batch's sweep.
        self.sweeps: list[tuple[float, float, frozenset]] = []
        self.submits: list[tuple[float, float, tuple[str, str]]] = []

    def stack(self) -> list[float]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add(self, name: str, self_s: float) -> None:
        with self._lock:
            self.calls[name] += 1
            self.self_s[name] += self_s

    def add_async(self, name: str, wall_s: float) -> None:
        with self._lock:
            self.async_calls[name] += 1
            self.async_s[name] += wall_s

    def submit_waits_ms(self) -> list[float]:
        """Each completed submit's duration minus the sweep that measured
        its pair (the last ``run_pairs`` inside the submit's interval)."""
        waits = []
        for started, ended, pair in self.submits:
            inside = [
                s_end - s_start
                for s_start, s_end, pairs in self.sweeps
                if pair in pairs and s_start >= started and s_end <= ended
            ]
            if inside:
                waits.append(((ended - started) - inside[-1]) * 1000.0)
        return waits

    def counters(self) -> dict[str, float]:
        """Counts read from the program's own state at dump time."""
        out = {
            "faults.retries": float(self.retries),
            "core.study.cache_hit_ratio": (
                self.cached_pairs / self.attempted_pairs
                if self.attempted_pairs else 0.0
            ),
        }
        kernels = sys.modules.get("repro.execution.kernels")
        if kernels is not None:
            stats = kernels.kernel_stats()
            out["execution.kernels.cache_bytes"] = float(stats["cache_bytes"])
            out["execution.kernels.fallbacks"] = float(sum(stats["fallbacks"].values()))
        waits = self.submit_waits_ms()
        if waits:
            out[f"{SUBMIT}.wait_ms"] = sum(waits) / len(waits)
            submitted = {pair for _, _, pair in self.submits}
            batches = [len(p) for _, _, p in self.sweeps if p & submitted]
            out["service.scheduler.batch_pairs"] = sum(batches) / len(batches)
        return out

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "role": self.role,
                "pid": os.getpid(),
                "calls": dict(self.calls),
                "self_s": dict(self.self_s),
                "async_calls": dict(self.async_calls),
                "async_s": dict(self.async_s),
                "counters": self.counters() if self.role == "main" else {},
            }

    def dump(self, directory: Optional[str] = None) -> None:
        directory = directory or os.environ.get(TRACE_DIR_ENV)
        if not directory:
            return
        path = Path(directory) / f"{self.role}-{os.getpid()}.json"
        path.write_text(json.dumps(self.snapshot()))


def _resolve(module_name: str, attr: str):
    module = importlib.import_module(module_name)
    if "." in attr:
        cls_name, meth = attr.split(".")
        return module, getattr(module, cls_name), meth
    return module, None, attr


class Installation:
    """The wrappers currently patched in; :meth:`uninstall` restores."""

    def __init__(self, ledger: Ledger) -> None:
        self.ledger = ledger
        self._undo: list[Callable[[], None]] = []

    def _set(self, owner, attr: str, value) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        setattr(owner, attr, value)
        self._undo.append(lambda: setattr(owner, attr, original))

    def patch_function(self, module, attr: str, wrapper) -> None:
        """Replace a module-level function at its definition and wherever
        a loaded ``repro`` module imported it by name."""
        original = getattr(module, attr)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.startswith("repro"):
                continue
            for name, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, name, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()


def _timed(ledger: Ledger, name: str, fn, after=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        stack = ledger.stack()
        stack.append(0.0)
        started = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            ended = time.perf_counter()
            elapsed = ended - started
            children = stack.pop()
            ledger.add(name, elapsed - children)
            if stack:
                stack[-1] += elapsed
        if after is not None:
            after(args, result, started, ended)
        return result

    return wrapper


def _after_study_run_pairs(ledger: Ledger):
    def after(args, result, started, ended):
        ledger.sweeps.append(
            (started, ended, frozenset((r.benchmark_name, r.config_key) for r in result))
        )
        health = result.health
        if health is not None:
            ledger.attempted_pairs += health.attempted_pairs
            ledger.cached_pairs += health.cached_pairs
            ledger.retries += health.retries

    return after


def _timed_handle(ledger: Ledger, fn):
    @functools.wraps(fn)
    async def handle(self, request):
        started = time.perf_counter()
        try:
            return await fn(self, request)
        finally:
            route = request.path.strip("/").split("/")[0] or "root"
            ledger.add_async(f"{HANDLE}.{route}", time.perf_counter() - started)

    return handle


def _timed_submit(ledger: Ledger, fn):
    @functools.wraps(fn)
    async def submit(self, benchmark, config, *args, **kwargs):
        started = time.perf_counter()
        result = await fn(self, benchmark, config, *args, **kwargs)
        ended = time.perf_counter()
        ledger.add_async(SUBMIT, ended - started)
        ledger.submits.append((started, ended, (benchmark.name, config.key)))
        return result

    return submit


def _worker_init(ledger: Ledger, fn):
    @functools.wraps(fn)
    def init_worker(*args, **kwargs):
        from multiprocessing.util import Finalize

        # The fork copied the parent's totals (and possibly a held lock):
        # start this worker from zero and dump its own totals on exit.
        ledger.reset()
        ledger.role = "worker"
        Finalize(None, ledger.dump, exitpriority=100)
        return fn(*args, **kwargs)

    return init_worker


def install(ledger: Optional[Ledger] = None, service: bool = False) -> Installation:
    """Patch the wrappers in.  ``service`` also imports the server stack
    so its references are patched before it runs."""
    import repro.cli  # noqa: F401 - load the modules whose imports we patch
    import repro.projection  # noqa: F401

    if service:
        import repro.service.server  # noqa: F401

    ledger = ledger or Ledger()
    inst = Installation(ledger)
    for target in FUNCTIONS:
        module, cls, attr = _resolve(target.module, target.attr)
        after = (
            _after_study_run_pairs(ledger)
            if target.name == "core.study.Study.run_pairs" else None
        )
        if cls is None:
            inst.patch_function(
                module, attr, _timed(ledger, target.name, getattr(module, attr), after)
            )
        else:
            inst._set(cls, attr, _timed(ledger, target.name, cls.__dict__[attr], after))
    executor = importlib.import_module("repro.core.executor")
    inst._set(executor, "_init_worker", _worker_init(ledger, executor._init_worker))
    if service:
        from repro.service.scheduler import CampaignScheduler
        from repro.service.server import CampaignServer

        inst._set(CampaignServer, "handle", _timed_handle(ledger, CampaignServer.handle))
        inst._set(CampaignScheduler, "submit", _timed_submit(ledger, CampaignScheduler.submit))
    return inst


def read_dumps(directory: Path) -> tuple[dict, dict]:
    """Merge one op's dump files: the main process's snapshot, and the
    workers' calls and self seconds summed over processes."""
    main: Optional[dict] = None
    workers = {"calls": defaultdict(int), "self_s": defaultdict(float), "count": 0}
    for path in sorted(directory.glob("*.json")):
        snap = json.loads(path.read_text())
        if snap["role"] == "main":
            if main is not None:
                raise RuntimeError(f"two main-process dumps in {directory}")
            main = snap
        else:
            workers["count"] += 1
            for name, calls in snap["calls"].items():
                workers["calls"][name] += calls
            for name, secs in snap["self_s"].items():
                workers["self_s"][name] += secs
    if main is None:
        raise RuntimeError(f"no main-process dump in {directory}")
    return main, workers


def function_metrics(main: dict, workers: Optional[dict]) -> dict[str, float]:
    """Per-function metrics of one op (or one serve window): calls summed
    over every process, self seconds of the main process, and the
    workers' self seconds summed over processes."""
    out: dict[str, float] = {}
    for target in FUNCTIONS:
        worker_calls = workers["calls"].get(target.name, 0) if workers else 0
        out[f"{target.name}.{target.calls_metric}"] = float(
            main["calls"].get(target.name, 0) + worker_calls
        )
        if target.reports_self:
            out[f"{target.name}.self_s"] = main["self_s"].get(target.name, 0.0)
        if target.in_workers:
            out[f"{target.name}.worker_cpu_s"] = (
                workers["self_s"].get(target.name, 0.0) if workers else 0.0
            )
    for route in ROUTES:
        name = f"{HANDLE}.{route}"
        calls = main["async_calls"].get(name, 0)
        out[f"{name}.calls"] = float(calls)
        out[f"{name}.mean_ms"] = (
            main["async_s"][name] / calls * 1000.0 if calls else 0.0
        )
    out[f"{SUBMIT}.calls"] = float(main["async_calls"].get(SUBMIT, 0))
    return out


def main_self_total(main: dict) -> float:
    """Sum of the main process's self seconds over wrapped functions."""
    return sum(main["self_s"].values())
