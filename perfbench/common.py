"""Shared plumbing for the benchmark: checkout paths, the child
environment, timed subprocess ops, order statistics and the result line.

Every workload module receives a :class:`Context` and returns a
:class:`Outcome`; ``run.py`` turns the outcome into the JSON result line.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
GOLDEN_PATH = BENCH_DIR / "golden.json"

#: Compiled bytecode goes here, inside the checkout, so that import time
#: does not depend on whether the host's site-packages ship ``.pyc`` files
#: or whether ``PYTHONDONTWRITEBYTECODE`` is set.  The first run fills it.
PYCACHE = ROOT / ".perfbench_pycache"
#: Per-run scratch space (stores, trace dumps, ``--out`` directories).
SCRATCH = ROOT / ".perfbench_tmp"

#: Every op must finish well inside a run's 180 s limit.
OP_TIMEOUT_S = 120.0


def child_env(**extra: str) -> dict[str, str]:
    """The environment of every program process the benchmark starts.

    ``REPRO_*`` switches are dropped so each workload runs at the
    program's own defaults whatever the caller's shell exports."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONPYCACHEPREFIX"] = str(PYCACHE)
    env.update(extra)
    return env


def use_checkout_in_process() -> None:
    """Make this process import ``repro`` from the checkout, with the same
    bytecode cache as the child processes."""
    sys.pycache_prefix = str(PYCACHE)
    sys.dont_write_bytecode = False
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]


def warm_bytecode_cache() -> None:
    """Compile every module once so the first measured run is not the one
    that pays for it."""
    marker = PYCACHE / ".complete"
    if marker.exists():
        return
    code = (
        "import pkgutil, importlib, repro, scipy.stats, numpy\n"
        "for m in pkgutil.walk_packages(repro.__path__, 'repro.'):\n"
        "    if not m.name.endswith('__main__'):\n"
        "        importlib.import_module(m.name)\n"
    )
    subprocess.run(
        [sys.executable, "-c", code], env=child_env(), cwd=ROOT, check=True,
        stdout=subprocess.DEVNULL, timeout=600,
    )
    marker.parent.mkdir(parents=True, exist_ok=True)
    marker.write_text("ok\n")


def python_cmd(*args: str) -> list[str]:
    return [sys.executable, *args]


@dataclass
class OpTiming:
    """One program op run as a fresh process tree."""

    wall_s: float
    cpu_s: float  # user+sys of the process and every descendant it reaped
    peak_rss_mb: float  # largest resident set of those processes
    spawned_at: float  # time.monotonic() just before the spawn
    returncode: int
    stdout: bytes
    stderr: bytes


def children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def timed_process(cmd: Sequence[str], env: dict[str, str]) -> OpTiming:
    """Run ``cmd`` to completion.  Wall time runs from spawn to reap; CPU
    time and peak resident set cover the process and every descendant it
    reaped (its pool workers), as ``wait4`` reports them for this one
    child."""
    with tempfile.TemporaryFile(dir=SCRATCH) as out, tempfile.TemporaryFile(dir=SCRATCH) as err:
        started = time.monotonic()
        # Its own session, so a hung op can be killed with its pool workers.
        proc = subprocess.Popen(
            list(cmd), env=env, cwd=ROOT, stdout=out, stderr=err, start_new_session=True,
        )
        timed_out = threading.Event()

        def kill() -> None:
            timed_out.set()
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass

        killer = threading.Timer(OP_TIMEOUT_S, kill)
        killer.start()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.monotonic() - started
        killer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        stdout, stderr = out.read(), err.read()
    if timed_out.is_set():
        stderr += f"\nkilled after {OP_TIMEOUT_S:g} s".encode()
    return OpTiming(
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,  # Linux reports kilobytes
        spawned_at=started,
        returncode=proc.returncode,
        stdout=stdout,
        stderr=stderr,
    )


def imported_after_s(timing: OpTiming, stamp: Path) -> float:
    """Seconds from an op's spawn until its ``import repro.cli`` finished,
    from the stamp ``repro_cli.py`` wrote (see its docstring)."""
    return float(stamp.read_text()) - timing.spawned_at


def import_times_s() -> tuple[float, float]:
    """``-X importtime`` seconds of ``import repro.cli`` and of the scipy
    packages it pulls in (for ``scipy.stats``, which importtime logs as a
    tree of ``scipy.*`` entries rather than one line)."""
    timing = timed_process(
        python_cmd("-X", "importtime", "-c", "import repro.cli"), child_env()
    )
    entries: list[tuple[int, str, float]] = []  # (depth, module, cumulative s)
    for line in timing.stderr.decode(errors="replace").splitlines():
        parts = line.removeprefix("import time:").split("|")
        if len(parts) != 3 or not line.startswith("import time:"):
            continue
        try:
            cumulative = float(parts[1]) / 1e6
        except ValueError:
            continue
        name = parts[2].rstrip()
        entries.append((len(name) - len(name.lstrip()), name.strip(), cumulative))
    cli_s = next((c for _, n, c in entries if n == "repro.cli"), 0.0)
    # A child is logged before its parent, so a module's parent is the
    # next entry with a shallower depth; count each outermost scipy entry.
    scipy_s = 0.0
    for index, (depth, name, cumulative) in enumerate(entries):
        if not name.startswith("scipy"):
            continue
        parent = next((n for d, n, _ in entries[index + 1:] if d < depth), "")
        if not parent.startswith("scipy"):
            scipy_s += cumulative
    return cli_s, scipy_s


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile, ``q`` in [0, 100]."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    pos = (len(ordered) - 1) * q / 100.0
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


def host_fingerprint() -> dict[str, object]:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count() or 1,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
    }


def load_golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


@dataclass
class Context:
    workload: str
    seed: int
    seconds: float
    trace: bool
    scratch: Path

    def fresh_dir(self, name: str) -> Path:
        path = self.scratch / name
        shutil.rmtree(path, ignore_errors=True)
        path.mkdir(parents=True)
        return path


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    #: End-to-end values of an untraced run, by BENCHMARK.json name.
    metrics: dict[str, float] = field(default_factory=dict)
    #: Per-layer values of a traced run; ``run.py`` reports every name
    #: BENCHMARK.json declares and reads a missing one as 0.
    layer_values: dict[str, float] = field(default_factory=dict)
    #: What the run was given rather than what it measured (the request
    #: mix of ``serve-mix``); printed beside the host fingerprint.
    info: dict[str, float] = field(default_factory=dict)

    def fail(self, message: str, count: int = 1) -> None:
        """Record a failed op (``count`` of them) with its reason."""
        self.failed += count
        self.problems.append(message)

    def problem(self, message: str) -> None:
        """A check that is not one op's output (e.g. counts that moved
        between ops): it makes the run incorrect without failing an op."""
        self.problems.append(message)


def result_line(outcome: Outcome, metrics: dict[str, tuple[float, str]]) -> str:
    return json.dumps(
        {
            "correct": not outcome.problems and outcome.failed == 0,
            "attempted": outcome.attempted,
            "failed": outcome.failed,
            "metrics": {
                name: {"value": float(value), "unit": unit}
                for name, (value, unit) in metrics.items()
            },
        }
    )


def run_ops(op, seconds: float, min_ops: int) -> None:
    """Call ``op(i)``, which returns its duration, until ``min_ops`` ops
    ran and another op as long as the last would end more than half an
    op after ``seconds``, so a run lasts about ``seconds`` on average."""
    started = time.perf_counter()
    index = 0
    last = 0.0
    while index < min_ops or time.perf_counter() - started + last / 2 <= seconds:
        last = op(index)
        index += 1


def traced_run_values(untraced_wall_s: float, traced_wall_s: float) -> dict[str, float]:
    """What every traced run reports besides its layers: import times, and
    the untraced and traced op times and their ratio."""
    cli_s, scipy_s = zip(*(import_times_s() for _ in range(3)))
    return {
        "import.repro_cli_s": median(cli_s),
        "import.scipy_stats_s": median(scipy_s),
        "tracing.untraced_wall_s": untraced_wall_s,
        "tracing.traced_wall_s": traced_wall_s,
        "tracing.overhead_ratio": traced_wall_s / untraced_wall_s - 1.0,
    }


#: Counts that must repeat exactly from op to op (and match golden.json
#: on a host with the same CPU count, since ``--jobs auto`` follows it).
COUNTED_SUFFIXES = (".calls", ".starts")
COUNTED_EXTRA = ("execution.kernels.fallbacks", "faults.retries")


def counted(values: dict[str, float]) -> dict[str, float]:
    return {
        key: value
        for key, value in values.items()
        if key.endswith(COUNTED_SUFFIXES) or key in COUNTED_EXTRA
    }


def check_counts(out: Outcome, name: str, per_op: list[dict[str, float]]) -> None:
    """Per-layer counts of a batch op are deterministic: every traced op
    must repeat them, and on a host with the recorded CPU count they must
    equal golden.json's."""
    if not per_op:
        return
    first = counted(per_op[0])
    for index, values in enumerate(per_op[1:], start=1):
        moved = {k: (first.get(k), v) for k, v in counted(values).items() if first.get(k) != v}
        if moved:
            out.problem(f"{name}: counts moved between traced ops 0 and {index}: {moved}")
    golden = load_golden()[name]
    if golden["nproc"] in (None, host_fingerprint()["nproc"]):
        expected = golden["counts"]
        moved = {k: (v, first.get(k)) for k, v in expected.items() if first.get(k) != v}
        if moved:
            out.problem(f"{name}: counts differ from golden.json (expected, got): {moved}")


def mean_by_key(rows: list[dict[str, float]]) -> dict[str, float]:
    keys = {key for row in rows for key in row}
    return {key: statistics.fmean(row.get(key, 0.0) for row in rows) for key in keys}
