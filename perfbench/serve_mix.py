"""The ``serve-mix`` workload: ``repro serve`` at its CLI defaults, driven
by a seeded open-loop Poisson client.

Traffic: :data:`RATE` requests per second for the run's seconds.  About
:data:`READ_SHARE` of them are reads (``GET /results?benchmark=...`` and
``GET /pareto`` in equal parts); the rest are ``POST /measure`` on
(benchmark, configuration) pairs drawn from a Zipf law over all 2745
pairs, so repeats hit the study cache and first sightings compile.
:data:`CI_SHARE` of the measures carry ``"inject": "ci"`` and take the
fail-stop fault and scalar path.  The rate is well below the default
server's knee (it saturates near 60 req/s on two CPUs), so latency
reflects service time rather than an unbounded queue.

The client keeps at most ``nproc`` requests in flight and times each one
from its *scheduled* send, so a stall delays the requests behind it too.
Responses are read by ``Content-Length``; a separate watcher then waits
for the server to close each connection and counts those it never closes.

Every 200 body is checked: a measure body must equal the in-process
``Study`` record of its pair (computed before the server starts), fault
plan or not; a ``/results`` record likewise; a ``/pareto`` body must be
self-consistent (sorted keys, efficient flags equal to a recomputation).
"""

from __future__ import annotations

import asyncio
import itertools
import json
import os
import random
import signal
import statistics
import subprocess
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import layers
from common import (
    BENCH_DIR,
    Context,
    Outcome,
    child_env,
    children_cpu_s,
    median,
    percentile,
    python_cmd,
    traced_run_values,
    use_checkout_in_process,
)

RATE = 20.0
READ_SHARE = 0.2
CI_SHARE = 0.02
ZIPF_EXPONENT = 1.5
#: Server spawns per run for ``setup_s``: this many start-and-stop
#: servers, plus the one that then takes the traffic.
EXTRA_SETUPS = 4
#: How long after the traffic window the client still waits to see each
#: connection closed before counting it as unclosed.
CLOSE_GRACE_S = 1.0
REQUEST_TIMEOUT_S = 30.0
START_TIMEOUT_S = 60.0
HOST = "127.0.0.1"


@dataclass(frozen=True)
class Request:
    at: float  # scheduled send, seconds after the window opens
    kind: str  # "measure", "results" or "pareto"
    benchmark: Optional[str] = None
    config: Optional[str] = None
    ci: bool = False
    repeat: bool = False  # the pair was measured earlier in the schedule

    def raw(self, port: int) -> bytes:
        if self.kind == "measure":
            payload = {"benchmark": self.benchmark, "config": self.config}
            if self.ci:
                payload["inject"] = "ci"
            body = json.dumps(payload).encode()
            head = (
                f"POST /measure HTTP/1.1\r\nHost: {HOST}:{port}\r\n"
                f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n"
            )
            return head.encode() + body
        target = "/pareto" if self.kind == "pareto" else f"/results?benchmark={self.benchmark}"
        return f"GET {target} HTTP/1.1\r\nHost: {HOST}:{port}\r\n\r\n".encode()


@dataclass
class Reply:
    status: int = 0
    body: bytes = b""
    latency_s: float = 0.0
    late_s: float = 0.0  # how late the generator woke for the send
    error: Optional[str] = None
    unclosed: bool = False


def make_schedule(seed: int, seconds: float) -> list[Request]:
    """The run's requests, a pure function of ``seed`` and ``seconds``.

    The request count and the read and ``ci`` counts are fixed by the
    rate and shares, and only the arrival times, kinds' positions and
    pairs are drawn, so seeds differ in which requests come when, not in
    how many of each kind there are.  ``ci`` requests go to pairs not yet
    seen, so each one really takes the fault path instead of a cache hit.
    """
    from repro.hardware.configurations import all_configurations
    from repro.workloads.catalog import BENCHMARKS

    rng = random.Random(seed)
    pairs = [(b.name, c.key) for c in all_configurations() for b in BENCHMARKS]
    rng.shuffle(pairs)
    cum_weights = list(
        itertools.accumulate(1.0 / (rank + 1) ** ZIPF_EXPONENT for rank in range(len(pairs)))
    )
    count = round(RATE * seconds)
    # Poisson arrivals conditioned on their count are uniform order statistics.
    times = sorted(rng.uniform(0.0, seconds) for _ in range(count))
    reads = round(READ_SHARE * count)
    kinds = ["results"] * (reads // 2) + ["pareto"] * (reads - reads // 2)
    kinds += ["measure"] * (count - reads)
    rng.shuffle(kinds)
    measure_slots = [i for i, kind in enumerate(kinds) if kind == "measure"]
    ci_slots = set(rng.sample(measure_slots, round(CI_SHARE * len(measure_slots))))
    schedule: list[Request] = []
    seen: set[tuple[str, str]] = set()
    for index, (at, kind) in enumerate(zip(times, kinds)):
        if kind == "measure" and index in ci_slots:
            pair = rng.choice([p for p in pairs if p not in seen])
            schedule.append(Request(at, kind, pair[0], pair[1], ci=True))
        elif kind == "measure":
            pair = rng.choices(pairs, cum_weights=cum_weights)[0]
            schedule.append(Request(at, kind, pair[0], pair[1], repeat=pair in seen))
        elif kind == "results":
            pair = rng.choices(pairs, cum_weights=cum_weights)[0]
            schedule.append(Request(at, kind, benchmark=pair[0]))
        else:
            schedule.append(Request(at, kind))
        if kind == "measure":
            seen.add(pair)
    return schedule


def reference_bodies(schedule: list[Request]) -> dict[tuple[str, str], bytes]:
    """Each measured pair's expected body, from a fresh in-process study:
    ``json.dumps(record)``, the server's byte-identity contract."""
    from repro.core.study import Study
    from repro.hardware.configurations import all_configurations
    from repro.workloads.catalog import benchmark

    configs = {c.key: c for c in all_configurations()}
    wanted = dict.fromkeys((r.benchmark, r.config) for r in schedule if r.kind == "measure")
    results = Study().run_pairs([(benchmark(b), configs[c]) for b, c in wanted])
    return {
        (r.benchmark_name, r.config_key): json.dumps(r.as_record()).encode("utf-8")
        for r in results
    }


class Server:
    """One ``repro serve --port 0`` process on a fresh store."""

    def __init__(self, store_dir: Path, trace_dir: Optional[Path] = None) -> None:
        store_dir.mkdir(parents=True, exist_ok=True)
        args = ["serve", "--port", "0", "--store", str(store_dir / "store.sqlite")]
        if trace_dir is None:
            cmd = python_cmd("-m", "repro", *args)
            env = child_env()
        else:
            cmd = python_cmd(str(BENCH_DIR / "repro_cli.py"), *args)
            env = child_env(**{layers.TRACE_DIR_ENV: str(trace_dir)})
        self.cpu_at_spawn = children_cpu_s()
        self._banner = threading.Event()
        self.port = 0
        self.log: list[str] = []
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            cmd, env=env, cwd=store_dir, stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
            start_new_session=True,
        )
        self._reader = threading.Thread(target=self._read_stderr, daemon=True)
        self._reader.start()
        if not self._banner.wait(START_TIMEOUT_S) or not self.port:
            self.stop()
            raise RuntimeError("server did not start:\n" + "".join(self.log[-20:]))
        self.setup_s = self.banner_at - started

    def _read_stderr(self) -> None:
        for line in self.proc.stderr:
            if not self._banner.is_set() and line.startswith("serving on http://"):
                self.banner_at = time.perf_counter()
                self.port = int(line.split()[2].rsplit(":", 1)[1])
                self._banner.set()
            self.log.append(line)
        self._banner.set()

    def cpu_s(self) -> float:
        """User+sys seconds of the live server process and the workers it
        has reaped so far (``/proc/<pid>/stat`` of our own child)."""
        stat = Path(f"/proc/{self.proc.pid}/stat").read_text()
        fields = stat.rsplit(")", 1)[1].split()
        ticks = sum(int(f) for f in fields[11:15])  # utime stime cutime cstime
        return ticks / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self) -> float:
        for line in Path(f"/proc/{self.proc.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        return 0.0

    def stop(self) -> int:
        """SIGTERM, wait for the drain; returns the exit code."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            code = self.proc.wait(START_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(self.proc.pid, signal.SIGKILL)
            code = self.proc.wait()
        self._reader.join(5.0)
        return code


async def _exchange(port: int, request: Request, reply: Reply, slots: asyncio.Semaphore,
                    due: float, close_by: float) -> None:
    loop = asyncio.get_running_loop()
    delay = due - loop.time()
    if delay > 0:
        await asyncio.sleep(delay)
    reply.late_s = max(0.0, loop.time() - due)
    writer = None
    try:
        async with slots:
            reader, writer = await asyncio.open_connection(HOST, port)
            writer.write(request.raw(port))
            await writer.drain()
            status_line = await reader.readline()
            reply.status = int(status_line.split()[1])
            length = 0
            while True:
                line = await reader.readline()
                if line in (b"\r\n", b"\n", b""):
                    break
                name, _, value = line.decode("latin-1").partition(":")
                if name.strip().lower() == "content-length":
                    length = int(value)
            reply.body = await reader.readexactly(length)
            reply.latency_s = loop.time() - due
        # The response is complete; now see whether the server closes.
        timeout = max(CLOSE_GRACE_S / 2, close_by - loop.time())
        try:
            reply.unclosed = await asyncio.wait_for(reader.read(1), timeout) != b""
        except asyncio.TimeoutError:
            reply.unclosed = True
    except (OSError, ValueError, IndexError, asyncio.IncompleteReadError) as exc:
        reply.error = f"{type(exc).__name__}: {exc}"
    finally:
        if writer is not None:
            writer.close()


async def _drive(port: int, schedule: list[Request], seconds: float) -> tuple[list[Reply], float]:
    loop = asyncio.get_running_loop()
    slots = asyncio.Semaphore(os.cpu_count() or 1)
    opens = loop.time() + 0.05
    close_by = opens + seconds + CLOSE_GRACE_S
    replies = [Reply() for _ in schedule]
    tasks = [
        asyncio.create_task(
            asyncio.wait_for(
                _exchange(port, req, reply, slots, opens + req.at, close_by),
                REQUEST_TIMEOUT_S + seconds,
            )
        )
        for req, reply in zip(schedule, replies)
    ]
    for reply, outcome in zip(replies, await asyncio.gather(*tasks, return_exceptions=True)):
        if isinstance(outcome, BaseException) and reply.error is None:
            reply.error = f"{type(outcome).__name__}: {outcome}"
    last_done = max((opens + r.at + rep.latency_s for r, rep in zip(schedule, replies)),
                    default=opens)
    return replies, last_done - opens


def _check(request: Request, reply: Reply, reference: dict[tuple[str, str], bytes]) -> Optional[str]:
    if reply.error is not None:
        return reply.error
    if reply.status != 200:
        return f"status {reply.status}: {reply.body[:200]!r}"
    if request.kind == "measure":
        if reply.body != reference[(request.benchmark, request.config)]:
            return f"body differs from the in-process record of {request.benchmark}/{request.config}"
        return None
    payload = json.loads(reply.body)
    if request.kind == "results":
        records = payload["results"]
        if payload["count"] != len(records):
            return "count does not match the records"
        for record in records:
            key = (record["benchmark"], record["configuration"])
            if record["benchmark"] != request.benchmark:
                return f"record of {key} answers a query for {request.benchmark}"
            if json.dumps(record).encode("utf-8") != reference.get(key):
                return f"stored record of {key} differs from the in-process record"
        return None
    from repro.core.pareto import TradeoffPoint, pareto_efficient

    points = payload["points"]
    keys = [p["configuration"] for p in points]
    if payload["count"] != len(points) or keys != sorted(keys):
        return "pareto points are miscounted or unsorted"
    efficient = {
        p.key
        for p in pareto_efficient(
            [TradeoffPoint(p["configuration"], p["performance"], p["normalized_energy"])
             for p in points]
        )
    }
    if any((p["configuration"] in efficient) != p["efficient"] for p in points):
        return "pareto efficient flags differ from a recomputation"
    return None


@dataclass
class Phase:
    """One server's traffic window and what the client saw."""

    replies: list[Reply]
    window_s: float
    cpu_s: float
    peak_rss_mb: float
    setup_s: float
    dumps: Optional[tuple[dict, dict]] = None


def _phase(ctx: Context, name: str, schedule: list[Request], seconds: float,
           traced: bool) -> Phase:
    trace_dir = ctx.fresh_dir(f"{name}-trace") if traced else None
    server = Server(ctx.fresh_dir(name), trace_dir)
    try:
        cpu_0 = server.cpu_s()
        replies, window_s = asyncio.run(_drive(server.port, schedule, seconds))
        peak = server.peak_rss_mb()
    finally:
        code = server.stop()
    cpu = children_cpu_s() - server.cpu_at_spawn - cpu_0
    if code != 0:
        raise RuntimeError(f"server exited {code}:\n" + "".join(server.log[-20:]))
    dumps = layers.read_dumps(trace_dir) if traced else None
    return Phase(replies, window_s, cpu, peak, server.setup_s, dumps)


def _latencies(schedule: list[Request], phase: Phase, kinds: tuple[str, ...]) -> list[float]:
    return [
        reply.latency_s
        for req, reply in zip(schedule, phase.replies)
        if req.kind in kinds and reply.error is None
    ]


def _mix(schedule: list[Request], phase: Phase) -> dict[str, float]:
    """The request mix the server answered: the shares of reads, of
    measures that repeat a pair (cache hits by construction) and of
    measures that carry ``ci``, over the requests answered 200."""
    served = [req for req, reply in zip(schedule, phase.replies) if reply.status == 200]
    measures = [r for r in served if r.kind == "measure"]
    return {
        "requests": len(schedule),
        "served": len(served),
        "read_share": (len(served) - len(measures)) / len(served),
        "cache_hit_share": sum(r.repeat for r in measures) / len(measures),
        "ci_share": sum(r.ci for r in measures) / len(measures),
    }


def serve_mix(ctx: Context, out: Outcome) -> None:
    use_checkout_in_process()
    # A traced run splits its seconds between an untraced and a traced
    # server, each driven by the same request stream.
    seconds = ctx.seconds / 2 if ctx.trace else ctx.seconds
    schedule = make_schedule(ctx.seed, seconds)
    reference = reference_bodies(schedule)

    setups = []
    if not ctx.trace:
        for index in range(EXTRA_SETUPS):
            server = Server(ctx.fresh_dir(f"setup{index}"))
            setups.append(server.setup_s)
            server.stop()

    phases = [("untraced", False)] + ([("traced", True)] if ctx.trace else [])
    results = {}
    for name, traced in phases:
        phase = _phase(ctx, name, schedule, seconds, traced)
        for index, (req, reply) in enumerate(zip(schedule, phase.replies)):
            out.attempted += 1
            problem = _check(req, reply, reference)
            if problem is not None:
                out.fail(f"{name} request {index} ({req.kind}): {problem}")
        results[name] = phase

    plain = results["untraced"]
    measure = _latencies(schedule, plain, ("measure",))
    out.info.update(_mix(schedule, plain))
    if not ctx.trace:
        out.metrics = {
            "setup_s": median(setups + [plain.setup_s]),
            "wall_s": median(measure),
            "cpu_s": plain.cpu_s / len(schedule),
            "peak_rss_mb": plain.peak_rss_mb,
        }
        return

    traced = results["traced"]
    main, workers = traced.dumps
    values = layers.function_metrics(main, workers)
    values.update(main["counters"])
    values["unattributed_s"] = traced.window_s - layers.main_self_total(main)
    handle_calls = sum(values[f"{layers.HANDLE}.{r}.calls"] for r in layers.ROUTES)
    handle_ms = sum(
        values[f"{layers.HANDLE}.{r}.calls"] * values[f"{layers.HANDLE}.{r}.mean_ms"]
        for r in layers.ROUTES
    )
    client_ms = [1000.0 * s for s in _latencies(schedule, traced, ("measure", "results", "pareto"))]
    values["service.server.conn_overhead_ms"] = (
        statistics.fmean(client_ms) - handle_ms / handle_calls
    )
    reads = _latencies(schedule, plain, ("results", "pareto"))
    values.update({
        "service.server.unclosed_conns": float(sum(r.unclosed for r in plain.replies)),
        "client.measure_p50_ms": 1000.0 * median(measure),
        "client.measure_p95_ms": 1000.0 * percentile(measure, 95),
        "client.read_p50_ms": 1000.0 * median(reads),
        "client.read_p85_ms": 1000.0 * percentile(reads, 85),
        "client.late_p99_ms": 1000.0 * percentile([r.late_s for r in plain.replies], 99),
        "client.late_max_ms": 1000.0 * max(r.late_s for r in plain.replies),
    })
    values.update(traced_run_values(
        median(measure), median(_latencies(schedule, traced, ("measure",)))
    ))
    out.layer_values = values
