"""The two fresh-process workloads, ``paper-cli`` and ``project``.

Each op is one fresh ``repro ...`` at the CLI's defaults, started through
``repro_cli.py`` and timed from spawn to reap, with its output checked
against the golden digest.  Their inputs are the CLI's fixed defaults, so
``--seed`` does not change them.
"""

from __future__ import annotations

import hashlib
import shutil
import statistics
from pathlib import Path
from typing import Callable, Optional, Sequence

import layers
from common import (
    BENCH_DIR,
    Context,
    OpTiming,
    Outcome,
    check_counts,
    child_env,
    imported_after_s,
    load_golden,
    mean_by_key,
    median,
    python_cmd,
    run_ops,
    timed_process,
    traced_run_values,
)
from repro_cli import IMPORTED_ENV

#: Candidates per node for ``project``: large enough that synthesis and
#: the Pareto search show beside start-up, small enough for five ops in a
#: run.  One pool start per op (the whole search is one sweep).
PROJECT_SAMPLES = 64

def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def paper_cli(ctx: Context, out: Outcome) -> None:
    golden = load_golden()["paper-cli"]

    def check(op_dir: Path, stdout: bytes) -> Optional[str]:
        digest = _sha256(stdout)
        if digest != golden["stdout_sha256"]:
            return f"findings stdout sha256 {digest} != golden"
        return None

    _run(ctx, out, "paper-cli", lambda op_dir: ["findings"], check)


def project(ctx: Context, out: Outcome) -> None:
    golden = load_golden()["project"]

    def argv(op_dir: Path) -> list[str]:
        return ["project", "--samples", str(PROJECT_SAMPLES), "--out", str(op_dir / "out")]

    def check(op_dir: Path, stdout: bytes) -> Optional[str]:
        path = op_dir / "out" / "frontier.json"
        if not path.is_file():
            return "no frontier.json written"
        digest = _sha256(path.read_bytes())
        if digest != golden["frontier_sha256"]:
            return f"frontier.json sha256 {digest} != golden"
        return None

    _run(ctx, out, "project", argv, check)


def _run(
    ctx: Context,
    out: Outcome,
    name: str,
    argv: Callable[[Path], Sequence[str]],
    check: Callable[[Path, bytes], Optional[str]],
) -> None:
    untraced: list[OpTiming] = []
    setup: list[float] = []  # each untraced op's start-up
    traced: list[OpTiming] = []
    per_op: list[dict[str, float]] = []

    def op(index: int) -> float:
        # A traced run alternates untraced and traced ops, so tracing
        # overhead is measured under the same conditions.
        tracing = ctx.trace and index % 2 == 1
        op_dir = ctx.fresh_dir(f"op{index}")
        args = list(argv(op_dir))
        stamp = op_dir / "imported"
        dump_dir = op_dir / "trace"
        if tracing:
            dump_dir.mkdir()
            env = child_env(**{layers.TRACE_DIR_ENV: str(dump_dir)})
        else:
            env = child_env(**{IMPORTED_ENV: str(stamp)})
        out.attempted += 1
        timing = timed_process(python_cmd(str(BENCH_DIR / "repro_cli.py"), *args), env)
        if timing.returncode != 0:
            tail = timing.stderr.decode(errors="replace").strip().splitlines()[-3:]
            problem: Optional[str] = f"exit {timing.returncode}: {' | '.join(tail)}"
        else:
            problem = check(op_dir, timing.stdout)
        if problem is not None:
            out.fail(f"{name} op {index}{' (traced)' if tracing else ''}: {problem}")
        if tracing:
            traced.append(timing)
            if problem is None:
                main, workers = layers.read_dumps(dump_dir)
                values = layers.function_metrics(main, workers)
                values.update(main["counters"])
                values["unattributed_s"] = timing.wall_s - layers.main_self_total(main)
                per_op.append(values)
        elif problem is None:
            untraced.append(timing)
            setup.append(imported_after_s(timing, stamp))
        shutil.rmtree(op_dir, ignore_errors=True)
        return timing.wall_s

    run_ops(op, ctx.seconds, min_ops=4 if ctx.trace else 3)

    if not ctx.trace:
        if untraced:  # else every op failed; run.py reports the missing metrics
            out.metrics = {
                "setup_s": median(setup),
                "wall_s": median([t.wall_s for t in untraced]),
                "cpu_s": median([t.cpu_s for t in untraced]),
                "peak_rss_mb": median([t.peak_rss_mb for t in untraced]),
            }
        return

    check_counts(out, name, per_op)
    out.layer_values = mean_by_key(per_op)
    out.layer_values.update(traced_run_values(
        statistics.fmean(t.wall_s for t in untraced),
        statistics.fmean(t.wall_s for t in traced),
    ))
