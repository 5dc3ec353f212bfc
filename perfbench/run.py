"""Benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

runs one workload for ``--seconds`` seconds from the root of a checkout
and prints, as its last line, one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` — the end-to-end metrics of BENCHMARK.json
with ``--trace 0``, its per-layer metrics with ``--trace 1``.  The line
before it records the host fingerprint.  See README.md for the workloads
and what each metric should move with.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

from common import (
    ROOT,
    SCRATCH,
    SRC,
    Context,
    Outcome,
    host_fingerprint,
    result_line,
    warm_bytecode_cache,
)

WORKLOADS = ("paper-cli", "serve-mix", "project")


def _run_workload(ctx: Context, out: Outcome) -> None:
    if ctx.workload == "paper-cli":
        from cli_batch import paper_cli as run
    elif ctx.workload == "project":
        from cli_batch import project as run
    else:
        from serve_mix import serve_mix as run
    run(ctx, out)


def _declared_metrics(trace: bool) -> list[tuple[str, str]]:
    """The (name, unit) pairs BENCHMARK.json declares for this kind of run."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [(m["name"], m["unit"]) for m in declared["per_layer" if trace else "end_to_end"]]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program sources at {SRC}/repro", file=sys.stderr)
        return 2
    declared = _declared_metrics(bool(args.trace))
    scratch = SCRATCH / f"run-{os.getpid()}"
    ctx = Context(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=bool(args.trace),
        scratch=scratch,
    )
    out = Outcome()
    scratch.mkdir(parents=True)
    try:
        warm_bytecode_cache()
        _run_workload(ctx, out)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            SCRATCH.rmdir()
        except OSError:
            pass

    # A layer the workload never reaches reads 0 (see README.md).
    values = out.layer_values if ctx.trace else out.metrics
    missing = [] if ctx.trace else [n for n, _ in declared if n not in values]
    if missing:
        print(f"error: workload reported no {missing}", file=sys.stderr)
        return 2
    metrics = {name: (values.get(name, 0.0), unit) for name, unit in declared}
    for problem in out.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({"host": host_fingerprint(), "workload": ctx.workload,
                      "seed": ctx.seed, "trace": int(ctx.trace), **out.info}))
    print(result_line(out, metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
