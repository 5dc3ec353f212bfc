"""Run the ``repro`` CLI as ``python -m repro`` does, for the benchmark.

    python perfbench/repro_cli.py <repro args>

With ``$PERFBENCH_IMPORTED=<file>`` it writes into ``<file>`` the
monotonic clock once ``import repro.cli`` has finished, so the caller can
time the start-up from its spawn.  With ``$PERFBENCH_TRACE_DIR=<dir>`` it
installs the layer timers first and, when the process (and each pool
worker) exits, writes its layer totals into ``<dir>``.
"""

from __future__ import annotations

import atexit
import os
import sys
import time

import layers

IMPORTED_ENV = "PERFBENCH_IMPORTED"


def main() -> int:
    args = sys.argv[1:]
    if os.environ.get(layers.TRACE_DIR_ENV):
        installation = layers.install(service="serve" in args)
        atexit.register(installation.ledger.dump)
    from repro.cli import main as cli_main

    stamp = os.environ.get(IMPORTED_ENV)
    if stamp:
        with open(stamp, "w") as handle:
            handle.write(repr(time.monotonic()))
    return cli_main(args)


if __name__ == "__main__":
    sys.exit(main())
