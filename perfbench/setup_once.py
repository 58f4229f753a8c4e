"""Time one set-up of a workload in this interpreter, which must be fresh:

    python3 perfbench/setup_once.py <workload> <seed> <workdir>

The benchmark runs this in a child process for every timed set-up, so that
each one pays for importing persalg and everything persalg imports.  Prints
one JSON list: [reference seconds, raw seconds].
"""

from __future__ import annotations

import importlib
import json
import sys

import run


def main(argv) -> int:
    workload, seed, workdir = argv
    module = importlib.import_module(run.WORKLOADS[workload])
    seconds, raw, _ = run.set_up(module, int(seed), workdir)
    print(json.dumps([seconds, raw]))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
