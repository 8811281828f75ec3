"""Build one workload's inputs in a fresh interpreter; run.py times this as
set-up.

    python3 perfbench/probe.py WORKLOAD SEED DIRECTORY
"""

import sys
from pathlib import Path

import program


def main(argv: list[str]) -> int:
    name, seed, inputs = argv
    program.load()
    import workloads
    workloads.WORKLOADS[name].build_inputs(Path(inputs), int(seed))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
