"""Set-up of one benchmark run, timed by run.py in a fresh interpreter.

Imports cellray from the checkout and loads and validates every scenario of
the workload, with each job's overrides, as the CLI does before a job. It
prints the monotonic clock when done, from which run.py subtracts the time
it started the interpreter, and then the host-speed kernel's time in this
process (the second of two runs; the first warms numpy up).

    python3 perfbench/setup_probe.py <specs.json>
"""

import json
import sys
import time

import workloads


def main() -> None:
    cellray = workloads.import_cellray()
    with open(sys.argv[1]) as fh:
        specs = json.load(fh)
    for path, overrides in specs:
        cellray.config.validate(cellray.cli.load_scenario(path, overrides))
    done = time.monotonic()

    import hostspeed

    hostspeed.kernel()
    print(done, hostspeed.kernel())


if __name__ == "__main__":
    main()
