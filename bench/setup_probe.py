"""One cold start of a workload, for setup_s:

    python3 bench/setup_probe.py table_direct

Imports wraplab, gets each distinct wrapper of the workload ready (parsed,
desugared or translated as its jobs do) by running it once on a one-row
document, checks the output, and prints "ready".  run.py times the span
from starting this interpreter to that line.
"""

import sys

import checkout

checkout.use_src()

import workloads  # noqa: E402


def main(name: str) -> int:
    workload = workloads.WORKLOADS[name]
    for job in workload.setup_jobs():
        if workloads.digest(workload.run(job)) != job.expected:
            sys.exit(f"bench: {name} gives a wrong answer on a one-row document")
    print("ready", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
