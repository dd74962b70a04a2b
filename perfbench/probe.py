"""Set-up probe: a fresh interpreter imports mlpoly and runs one workload's
first operation, then prints ``ready``.  The parent times it up to that line.

    python3 perfbench/probe.py <workload> <seed>
"""

import sys

import benchenv

benchenv.use_checkout()

import workloads  # noqa: E402  (needs the checkout on sys.path first)

workloads.first_op_in_process(sys.argv[1], int(sys.argv[2]))
print("ready", flush=True)
