#!/usr/bin/env python3
"""CHC benchmark: absolute packets/s and modeled latency per workload.

Usage (from the repository root)::

    python3 chcbench/run.py --workload paper_chain --seed 1 --seconds 25 --trace 0
    python3 chcbench/run.py --workload all --seconds 25   # every workload, one table
    python3 chcbench/run.py --selftest                    # the checks catch a lost packet

A run draws its workload's inputs from ``--seed`` and first runs each one
with no scripted operations: those warm-up runs are the references every
measured iteration's outputs are checked against. It then repeats set-up
and run, the inputs in turn, until ``--seconds`` have passed.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` alternates
untraced and traced iterations on the first input and prints the
per-layer metrics: counts (which must repeat exactly between traced
iterations), each layer's share of self time, and the tracing overhead.
It also writes a Chrome trace-event file to ``chcbench/out/``.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. The exit status is 1 when an
output check failed and 2 on a usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", help="a workload name, or all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"chcbench: no repro package under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import bench

    if args.selftest:
        return 0 if bench.selftest() else 1
    names = sorted(bench.WORKLOADS) if args.workload == "all" else [args.workload]
    if names[0] not in bench.WORKLOADS:
        print(f"chcbench: unknown workload {names[0]!r}; choose from "
              f"{', '.join(sorted(bench.WORKLOADS))} or all", file=sys.stderr)
        return 2
    measure = bench.per_layer if args.trace else bench.end_to_end
    results = {}
    for name in names:
        outcome = measure(bench.WORKLOADS[name], args.seed, args.seconds)
        results[name] = bench.report(name, args.seed, *outcome)
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0 if all(result["correct"] for result in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
