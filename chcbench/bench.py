"""Measurement loop, result report and the checks' self-test.

See run.py for the command line and NOTES.md for what each number means.
"""

from __future__ import annotations

import gc
import os
import resource
import statistics
import time
from typing import Dict, List, Tuple

from checks import Verdict, check_iteration, merge, stamped, summarize
from layers import LAYERS, UNATTRIBUTED, Tracer, layer_counts
from repro.chaos.invariants import (
    InvariantViolation,
    RunSnapshot,
    egress_records,
    snapshot_run,
)
from workloads import HORIZON_US, WORKLOADS, Workload, input_seed, prepare

OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")

MIN_ITERATIONS = 3         # measured iterations per run, whatever --seconds says
MIN_TRACED_ITERATIONS = 2  # two, so the counts can be compared

END_TO_END_UNITS = {
    "pps": "1/s",
    "cpu_us_per_pkt": "us",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "sim_p50_us": "us",
    "sim_p99_us": "us",
}


def layer_unit(name: str) -> str:
    if name.endswith("_share"):
        return "share"
    if name.endswith("_us") or name.endswith("_us_per_pkt"):
        return "us"
    return "count"


def run_iteration(workload: Workload, seed: int, scripted=None, tracer=None):
    """Set up and run one chain; returns (iteration, setup_s, wall_s, cpu_s)."""
    gc.collect()
    started = time.perf_counter()
    iteration = prepare(workload, seed, scripted)
    setup = time.perf_counter() - started
    if tracer is not None:
        tracer.reset()
    wall, cpu = time.perf_counter(), time.process_time()
    iteration.sim.run(until=HORIZON_US)
    return iteration, setup, time.perf_counter() - wall, time.process_time() - cpu


def delivered(iteration) -> int:
    return len({payload for payload, _ in stamped(egress_records(iteration.runtime))})


class Run:
    """One benchmark run: checked iterations over the run's inputs.

    Each input's outputs are checked against a no-action reference run of
    it. A scripted workload gets a separate reference run per input up
    front. Otherwise every iteration is a no-action run, so an input's
    first iteration is its reference and later ones must repeat it; one
    unmeasured warm-up iteration of the first input comes first.
    """

    def __init__(self, workload: Workload, seed: int, inputs: int):
        self.workload = workload
        self.seeds = [input_seed(seed, index) for index in range(inputs)]
        self.references: Dict[int, RunSnapshot] = {}
        self.verdicts: List[Verdict] = []
        for input_ in self.seeds if workload.scripted else self.seeds[:1]:
            iteration, *_ = run_iteration(workload, input_, scripted=False)
            self._check(input_, iteration, actions=None)

    def _check(self, input_: int, iteration, actions) -> None:
        if input_ not in self.references:
            self.references[input_] = snapshot_run(iteration.runtime)
        self.verdicts.append(
            check_iteration(
                iteration.packets, iteration.runtime, self.references[input_], actions
            )
        )

    def iteration(self, index: int, tracer=None):
        """Run the ``index``-th iteration (inputs in turn) and check it."""
        input_ = self.seeds[index % len(self.seeds)]
        result = run_iteration(self.workload, input_, tracer=tracer)
        iteration = result[0]
        self._check(input_, iteration, iteration.actions if self.workload.scripted else None)
        return result


def end_to_end(workload: Workload, seed: int, seconds: float):
    run = Run(workload, seed, workload.inputs)
    deadline = time.perf_counter() + seconds
    rows: List[dict] = []
    while len(rows) < max(MIN_ITERATIONS, workload.inputs) or time.perf_counter() < deadline:
        iteration, setup, wall, cpu = run.iteration(len(rows))
        recorder = iteration.runtime.egress_recorder
        rows.append(
            {
                "delivered": delivered(iteration),
                "wall": wall,
                "cpu": cpu,
                "setup": setup,
                "p50": recorder.percentile(50),
                "p99": recorder.percentile(99),
                "samples": len(recorder),
            }
        )
    # Rates over the whole measured phase: CPU speed on a shared host drifts
    # by +-25% within seconds, so only a long window averages it out.
    # Latencies are fixed per input; each input counts once.
    per_input = rows[: workload.inputs]
    total = sum(row["delivered"] for row in rows)
    metrics = {
        "pps": total / sum(row["wall"] for row in rows),
        "cpu_us_per_pkt": sum(row["cpu"] for row in rows) / total * 1e6,
        "setup_s": statistics.median(row["setup"] for row in rows),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "sim_p50_us": statistics.median(row["p50"] for row in per_input),
        "sim_p99_us": statistics.median(row["p99"] for row in per_input),
    }
    notes = [
        f"{len(rows)} measured iterations over {workload.inputs} inputs; "
        f"latency samples per input {[row['samples'] for row in per_input]}"
    ]
    return merge(run.verdicts), {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}, notes


def per_layer(workload: Workload, seed: int, seconds: float):
    """Alternate untraced and traced iterations on the run's first input."""
    run = Run(workload, seed, inputs=1)
    deadline = time.perf_counter() + seconds
    tracer = Tracer()
    untraced: List[float] = []
    traced: List[float] = []
    counts: List[Dict[str, float]] = []
    self_time = dict.fromkeys(LAYERS, 0.0)
    notes: List[str] = []
    while len(traced) < MIN_TRACED_ITERATIONS or time.perf_counter() < deadline:
        untraced.append(run.iteration(0)[2])
        with tracer:
            iteration, _setup, wall, _cpu = run.iteration(0, tracer=tracer)
        traced.append(wall)
        counts.append(layer_counts(iteration, tracer))
        # the rest of the wall time is process-body glue outside every
        # boundary, or tracing itself
        spent = tracer.self_times()
        for layer, spent_s in spent.items():
            self_time[layer] += spent_s
        self_time[UNATTRIBUTED] += wall - sum(spent.values())
        if len(traced) == 1:
            os.makedirs(OUT, exist_ok=True)
            path = os.path.join(OUT, f"{workload.name}-seed{seed}.trace.json")
            written = tracer.write_chrome(path, {"workload": workload.name, "seed": seed})
            notes.append(f"chrome trace: {os.path.relpath(path)} ({written} spans)")

    verdict = merge(run.verdicts)
    for index, repeat in enumerate(counts[1:], start=2):
        for name, value in repeat.items():
            if value != counts[0][name]:
                verdict.violations.append(
                    InvariantViolation(
                        "counts-repeat",
                        f"{name}: {counts[0][name]!r} in traced iteration 1, "
                        f"{value!r} in traced iteration {index}",
                    )
                )
                verdict.failed += 1
    packets = len(iteration.packets)
    metrics = dict(counts[0])
    for layer, layer_s in self_time.items():
        metrics[f"{layer}.self_share"] = layer_s / sum(traced)
        metrics[f"{layer}.self_us_per_pkt"] = layer_s / len(traced) / packets * 1e6
    overhead = statistics.median(traced) / statistics.median(untraced) - 1.0
    metrics["trace.overhead_share"] = overhead
    metrics["egress.latency_samples"] = len(iteration.runtime.egress_recorder)
    notes.append(
        f"{len(traced)} traced / {len(untraced)} untraced iterations; tracing "
        f"overhead {overhead:+.1%} of untraced wall time; counts "
        + ("repeat exactly" if not any(v.invariant == "counts-repeat" for v in verdict.violations)
           else "DIFFER")
    )
    return verdict, {name: (value, layer_unit(name)) for name, value in metrics.items()}, notes


def report(
    name: str, seed: int, verdict, metrics: Dict[str, Tuple[float, str]], notes: List[str]
) -> dict:
    """Print the run's table; return the result object the last line holds."""
    print(f"== {name} (seed {seed})")
    for metric, (value, unit) in metrics.items():
        print(f"  {metric:<36} {value:>14.6g} {unit}")
    print(
        f"  {'fail_frac':<36} {verdict.failed / verdict.attempted:>14.6g} "
        f"({verdict.failed} of {verdict.attempted} packets; "
        f"{verdict.nf_drops} dropped by NF verdicts, not failures)"
    )
    for note in notes:
        print(f"  {note}")
    print("  checks: " + ("passed" if verdict.correct else "FAILED"))
    for line in summarize(verdict.violations):
        print(f"    {line}")
    return {
        "correct": verdict.correct,
        "attempted": verdict.attempted,
        "failed": verdict.failed,
        "metrics": {
            metric: {"value": value, "unit": unit} for metric, (value, unit) in metrics.items()
        },
    }


def selftest() -> bool:
    """The checks flag an iteration whose egress withholds one packet."""
    iteration, *_ = run_iteration(WORKLOADS["paper_chain"], seed=1)
    reference = snapshot_run(iteration.runtime)
    clean = check_iteration(iteration.packets, iteration.runtime, reference)
    egress = egress_records(iteration.runtime)
    withheld = stamped(egress)[len(egress) // 2]
    tampered = check_iteration(
        iteration.packets,
        iteration.runtime,
        reference,
        egress=[record for record in egress if record != withheld],
    )
    flagged = sorted({v.invariant for v in tampered.violations})
    ok = clean.correct and not tampered.correct and tampered.failed >= 1
    print(f"clean iteration: {'passed' if clean.correct else 'FAILED'}")
    print(f"withheld {withheld[0]!r}: flagged by {flagged}, failed={tampered.failed}")
    print("selftest: " + ("passed" if ok else "FAILED"))
    return ok
