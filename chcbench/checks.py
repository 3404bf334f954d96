"""Output checks: every measured iteration against a no-action reference.

The verdicts come from the program's own invariant checkers
(``repro.chaos.invariants``); this module adds the per-packet failure
count behind ``fail_frac`` and the workload-specific checks.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Dict, List

from repro.chaos.invariants import (
    InvariantViolation,
    RunSnapshot,
    check_egress_complete,
    check_exactly_once,
    check_flow_ordering,
    check_loss_free_state,
    snapshot_run,
)

# LB backend choices depend on cross-flow arrival order, which a handover
# may legally change; they are not counters and are left out of the
# elastic_failover state comparison.
EXCLUDED_OBJECT = "\x1fconn_map\x1f"


@dataclass
class Verdict:
    """Checks of one iteration: ``failed`` counts injected packets that were
    lost, duplicated or reordered, plus one per failed non-packet check."""

    attempted: int
    failed: int = 0
    nf_drops: int = 0
    violations: List[InvariantViolation] = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return not self.violations


def stamped(egress) -> List[Any]:
    """Egress records of injected packets (NF alerts carry other payloads)."""
    return [(payload, clock) for payload, clock in egress if payload and payload[0] == "f"]


def on_path_drops(runtime) -> int:
    """Packets dropped by an NF verdict on the forwarding path. Off-path
    (mirror-edge) NFs consume every copy they get, so they do not count."""
    mirrored = {e.dst for e in runtime.chain.edges if e.mirror}
    return sum(
        instance.stats.dropped
        for instance in runtime.instances.values()
        if instance.vertex_name not in mirrored
    )


def counter_state(state: Dict[str, Any]) -> Dict[str, Any]:
    return {
        key: value
        for key, value in state.items()
        if type(value) is int and EXCLUDED_OBJECT not in key
    }


def check_iteration(
    packets, runtime, reference: RunSnapshot, actions=None, egress=None
) -> Verdict:
    """Check one finished iteration. ``egress`` overrides the records read
    from the runtime (the self-test withholds one)."""
    snapshot = snapshot_run(runtime)
    records = stamped(snapshot.egress if egress is None else egress)
    expected = stamped(reference.egress)
    verdict = Verdict(attempted=len(packets), nf_drops=on_path_drops(runtime))

    duplicates = check_exactly_once(records)
    reordered = check_flow_ordering(records)
    completeness = check_egress_complete(records, expected)
    got = {payload for payload, _ in records}
    want = {payload for payload, _ in expected}
    verdict.violations += duplicates + reordered + completeness
    unaccounted = len(packets) - len(got) - verdict.nf_drops
    if unaccounted:
        verdict.violations.append(
            InvariantViolation(
                "drops-accounted",
                f"injected {len(packets)} != egressed {len(got)} + NF drops "
                f"{verdict.nf_drops}",
            )
        )
    # a lost packet fails both completeness and accounting: count it once
    lost = max(len(want - got) + len(got - want), abs(unaccounted))
    verdict.failed += len(duplicates) + len(reordered) + lost

    if actions is not None:
        problems = check_loss_free_state(
            counter_state(snapshot.state), counter_state(reference.state)
        )
        move, recovery = actions.move, actions.recovery
        if move is None or not move.n_keys:
            problems.append(InvariantViolation("move-completed", f"move result {move!r}"))
        if recovery is None or recovery.replayed <= 0:
            problems.append(
                InvariantViolation(
                    "recovery-replayed",
                    f"failover replayed nothing: {recovery!r} (crash landed "
                    "with no packets in flight)",
                )
            )
        verdict.violations += problems
        verdict.failed += len(problems)
    return verdict


def merge(verdicts: List[Verdict]) -> Verdict:
    total = Verdict(attempted=0)
    for verdict in verdicts:
        total.attempted += verdict.attempted
        total.failed += verdict.failed
        total.nf_drops += verdict.nf_drops
        total.violations += verdict.violations
    return total


def summarize(violations: List[InvariantViolation], limit: int = 5) -> List[str]:
    kinds = Counter(v.invariant for v in violations)
    lines = [f"{kind}: {count}" for kind, count in sorted(kinds.items())]
    return lines + [f"  {v.invariant}: {v.detail}" for v in violations[:limit]]
