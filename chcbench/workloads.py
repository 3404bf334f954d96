"""The benchmark's workloads: seeded inputs, chain builders, scripted actions.

Each workload turns a seed into packet lists and builds a fresh chain for
each. The program under test only ever receives those packets (through
``ReplaySource``) plus, for ``elastic_failover``, the scripted control
operations an operator would issue (``move_flows``, ``fail_over_nf``).
See NOTES.md for why each workload exists.
"""

from __future__ import annotations

import bisect
import itertools
import math
import random
from dataclasses import dataclass, field
from statistics import NormalDist
from typing import Any, Callable, Dict, List, Optional

from repro import ChainRuntime, LogicalChain, ReplaySource, RuntimeParams, Simulator
from repro import fail_over_nf, move_flows
from repro.bench.scenarios import build_paper_chain
from repro.nfs.firewall import Firewall
from repro.nfs.load_balancer import LoadBalancer
from repro.nfs.nat import Nat
from repro.nfs.rate_limiter import RateLimiter
from repro.traffic.flows import FlowSpec, flow_packets, interleave
from repro.traffic.packet import PROTO_TCP, PROTO_UDP, FiveTuple, Packet

# Open loop in virtual time: ReplaySource paces arrivals at this share of
# the 10 Gb/s line rate regardless of how far behind the chain is.
LOAD_FRACTION = 0.5

# trace2's shape (repro.traffic.trace.make_trace2): heavy-tailed flow
# lengths, 1434 B median packet, 5% UDP flows.
TRACE2_SIZES = ((1434, 0.88), (368, 0.08), (60, 0.04))
UDP_FRACTION = 0.05
# Flows start within this leading share of the trace and run to its end.
START_SPREAD = 0.1

# paper_chain / elastic_failover: make_trace2's counts at scale 0.0005
PAPER_FLOWS = 99
PAPER_PACKETS = 3_200

# fastpath_chain: a thousand flows open at once, ten times paper_chain's,
# so per-flow caches and key memos see a realistic working set.
FAST_FLOWS = 1_000
FAST_PACKETS = 12_000
# Nat's default free list has 512 ports and never reclaims them; size it
# above the flow count so NAT verdicts do not drop most of the trace.
FAST_NAT_PORTS = (40_000, 42_048)

# elastic_failover: the operations land while traffic is in flight.
MOVE_AT_FRACTION = 1 / 3
CRASH_AT_FRACTION = 2 / 3

# Backstop only: every workload quiesces long before this virtual time.
HORIZON_US = 60_000_000.0


def stamp_payloads(packets: List[Packet]) -> List[Packet]:
    """Give each packet the ``f<flow>-<seq>`` identity the invariant
    checkers key on. A flow is one direction of one five-tuple, the unit
    whose order the chain must preserve."""
    flow_ids: Dict[tuple, int] = {}
    seqs: Dict[int, int] = {}
    for packet in packets:
        flow = flow_ids.setdefault(packet.five_tuple.key(), len(flow_ids))
        seqs[flow] = seqs.get(flow, 0) + 1
        packet.payload = f"f{flow}-{seqs[flow]}"
    return packets


def synthetic_trace(seed: int, n_flows: int, n_packets: int) -> List[Packet]:
    """A trace2-shaped packet list with every flow open at once.

    trace2's shape: lognormal flow lengths, its data-size mix (1434 B
    median packet) and 5% UDP flows. The shape is the same for every seed:
    flow lengths are the lognormal's quantiles, and a flow's packet size
    and protocol follow from its length rank. The seed draws endpoints,
    ports, start times and pacing, hence the interleaving.

    Every flow starts early and stretches over the rest of the trace.
    ``repro.traffic.trace.make_trace`` instead staggers flows so that one
    or two are open at a time; modeled latency then hinges on which few
    flows happen to overlap and swings threefold between seeds.
    """
    rng = random.Random(seed)
    normal = NormalDist(sigma=1.2)
    raw = [math.exp(normal.inv_cdf((i + 0.5) / n_flows)) for i in range(n_flows)]
    lengths = sorted((max(4, int(r / sum(raw) * n_packets)) for r in raw), reverse=True)
    sizes = [size for size, _ in TRACE2_SIZES]
    cumulative = list(itertools.accumulate(weight for _, weight in TRACE2_SIZES))
    span_us = float(n_packets)
    flows = []
    for rank, count in enumerate(lengths):
        # golden-ratio sequences spread size classes and UDP evenly by rank
        size_class = bisect.bisect_right(cumulative, (rank * 0.6180339887) % 1.0)
        udp = (rank * 0.7548776662) % 1.0 < UDP_FRACTION
        client = rng.randrange(200)
        five_tuple = FiveTuple(
            src_ip=f"10.0.{client // 250}.{client % 250 + 1}",
            dst_ip=f"52.10.0.{rng.randrange(40) + 1}",
            src_port=rng.randrange(1024, 65535),
            dst_port=rng.choice((80, 443, 22, 21)),
            proto=PROTO_UDP if udp else PROTO_TCP,
        )
        start = rng.random() * START_SPREAD * span_us
        spec = FlowSpec(
            five_tuple=five_tuple,
            n_packets=count,
            data_size_bytes=sizes[size_class],
            start_us=start,
            gap_us=(span_us - start) / count * (0.8 + 0.2 * rng.random()),
        )
        flows.append(flow_packets(spec, rng))
    return stamp_payloads([packet for _t, packet in interleave(flows)])


def paper_packets(seed: int) -> List[Packet]:
    return synthetic_trace(seed, PAPER_FLOWS, PAPER_PACKETS)


def fastpath_packets(seed: int) -> List[Packet]:
    return synthetic_trace(seed, FAST_FLOWS, FAST_PACKETS)


def build_fastpath_chain(sim: Simulator) -> ChainRuntime:
    """The all-declarative chain firewall -> NAT -> ratelimiter -> LB on
    the batched, fused fast path."""
    chain = LogicalChain("fastpath-chain")
    chain.add_vertex("firewall", Firewall, entry=True)
    chain.add_vertex("nat", lambda: Nat(port_range=FAST_NAT_PORTS))
    chain.add_vertex("ratelimiter", RateLimiter)
    chain.add_vertex("lb", LoadBalancer)
    chain.add_edge("firewall", "nat")
    chain.add_edge("nat", "ratelimiter")
    chain.add_edge("ratelimiter", "lb")
    return ChainRuntime(sim, chain, params=RuntimeParams(fastpath_enabled=True))


def build_elastic_chain(sim: Simulator) -> ChainRuntime:
    return build_paper_chain(sim, scan_parallelism=2)


@dataclass
class Actions:
    """What the scripted operations of one iteration did (virtual time)."""

    move: Any = None      # repro.core.handover.MoveResult
    recovery: Any = None  # repro.core.recovery.NFRecoveryResult


def elastic_actions(
    sim: Simulator, runtime: ChainRuntime, packets: List[Packet], actions: Actions
) -> Callable[[Packet], None]:
    """Sink for ReplaySource that injects each packet and, at fixed points
    of the input, scales ``scan`` out (Figure 4 move of every flow of
    ``scan-0`` to a new instance) and fail-stops ``nat-0`` (§5.4 failover:
    takeover plus root-log replay)."""
    move_at = int(len(packets) * MOVE_AT_FRACTION)
    crash_at = int(len(packets) * CRASH_AT_FRACTION)
    injected = 0

    def mover():
        splitter = runtime.splitter("scan")
        target = runtime.add_instance("scan", "2")
        keys = sorted(
            {
                key
                for key in map(splitter.key_of, packets)
                if splitter.current_instance_for(key) == "scan-0"
            }
        )
        actions.move = yield from move_flows(runtime, "scan", keys, target.instance_id)

    def recover():
        actions.recovery = yield from fail_over_nf(runtime, "nat-0")

    def sink(packet: Packet) -> None:
        nonlocal injected
        runtime.inject(packet)
        injected += 1
        if injected == move_at:
            sim.process(mover(), name="bench-move")
        elif injected == crash_at:
            runtime.instance("nat-0").fail()
            sim.process(recover(), name="bench-failover")

    return sink


@dataclass(frozen=True)
class Workload:
    name: str
    make_packets: Callable[[int], List[Packet]]
    build: Callable[[Simulator], ChainRuntime]
    # A run cycles through this many inputs drawn from its seed, and its
    # modeled latency is their median: one input's p99 spreads ~17%
    # between seeds, the median of eight inputs' much less.
    inputs: int
    # runs the elastic_actions script; its reference run leaves it out
    scripted: bool = False


def input_seed(seed: int, index: int) -> int:
    """Seed of the run's ``index``-th input; runs never share an input."""
    return seed * 1000 + index


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("paper_chain", paper_packets, build_paper_chain, inputs=8),
        Workload("fastpath_chain", fastpath_packets, build_fastpath_chain, inputs=4),
        Workload(
            "elastic_failover", paper_packets, build_elastic_chain, inputs=6, scripted=True
        ),
    )
}


@dataclass
class Iteration:
    """One built-and-run chain, ready to be measured and checked."""

    packets: List[Packet]
    sim: Simulator
    runtime: ChainRuntime
    actions: Actions = field(default_factory=Actions)


def prepare(workload: Workload, seed: int, scripted: Optional[bool] = None) -> Iteration:
    """Generate one input and build the chain (the timed set-up).

    ``scripted=False`` builds the no-action reference of a scripted
    workload: same chain, same packets, no operations.
    """
    packets = workload.make_packets(seed)
    sim = Simulator()
    runtime = workload.build(sim)
    iteration = Iteration(packets, sim, runtime)
    sink = runtime.inject
    if workload.scripted if scripted is None else scripted:
        sink = elastic_actions(sim, runtime, packets, iteration.actions)
    ReplaySource(sim, packets, sink, load_fraction=LOAD_FRACTION)
    return iteration
