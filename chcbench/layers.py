"""Per-layer numbers: deterministic counts and traced self time.

Everything here observes the program from outside. ``Tracer`` replaces the
public entry point of each layer with a timing wrapper for the duration of
one run and restores it afterwards:

* a plain call is one span;
* a generator method is one span per resume (the engine drives these
  generators, so each ``send`` is the unit of work);
* ``Process._step``, the engine's resume of a process body, is a span of
  its own that belongs to no layer: code in a process body outside every
  listed boundary (worker loops, splitter routing, the root's inject loop)
  lands in ``unattributed``.

A span's self time is its duration minus the time its child spans cover.
The layer self times plus ``unattributed`` sum to the wall time of
``Simulator.run``. Spans are keyed by the packet's logical clock (0 where
the call carries none) and held in memory until the run ends.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.chain_runtime import ChainRuntime
from repro.core.fastpath import FastPathExecutor
from repro.core.root import Root
from repro.nfs.firewall import Firewall
from repro.nfs.load_balancer import LoadBalancer
from repro.nfs.nat import Nat
from repro.nfs.portscan import PortscanDetector
from repro.nfs.rate_limiter import RateLimiter
from repro.nfs.trojan_detector import TrojanDetector
from repro.simnet.engine import Process, Simulator
from repro.simnet.network import Network
from repro.simnet.nic import Nic
from repro.simnet.rpc import RpcEndpoint
from repro.store.client import StoreClient
from repro.store.datastore import DatastoreInstance
from repro.store.keys import StateKey

CALL, GEN, COUNT = "call", "gen", "count"
UNATTRIBUTED = "unattributed"

NF_CLASSES = (Nat, PortscanDetector, LoadBalancer, TrojanDetector, Firewall, RateLimiter)

# (layer, class, method, kind). NF logic runs as ``process`` on the general
# path and as ``fast_action`` on the fast path; both are the nf layer.
BOUNDARIES: Tuple[Tuple[str, type, str, str], ...] = (
    ("engine", Simulator, "run", CALL),
    ("root", Root, "inject", CALL),
    ("root", Root, "report_done", CALL),
    ("root", Root, "on_commit_signal", CALL),
    ("root", Root, "replay", GEN),
    ("fastpath", FastPathExecutor, "execute", CALL),
    ("runtime", ChainRuntime, "inject", CALL),
    ("runtime", ChainRuntime, "emit", GEN),
    ("client", StoreClient, "update", GEN),
    ("client", StoreClient, "read", GEN),
    ("client", StoreClient, "batch_flush", CALL),
    ("store", DatastoreInstance, "apply_operation", CALL),
    ("network", Network, "send", CALL),
    ("rpc", RpcEndpoint, "call", GEN),
    ("rpc", RpcEndpoint, "call_event", CALL),
    ("rpc", RpcEndpoint, "respond", CALL),
    ("nic", Nic, "send", CALL),
    *(("nf", cls, "process", GEN) for cls in NF_CLASSES),
    *(("nf", cls, "fast_action", CALL) for cls in NF_CLASSES if "fast_action" in vars(cls)),
    (UNATTRIBUTED, Process, "_step", CALL),
    # counted, not timed: called too often to time without distorting
    ("client", StateKey, "storage_key", COUNT),
    ("client", StoreClient, "batch_begin", COUNT),
)

NAMES = tuple(f"{cls.__name__}.{method}" for _layer, cls, method, _kind in BOUNDARIES)

LAYERS = ("engine", "root", "nf", "fastpath", "runtime", "client", "store",
          "network", "rpc", "nic", UNATTRIBUTED)

# Chrome trace files stay loadable: spans past this many are left out.
CHROME_MAX_EVENTS = 60_000


def _clock(value: Any) -> int:
    """The logical clock a call argument carries, looking one wrapper deep
    (RPC wires and requests wrap the operation that has it)."""
    for candidate in (value, getattr(value, "payload", None)):
        clock = getattr(candidate, "clock", None)
        if isinstance(clock, int):
            return clock
    return 0


def _clock_of(args: tuple, kwargs: dict) -> int:
    """Clock of a wrapped call: ``report_done(clock, ...)`` passes it
    first; the others carry it on a packet, request or packet context."""
    if "ctx" in kwargs:
        return _clock(kwargs["ctx"])
    if len(args) > 1 and type(args[1]) is int:
        return args[1]
    for arg in args[1:4]:
        clock = _clock(arg)
        if clock:
            return clock
    return 0


class Tracer:
    """Installs the wrappers, records spans and per-name call counts."""

    def __init__(self) -> None:
        self.self_time: Dict[str, float] = Counter()
        self.calls: Counter = Counter()
        self.spans: List[Tuple[int, float, float, int]] = []  # name, start, dur, clock
        self.log_peak = 0  # largest root packet log seen at a report_done
        self._stack: List[List[float]] = []
        self._saved: List[Tuple[type, str, Any]] = []

    def reset(self) -> None:
        """Forget what set-up recorded; the wrappers stay installed."""
        self.self_time.clear()
        self.calls.clear()
        self.spans.clear()
        self.log_peak = 0

    # -- install / restore ----------------------------------------------

    def __enter__(self) -> "Tracer":
        for name_id, (layer, cls, method, kind) in enumerate(BOUNDARIES):
            original = vars(cls)[method]
            self._saved.append((cls, method, original))
            if kind == COUNT:
                wrapper = self._counted(NAMES[name_id], original)
            elif kind == GEN:
                wrapper = self._timed_generator(layer, name_id, original)
            else:
                wrapper = self._timed_call(layer, name_id, original)
            setattr(cls, method, wrapper)
        self._observe_root_log()
        return self

    def __exit__(self, *exc_info) -> None:
        for cls, method, original in reversed(self._saved):
            setattr(cls, method, original)
        self._saved.clear()

    # -- wrappers -------------------------------------------------------

    def _observe_root_log(self) -> None:
        timed = Root.report_done
        self._saved.append((Root, "report_done", timed))

        @functools.wraps(timed)
        def report_done(root, *args, **kwargs):
            if len(root.log) > self.log_peak:
                self.log_peak = len(root.log)
            return timed(root, *args, **kwargs)

        Root.report_done = report_done

    def _counted(self, name: str, fn: Callable) -> Callable:
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _close_span(self, layer: str, name_id: int, frame: List[float], clock: int) -> None:
        end = time.perf_counter()
        start, child = frame
        duration = end - start
        self._stack.pop()
        self.self_time[layer] += duration - child
        if self._stack:
            self._stack[-1][1] += duration
        if clock >= 0:
            self.spans.append((name_id, start, duration, clock))

    def _timed_call(self, layer: str, name_id: int, fn: Callable) -> Callable:
        name = NAMES[name_id]
        stack, calls, close = self._stack, self.calls, self._close_span
        keep = layer != UNATTRIBUTED

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            frame = [time.perf_counter(), 0.0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                # process-body spans only feed self time (clock -1: not kept)
                close(layer, name_id, frame, _clock_of(args, kwargs) if keep else -1)

        return wrapper

    def _timed_generator(self, layer: str, name_id: int, fn: Callable) -> Callable:
        name = NAMES[name_id]
        stack, calls, close = self._stack, self.calls, self._close_span

        def resumes(gen, clock: int):
            value: Any = None
            error: Optional[BaseException] = None
            while True:
                frame = [time.perf_counter(), 0.0]
                stack.append(frame)
                try:
                    target = gen.throw(error) if error is not None else gen.send(value)
                except StopIteration as stop:
                    return stop.value
                finally:
                    close(layer, name_id, frame, clock)
                try:
                    value, error = (yield target), None
                except GeneratorExit:
                    gen.close()
                    raise
                except BaseException as exc:  # re-raised inside gen by throw()
                    value, error = None, exc

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return resumes(fn(*args, **kwargs), _clock_of(args, kwargs))

        return wrapper

    # -- results --------------------------------------------------------

    def total(self, *names: str) -> int:
        return sum(self.calls[name] for name in names)

    def self_times(self) -> Dict[str, float]:
        """Self time per listed layer; ``unattributed`` is what the run's
        wall time leaves over."""
        return {layer: self.self_time.get(layer, 0.0) for layer in LAYERS if layer != UNATTRIBUTED}

    def write_chrome(self, path: str, meta: Dict[str, Any]) -> int:
        """Write the spans as Chrome trace-event JSON (opens in Perfetto).
        Returns the number of events written."""
        spans = sorted(self.spans, key=lambda span: span[1])[:CHROME_MAX_EVENTS]
        origin = spans[0][1] if spans else 0.0
        events = [
            {
                "name": NAMES[name_id],
                "cat": BOUNDARIES[name_id][0],
                "ph": "X",
                "ts": round((start - origin) * 1e6, 3),
                "dur": round(duration * 1e6, 3),
                "pid": 1,
                "tid": 1,
                "args": {"clock": clock},
            }
            for name_id, start, duration, clock in spans
        ]
        meta = dict(meta, spans_recorded=len(self.spans), spans_written=len(events))
        with open(path, "w") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms", "otherData": meta}, fh)
        return len(events)


def layer_counts(iteration, tracer: Tracer) -> Dict[str, float]:
    """Deterministic per-layer counts of one traced iteration. Per-packet
    figures divide by the injected packet count."""
    sim, runtime = iteration.sim, iteration.runtime
    n = len(iteration.packets)
    instances = list(runtime.instances.values())
    clients = [instance.client for instance in instances]
    executors = [i._fastpath for i in instances if i._fastpath is not None]
    stores = runtime.stores
    events = sim.events_processed
    client_ops = tracer.total("StoreClient.update", "StoreClient.read")
    fast = sum(e.stats_fast for e in executors)
    fast_tries = fast + sum(e.stats_fallback for e in executors)
    reads = sum(c.stats.store_reads + c.stats.cached_reads for c in clients)
    move, recovery = iteration.actions.move, iteration.actions.recovery
    return {
        "engine.events_per_pkt": events / n,
        "engine.heap_events_per_pkt": (events - sim.microtasks_processed) / n,
        "engine.microtask_share": sim.microtasks_processed / events,
        "engine.heap_peak": sim.heap_peak,
        "network.sends_per_pkt": tracer.total("Network.send") / n,
        "rpc.calls_per_pkt": tracer.total("RpcEndpoint.call", "RpcEndpoint.call_event") / n,
        "rpc.retries_per_pkt": runtime.network.rpc_retries / n,
        "nic.txq_peak": max((nic.txq_depth_peak for nic in runtime.nics.values()), default=0),
        "root.log_peak": tracer.log_peak,
        "root.commit_signals_per_pkt": sum(r.stats.commit_signals for r in runtime.roots) / n,
        "root.replayed": sum(r.stats.replayed for r in runtime.roots),
        "nf.process_calls_per_pkt": tracer.total(
            *(f"{cls.__name__}.{m}" for cls in NF_CLASSES for m in ("process", "fast_action"))
        ) / n,
        "instance.queue_peak": max((i.queue_depth_peak for i in instances), default=0),
        "fastpath.fast_share": fast / fast_tries if fast_tries else 0.0,
        "fastpath.fused_share": sum(e.stats_fused_in for e in executors) / fast if fast else 0.0,
        "fastpath.pkts_per_batch": (
            fast / tracer.total("StoreClient.batch_begin") if fast else 0.0
        ),
        "runtime.emit_calls_per_pkt": tracer.total("ChainRuntime.emit") / n,
        "client.ops_per_pkt": client_ops / n,
        "client.cached_read_share": (
            sum(c.stats.cached_reads for c in clients) / reads if reads else 0.0
        ),
        "client.batches_per_pkt": sum(c.stats_batches_sent for c in clients) / n,
        "client.retransmissions_per_pkt": sum(c.stats.retransmissions for c in clients) / n,
        "client.storage_key_calls_per_op": tracer.total("StateKey.storage_key") / client_ops,
        "store.ops_applied_per_pkt": sum(s.stats.ops_applied for s in stores) / n,
        "store.ops_emulated": sum(s.stats.ops_emulated for s in stores),
        "store.wal_appends_per_pkt": sum(len(c.wal.updates) for c in clients) / n,
        "move.keys": move.n_keys if move else 0,
        "move.markers": move.n_markers if move else 0,
        "move_us": move.duration_us if move else 0.0,
        "recovery.replayed": recovery.replayed if recovery else 0,
        "recovery.duplicates_suppressed": runtime.duplicates_suppressed,
        "recovery_us": recovery.duration_us if recovery else 0.0,
    }
