"""Per-layer tracing by wrapping holo's functions from outside the program.

`install()` replaces selected functions and methods of the `holo.*` modules
with wrappers that record, per traced name, the call count, total time and
self time (total minus the time covered by traced children on the same
thread). Per-packet functions run millions of times, so they are only
aggregated; request-level functions (stages, dialogs, handshakes,
heartbeats, synced files) additionally keep one span each, with start,
end, parent span and request id. With one outstanding client request, a
span opened on a hub thread is attributed to the request in flight.

Nothing here changes what the wrapped code computes: wrappers call the
original and return its result unchanged.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import sys
import threading
import time

# traced name -> (module, attribute path). Names follow <module>.<function>.
TIMED = {
    "packets.encode_record": ("holo.packets", "encode_record"),
    "packets.decode": ("holo.packets", "decode"),
    "toolbox.evaluate": ("holo.toolbox", "evaluate"),
    "darknet.offer": ("holo.darknet", "CaptureHandle.offer"),
    "responder.on_segment": ("holo.responder", "Responder.on_segment"),
    "responder.expire": ("holo.responder", "Responder.expire"),
    "simnet.inject": ("holo.simnet", "SensorPath.inject"),
    "simnet.run": ("holo.simnet", "run"),
    "simnet.scripted_client": ("holo.simnet", "scripted_client"),
    "collector.append": ("holo.collector", "HourlyWriter.append"),
    # every sealing, whether by rotation inside append() or by seal()
    "collector.seal": ("holo.collector", "HourlyWriter._seal_open_file"),
    "collector.sync": ("holo.collector", "sync"),
    "collector.put_chunk": ("holo.collector", "LocalLake.put_chunk"),
    "collector.finalize": ("holo.collector", "LocalLake.finalize"),
    "collector.verified_hash": ("holo.collector", "LocalLake.verified_hash"),
    "overlay.seal": ("holo.overlay", "Session.seal"),
    "overlay.open": ("holo.overlay", "Session.open"),
    "overlay.handshake_initiate": ("holo.overlay", "handshake_initiate"),
    "overlay.handshake_respond": ("holo.overlay", "handshake_respond"),
    "overlay.handshake_finalize": ("holo.overlay", "handshake_finalize"),
    "hub.read_frame": ("holo.hub", "read_frame"),
    "hub.read_exact": ("holo.hub", "read_exact"),
    "controlplane.heartbeat": ("holo.controlplane", "Controller.heartbeat"),
    "controlplane.actions_for": ("holo.controlplane", "Controller.actions_for"),
    "controlplane.desired_state": ("holo.controlplane", "Controller.desired_state"),
    "controlplane.reconcile": ("holo.controlplane", "reconcile"),
    "controlplane.onboard": ("holo.controlplane", "Controller.onboard"),
    "controlplane.set_desired": ("holo.controlplane", "Controller.set_desired"),
    "agent.apply_action": ("holo.agent", "AgentCore.apply_action"),
    "agent.connect": ("holo.agent", "AgentProcess.connect"),
    "agent.heartbeat_once": ("holo.agent", "AgentProcess.heartbeat_once"),
    "pcapio.read_pcap": ("holo.pcapio", "read_pcap"),
    "analysis.bucket_by_day": ("holo.analysis", "bucket_by_day"),
    "analysis.aggregate_flows": ("holo.analysis", "aggregate_flows"),
    "analysis.common_sender_ratio": ("holo.analysis", "common_sender_ratio"),
    "analysis.port_cdf": ("holo.analysis", "port_cdf"),
    "analysis.flows_per_ip_series": ("holo.analysis", "flows_per_ip_series"),
}

# called millions of times and only counted, to keep the wrapper cheap
COUNTED = {
    "net.ip_to_int": ("holo.net", "ip_to_int"),
}

# one span each, besides the aggregate
REQUEST_LEVEL = {
    "simnet.scripted_client",
    "collector.sync",
    "collector.finalize",
    "overlay.handshake_respond",
    "controlplane.heartbeat",
    "controlplane.onboard",
    "agent.connect",
    "agent.heartbeat_once",
}


class Tracer:
    """Aggregates and spans for one process."""

    def __init__(self):
        self.agg: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.counts: dict[str, float] = {}
        self.maxima: dict[str, float] = {}
        self.spans: list[dict] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 0
        self.request_id = 0  # request in flight on the client thread

    # -- bookkeeping --------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add(self, key: str, value: float) -> None:
        with self._lock:
            self.counts[key] = self.counts.get(key, 0) + value

    def high(self, key: str, value: float) -> None:
        with self._lock:
            if value > self.maxima.get(key, 0):
                self.maxima[key] = value

    def enter(self, name: str) -> list:
        """Open a frame: [name, start, child seconds, span id, parent id, request id]."""
        stack = self._stack()
        frame = [name, time.perf_counter(), 0.0, None, None, None]
        if name in REQUEST_LEVEL or name.startswith("stage."):
            with self._lock:
                self._next_id += 1
                frame[3] = self._next_id
            frame[4] = next((f[3] for f in reversed(stack) if f[3] is not None), None)
            if threading.current_thread() is not threading.main_thread():
                frame[5] = self.request_id  # hub side of the request in flight
            elif name in REQUEST_LEVEL:
                outer = next((f for f in stack if f[0] in REQUEST_LEVEL), None)
                frame[5] = outer[5] if outer else frame[3]
                self.request_id = frame[5]
        stack.append(frame)
        return frame

    def leave(self, frame: list) -> None:
        end = time.perf_counter()
        stack = self._stack()
        stack.pop()
        name, start, child, span_id, parent, request = frame
        dur = end - start
        if stack:
            stack[-1][2] += dur
        with self._lock:
            rec = self.agg.get(name)
            if rec is None:
                rec = self.agg[name] = [0, 0.0, 0.0]
            rec[0] += 1
            rec[1] += dur
            rec[2] += dur - child
            if span_id is not None:
                self.spans.append(
                    {
                        "name": name,
                        "start": start,
                        "end": end,
                        "id": span_id,
                        "parent": parent,
                        "request": request,
                        "thread": threading.current_thread().name,
                    }
                )

    @contextlib.contextmanager
    def span(self, name: str):
        """A stage-level span opened by the benchmark itself."""
        frame = self.enter(name)
        try:
            yield
        finally:
            self.leave(frame)

    # -- wrappers -----------------------------------------------------------

    def _timed(self, name: str, fn, after=None):
        tracer = self
        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    frame = tracer.enter(name)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        tracer.leave(frame)
                    yield item

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = tracer.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.leave(frame)
            if after is not None:
                after(tracer, args, result)
            return result

        return wrapper

    def _counted(self, name: str, fn):
        agg = self.agg.setdefault(name, [0, 0.0, 0.0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            agg[0] += 1  # single client thread calls these; exact there
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        """Patch holo in place; also rebinds names imported with `from x import f`."""
        replaced: dict[int, object] = {}
        for table, make in ((TIMED, self._wrap_timed), (COUNTED, self._counted)):
            for name, (module_name, path) in table.items():
                owner = importlib.import_module(module_name)
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                original = owner.__dict__[attr]
                wrapped = make(name, original)
                setattr(owner, attr, wrapped)
                replaced[id(original)] = (original, wrapped)
        for module_name, module in list(sys.modules.items()):
            if not module_name.startswith("holo") or module is None:
                continue
            for key, value in list(vars(module).items()):
                hit = replaced.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, key, hit[1])

    def _wrap_timed(self, name: str, fn):
        return self._timed(name, fn, AFTER.get(name))

    # -- results ------------------------------------------------------------

    def calls(self, name: str) -> int:
        return self.agg.get(name, [0, 0.0, 0.0])[0]

    def self_s(self, name: str) -> float:
        return self.agg.get(name, [0, 0.0, 0.0])[2]

    def total_s(self, name: str) -> float:
        return self.agg.get(name, [0, 0.0, 0.0])[1]


# -- result hooks: counts that need the call's arguments or result ----------


def _after_evaluate(tracer, args, action):
    tracer.add("toolbox.evaluate.act_" + action.kind, 1)


def _after_offer(tracer, args, captured):
    if captured:
        tracer.add("darknet.offer.captured", 1)


def _after_on_segment(tracer, args, result):
    tracer.high("responder.open_conns_max", len(args[0].table))


def _after_append(tracer, args, result):
    writer = args[0]
    last = getattr(writer, "_bench_written", 0)
    tracer.add("collector.append.bytes", writer._written - last)
    writer._bench_written = writer._written


def _after_sync(tracer, args, report):
    tracer.add("collector.sync.retried", report.retried)


def _after_seal(tracer, args, frame):
    tracer.add("overlay.seal.bytes", len(frame.ciphertext))


def _after_open(tracer, args, plaintext):
    tracer.add("overlay.open.bytes", len(plaintext))


def _after_reconcile(tracer, args, actions):
    tracer.add("controlplane.reconcile.actions", len(actions))


def _after_aggregate(tracer, args, flows):
    tracer.add("analysis.aggregate_flows.flows", len(flows))
    tracer.add("analysis.aggregate_flows.packets", sum(f.packets for f in flows))


AFTER = {
    "toolbox.evaluate": _after_evaluate,
    "darknet.offer": _after_offer,
    "responder.on_segment": _after_on_segment,
    "collector.append": _after_append,
    "collector.sync": _after_sync,
    "overlay.seal": _after_seal,
    "overlay.open": _after_open,
    "controlplane.reconcile": _after_reconcile,
    "analysis.aggregate_flows": _after_aggregate,
}


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The per-layer figures one stage process contributes (summed over stages)."""
    out: dict[str, float] = {}
    for name in TIMED:
        out[name + ".calls"] = tracer.calls(name)
        out[name + ".self_s"] = tracer.self_s(name)
    out["net.ip_to_int.calls"] = tracer.calls("net.ip_to_int")
    out["hub.read_frame.wait_s"] = tracer.total_s("hub.read_exact")
    out.update(tracer.counts)
    out.update(tracer.maxima)
    return out
