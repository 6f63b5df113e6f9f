"""One benchmark stage as a worker process: `python3 stages.py <spec.json>`.

A stage is ingest, analyze, sync or control. Each runs in a fresh
interpreter so that its peak RSS is its own and its set-up time (cold
interpreter to ready for the first timed operation) can be measured. The
spec names the stage, the workload plan, the generation directory, the
time the parent spawned this process (CLOCK_MONOTONIC, which every process
shares) and whether to trace.

Protocol, one JSON object per line on the original standard output:
the worker sets up and sends {"ready_s": ...}; then each "rep" line on
standard input runs one repetition of the stage's unit of work and is
answered with its timed seconds; "done" ends the worker, which answers
with its totals and samples. holo's own prints go to standard error.

A failed correctness check raises CheckFailed; the worker then exits 1.
"""

from __future__ import annotations

import base64
import contextlib
import gc
import io
import json
import os
import shutil
import sys
import threading
import time
from collections import Counter
from pathlib import Path

import checks
import tracing
from checks import CheckFailed

ANALYZE_METRICS = ("flows", "overlap", "portcdf", "timeline")


def peak_rss_mib() -> float:
    """This process's own peak RSS.

    Not getrusage(): on Linux its ru_maxrss carries the parent's resident
    size at fork across exec, so a stage would inherit run.py's memory.
    """
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


class Stage:
    """Timing, counters and the optional tracer shared by every stage."""

    def __init__(self, spec: dict):
        self.spec = spec
        self.plan = spec["plan"]
        self.gen_dir = Path(spec["gen_dir"])
        self.tracer = tracing.Tracer() if spec["trace"] else None
        self.timed_s = 0.0
        self.attempted = 0
        self.failed = 0
        self.reps = 0
        self.samples: dict[str, list] = {}

    def timed(self, fn, *args, **kwargs):
        """Run fn inside the measured interval (and inside a stage span)."""
        start = time.perf_counter()
        if self.tracer is not None:
            with self.tracer.span("stage." + self.spec["stage"]):
                result = fn(*args, **kwargs)
        else:
            result = fn(*args, **kwargs)
        self.timed_s += time.perf_counter() - start
        return result

    def sample(self, key: str, value: float) -> None:
        self.samples.setdefault(key, []).append(value)

    def totals(self) -> dict:
        doc = {
            "rss_mib": peak_rss_mib(),
            "attempted": self.attempted,
            "failed": self.failed,
            "samples": self.samples,
        }
        if self.tracer is not None:
            # per repetition, so the figures do not depend on how many fitted
            doc["layers"] = {
                k: v if k.endswith("_max") else v / self.reps
                for k, v in tracing.layer_metrics(self.tracer).items()
            }
            with open(self.gen_dir / f"spans-{self.spec['stage']}.jsonl", "w") as fh:
                for span in self.tracer.spans:
                    fh.write(json.dumps(span) + "\n")
        return doc


def _write_sensors(out: Path, sensors) -> None:
    (out / "sensors.json").write_text(
        json.dumps([{"sensor_id": sid, "ranges": [str(r) for r in ranges]} for sid, ranges in sensors])
    )


# -- ingest -----------------------------------------------------------------


class Ingest:
    """Packets through the sensor path into hourly writers, sealed.

    The first repetition's output stays as <gen_dir>/ingest for the other
    stages; every repetition writes the same traces.
    """

    def __init__(self, st: Stage):
        from holo import collector, darknet, simnet
        from holo.net import AddressRange
        from holo.packets import LINK_ETHERNET

        self.st = st
        self.spec = spec = st.plan["ingest"]
        self.collector, self.simnet, self.darknet = collector, simnet, darknet
        if spec["kind"] == "sim":
            self.config = simnet.load_sim_config(spec["config"])
        elif spec["kind"] == "capture":
            self.configs = [darknet.DarknetConfig(ranges=(AddressRange.parse(s["darknet"]),)) for s in spec["sources"]]
            self.link = LINK_ETHERNET
        else:
            self.sensors = [simnet.SimSensor(**s) for s in spec["sensors"]]
            self.plays = json.loads(Path(spec["dialogs"]).read_text())
            for d in self.plays:
                d["payload"] = bytes.fromhex(d["payload"])
                d["steps"] = [("syn",), ("ack",), ("data", d["payload"])] + ([] if d["abandon"] else [("fin",)])

    def rep(self, i: int) -> None:
        out = self.st.gen_dir / ("ingest" if i == 0 else f"ingest{i}")
        traces = out / "traces"
        traces.mkdir(parents=True)
        unit = {"sim": self._sim, "capture": self._capture, "dialogs": self._dialogs}[self.spec["kind"]]
        self.st.sample("work", unit(out, traces))
        if i:
            shutil.rmtree(out)

    def finish(self) -> None:
        pass

    def _sim(self, out: Path, traces: Path) -> int:
        st, config = self.st, self.config
        writers = {s.sensor_id: self.collector.HourlyWriter(traces, s.sensor_id) for s in config.sensors}
        report = st.timed(self.simnet.run, config, writers)
        for sid, counters in report.counters.items():
            checks.require(counters["rst_emitted"] == 0, f"{sid} emitted {counters['rst_emitted']} RSTs")
            checks.require(counters["darknet_src_leaks"] == 0, f"{sid} leaked darknet-sourced packets")
        _write_sensors(out, [(s.sensor_id, s.ranges) for s in config.sensors])
        expected: Counter = Counter()
        for s in config.sensors:
            for (day, key), n in report.expected_flows_by_day(s.sensor_id).items():
                expected[checks.row_key(day, *key)] += n
        (out / "expected_flows.json").write_text(json.dumps(expected))
        # the ground truth does not predict responder-space flows or replies
        (out / "excluded.json").write_text(json.dumps({
            "dst": [r for s in config.sensors if s.responder for r in s.responder["ip_ranges"]],
            "src": [str(r) for s in config.sensors for r in s.ranges],
        }))
        st.attempted += len(report.ground_truth)
        st.failed += sum(w.dropped for w in writers.values())
        return len(report.ground_truth)

    def _capture(self, out: Path, traces: Path) -> int:
        st, sources = self.st, self.spec["sources"]
        writers = [self.collector.HourlyWriter(traces, s["sensor_id"], link_type=self.link) for s in sources]

        def run():
            handles = []
            for source, config, writer in zip(sources, self.configs, writers):
                handles.append(self.darknet.attach(config, source=source["pcap"], sink=writer.append))
                writer.close()
            return handles

        handles = st.timed(run)
        for source, handle in zip(sources, handles):
            checks.require(handle.stats.seen == source["frames"], "capture did not see every frame")
        _write_sensors(out, [(s["sensor_id"], [s["darknet"]]) for s in sources])
        shutil.copy(self.spec["expected_flows"], out / "expected_flows.json")
        (out / "excluded.json").write_text("{}")
        seen = sum(h.stats.seen for h in handles)
        st.attempted += seen
        st.failed += sum(h.stats.decode_errors for h in handles) + sum(w.dropped for w in writers)
        return seen

    def _dialogs(self, out: Path, traces: Path) -> int:
        st, simnet, plays = self.st, self.simnet, self.plays
        writers = [self.collector.HourlyWriter(traces, s.sensor_id) for s in self.sensors]
        paths = [simnet.SensorPath(s, writer=w) for s, w in zip(self.sensors, writers)]
        failed = set()

        def run():
            segments = 0
            for i, d in enumerate(plays):
                path = paths[d["sensor"]]
                try:
                    simnet.scripted_client(
                        path, d["dst_ip"], d["dst_port"], d["steps"], src_ip=d["src_ip"],
                        src_port=d["src_port"], start_ts=d["start_ts"], client_isn=d["isn"],
                    )
                except simnet.Timeout:
                    failed.add(i)
                segments += len(d["steps"])
                if i % 40 >= 38:  # each sensor reaps idle connections now and then
                    path.tick(d["start_ts"] / 1e6)
            for path in paths:
                path.finish(plays[-1]["start_ts"] / 1e6)
            return segments

        segments = st.timed(run)
        _write_sensors(out, [(s.sensor_id, s.ranges) for s in self.sensors])
        cap = paths[0].responder.cfg.max_capture_bytes
        closed = {}
        for path in paths:
            checks.require(path.counters.rst_emitted == 0, "responder path emitted a RST")
            for e in path.responder_events:
                closed[(e["src_ip"], e["src_port"], e["dst_ip"], e["dst_port"])] = e
        for i, d in enumerate(plays):
            if i in failed:
                continue
            event = closed.get((d["src_ip"], d["src_port"], d["dst_ip"], d["dst_port"]))
            checks.require(event is not None, f"dialog {i} left no connection record")
            if not d["abandon"]:
                checks.require(
                    base64.b64decode(event["captured_b64"]) == d["payload"][:cap],
                    f"dialog {i}: captured bytes differ from the payload sent",
                )
        checks.require(len(closed) == len(plays) - len(failed), "connection records do not match dialogs")
        st.attempted += len(plays) + segments
        st.failed += len(failed) + sum(w.dropped for w in writers)
        return segments


# -- analyze ------------------------------------------------------------------


class Analyze:
    """`holo analyze` flows, overlap, portcdf and timeline on the sealed traces."""

    def __init__(self, st: Stage):
        from holo import cli, collector

        self.st, self.cli, self.collector = st, cli, collector
        self.src = st.gen_dir / "ingest"

    def rep(self, i: int) -> None:
        st = self.st
        metas = sorted((self.src / "traces").glob("*.pcap.meta.json"))
        packets = sum(self.collector.read_meta(p).packet_count for p in metas)
        out = st.gen_dir / f"analyze{i}"
        out.mkdir()

        def run():
            for metric in ANALYZE_METRICS:
                with contextlib.redirect_stdout(io.StringIO()):
                    argv = ["analyze", metric, "--in", str(self.src), "--out", str(out / f"{metric}.csv")]
                    code = self.cli.main(argv)
                checks.require(code == 0, f"holo analyze {metric} exited {code}")

        st.timed(run)
        checks.check_flows(out / "flows.csv", self.src, packets)
        shutil.rmtree(out)
        st.attempted += len(ANALYZE_METRICS)
        st.sample("work", packets * len(ANALYZE_METRICS))

    def finish(self) -> None:
        pass


# -- sync -----------------------------------------------------------------------


class Sync:
    """Sealed traces to a lake, verified, then deleted locally.

    Each repetition syncs a fresh copy of the sealed files into an empty
    lake; making the copy is not timed.
    """

    def __init__(self, st: Stage):
        from holo import collector

        self.st, self.collector = st, collector
        self.policy = collector.SyncPolicy(retention_hours=1)
        self.hub = _OverlayLake(st.gen_dir / "hub", st.plan["sensor_ids"]) if st.plan["sync"] == "overlay" else None

    def rep(self, i: int) -> None:
        st, collector = self.st, self.collector
        src = st.gen_dir / "ingest" / "traces"
        sealed = collector.list_sealed(src)
        want = {(m.sensor_id, m.hour_bucket): m.content_hash for _, m in sealed}
        local = st.gen_dir / f"local{i}"
        if self.hub is not None:
            lake_root = st.gen_dir / "hub" / f"lake{i}"
            self.hub.fresh_lake(lake_root)
            for pcap, meta in sealed:
                (local / meta.sensor_id).mkdir(parents=True, exist_ok=True)
                for f in (pcap, Path(str(pcap) + ".meta.json")):
                    shutil.copy2(f, local / meta.sensor_id / f.name)
            reports = st.timed(self.hub.sync, self.policy, local)
        else:
            lake_root = st.gen_dir / f"lake{i}"
            shutil.copytree(src, local)
            reports = [st.timed(collector.sync, self.policy, local, collector.LocalLake(lake_root))]
        checks.require(sum(r.uploaded for r in reports) == len(sealed), "not every sealed file was uploaded")
        checks.require(sum(r.deleted for r in reports) == len(sealed), "not every uploaded file was deleted locally")
        checks.verify_lake(lake_root, want)
        shutil.rmtree(local)
        shutil.rmtree(lake_root)
        st.attempted += len(sealed)
        st.failed += sum(r.retried for r in reports)
        st.sample("work", sum(p.stat().st_size for p, _ in sealed))

    def finish(self) -> None:
        if self.hub is not None:
            self.hub.close()


class _OverlayLake:
    """In-process hub with a lake, and one onboarded identity per sensor.

    Each sensor uploads its own files over its own session (the hub refuses
    foreign sensor ids); one session is open at a time.
    """

    def __init__(self, data_dir: Path, sensor_ids: list):
        from holo import agent, collector, controlplane as cp
        from holo.hub import HubServer

        self.agent, self.collector = agent, collector
        self.controller = cp.Controller(data_dir=data_dir)
        self.server = HubServer(self.controller)
        self.controller.hub_address = self.server.address
        self.server.start()
        self.identities = {}
        for sid in sensor_ids:
            token = self.controller.issue_token(self.controller.principals["admin"], sid, 3600)
            self.identities[sid] = agent.onboard(self.server.address, token.token, cp.SensorDescriptor(sid, "org0"))

    def fresh_lake(self, root: Path) -> None:
        self.server.lake = self.collector.LocalLake(root)

    def sync(self, policy, local: Path) -> list:
        """Per sensor: connect, sync local/<sensor> over the tunnel, close."""
        reports = []
        for sid, identity in self.identities.items():
            proc = self.agent.AgentProcess(identity, self.agent.AgentCore(sid), self.server.address)
            proc.connect()
            try:
                reports.append(self.collector.sync(policy, local / sid, self.agent.OverlayLakeClient(proc)))
            finally:
                proc.stop()
        return reports

    def close(self) -> None:
        self.server.stop()
        self.controller.close()


# -- control ---------------------------------------------------------------------


class Control:
    """A controller and hub on loopback, and the plan's fleet brought to its desired state.

    Each repetition starts a fresh controller: the fleet is onboarded over
    the admin channel and every spec deployed; then sensors take turns (one
    overlay connection at a time): connect, heartbeat until the hub has
    seen all their instances running, disconnect. After a status check
    they take turns again for a few steady heartbeats each.
    """

    def __init__(self, st: Stage):
        from holo import agent, controlplane as cp
        from holo.hub import HubServer, admin_request

        self.st, self.agent, self.cp = st, agent, cp
        self.HubServer, self.admin_request = HubServer, admin_request
        self.stoppers: list[threading.Thread] = []

    def finish(self) -> None:
        for t in self.stoppers:
            t.join()

    def rep(self, i: int) -> None:
        st, agent, cp = self.st, self.agent, self.cp
        fleet = st.plan["fleet"]
        data_dir = st.gen_dir / "control" / f"rep{i}"
        controller = cp.Controller(data_dir=data_dir)
        server = self.HubServer(controller)
        controller.hub_address = addr = server.address
        server.start()

        def admin(doc):
            st.attempted += 1
            reply = self.admin_request(addr, doc)
            if "error" in reply:
                st.failed += 1
                raise CheckFailed(f"admin {doc['op']} refused: {reply['error']}: {reply['message']}")
            return reply

        identities = {}

        def onboard_all():
            for s in fleet["sensors"]:
                t0 = time.perf_counter()
                token = admin({"op": "token_new", "principal": "admin", "sensor_id": s["sensor_id"], "ttl": 3600})
                st.attempted += 1
                identities[s["sensor_id"]] = agent.onboard(addr, token["token"], cp.SensorDescriptor(**s))
                st.sample("onboard_s", time.perf_counter() - t0)

        def deploy_all():
            for spec in fleet["specs"]:
                admin({"op": "deploy", "principal": "admin", "spec": spec})
            return time.perf_counter()

        try:
            st.timed(onboard_all)
            last_deploy = st.timed(deploy_all)
            cores = {
                s["sensor_id"]: agent.AgentCore(s["sensor_id"], descriptor=cp.SensorDescriptor(**s))
                for s in fleet["sensors"]
            }
            desired = {sid: len(specs) for sid, specs in controller.desired_state().items()}

            def turn(sid: str, steady: int) -> None:
                proc = agent.AgentProcess(identities[sid], cores[sid], addr)
                t0 = time.perf_counter()
                st.attempted += 1
                proc.connect()
                st.sample("handshake_ms", (time.perf_counter() - t0) * 1e3)
                try:
                    # steady == 0: beat until the hub has seen every instance
                    # running and has nothing left to ask for
                    beats, settled = 0, False
                    while beats < steady or (steady == 0 and not settled):
                        checks.require(steady or beats < 10, f"{sid} did not converge in 10 heartbeats")
                        t0 = time.perf_counter()
                        st.attempted += 1
                        reply = proc.heartbeat_once()
                        st.sample("hb_rtt_ms", (time.perf_counter() - t0) * 1e3)
                        checks.require("error" not in reply, f"heartbeat of {sid} refused")
                        settled = not reply["actions"] and _running(cores[sid], desired[sid])
                        beats += 1
                finally:
                    proc.stop()

            def converge_all():
                for sid in cores:
                    turn(sid, 0)
                status = admin({"op": "status", "principal": "admin"})["status"]
                return time.perf_counter(), status

            done, status = st.timed(converge_all)
            st.sample("converge_s", done - last_deploy)
            checks.check_converged(status, desired)
            st.timed(lambda: [turn(sid, st.plan["steady_heartbeats"]) for sid in cores])
        finally:
            controller.close()
            # HubServer.stop() waits out the server's 0.5 s poll: let it do so
            # off the measured path, so that no idle server outlives the rep
            stopper = threading.Thread(target=server.stop)
            stopper.start()
            self.stoppers.append(stopper)
        checks.check_replay(data_dir, controller)
        st.sample("work", len(fleet["sensors"]))


def _running(core, want: int) -> bool:
    from holo import controlplane as cp

    return len(core.instances) == want and all(i.status == cp.ST_RUNNING for i in core.instances.values())


RUNNERS = {"ingest": Ingest, "analyze": Analyze, "sync": Sync, "control": Control}


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    # the protocol keeps the original stdout; anything else printed goes to stderr
    proto = os.fdopen(os.dup(1), "w")
    os.dup2(2, 1)
    sys.stdout = sys.stderr

    def send(doc: dict) -> None:
        proto.write(json.dumps(doc) + "\n")
        proto.flush()

    st = Stage(spec)
    if st.tracer is not None:
        st.tracer.install()
    try:
        runner = RUNNERS[spec["stage"]](st)
        send({"ready_s": time.monotonic() - spec["spawned_at"]})
        for line in sys.stdin:
            if line.strip() == "rep":
                gc.collect()  # start every repetition from the same heap
                before = st.timed_s
                runner.rep(st.reps)
                st.reps += 1
                send({"rep_s": st.timed_s - before})
            elif line.strip() == "done":
                runner.finish()
                send(st.totals())
                return 0
    except CheckFailed as exc:
        print(f"check failed in {spec['stage']}: {exc}", file=sys.stderr)
        return 1
    return 1  # standard input closed without "done": run.py went away


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
