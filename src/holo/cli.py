"""holo: operator command line.

Every subcommand is a thin adapter over the library; exit code 0 on
success, 1 on operational errors, 2 on usage errors. Machine-readable
output behind --json everywhere.

Only analysis and collector load with this module. Each handler imports
the rest of what it runs (the control plane, hub, agent, simulator,
YAML), so `holo analyze` and `holo sync` never load the control plane or
cryptography.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import textwrap
import time
from pathlib import Path

from . import HoloError, analysis, collector


def parse_ttl(text: str) -> float:
    units = {"s": 1, "m": 60, "h": 3600, "d": 86400}
    if text and text[-1] in units:
        return float(text[:-1]) * units[text[-1]]
    return float(text)


def _hub_addr(args) -> str:
    addr = args.hub or os.environ.get("HOLO_HUB")
    if not addr:
        raise SystemExit("error: no hub address (use --hub or HOLO_HUB)")
    return addr


def _emit(args, doc: dict, human: str = "") -> None:
    if getattr(args, "json", False):
        print(json.dumps(doc, sort_keys=True, indent=2))
    else:
        print(human or json.dumps(doc, sort_keys=True, indent=2))


def _admin(args, doc: dict) -> dict:
    from .hub import admin_request

    reply = admin_request(_hub_addr(args), doc)
    if "error" in reply:
        print(f"error: {reply['error']}: {reply['message']}", file=sys.stderr)
        raise SystemExit(1)
    return reply


# --- subcommands ----------------------------------------------------------


def cmd_controller(args) -> int:
    from . import controlplane as cp
    from .hub import HubServer

    data_dir = args.data_dir or os.environ.get("HOLO_DATA_DIR") or "holo-data"
    host, _, port = args.listen.rpartition(":")
    controller = cp.Controller(
        data_dir=data_dir,
        hub_id=args.hub_id,
        heartbeat_interval=cp.HEARTBEAT_INTERVAL if args.heartbeat is None else args.heartbeat,
    )
    server = HubServer(controller, host or "127.0.0.1", int(port))
    controller.hub_address = server.address
    # SIGTERM raises KeyboardInterrupt in the main thread, as Ctrl-C does
    signal.signal(signal.SIGTERM, signal.default_int_handler)
    try:
        # inside the try: a SIGTERM sent as soon as the banner is read must
        # still close the controller
        print(f"controller listening on {server.address} (data: {data_dir})", flush=True)
        server.serve_forever()
    except KeyboardInterrupt:
        server.close()
    finally:
        controller.close()
    return 0


def cmd_token_new(args) -> int:
    reply = _admin(
        args,
        {
            "op": "token_new",
            "principal": args.principal,
            "sensor_id": args.sensor,
            "ttl": parse_ttl(args.ttl),
            "org": args.org,
        },
    )
    _emit(args, reply, f"token: {reply['token']}\nbootstrap: {reply['bootstrap']}")
    return 0


def _load_descriptor(path: str):
    import yaml

    from . import controlplane as cp

    doc = yaml.safe_load(Path(path).read_text())
    return cp.SensorDescriptor.from_doc(doc)


def cmd_agent(args) -> int:
    from .agent import AgentCore, AgentIdentity, AgentProcess, onboard

    data_dir = Path(args.data_dir or os.environ.get("HOLO_DATA_DIR") or "holo-agent")
    data_dir.mkdir(parents=True, exist_ok=True)
    ident_path = data_dir / "agent.json"
    if args.bootstrap:
        descriptor = _load_descriptor(args.descriptor)
        identity = onboard(_hub_addr(args), args.bootstrap, descriptor)
        identity.tunnel.hub_address = identity.tunnel.hub_address or _hub_addr(args)
        identity.save(ident_path)
        print(f"onboarded {identity.sensor_id}; identity in {ident_path}", flush=True)
    elif ident_path.exists():
        identity = AgentIdentity.load(ident_path)
        descriptor = None
    else:
        print("error: no identity; bootstrap with --bootstrap TOKEN", file=sys.stderr)
        return 1
    core = AgentCore(identity.sensor_id, data_dir=data_dir, descriptor=descriptor)
    proc = AgentProcess(identity, core, hub_address=args.hub)
    proc.connect()
    signal.signal(signal.SIGTERM, signal.default_int_handler)
    try:
        print(f"agent {identity.sensor_id} connected to {proc.hub_address}", flush=True)
        if args.oneshot:
            proc.heartbeat_once()
        else:
            proc.run(interval=args.heartbeat)
    except KeyboardInterrupt:
        pass
    finally:
        proc.stop()
    return 0


def cmd_deploy(args) -> int:
    import yaml

    from . import controlplane as cp

    doc = yaml.safe_load(Path(args.file).read_text())
    spec = cp.ModuleSpec.from_doc(doc)
    reply = _admin(args, {"op": "deploy", "principal": args.principal, "spec": spec.to_doc()})
    _emit(args, reply, f"deployed {spec.name} -> {reply['delta']['sensors']}")
    return 0


def cmd_status(args) -> int:
    reply = _admin(args, {"op": "status", "principal": args.principal})
    status = reply["status"]
    if args.json:
        print(json.dumps(status, sort_keys=True, indent=2))
        return 0
    print(f"hub {status['hub_id']}  sensors {len(status['sensors'])}")
    for sensor in status["sensors"]:
        reach = "up" if sensor["reachable"] else "UNREACHABLE"
        print(
            f"  {sensor['sensor_id']:12s} {sensor['org']:12s} {reach:11s} "
            f"ranges={','.join(sensor['address_ranges'])}"
        )
        for inst in sensor["instances"]:
            print(f"     - {inst['instance_id']:20s} {inst['module_kind']:10s} {inst['status']}")
    return 0


def cmd_sim_run(args) -> int:
    from . import simnet

    config = simnet.load_sim_config(args.file)
    out = Path(args.out)
    # a writer never reopens a sealed hour: the traces would not match this run
    if any((out / "traces").glob("*.pcap.meta.json")):
        raise SystemExit(f"error: {out / 'traces'} holds sealed traces of an earlier run")
    out.mkdir(parents=True, exist_ok=True)
    writers = {
        s.sensor_id: collector.HourlyWriter(out / "traces", s.sensor_id)
        for s in config.sensors
    }
    report = simnet.run(config, writers=writers)
    report.dump_jsonl(out / "ground_truth.jsonl")
    (out / "counters.json").write_text(json.dumps(report.counters, sort_keys=True, indent=2))
    for sensor_id, path_obj in report.paths.items():
        if path_obj.responder_events:
            conn_dir = out / "responders"
            conn_dir.mkdir(exist_ok=True)
            with open(conn_dir / f"{sensor_id}.jsonl", "w") as fh:
                for event in path_obj.responder_events:
                    fh.write(json.dumps(event, sort_keys=True) + "\n")
    (out / "sensors.json").write_text(
        json.dumps(
            [
                {"sensor_id": s.sensor_id, "ranges": [str(r) for r in s.ranges]}
                for s in config.sensors
            ],
            indent=2,
        )
    )
    doc = {
        "packets": len(report.ground_truth),
        "digest": report.digest(),
        "out": str(out),
        "counters": report.counters,
    }
    _emit(args, doc, f"simulated {doc['packets']} packets -> {out} (digest {doc['digest'][:16]})")
    return 0


def _sensor_flows(in_dir: Path) -> dict[str, dict]:
    """Per-sensor flow tables (see analysis.flow_table) of the sealed traces
    under in_dir (local or lake layout).

    A trace for whose content hash a flow log in its directory holds a
    complete block is merged from that block; any other trace is walked
    packet by packet. Logs are read one at a time, so memory holds one log
    and the flow tables.
    """
    traces = collector.sealed_traces(in_dir)
    if not traces:
        raise SystemExit(f"error: no sealed trace files under {in_dir}")
    tables: dict[str, dict] = {meta.sensor_id: {} for _, meta in traces}
    unmerged: dict[tuple, list] = {}  # (directory, content hash) -> traces
    for pcap_path, meta in traces:
        unmerged.setdefault((pcap_path.parent, meta.content_hash), []).append((pcap_path, meta))
    for log in sorted(Path(in_dir).rglob("*.flows")):
        for key, rows in analysis.index_flow_logs([log]).items():
            for _, meta in unmerged.pop(key, ()):
                day = collector.bucket_start_us(meta.hour_bucket) // analysis.DAY_US
                analysis.merge_flow_rows(tables[meta.sensor_id], rows, day)
    for walked in unmerged.values():
        for pcap_path, meta in walked:
            analysis.flow_table(analysis.trace_packets([pcap_path]), tables[meta.sensor_id])
    return tables


def cmd_analyze(args) -> int:
    tables = _sensor_flows(Path(args.input))
    out = Path(args.out)

    if args.metric == "flows":
        n_flows = analysis.write_flows_csv(out, [tables[sensor] for sensor in sorted(tables)])
        _emit(args, {"flows": n_flows, "out": str(out)}, f"{n_flows} flows -> {out}")
    elif args.metric == "overlap":
        matrix = analysis.common_sender_ratio(
            tables,
            window_days=args.window_days,
            min_packets=args.min_packets,
            top_fraction=args.top_fraction,
            mode="jaccard" if args.jaccard else "row",
        )
        analysis.write_overlap_csv(out, matrix)
        _emit(
            args,
            {"sensors": matrix.sensors, "out": str(out)},
            f"overlap matrix for {len(matrix.sensors)} sensors -> {out}",
        )
    elif args.metric == "portcdf":
        chosen = [tables[s] for s in sorted(tables) if not args.sensor or s == args.sensor]
        dist = analysis.port_cdf(chosen, weight=args.weight)
        if dist.empty:
            print("warning: no TCP traffic in input", file=sys.stderr)
        analysis.write_portcdf_csv(out, dist)
        Path(str(out) + ".json").write_text(
            json.dumps({"weight": args.weight, "sensor": args.sensor, "total": dist.total},
                       sort_keys=True, indent=2)
        )
        _emit(args, {"ports": len(dist.counts), "out": str(out)}, f"{len(dist.counts)} ports -> {out}")
    elif args.metric == "timeline":
        subnets = {}
        sensors_json = Path(args.input) / "sensors.json"
        if args.subnet:
            only = args.sensor or sorted(tables)[0]
            subnets[only] = analysis.AddressRange.parse(args.subnet)
        elif sensors_json.exists():
            for doc in json.loads(sensors_json.read_text()):
                for r in doc["ranges"]:
                    rng = analysis.AddressRange.parse(r)
                    if rng.prefix_len == 24:
                        subnets[doc["sensor_id"]] = rng
                        break
        else:
            raise SystemExit("error: timeline needs --subnet or a sensors.json in the input dir")
        days = analysis.flow_days(tables.values())
        series = {}
        for sensor, subnet in sorted(subnets.items()):
            if sensor in tables and days:
                series[sensor] = analysis.flows_per_ip_series(tables[sensor], subnet, days)
        analysis.write_timeline_csv(out, series)
        Path(str(out) + ".json").write_text(
            json.dumps({"subnets": {s: str(r) for s, r in subnets.items()}, "days": days},
                       sort_keys=True, indent=2)
        )
        _emit(args, {"sensors": sorted(series), "days": days, "out": str(out)},
              f"timeline for {len(series)} sensors x {len(days)} days -> {out}")
    return 0


def cmd_rules_emit(args) -> int:
    if args.file:
        import yaml

        from . import controlplane as cp
        from .assembly import assemble
        from .toolbox import emit_iptables

        docs = yaml.safe_load(Path(args.file).read_text())
        specs = [cp.ModuleSpec.from_doc(d) for d in (docs if isinstance(docs, list) else [docs])]
        for spec in specs:
            cp.validate_spec(spec)  # what deploy would refuse, with the same message
        built = assemble([(s.module_kind, s.params) for s in specs])
        text = emit_iptables(built.program, limiters=built.limiters)
    else:
        reply = _admin(args, {"op": "rules_emit", "sensor_id": args.sensor})
        text = reply["text"]
    sys.stdout.write(text)
    return 0


def cmd_sync_run(args) -> int:
    doc = {"enabled": not args.disabled, "retention_hours": args.retention_hours,
           "bandwidth_cap": args.bandwidth_cap, "redact": args.redact}
    if args.policy:
        import yaml

        doc = yaml.safe_load(Path(args.policy).read_text())
    try:
        policy = collector.SyncPolicy(**doc)
    except (TypeError, ValueError) as exc:  # an unknown key, a value out of range
        print(f"error: bad sync policy: {exc}", file=sys.stderr)
        return 2
    lake = collector.LocalLake(args.lake)
    report = collector.sync(policy, args.local, lake, now=args.now or time.time())
    doc = {
        "uploaded": report.uploaded,
        "deleted": report.deleted,
        "skipped": report.skipped,
        "retried": report.retried,
        "bytes_sent": report.bytes_sent,
    }
    _emit(args, doc, f"uploaded {report.uploaded}, deleted {report.deleted}, skipped {report.skipped}")
    return 0


def cmd_sync_status(args) -> int:
    sealed = collector.list_sealed(args.local)
    doc = {
        "sealed_files": [
            {"file": str(path.name), "bucket": meta.hour_bucket, "packets": meta.packet_count}
            for path, meta in sealed
        ]
    }
    _emit(args, doc, "\n".join(f"{d['file']}  {d['packets']} pkts" for d in doc["sealed_files"]) or "no sealed files")
    return 0


# --- parser ---------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="holo",
        description="distributed telescope and honeypot platform",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=textwrap.dedent(
            """\
            environment:
              HOLO_HUB       default controller address (host:port)
              HOLO_DATA_DIR  default data directory
            """
        ),
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("controller", help="run the hub and controller")
    p.add_argument("--data-dir", default=None)
    p.add_argument("--listen", default="127.0.0.1:7400")
    p.add_argument("--hub-id", default="hub")
    p.add_argument("--heartbeat", type=float, default=None)
    p.set_defaults(func=cmd_controller)

    token = sub.add_parser("token", help="onboarding tokens")
    tsub = token.add_subparsers(dest="token_cmd", required=True)
    p = tsub.add_parser("new", help="issue a single-use onboarding token")
    p.add_argument("--sensor", required=True)
    p.add_argument("--ttl", default="1h")
    p.add_argument("--org", default=None)
    p.add_argument("--principal", default="admin")
    p.add_argument("--hub", default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_token_new)

    p = sub.add_parser("agent", help="run a sensor agent")
    p.add_argument("--bootstrap", default=None, help="onboarding token")
    p.add_argument("--hub", default=None)
    p.add_argument("--descriptor", default=None, help="sensor descriptor YAML")
    p.add_argument("--data-dir", default=None)
    p.add_argument("--heartbeat", type=float, default=None)
    p.add_argument("--oneshot", action="store_true", help="one heartbeat then exit")
    p.set_defaults(func=cmd_agent)

    p = sub.add_parser("deploy", help="deploy a module spec")
    p.add_argument("-f", "--file", required=True)
    p.add_argument("--principal", default="admin")
    p.add_argument("--hub", default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_deploy)

    p = sub.add_parser("status", help="deployment status")
    p.add_argument("--principal", default="admin")
    p.add_argument("--hub", default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_status)

    sim = sub.add_parser("sim", help="simulated network runs")
    ssub = sim.add_subparsers(dest="sim_cmd", required=True)
    p = ssub.add_parser("run", help="run a simulation config")
    p.add_argument("-f", "--file", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_sim_run)

    p = sub.add_parser("analyze", help="compute traffic metrics from traces")
    p.add_argument("metric", choices=["flows", "overlap", "portcdf", "timeline"])
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--window-days", type=int, default=15)
    p.add_argument("--min-packets", type=int, default=500)
    p.add_argument("--top-fraction", type=float, default=0.05)
    p.add_argument("--no-top-fraction", dest="top_fraction", action="store_const", const=None)
    p.add_argument("--jaccard", action="store_true")
    p.add_argument("--weight", choices=["packets", "flows"], default="packets")
    p.add_argument("--sensor", default=None)
    p.add_argument("--subnet", default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_analyze)

    rules = sub.add_parser("rules", help="steering rule programs")
    rsub = rules.add_subparsers(dest="rules_cmd", required=True)
    p = rsub.add_parser("emit", help="emit iptables text for a sensor")
    p.add_argument("--sensor", default=None)
    p.add_argument("-f", "--file", default=None, help="offline: build from a deploy YAML")
    p.add_argument("--hub", default=None)
    p.set_defaults(func=cmd_rules_emit)

    syncp = sub.add_parser("sync", help="trace synchronization")
    sysub = syncp.add_subparsers(dest="sync_cmd", required=True)
    p = sysub.add_parser("run", help="sync sealed traces to a lake directory")
    p.add_argument("--local", required=True)
    p.add_argument("--lake", required=True)
    p.add_argument("--policy", default=None, help="policy YAML")
    p.add_argument("--retention-hours", type=int, default=24)
    p.add_argument("--bandwidth-cap", type=int, default=None)
    p.add_argument("--redact", choices=["none", "truncate"], default="none")
    p.add_argument("--disabled", action="store_true")
    p.add_argument("--now", type=float, default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_sync_run)
    p = sysub.add_parser("status", help="list local sealed files")
    p.add_argument("--local", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_sync_status)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SystemExit:
        raise
    except (HoloError, ConnectionError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
