from collections import Counter

import pytest
import yaml

from holo import analysis, simnet
from holo.analysis import classify_backscatter
from holo.net import AddressRange, int_to_ip
from holo.packets import PROTO_TCP, TCP_ACK, TCP_SYN, FlowKey
from holo.simnet import (
    ConfigInvalid,
    ScannerProfile,
    SimConfig,
    SimSensor,
    Timeout,
    load_sim_config,
    run,
    scripted_client,
)

from flow_reference import tables_of


def two_sensor_config(seed=11, duration=600.0, mode="direct"):
    return SimConfig(
        seed=seed,
        duration=duration,
        sensors=[
            SimSensor("s1", ["10.9.1.0/24"], mode=mode),
            SimSensor("s2", ["10.9.2.0/24"], mode=mode),
        ],
        scanners=[
            ScannerProfile("sweepA", "uniform", src_ip="203.0.113.10", rate=4.0,
                           port_model="ssh-telnet-iot"),
            ScannerProfile("sweepB", "uniform", src_ip="203.0.113.11", rate=3.0,
                           port_model="bgp-prober"),
        ],
    )


class TestDeterminism:
    def test_same_seed_identical_report(self, tmp_path):
        r1 = run(two_sensor_config())
        r2 = run(two_sensor_config())
        assert r1.digest() == r2.digest()
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        r1.dump_jsonl(p1)
        r2.dump_jsonl(p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_different_seed_differs(self):
        assert run(two_sensor_config(seed=1)).digest() != run(two_sensor_config(seed=2)).digest()


class TestConfig:
    def test_overlapping_sensor_ranges_rejected(self):
        with pytest.raises(ConfigInvalid):
            SimConfig(seed=1, duration=10,
                      sensors=[SimSensor("a", ["10.9.0.0/23"]), SimSensor("b", ["10.9.1.0/24"])],
                      scanners=[])

    def test_port_weights_must_sum_to_one(self):
        with pytest.raises(ConfigInvalid):
            ScannerProfile("x", "uniform", port_model={22: 0.5, 23: 0.2})

    def test_yaml_loader(self, tmp_path):
        doc = {
            "seed": 3,
            "duration": 60,
            "sensors": [{"sensor_id": "s1", "ranges": ["10.9.1.0/24"]}],
            "scanners": [{"name": "u", "kind": "uniform", "src_ip": "1.2.3.4",
                          "rate": 2.0, "port_model": "ssh-telnet-iot"}],
        }
        path = tmp_path / "sim.yaml"
        path.write_text(yaml.safe_dump(doc))
        config = load_sim_config(path)
        assert config.seed == 3
        report = run(config)
        assert len(report.ground_truth) == 120

    def test_bad_yaml_config(self, tmp_path):
        path = tmp_path / "sim.yaml"
        path.write_text(yaml.safe_dump({"seed": 1}))
        with pytest.raises(ConfigInvalid):
            load_sim_config(path)


class TestGroundTruth:
    def test_closure_capture_subset_of_generated(self):
        report = run(two_sensor_config())
        for sensor in ("s1", "s2"):
            generated = Counter(
                (gt.ts, gt.src_ip, gt.dst_ip, gt.src_port, gt.dst_port)
                for gt in report.ground_truth if gt.sensor == sensor
            )
            captured = Counter(
                (r.ts, int_to_ip(r.src_ip), int_to_ip(r.dst_ip), r.src_port, r.dst_port)
                for r in report.paths[sensor].captured
            )
            assert not captured - generated  # capture ⊆ generated
            expected = Counter(
                (gt.ts, gt.src_ip, gt.dst_ip, gt.src_port, gt.dst_port)
                for gt in report.ground_truth if gt.sensor == sensor and gt.expect_capture
            )
            assert captured == expected  # difference is exactly the excluded packets

    def test_uniform_sweep_sender_sets_equal_overlap_one(self):
        report = run(two_sensor_config(duration=3600.0))
        sensor_flows = {}
        for sensor in ("s1", "s2"):
            caps = report.paths[sensor].captured
            flows = []
            for day, pkts in analysis.bucket_by_day(caps).items():
                flows.extend(analysis.aggregate_flows(pkts, day))
            sensor_flows[sensor] = flows
        matrix = analysis.common_sender_ratio(tables_of(sensor_flows), min_packets=10)
        assert matrix.ratio == [[1.0, 1.0], [1.0, 1.0]]
        # ground-truth registry names exactly the scanner sources
        assert set(matrix.sender_sets["s1"]) == {"203.0.113.10", "203.0.113.11"}

    def test_backscatter_only_run_classifies_100_percent(self):
        config = SimConfig(
            seed=5, duration=300.0,
            sensors=[SimSensor("s1", ["10.9.1.0/24"])],
            scanners=[ScannerProfile("bs", "backscatter", rate=5.0, port_model="es-ddos",
                                     victims=["198.18.0.1", "198.18.0.2", "198.18.0.3"])],
        )
        report = run(config)
        captured = report.paths["s1"].captured
        assert captured
        assert all(classify_backscatter(r) for r in captured if r.proto == PROTO_TCP)
        # generator labels agree: every ground-truth row is from the spoofer
        assert {gt.scanner for gt in report.ground_truth} == {"bs"}
        assert all(gt.tcp_flags == (TCP_SYN | TCP_ACK) for gt in report.ground_truth)
        assert set(report.sender_registry["bs"]) <= {"198.18.0.1", "198.18.0.2", "198.18.0.3"}

    def test_prefix_scanner_stays_inside_prefix(self):
        config = two_sensor_config()
        config.scanners.append(
            ScannerProfile("narrow", "prefix", src_ip="203.0.113.99", rate=5.0,
                           port_model={443: 1.0}, prefixes=["10.9.2.128/25"])
        )
        report = run(config)
        for gt in report.ground_truth:
            if gt.scanner == "narrow":
                assert gt.sensor == "s2"
                assert AddressRange.parse("10.9.2.128/25").contains(gt.dst_ip)

    def test_sequential_sweep_covers_every_address_once(self):
        config = SimConfig(
            seed=9, duration=256.0,
            sensors=[SimSensor("s1", ["10.9.1.0/24"])],
            scanners=[ScannerProfile("seq", "uniform", src_ip="203.0.113.50", rate=1.0,
                                     port_model={22: 1.0}, sequential=True)],
        )
        report = run(config)
        dsts = [gt.dst_ip for gt in report.ground_truth]
        assert len(dsts) == 256
        assert sorted(set(dsts)) == sorted(dsts)  # each address exactly once

    def test_darknet_silence_over_full_run(self):
        report = run(two_sensor_config(duration=1200.0))
        for sensor in ("s1", "s2"):
            counters = report.counters[sensor]
            assert counters["darknet_src_leaks"] == 0
            assert counters["outbound_emitted"] == 0
            assert counters["outbound_suppressed"] == counters["captured"]

    def test_arp_mode_first_packet_lost_then_captured(self):
        config = SimConfig(
            seed=2, duration=400.0,
            sensors=[SimSensor("s1", ["10.9.1.0/24"], mode="arp")],
            scanners=[ScannerProfile("u", "uniform", src_ip="203.0.113.1", rate=2.0,
                                     port_model={22: 1.0}, sequential=True)],
        )
        report = run(config)
        path = report.paths["s1"]
        # sequential sweep: every dst is fresh, so each first packet is lost
        # to the ARP exchange and only already-claimed dsts are captured
        assert path.counters.arp_pending > 0
        gts = report.ground_truth
        first_seen = set()
        for gt in gts:
            if gt.dst_ip not in first_seen:
                assert not gt.expect_capture
                first_seen.add(gt.dst_ip)
        captured = Counter((g.ts, g.dst_ip) for g in gts if g.expect_capture)
        actual = Counter((r.ts, int_to_ip(r.dst_ip)) for r in path.captured)
        assert actual == captured


class TestScriptedClient:
    def _responder_path(self):
        sensor = SimSensor(
            "s2", ["10.9.2.0/24"],
            responder={"ip_ranges": ["10.9.2.240/28"], "ports": ["1-1023"]},
        )
        return simnet.SensorPath(sensor)

    def test_syn_gets_synack(self):
        path = self._responder_path()
        transcript = scripted_client(path, "10.9.2.241", 80, [("syn",)])
        server = [t for t in transcript if int_to_ip(t.record.src_ip) == "10.9.2.241"]
        assert len(server) == 1
        assert server[0].record.tcp_flags == TCP_SYN | TCP_ACK

    def test_dialog_captures_payload(self):
        path = self._responder_path()
        scripted_client(path, "10.9.2.241", 80, [("syn",), ("ack",), ("data", b"hello"), ("fin",)])
        assert len(path.responder_events) == 1
        record = path.responder_events[0]
        import base64

        assert base64.b64decode(record["captured_b64"]) == b"hello"

    def test_non_exposed_port_silent(self):
        path = self._responder_path()
        transcript = scripted_client(path, "10.9.2.241", 4444, [("syn",)])
        server = [t for t in transcript if int_to_ip(t.record.src_ip) == "10.9.2.241"]
        assert server == []

    def test_timeout_when_no_synack(self):
        path = self._responder_path()
        with pytest.raises(Timeout):
            scripted_client(path, "10.9.2.241", 4444, [("syn",), ("ack",)])

    def test_responder_outbound_rate_limited(self):
        sensor = SimSensor(
            "s2", ["10.9.2.0/24"],
            responder={"ip_ranges": ["10.9.2.240/28"], "ports": ["1-1023"]},
            egress_rate=5.0, egress_burst=5.0,
        )
        path = simnet.SensorPath(sensor)
        # 20 SYNs inside one simulated second; only the burst gets answered
        for i in range(20):
            scripted_client(path, "10.9.2.241", 80, [("syn",)],
                            src_port=42000 + i, start_ts=simnet.DEFAULT_START_US + i * 1000)
        assert path.counters.outbound_emitted == 5
        assert path.counters.outbound_ratelimited == 15


def test_pcap_dump_roundtrips_through_decode(tmp_path):
    from holo.packets import decode, LINK_RAW_IPV4
    from holo.pcapio import read_pcap

    report = run(two_sensor_config(duration=120.0))
    path = tmp_path / "gen.pcap"
    n = simnet.dump_pcap(report, path, sensor="s1")
    gts = [gt for gt in report.ground_truth if gt.sensor == "s1"]
    assert n == len(gts)
    rows = list(read_pcap(path))
    assert len(rows) == n
    for (ts, raw, link), gt in zip(rows, gts):
        rec = decode(raw, link, ts=ts)
        assert rec.ts == gt.ts
        assert (int_to_ip(rec.src_ip), int_to_ip(rec.dst_ip)) == (gt.src_ip, gt.dst_ip)
        assert (rec.src_port, rec.dst_port) == (gt.src_port, gt.dst_port)
        assert rec.tcp_flags == gt.tcp_flags
