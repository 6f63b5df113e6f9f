"""One assembler builds every sensor program: the simulator's, the agent's
and the one `holo rules emit` prints. One Pipeline, built from it, is the
runtime of the simulator's sensors and of the agent."""

import threading
from collections import Counter

import pytest
import yaml

from holo import cli, toolbox
from holo import controlplane as cp
from holo.agent import AgentCore
from holo.assembly import Assembly, Pipeline, assemble
from holo.darknet import darknet_rules
from holo.net import AddressRange, int_to_ip, ip_to_int
from holo.packets import PROTO_TCP, TCP_ACK, TCP_SYN, PacketRecord
from holo.responder import EGRESS_LIMITER, TcpSegment, config_from_doc, steering_rules
from holo.simnet import SensorPath, SimSensor

SLASH16 = {"ranges": ["10.9.0.0/16"]}
SLASH28 = {"ip_ranges": ["10.9.1.240/28"], "ports": ["1-1023"]}
# 10.9.0.0/16 with 10.9.1.240/28 cut out
CARVED = [
    "10.9.0.0/24", "10.9.1.0/25", "10.9.1.128/26", "10.9.1.192/27", "10.9.1.224/28", "10.9.2.0/23",
    "10.9.4.0/22", "10.9.8.0/21", "10.9.16.0/20", "10.9.32.0/19", "10.9.64.0/18", "10.9.128.0/17",
]


def outbound(src):
    return PacketRecord(ts=0, src_ip=ip_to_int(src), dst_ip=ip_to_int("203.0.113.5"), proto=PROTO_TCP,
                        src_port=22, dst_port=41000, tcp_flags=TCP_SYN | TCP_ACK)


def darknet_drops(program):
    return [str(r.match.src_range) for r in program.rules
            if r.direction == toolbox.OUT and r.action.kind == toolbox.ACT_DROP and r.match.proto is None]


def emit_offline(modules, tmp_path, capsys):
    path = tmp_path / "specs.yaml"
    path.write_text(yaml.safe_dump([
        {"module_kind": kind, "name": f"m{i}", "params": params, "target": {"ids": ["A1"]}}
        for i, (kind, params) in enumerate(modules)
    ]))
    assert cli.main(["rules", "emit", "-f", str(path)]) == 0
    return capsys.readouterr().out.splitlines()


class TestSlash16WithSlash28Responder:
    """Twelve darknet ranges once the responder is cut out: more egress drops
    than the old fixed priority band held."""

    MODULES = [(cp.KIND_DARKNET, SLASH16), (cp.KIND_RESPONDER, SLASH28)]

    def test_agent_program_drops_every_darknet_range(self):
        core = AgentCore("A1")
        for i, (kind, params) in enumerate(self.MODULES):
            spec = cp.ModuleSpec(kind, f"m{i}", params, target_ids=["A1"])
            core.apply_action(cp.Action("start", "A1", f"i{i}", spec))
        program = core.pipeline.program
        assert darknet_drops(program) == CARVED
        for cidr in CARVED:
            last = AddressRange.parse(cidr).last_int
            assert toolbox.evaluate(program, outbound(int_to_ip(last)), toolbox.OUT).kind == toolbox.ACT_DROP
        assert toolbox.evaluate(program, outbound("10.9.1.241"), toolbox.OUT).kind == toolbox.ACT_RATELIMIT

    def test_emitted_text_drops_every_darknet_range(self, tmp_path, capsys):
        lines = emit_offline(self.MODULES, tmp_path, capsys)
        for cidr in CARVED:
            assert f"-A HOLO-OUT -s {cidr} -j DROP" in lines
        assert "-A HOLO-OUT -s 10.9.1.240/28 -p tcp --tcp-flags RST RST -j DROP" in lines

    def test_sensor_path_builds_the_same_program(self):
        path = SensorPath(SimSensor("A1", ["10.9.0.0/16"], responder=SLASH28))
        assert path.program.rules == assemble(self.MODULES).program.rules
        assert [str(r) for r in path.darknet_config.ranges] == CARVED


def test_two_darknets_and_two_responders_keep_every_rule(tmp_path, capsys):
    modules = [
        (cp.KIND_DARKNET, {"ranges": ["10.9.1.0/24"]}),
        (cp.KIND_RESPONDER, {"ip_ranges": ["10.9.1.240/28"], "ports": ["22"]}),
        (cp.KIND_DARKNET, {"ranges": ["10.9.2.0/24", "10.9.3.0/24"]}),
        (cp.KIND_RESPONDER, {"ip_ranges": ["10.9.2.0/28"], "ports": ["80", "443"]}),
    ]
    built = assemble(modules)
    responders = [config_from_doc(params) for kind, params in modules if kind == cp.KIND_RESPONDER]
    holes = [rng for cfg in responders for rng in cfg.ip_ranges]
    assert [len(cfg.ranges) for cfg in built.darknets] == [4, 5]
    assert not any(d.overlaps(h) for cfg in built.darknets for d in cfg.ranges for h in holes)

    want = [r for cfg in built.darknets for r in darknet_rules(cfg)]
    want += [r for cfg in responders for r in steering_rules(cfg)]
    assert len(built.program.rules) == len(want) == 25
    assert Counter(built.program.rules) == Counter(want)
    # the fixed module order: darknet drops, steers, RST guards, egress limits, darknet admits
    kinds = [(r.direction, r.action.kind) for r in built.program.rules]
    assert kinds == (
        [(toolbox.OUT, toolbox.ACT_DROP)] * 9 + [(toolbox.IN, toolbox.ACT_STEER)] * 3
        + [(toolbox.OUT, toolbox.ACT_DROP)] * 2 + [(toolbox.OUT, toolbox.ACT_RATELIMIT)] * 2
        + [(toolbox.IN, toolbox.ACT_ACCEPT)] * 9
    )

    lines = emit_offline(modules, tmp_path, capsys)
    assert sum(line.startswith("-A HOLO-") for line in lines) == 25


DARKNET_24 = {"ranges": ["10.9.1.0/24"]}
RESPONDER_28 = {"ip_ranges": ["10.9.1.240/28"], "ports": ["1-1023"]}
TOOLBOX_5_7 = {"egress_rate": 5, "egress_burst": 7}


def inbound(dst, dport=22):
    return PacketRecord(ts=0, src_ip=ip_to_int("203.0.113.5"), dst_ip=ip_to_int(dst), proto=PROTO_TCP,
                        src_port=41000, dst_port=dport, tcp_flags=TCP_SYN)


def agent_with(modules, **kwargs):
    """An AgentCore that started each (kind, params) pair as instance i<n>."""
    core = AgentCore("A1", **kwargs)
    for i, (kind, params) in enumerate(modules):
        core.apply_action(cp.Action("start", "A1", f"i{i}", cp.ModuleSpec(kind, f"m{i}", params, target_ids=["A1"])))
    return core


def test_agent_darknet_handle_excludes_the_responder_range():
    core = agent_with([(cp.KIND_DARKNET, DARKNET_24), (cp.KIND_RESPONDER, RESPONDER_28)])
    (handle,) = core.pipeline.handles
    assert not handle.accepts(inbound("10.9.1.241"))
    assert handle.accepts(inbound("10.9.1.7"))


def test_stopping_the_toolbox_module_resets_the_agent_limiter(tmp_path):
    core = agent_with([(cp.KIND_DARKNET, DARKNET_24), (cp.KIND_RESPONDER, RESPONDER_28),
                       (cp.KIND_TOOLBOX, TOOLBOX_5_7)], data_dir=tmp_path)
    assert (core.pipeline.limiter.rate, core.pipeline.limiter.burst) == (5.0, 7.0)
    core.apply_action(cp.Action("stop", "A1", "i2"))
    assert (core.pipeline.limiter.rate, core.pipeline.limiter.burst) == (100.0, 100.0)
    written = (tmp_path / "A1" / f"holo-rules-{core.pipeline.program.generation}.v4").read_text()
    assert "--limit 100/second --limit-burst 100" in written


def test_agent_pipeline_equals_the_sensor_path_for_the_same_modules():
    path = SensorPath(SimSensor("A1", ["10.9.1.0/24"], responder=RESPONDER_28, egress_rate=5, egress_burst=7))
    desc = cp.SensorDescriptor("A1", "org-a", address_ranges=["10.9.1.0/24"], honeypot_allowed=True)
    agent = agent_with([(cp.KIND_TOOLBOX, TOOLBOX_5_7), (cp.KIND_RESPONDER, RESPONDER_28),
                        (cp.KIND_DARKNET, DARKNET_24)], descriptor=desc).pipeline
    assert agent.program.rules == path.program.rules
    assert (agent.limiter.rate, agent.limiter.burst) == (path.limiter.rate, path.limiter.burst) == (5.0, 7.0)
    assert [h.config for h in agent.handles] == [h.config for h in path.handles]
    assert [r.cfg for r in agent.responders] == [r.cfg for r in path.responders]


@pytest.mark.parametrize("kind, params", [
    (cp.KIND_DARKNET, {"ranges": ["10.9.7.0/24"]}),  # outside the descriptor: attach refuses it
    (cp.KIND_RESPONDER, {"ip_ranges": ["10.9.1.0/33"]}),  # does not parse
    ("tarpit", {}),  # a kind the agent does not know
], ids=["darknet-outside-descriptor", "bad-responder-range", "unknown-kind"])
def test_a_module_that_cannot_start_crashes_alone(kind, params):
    desc = cp.SensorDescriptor("A1", "org-a", address_ranges=["10.9.1.0/24"], honeypot_allowed=True)
    core = agent_with([(cp.KIND_DARKNET, DARKNET_24), (cp.KIND_RESPONDER, RESPONDER_28)], descriptor=desc)
    pipeline = core.pipeline
    rules, handles, responders = pipeline.program.rules, pipeline.handles, pipeline.responders
    core.apply_action(cp.Action("start", "A1", "far-0", cp.ModuleSpec(kind, "far", params, target_ids=["A1"])))
    status = {doc["instance_id"]: doc["status"] for doc in core.heartbeat_fragment()}
    assert status == {"i0": cp.ST_RUNNING, "i1": cp.ST_RUNNING, "far-0": cp.ST_CRASHED}
    assert pipeline.program.rules == rules
    assert pipeline.handles == handles and pipeline.responders == responders


def test_a_darknet_owns_its_ranges_before_the_responders_are_cut_out():
    """Cut, 10.9.1.0/24 would fit the two /25s; whole, it fits neither. It
    must not start, or stopping the responder would need the whole /24."""
    desc = cp.SensorDescriptor("A1", "org-a", address_ranges=["10.9.1.0/25", "10.9.1.128/25"], honeypot_allowed=True)
    core = agent_with([(cp.KIND_RESPONDER, RESPONDER_28), (cp.KIND_DARKNET, DARKNET_24)], descriptor=desc)
    assert core.instances["i1"].status == cp.ST_CRASHED
    assert core.pipeline.handles == ()
    core.apply_action(cp.Action("stop", "A1", "i0"))
    assert {doc["instance_id"]: doc["status"] for doc in core.heartbeat_fragment()} == {"i1": cp.ST_CRASHED}
    assert core.pipeline.handles == core.pipeline.responders == ()
    assert core.pipeline.program.rules == ()


def test_reconfigure_keeps_the_runtime_of_every_unchanged_config():
    pipeline = Pipeline(assemble([(cp.KIND_DARKNET, DARKNET_24), (cp.KIND_RESPONDER, RESPONDER_28)]))
    (handle,), (responder,) = pipeline.handles, pipeline.responders
    pipeline.inbound(TcpSegment(inbound("10.9.1.241"), seq=1, ack=0), [])
    pipeline.inbound(inbound("10.9.1.7"), [])
    pipeline.reconfigure(assemble([(cp.KIND_DARKNET, DARKNET_24), (cp.KIND_RESPONDER, RESPONDER_28),
                                   (cp.KIND_TOOLBOX, TOOLBOX_5_7)], generation=2))
    assert pipeline.handles == (handle,) and handle.stats.captured == 1
    assert pipeline.responders == (responder,) and len(responder.table) == 1
    assert (pipeline.limiter.rate, pipeline.limiter.burst) == (5.0, 7.0)


def program_only(rules, generation):
    return Assembly(toolbox.compile(rules, generation=generation), {EGRESS_LIMITER: (100.0, 100.0)}, (), ())


class TestReconfigure:
    def test_swap_requires_increasing_generation(self):
        pipeline = Pipeline(program_only([], 1))
        with pytest.raises(toolbox.ToolboxError):
            pipeline.reconfigure(program_only([], 1))
        pipeline.reconfigure(program_only([], 2))
        assert pipeline.program.generation == 2

    def test_atomic_swap_under_interleaving(self):
        darknet = AddressRange.parse("10.9.0.0/24")
        rule_a = toolbox.SteeringRule(toolbox.OUT, toolbox.Match(src_range=darknet), toolbox.Drop())
        rule_b = toolbox.SteeringRule(toolbox.OUT, toolbox.Match(src_range=darknet, proto=PROTO_TCP), toolbox.Drop())
        pipeline = Pipeline(program_only([rule_a], 1))
        seen = []
        stop = threading.Event()

        def reader():
            while not stop.is_set():
                program = pipeline.program
                # a program is observed wholesale: its rule count matches
                # its generation's composition, never a mixture
                seen.append((program.generation, len(program.rules)))

        threads = [threading.Thread(target=reader) for _ in range(4)]
        for t in threads:
            t.start()
        for gen in range(2, 50):
            rules = [rule_a] if gen % 2 == 0 else [rule_a, rule_b]
            pipeline.reconfigure(program_only(rules, gen))
        stop.set()
        for t in threads:
            t.join()
        for gen, nrules in seen:
            assert nrules == (1 if gen % 2 == 0 else 2) or gen == 1
            if gen == 1:
                assert nrules == 1
