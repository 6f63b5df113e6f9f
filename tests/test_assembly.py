"""One assembler builds every sensor program: the simulator's, the agent's
and the one `holo rules emit` prints."""

from collections import Counter

import yaml

from holo import cli, toolbox
from holo import controlplane as cp
from holo.agent import AgentCore
from holo.assembly import assemble
from holo.darknet import darknet_rules
from holo.net import AddressRange, int_to_ip, ip_to_int
from holo.packets import PROTO_TCP, TCP_ACK, TCP_SYN, PacketRecord
from holo.responder import config_from_doc, steering_rules
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
        program = core.program_holder.current()
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
