import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holo import toolbox
from holo.net import AddressRange, PortRange, int_to_ip, ip_to_int
from holo.packets import (
    FLAG_NAMES,
    PROTO_ICMP,
    PROTO_TCP,
    PROTO_UDP,
    TCP_ACK,
    TCP_RST,
    TCP_SYN,
    PacketRecord,
)
from holo.toolbox import (
    Accept,
    Drop,
    EmptyMatch,
    Match,
    RateLimit,
    RuleProgram,
    SteerToBackend,
    SteeringRule,
    TokenBucket,
    allow,
    emit_iptables,
    evaluate,
)


def pkt(src="198.51.100.9", dst="10.9.0.5", proto=PROTO_TCP, sport=40000, dport=22, flags=TCP_SYN, ts=0):
    return PacketRecord(ts=ts, src_ip=ip_to_int(src), dst_ip=ip_to_int(dst), proto=proto,
                        src_port=sport, dst_port=dport, tcp_flags=flags)


DARKNET = AddressRange.parse("10.9.0.0/24")


def drop_darknet_out():
    return SteeringRule(toolbox.OUT, Match(src_range=DARKNET), Drop())


def accept_all_in():
    return SteeringRule(toolbox.IN, Match(dst_range=AddressRange.parse("0.0.0.0/0")), Accept())


class TestCompile:
    def test_empty_match(self):
        with pytest.raises(EmptyMatch):
            toolbox.compile([SteeringRule(toolbox.IN, Match(), Accept())])


class TestEvaluate:
    def test_outbound_rst_from_darknet_dropped(self):
        program = toolbox.compile([drop_darknet_out()])
        rst = pkt(src="10.9.0.5", dst="198.51.100.9", flags=TCP_RST)
        assert evaluate(program, rst, toolbox.OUT).kind == toolbox.ACT_DROP

    def test_empty_program_accepts(self):
        program = toolbox.compile([])
        assert evaluate(program, pkt(), toolbox.IN).kind == toolbox.ACT_ACCEPT

    def test_steer_bgp_backend(self):
        rule = SteeringRule(
            toolbox.IN,
            Match(proto=PROTO_TCP, dst_ports=(PortRange(179, 179),)),
            SteerToBackend("bgp-sim"),
        )
        program = toolbox.compile([rule])
        action = evaluate(program, pkt(dport=179), toolbox.IN)
        assert action.kind == toolbox.ACT_STEER and action.arg == "bgp-sim"

    def test_first_match_wins_all_orderings(self):
        # brute-force: in every insertion order of a 3-rule program the
        # first matching rule in list order decides
        rules = [
            SteeringRule(toolbox.IN, Match(dst_range=DARKNET, proto=PROTO_TCP), Drop()),
            SteeringRule(toolbox.IN, Match(dst_range=DARKNET), SteerToBackend("x")),
            SteeringRule(toolbox.IN, Match(proto=PROTO_TCP), Accept()),
        ]
        probes = [pkt(), pkt(proto=PROTO_UDP), pkt(dst="198.51.100.200")]
        assert evaluate(toolbox.compile(rules), probes[0], toolbox.IN).kind == toolbox.ACT_DROP
        for perm in itertools.permutations(rules):
            program = toolbox.compile(list(perm))
            for probe in probes:
                want = next(r.action for r in perm if rule_matches(r, probe))
                assert evaluate(program, probe, toolbox.IN) == want

    def test_flag_mask_requires_all_bits(self):
        rule = SteeringRule(toolbox.OUT, Match(src_range=DARKNET, tcp_flag_mask=TCP_RST), Drop())
        program = toolbox.compile([rule])
        assert evaluate(program, pkt(src="10.9.0.1", flags=TCP_RST | TCP_ACK), toolbox.OUT).kind == toolbox.ACT_DROP
        assert evaluate(program, pkt(src="10.9.0.1", flags=TCP_SYN), toolbox.OUT).kind == toolbox.ACT_ACCEPT

    def test_port_match_skips_portless_protocols(self):
        rule = SteeringRule(toolbox.IN, Match(dst_ports=(PortRange(22, 22),)), Drop())
        program = toolbox.compile([rule])
        icmp = pkt(proto=PROTO_ICMP, sport=0, dport=0, flags=0)
        assert evaluate(program, icmp, toolbox.IN).kind == toolbox.ACT_ACCEPT


@settings(max_examples=100, deadline=None)
@given(st.randoms(use_true_random=False))
def test_order_stability_property(rnd):
    """Interleaving the two directions' rules differently never changes
    evaluate's output: only the order within a direction counts."""
    n = rnd.randrange(1, 6)
    rules = []
    for i in range(n):
        match = Match(
            src_range=AddressRange(f"10.{rnd.randrange(4)}.0.0", 16) if rnd.random() < 0.5 else None,
            dst_range=AddressRange(f"10.{rnd.randrange(4)}.0.0", 16) if rnd.random() < 0.5 else None,
            proto=rnd.choice([PROTO_TCP, PROTO_UDP]) if rnd.random() < 0.5 else None,
        )
        if match.is_empty():
            match = Match(proto=PROTO_TCP)
        action = rnd.choice([Drop(), Accept(), SteerToBackend("b")])
        rules.append(SteeringRule(rnd.choice([toolbox.IN, toolbox.OUT]), match, action))
    probes = [
        pkt(src=f"10.{rnd.randrange(4)}.1.2", dst=f"10.{rnd.randrange(4)}.3.4",
            proto=rnd.choice([PROTO_TCP, PROTO_UDP]))
        for _ in range(10)
    ]
    baseline = toolbox.compile(rules)
    per_direction = {d: iter([r for r in rules if r.direction == d]) for d in (toolbox.IN, toolbox.OUT)}
    slots = [r.direction for r in rules]
    rnd.shuffle(slots)
    program = toolbox.compile([next(per_direction[d]) for d in slots])
    for probe in probes:
        for direction in (toolbox.IN, toolbox.OUT):
            assert evaluate(program, probe, direction) == evaluate(baseline, probe, direction)


# --- compiled evaluate against the first-match loop over Match objects ------


def rule_matches(rule, pkt):
    """Reference semantics of one rule, on the rule's own ranges and ports."""
    m = rule.match
    if m.proto is not None and pkt.proto != m.proto:
        return False
    if m.src_range is not None and not m.src_range.contains(int_to_ip(pkt.src_ip)):
        return False
    if m.dst_range is not None and not m.dst_range.contains(int_to_ip(pkt.dst_ip)):
        return False
    if m.src_ports or m.dst_ports:
        if pkt.proto not in (PROTO_TCP, PROTO_UDP):
            return False
        if m.src_ports and not any(r.contains(pkt.src_port) for r in m.src_ports):
            return False
        if m.dst_ports and not any(r.contains(pkt.dst_port) for r in m.dst_ports):
            return False
    if m.tcp_flag_mask is not None:
        if pkt.proto != PROTO_TCP:
            return False
        if (pkt.tcp_flags & m.tcp_flag_mask) != m.tcp_flag_mask:
            return False
    return True


def reference_evaluate(program, pkt, direction):
    for rule in program.rules:
        if rule.direction == direction and rule_matches(rule, pkt):
            return rule.action
    return program.default_action


EDGE_PORTS = [0, 1, 22, 53, 1023, 1024, 65535]
ports = st.one_of(st.sampled_from(EDGE_PORTS), st.integers(0, 65535))
port_ranges = st.lists(st.tuples(ports, ports).map(lambda t: PortRange(min(t), max(t))), max_size=3).map(tuple)


@st.composite
def address_ranges(draw):
    plen = draw(st.integers(0, 32))
    mask = (0xFFFFFFFF << (32 - plen)) & 0xFFFFFFFF
    return AddressRange(int_to_ip(draw(st.integers(0, 0xFFFFFFFF)) & mask), plen)


matches = st.builds(
    Match,
    src_range=st.none() | address_ranges(),
    dst_range=st.none() | address_ranges(),
    proto=st.sampled_from([None, PROTO_TCP, PROTO_UDP, PROTO_ICMP]),
    src_ports=port_ranges,
    dst_ports=port_ranges,
    tcp_flag_mask=st.none() | st.integers(0, 255),
).filter(lambda m: not m.is_empty())
actions = st.sampled_from([Drop(), Accept(), SteerToBackend("b1"), SteerToBackend("b2"), RateLimit("egress")])


@st.composite
def programs(draw):
    specs = draw(st.lists(st.tuples(st.sampled_from([toolbox.IN, toolbox.OUT]), matches, actions), max_size=8))
    return [SteeringRule(d, m, a) for d, m, a in specs]


def probe_packets(rules, rnd, n=30):
    """Random packets, half of their addresses drawn inside the rules' ranges."""
    ranges = [r for rule in rules for r in (rule.match.src_range, rule.match.dst_range) if r is not None]

    def address():
        if ranges and rnd.random() < 0.5:
            r = rnd.choice(ranges)
            return r.base_int | (rnd.getrandbits(32) & ~r.mask & 0xFFFFFFFF)
        return rnd.getrandbits(32)

    def port():
        return rnd.choice(EDGE_PORTS) if rnd.random() < 0.5 else rnd.randrange(65536)

    return [
        PacketRecord(
            ts=0, src_ip=address(), dst_ip=address(),
            proto=rnd.choice([PROTO_TCP, PROTO_UDP, PROTO_ICMP, 47]),
            src_port=port(), dst_port=port(), tcp_flags=rnd.randrange(256),
        )
        for _ in range(n)
    ]


@settings(max_examples=200, deadline=None)
@given(programs(), st.randoms(use_true_random=False))
def test_compiled_evaluate_matches_reference_loop(rules, rnd):
    program = toolbox.compile(rules)
    for probe in probe_packets(rules, rnd):
        for direction in (toolbox.IN, toolbox.OUT):
            assert evaluate(program, probe, direction) == reference_evaluate(program, probe, direction)


# --- the round-trip oracle of emit_iptables ----------------------------------

_WORD_PROTO = {"tcp": PROTO_TCP, "udp": PROTO_UDP, "icmp": PROTO_ICMP}


def _names_to_flags(text: str) -> int:
    lookup = {name: bit for bit, name in FLAG_NAMES}
    mask = 0
    if text == "NONE":
        return 0
    for name in text.split(","):
        mask |= lookup[name]
    return mask


def _parse_ports(text: str) -> tuple[PortRange, ...]:
    out = []
    for piece in text.split(","):
        lo, _, hi = piece.partition(":")
        out.append(PortRange(int(lo), int(hi) if hi else int(lo)))
    return tuple(out)


def parse_iptables(text: str, chain_prefix: str = "HOLO"):
    """Parse emitted text back into (program, limiters, backend_ports).

    Inverse of emit_iptables on the representable subset: re-emitting the
    parsed program with the returned mappings reproduces the text. Both
    tables are read in text order, so the nat steers come first.
    """
    chain_pre = f"{chain_prefix}-PRE"  # nat: the steers, ahead of every filter rule
    chain_in = f"{chain_prefix}-IN"
    chain_out = f"{chain_prefix}-OUT"
    rules = []
    limiters: dict = {}
    backend_ports: dict = {}
    pending_comment_backend = None
    for line in text.splitlines():
        line = line.strip()
        if line.startswith("# holo:steer backend="):
            pending_comment_backend = line.split("backend=", 1)[1].split(" ")[0]
            continue
        if not line.startswith("-A "):
            continue
        tokens = line.split()
        chain = tokens[1]
        if chain not in (chain_pre, chain_in, chain_out):
            continue
        direction = toolbox.OUT if chain == chain_out else toolbox.IN
        match_kwargs: dict = {}
        action = None
        i = 2
        while i < len(tokens):
            tok = tokens[i]
            if tok == "-s":
                match_kwargs["src_range"] = AddressRange.parse(tokens[i + 1])
                i += 2
            elif tok == "-d":
                match_kwargs["dst_range"] = AddressRange.parse(tokens[i + 1])
                i += 2
            elif tok == "-p":
                word = tokens[i + 1]
                match_kwargs["proto"] = _WORD_PROTO.get(word, None)
                if match_kwargs["proto"] is None:
                    match_kwargs["proto"] = int(word)
                i += 2
            elif tok == "-m" and tokens[i + 1] in ("multiport", "limit"):
                i += 2
            elif tok in ("--sport", "--sports"):
                match_kwargs["src_ports"] = _parse_ports(tokens[i + 1])
                i += 2
            elif tok in ("--dport", "--dports"):
                match_kwargs["dst_ports"] = _parse_ports(tokens[i + 1])
                i += 2
            elif tok == "--tcp-flags":
                match_kwargs["tcp_flag_mask"] = _names_to_flags(tokens[i + 1])
                i += 3
            elif tok == "--limit":
                rate = int(tokens[i + 1].split("/")[0])
                burst = 100
                if "--limit-burst" in tokens:
                    burst = int(tokens[tokens.index("--limit-burst") + 1])
                limiter_id = f"limit-{rate}-{burst}"
                limiters[limiter_id] = (rate, burst)
                action = RateLimit(limiter_id)
                i += 2
            elif tok == "--limit-burst":
                i += 2
            elif tok == "-j":
                target = tokens[i + 1]
                if target == "DROP":
                    action = Drop()
                elif target == "ACCEPT":
                    action = action or Accept()
                elif target == "REDIRECT":
                    if "--to-ports" in tokens:
                        port = int(tokens[tokens.index("--to-ports") + 1])
                        backend = f"backend-{port}"
                        backend_ports[backend] = port
                        action = SteerToBackend(backend)
                    else:
                        action = SteerToBackend(pending_comment_backend or "l4")
                    pending_comment_backend = None
                i += 2
            elif tok == "--to-ports":
                i += 2
            else:
                raise toolbox.ToolboxError(f"unparsed token {tok!r} in {line!r}")
        if action is None:
            raise toolbox.ToolboxError(f"no action in {line!r}")
        rules.append(SteeringRule(direction, Match(**match_kwargs), action))
    return toolbox.compile(rules), limiters, backend_ports


def _representable(rules):
    """The rules emit_iptables can render: ports only under -p tcp or udp, and
    only inbound steers, moved ahead of every other inbound rule."""
    rules = [
        r for r in rules
        if (not (r.match.src_ports or r.match.dst_ports) or r.match.proto in (PROTO_TCP, PROTO_UDP))
        and (r.action.kind != toolbox.ACT_STEER or r.direction == toolbox.IN)
    ]
    return sorted(rules, key=lambda r: r.action.kind != toolbox.ACT_STEER)


@settings(max_examples=100, deadline=None)
@given(programs(), st.randoms(use_true_random=False))
def test_iptables_round_trip_evaluates_identically(rules, rnd):
    rules = _representable(rules)
    program = toolbox.compile(rules)
    limiters = {"egress": (100, 100)}
    parsed, parsed_limiters, _ = parse_iptables(emit_iptables(program, limiters=limiters))
    for probe in probe_packets(rules, rnd):
        for direction in (toolbox.IN, toolbox.OUT):
            want, got = evaluate(program, probe, direction), evaluate(parsed, probe, direction)
            if want.kind == toolbox.ACT_RATELIMIT:
                # the parser names limiters by their numbers
                assert got.kind == want.kind and parsed_limiters[got.arg] == limiters[want.arg]
            else:
                assert got == want


class TestTokenBucket:
    def test_burst_capacity(self):
        bucket = TokenBucket(rate=100.0, burst=100.0)
        assert allow(bucket, 0.0, 250) == 100

    def test_refill_arithmetic(self):
        # oracle (hand-computed): fresh 100-token bucket grants 50 at t=0,
        # leaving 50; at +0.5s refill adds 50 -> 100, so 80 is granted
        bucket = TokenBucket(rate=100.0, burst=100.0)
        assert allow(bucket, 0.0, 50) == 50
        assert allow(bucket, 0.5, 80) == 80

    def test_zero_request(self):
        bucket = TokenBucket(rate=100.0, burst=100.0)
        assert allow(bucket, 0.0, 0) == 0

    def test_scalar_simulation_oracle(self):
        # independent scalar simulation over a fixed schedule
        schedule = [(0.0, 30), (0.125, 40), (0.25, 100), (1.0, 10), (1.0, 200), (4.0, 500)]
        rate, burst = 32.0, 64.0
        bucket = TokenBucket(rate=rate, burst=burst)
        level, last = burst, 0.0
        for now, want in schedule:
            level = min(burst, level + (now - last) * rate)
            last = now
            expect = min(want, int(level))
            level -= expect
            assert allow(bucket, now, want) == expect

    def test_time_going_backwards_never_refills(self):
        bucket = TokenBucket(rate=100.0, burst=100.0)
        assert allow(bucket, 1.0, 100) == 100
        assert allow(bucket, 0.5, 10) == 0

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(0, 1 << 14), st.integers(0, 300)),
            min_size=1,
            max_size=60,
        ),
        st.integers(1, 200),
        st.integers(1, 300),
    )
    def test_window_bound_property(self, raw_schedule, rate, burst):
        """Grants over any [t, t+W] window never exceed burst + rate*W."""
        # times on a 1/1024s grid keep the float arithmetic exact
        schedule = sorted((t / 1024.0, n) for t, n in raw_schedule)
        bucket = TokenBucket(rate=float(rate), burst=float(burst))
        grants = []
        for now, n in schedule:
            granted = allow(bucket, now, n)
            assert 0 <= granted <= n
            if granted:
                grants.append((now, granted))
        for window in (0.5, 1.0, 2.0):
            for start, _ in grants:
                total = sum(g for t, g in grants if start <= t <= start + window)
                assert total <= burst + rate * window


class TestEmit:
    def test_darknet_drop_line(self):
        program = toolbox.compile([drop_darknet_out()])
        text = emit_iptables(program)
        assert "-A HOLO-OUT -s 10.9.0.0/24 -j DROP" in text.splitlines()

    def test_empty_program_only_chains_and_jumps(self):
        text = emit_iptables(toolbox.compile([]))
        assert text.splitlines() == [
            "*filter",
            ":HOLO-IN - [0:0]",
            ":HOLO-OUT - [0:0]",
            "-A INPUT -j HOLO-IN",
            "-A OUTPUT -j HOLO-OUT",
            "COMMIT",
        ]

    def test_ratelimit_form(self):
        rule = SteeringRule(toolbox.OUT, Match(src_range=DARKNET), RateLimit("egress"))
        text = emit_iptables(toolbox.compile([rule]), limiters={"egress": (100, 100)})
        assert "-m limit --limit 100/second --limit-burst 100 -j ACCEPT" in text

    def test_deterministic_output(self):
        rules = [drop_darknet_out(), accept_all_in()]
        a = emit_iptables(toolbox.compile(rules))
        b = emit_iptables(toolbox.compile(list(rules)))
        assert a == b
        # the rule lines follow the list order
        flipped = emit_iptables(toolbox.compile(list(reversed(rules)))).splitlines()
        assert flipped[5:7] == a.splitlines()[6:4:-1]

    def test_steer_without_port_mapping_comments(self):
        rule = SteeringRule(toolbox.IN, Match(dst_range=DARKNET, proto=PROTO_TCP), SteerToBackend("bgp-sim"))
        text = emit_iptables(toolbox.compile([rule]))
        assert "# holo:steer backend=bgp-sim (no port mapping)" in text
        assert "-j REDIRECT" in text

    def test_steers_go_to_the_nat_table(self):
        """REDIRECT is a nat target: iptables-restore refuses it under *filter."""
        steer = SteeringRule(toolbox.IN, Match(dst_range=DARKNET, proto=PROTO_TCP, dst_ports=(PortRange(22, 22),)),
                             SteerToBackend("l4"))
        text = emit_iptables(toolbox.compile([steer, drop_darknet_out(), accept_all_in()]), backend_ports={"l4": 2222})
        assert text.splitlines() == [
            "*nat",
            ":HOLO-PRE - [0:0]",
            "-A PREROUTING -j HOLO-PRE",
            "-A HOLO-PRE -d 10.9.0.0/24 -p tcp --dport 22 -j REDIRECT --to-ports 2222",
            "COMMIT",
            "*filter",
            ":HOLO-IN - [0:0]",
            ":HOLO-OUT - [0:0]",
            "-A INPUT -j HOLO-IN",
            "-A OUTPUT -j HOLO-OUT",
            "-A HOLO-OUT -s 10.9.0.0/24 -j DROP",
            "-A HOLO-IN -d 0.0.0.0/0 -j ACCEPT",
            "COMMIT",
        ]

    @pytest.mark.parametrize("rules", [
        [accept_all_in(), SteeringRule(toolbox.IN, Match(dst_range=DARKNET), SteerToBackend("l4"))],
        [SteeringRule(toolbox.OUT, Match(src_range=DARKNET), SteerToBackend("l4"))],
    ], ids=["after-an-inbound-rule", "outbound"])
    def test_a_steer_the_nat_table_cannot_order_is_refused(self, rules):
        # nat PREROUTING runs before the filter table, so a steer there would
        # win over an inbound rule listed before it
        with pytest.raises(toolbox.UnrepresentableRule):
            emit_iptables(toolbox.compile(rules))

    def test_emit_parse_round_trip(self):
        rules = [
            drop_darknet_out(),
            SteeringRule(toolbox.IN,
                         Match(dst_range=DARKNET, proto=PROTO_TCP, dst_ports=(PortRange(1, 1023),)),
                         SteerToBackend("l4")),
            SteeringRule(toolbox.OUT,
                         Match(src_range=DARKNET, proto=PROTO_TCP, tcp_flag_mask=TCP_RST),
                         Drop()),
            SteeringRule(toolbox.OUT, Match(src_range=DARKNET), RateLimit("egress")),
            SteeringRule(toolbox.IN,
                         Match(proto=PROTO_UDP, dst_ports=(PortRange(53, 53), PortRange(123, 123))),
                         Accept()),
        ]
        limiters = {"egress": (100, 100)}
        backends = {"l4": 8080}
        text = emit_iptables(toolbox.compile(rules), limiters=limiters, backend_ports=backends)
        program, parsed_limiters, parsed_backends = parse_iptables(text)
        again = emit_iptables(program, limiters=parsed_limiters, backend_ports=parsed_backends)
        assert again == text

    def test_parse_roundtrip_tokenizer_recovers_ratelimit(self):
        # the emitted limit clause parses back to the same numbers
        rule = SteeringRule(toolbox.OUT, Match(src_range=DARKNET), RateLimit("egress"))
        text = emit_iptables(toolbox.compile([rule]), limiters={"egress": (100, 100)})
        program, limiters, _ = parse_iptables(text)
        assert len(program.rules) == 1
        action = program.rules[0].action
        assert action.kind == toolbox.ACT_RATELIMIT
        assert limiters[action.arg] == (100, 100)

    def test_write_rules_path(self, tmp_path):
        program = toolbox.compile([drop_darknet_out()], generation=7)
        path = toolbox.write_rules(tmp_path, "A1", program)
        assert path == tmp_path / "A1" / "holo-rules-7.v4"
        assert path.read_text() == emit_iptables(program)
