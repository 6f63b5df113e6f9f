"""A sensor's modules assembled into one steering program.

The simulator's SensorPath, the agent, the hub's `rules_emit` and
`holo rules emit -f` all build a sensor's firewall program with
`assemble`, so they cannot disagree about it.
"""

from __future__ import annotations

from typing import NamedTuple

from . import darknet as darknet_mod
from . import responder as responder_mod
from . import toolbox

KIND_DARKNET = "darknet"
KIND_RESPONDER = "responder"
KIND_TOOLBOX = "toolbox"
KIND_COLLECTOR = "collector"
KIND_WORKLOAD = "workload"
MODULE_KINDS = (KIND_DARKNET, KIND_RESPONDER, KIND_TOOLBOX, KIND_COLLECTOR, KIND_WORKLOAD)


class Assembly(NamedTuple):
    program: toolbox.RuleProgram
    limiters: dict  # limiter id -> (rate, burst), for emission
    darknets: tuple  # one DarknetConfig per darknet module, responder space cut out


def assemble(modules, generation: int = 1) -> Assembly:
    """Merge every module of a sensor, given as (kind, params) pairs.

    The rules follow one fixed order, whatever the order of the modules:
    darknet egress drops, responder steers, RST guards, egress limits,
    darknet admits. Every responder range is cut out of every darknet,
    so no drop rule covers an address that must answer. The last toolbox
    module sets the egress limiter.
    """
    responders = [responder_mod.config_from_doc(p) for kind, p in modules if kind == KIND_RESPONDER]
    holes = [rng for cfg in responders for rng in cfg.ip_ranges]
    darknets = tuple(
        darknet_mod.carve_out_responders(darknet_mod.config_from_doc(p), holes)
        for kind, p in modules
        if kind == KIND_DARKNET
    )
    rate, burst = 100.0, 100.0
    for kind, params in modules:
        if kind == KIND_TOOLBOX:
            rate = float(params.get("egress_rate", rate))
            burst = float(params.get("egress_burst", burst))

    dark = [r for cfg in darknets for r in darknet_mod.darknet_rules(cfg)]
    resp = [r for cfg in responders for r in responder_mod.steering_rules(cfg)]
    rules = [
        rule
        for group, direction, action in (
            (dark, toolbox.OUT, toolbox.ACT_DROP),
            (resp, toolbox.IN, toolbox.ACT_STEER),
            (resp, toolbox.OUT, toolbox.ACT_DROP),
            (resp, toolbox.OUT, toolbox.ACT_RATELIMIT),
            (dark, toolbox.IN, toolbox.ACT_ACCEPT),
        )
        for rule in group
        if rule.direction == direction and rule.action.kind == action
    ]
    program = toolbox.compile(rules, generation=generation)
    return Assembly(program, {responder_mod.EGRESS_LIMITER: (rate, burst)}, darknets)
