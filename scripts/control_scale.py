#!/usr/bin/env python3
"""Control-plane cost as the fleet grows, fully in-memory.

For each fleet size, builds a Controller without a data directory,
onboards that many sensors, deploys three darknet specs that select
sensors by label, and runs one heartbeat round: `heartbeat` plus
`actions_for` for every sensor, as the hub does per heartbeat frame.
Prints the round time, the time per heartbeat and the cost of one
`peer_registry()` call, which the hub makes per frame.

Usage: python scripts/control_scale.py
"""

import time

from holo import controlplane as cp
from holo import overlay

ADMIN = cp.Principal("admin", cp.ROLE_ADMIN)
REGISTRY_CALLS = 1000
SIZES = (60, 240, 960)


def build(n_sensors: int) -> cp.Controller:
    controller = cp.Controller()
    _, pub = overlay.generate_keypair()
    for i in range(n_sensors):
        sid = f"s{i:04d}"
        desc = cp.SensorDescriptor(
            sid, f"org-{i % 7}", "ITA", [f"10.{i // 256}.{i % 256}.0/24"],
            labels={"role": "telescope", "tier": "edge" if i % 2 else "core"},
        )
        token = controller.issue_token(ADMIN, sid, 3600.0)
        controller.onboard(token.token, pub, desc)
    selectors = ({"role": "telescope"}, {"tier": "edge"}, {"tier": "core"})
    for k, labels in enumerate(selectors):
        controller.set_desired(ADMIN, cp.ModuleSpec(
            cp.KIND_DARKNET, f"dk{k}", {"ranges": ["10.255.0.0/24"]}, target_labels=labels,
        ))
    return controller


def heartbeat_round(controller: cp.Controller) -> tuple[float, int]:
    """One heartbeat plus actions_for per sensor; returns (seconds, actions)."""
    actions = 0
    start = time.perf_counter()
    for sid in sorted(controller.sensors):
        controller.heartbeat(sid, [])
        actions += len(controller.actions_for(sid))
    return time.perf_counter() - start, actions


def registry_cost(controller: cp.Controller) -> float:
    start = time.perf_counter()
    for _ in range(REGISTRY_CALLS):
        controller.peer_registry()
    return (time.perf_counter() - start) / REGISTRY_CALLS


def main():
    print(f"{'sensors':>8} {'round_s':>9} {'per_hb_ms':>10} {'registry_us':>12} {'actions':>8}")
    for n in SIZES:
        controller = build(n)
        seconds, actions = heartbeat_round(controller)
        registry = registry_cost(controller)
        print(f"{n:>8} {seconds:>9.3f} {seconds / n * 1e3:>10.3f} {registry * 1e6:>12.2f} {actions:>8}")


if __name__ == "__main__":
    main()
