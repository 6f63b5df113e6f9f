#!/usr/bin/env python3
"""Control-plane cost as the fleet grows.

For each fleet size, builds a Controller on a temporary data directory,
onboards that many sensors (a token plus `onboard` each, both appended
to state.log), deploys three darknet specs that select sensors by label,
and runs one heartbeat round: `heartbeat` plus `actions_for` for every
sensor, as the hub does per heartbeat frame. Then restarts a Controller
from that directory. Prints the onboarding time per sensor, the restart
time, the round time, the time per heartbeat and the cost of one
`peer_registry()` call, which the hub makes per frame.

Usage: python scripts/control_scale.py
"""

import tempfile
import time

from holo import controlplane as cp
from holo import overlay

ADMIN = cp.Principal("admin", cp.ROLE_ADMIN)
REGISTRY_CALLS = 1000
SIZES = (60, 240, 960)


def build(n_sensors: int, data_dir: str) -> tuple[cp.Controller, float]:
    """The deployed fleet and the seconds its onboarding took."""
    controller = cp.Controller(data_dir=data_dir)
    _, pub = overlay.generate_keypair()
    start = time.perf_counter()
    for i in range(n_sensors):
        sid = f"s{i:04d}"
        desc = cp.SensorDescriptor(
            sid, f"org-{i % 7}", "ITA", [f"10.{i // 256}.{i % 256}.0/24"],
            labels={"role": "telescope", "tier": "edge" if i % 2 else "core"},
        )
        token = controller.issue_token(ADMIN, sid, 3600.0)
        controller.onboard(token.token, pub, desc)
    onboard_s = time.perf_counter() - start
    selectors = ({"role": "telescope"}, {"tier": "edge"}, {"tier": "core"})
    for k, labels in enumerate(selectors):
        controller.set_desired(ADMIN, cp.ModuleSpec(
            cp.KIND_DARKNET, f"dk{k}", {"ranges": ["10.255.0.0/24"]}, target_labels=labels,
        ))
    return controller, onboard_s


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


def restart_time(data_dir: str) -> float:
    start = time.perf_counter()
    controller = cp.Controller(data_dir=data_dir)
    seconds = time.perf_counter() - start
    controller.close()
    return seconds


def main():
    print(f"{'sensors':>8} {'onboard_ms':>11} {'restart_s':>10} {'round_s':>9} "
          f"{'per_hb_ms':>10} {'registry_us':>12} {'actions':>8}")
    for n in SIZES:
        with tempfile.TemporaryDirectory() as data_dir:
            controller, onboard_s = build(n, data_dir)
            seconds, actions = heartbeat_round(controller)
            registry = registry_cost(controller)
            controller.close()
            restart_s = restart_time(data_dir)
        print(f"{n:>8} {onboard_s / n * 1e3:>11.3f} {restart_s:>10.3f} {seconds:>9.3f} "
              f"{seconds / n * 1e3:>10.3f} {registry * 1e6:>12.2f} {actions:>8}")


if __name__ == "__main__":
    main()
