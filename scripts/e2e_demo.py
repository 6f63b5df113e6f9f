#!/usr/bin/env python3
"""End-to-end control-plane demo, fully in-process.

Starts a controller+hub, onboards two sensors over the encrypted
overlay, deploys darknet and responder modules, crashes one instance and
watches the reconciler bring it back, then prints the status document
and the emitted iptables ruleset. The controller's data directory is a
temporary one, removed on exit.

Usage: python scripts/e2e_demo.py
"""

import json
import tempfile

from holo import controlplane as cp
from holo.agent import AgentCore, AgentProcess, onboard
from holo.hub import HubServer, admin_request


def main():
    with tempfile.TemporaryDirectory(prefix="holo-demo-") as data_dir:
        controller = cp.Controller(data_dir=data_dir, heartbeat_interval=0.5)
        try:
            server = HubServer(controller)
            controller.hub_address = server.address
            server.start()
            agents = []  # (AgentProcess, AgentCore) pairs
            try:
                print(f"controller on {server.address}, state in {data_dir}")
                demo(server, agents)
            finally:
                for proc, _ in agents:
                    proc.stop()
                server.stop()
        finally:
            controller.close()


def demo(server, agents):
    for sensor_id, net, honeypot in (("A1", "10.9.1", True), ("B1", "10.9.2", False)):
        reply = admin_request(server.address, {
            "op": "token_new", "principal": "admin", "sensor_id": sensor_id, "ttl": 600,
        })
        print(f"issued token for {sensor_id}: {reply['bootstrap']}")
        descriptor = cp.SensorDescriptor(
            sensor_id, "org-demo", "ITA", [f"{net}.0/24"],
            honeypot_allowed=honeypot, workload_allowed=True,
        )
        identity = onboard(server.address, reply["token"], descriptor)
        core = AgentCore(sensor_id, descriptor=descriptor)
        proc = AgentProcess(identity, core, hub_address=server.address)
        proc.connect()
        proc.heartbeat_once()
        agents.append((proc, core))
        print(f"{sensor_id} joined over the overlay")

    for doc in (
        {"module_kind": "darknet", "name": "dk-a1",
         "params": {"ranges": ["10.9.1.0/24"]}, "target_ids": ["A1"]},
        {"module_kind": "responder", "name": "hp-a1",
         "params": {"ip_ranges": ["10.9.1.240/28"], "ports": ["1-1023"]},
         "target_ids": ["A1"]},
        {"module_kind": "darknet", "name": "dk-b1",
         "params": {"ranges": ["10.9.2.0/24"]}, "target_ids": ["B1"]},
    ):
        spec = cp.ModuleSpec(**doc)
        admin_request(server.address, {"op": "deploy", "principal": "admin",
                                       "spec": spec.to_doc()})
        print(f"deployed {spec.name}")

    # a responder on B1 must be refused: no honeypot capability there
    refused = admin_request(server.address, {
        "op": "deploy", "principal": "admin",
        "spec": cp.ModuleSpec("responder", "hp-b1",
                              {"ip_ranges": ["10.9.2.0/28"], "ports": ["22"]},
                              target_ids=["B1"]).to_doc(),
    })
    print(f"responder on B1 -> {refused['error']}: {refused['message']}")

    for proc, _ in agents:
        proc.heartbeat_once()
        proc.heartbeat_once()

    proc_a, core_a = agents[0]
    print("\ncrashing hp-a1-0 ...")
    core_a.kill_instance("hp-a1-0")
    for round_no in range(3):
        reply = proc_a.heartbeat_once()
        kinds = [a["kind"] for a in reply.get("actions", [])]
        print(f"heartbeat {round_no + 1}: actions={kinds}")
        if core_a.instances["hp-a1-0"].status == cp.ST_RUNNING:
            print("instance is running again")
            break

    status = admin_request(server.address, {"op": "status", "principal": "admin"})["status"]
    print("\nstatus:")
    print(json.dumps(status["sensors"], indent=2))

    rules = admin_request(server.address, {"op": "rules_emit", "sensor_id": "A1"})
    print("\niptables for A1:")
    print(rules["text"])


if __name__ == "__main__":
    main()
