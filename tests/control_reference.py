"""Reference executors for reconcile, which only the tests run.

`reconcile_now` reconciles the whole fleet at once; the controller's
`actions_for` must equal it filtered to one sensor. `apply_actions` is a
faithful agent that runs every action it is given.
"""

from holo import controlplane as cp


def reconcile_now(controller: cp.Controller) -> list:
    """The whole fleet's actions at the controller's clock."""
    return cp.reconcile(
        controller.desired_state(),
        controller.reported,
        controller.clock(),
        controller.heartbeat_interval,
    )


def apply_actions(report: cp.SensorReport, actions: list, sensor_id: str) -> None:
    """Apply sensor_id's actions to its report: every instance comes up at once."""
    for action in actions:
        if action.sensor_id != sensor_id:
            continue
        if action.kind == "stop":
            report.instances = [
                i for i in report.instances if i.instance_id != action.instance_id
            ]
        elif action.kind == "restart":
            for inst in report.instances:
                if inst.instance_id == action.instance_id:
                    inst.status = cp.ST_RUNNING
        elif action.kind == "start":
            report.instances.append(
                cp.InstanceStatus(
                    instance_id=action.instance_id,
                    sensor_id=sensor_id,
                    spec_name=action.spec.name,
                    module_kind=action.spec.module_kind,
                    status=cp.ST_RUNNING,
                    version=action.spec.version,
                )
            )
