"""The log-every-heartbeat rule, kept as the oracle for the lease tests.

``RlaService`` logs a heartbeat only when the replicated state needs it, and
its stall check also reads the leader's soft state: the time it last saw
each component and the time its lease began. ``EveryBeatService`` is the
service as it was before heartbeats became leases: every accepted heartbeat
is queued for the log, and the stall check reads only the replicated
heartbeat (or decision) time.
"""

from __future__ import annotations

from qonnect.kb.commands import RecordHeartbeat
from qonnect.kb.store import HEARTBEAT_STATUS
from qonnect.rla.service import RlaService, ValidationFailed
from qonnect.scheduler.loop import Lease


class EveryBeatService(RlaService):
    def _hold_lease(self, now: float) -> Lease:
        # No soft state: a new record each time, so nothing is ever seen or
        # heard and the lease never starts.
        return Lease(self.node.current_term, start=float("-inf"))

    def heartbeat(
        self, app_id: str, component: str, cluster_id: str, version: int, status: str
    ) -> bool:
        if status not in HEARTBEAT_STATUS:
            raise ValidationFailed(
                [{"field": "status", "error": f"unknown status: {status!r}"}]
            )
        self._require_leader()
        app = self.kb.applications.get(app_id)
        if app is None:
            return False
        comp = app.component(component)
        if comp is None or version != app.version:
            return False
        if comp.decision is None or comp.decision.cluster_id != cluster_id:
            return False
        self._telemetry.append(
            RecordHeartbeat(
                app_id=app_id,
                component=component,
                cluster_id=cluster_id,
                version=version,
                status=status,
                at=self.clock(),
            )
        )
        return True
