"""Replicated knowledge base: clusters, node telemetry, applications, decisions."""

from qonnect.kb.commands import (
    Batch,
    DeleteApplication,
    KBCommand,
    PutNodeSnapshot,
    RecordDecision,
    RecordHeartbeat,
    RegisterCluster,
    RequeueComponent,
    SubmitApplication,
    UpdateQoS,
    decode_command,
    encode_command,
)
from qonnect.kb.model import (
    ApplicationRecord,
    ClusterRecord,
    ComponentRecord,
    ComponentStatus,
    Domain,
    NodeSnapshot,
    QoSVector,
    ScheduleDecision,
)
from qonnect.kb.store import Effect, KnowledgeBase

__all__ = [
    "ApplicationRecord",
    "Batch",
    "ClusterRecord",
    "ComponentRecord",
    "ComponentStatus",
    "DeleteApplication",
    "Domain",
    "Effect",
    "KBCommand",
    "KnowledgeBase",
    "NodeSnapshot",
    "PutNodeSnapshot",
    "QoSVector",
    "RecordDecision",
    "RecordHeartbeat",
    "RegisterCluster",
    "RequeueComponent",
    "ScheduleDecision",
    "SubmitApplication",
    "UpdateQoS",
    "decode_command",
    "encode_command",
]
