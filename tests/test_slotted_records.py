"""The records every replica keeps are slotted, however they are built.

A slotted instance holds its fields in fixed slots, with no per-instance
``__dict__`` for the collector to track and walk. The KB's records and the
simulator's nodes and workloads are built by their constructors, and the
KB's records are also built by the codec's decoder (on every follower's
apply and on every restore), so both ways are checked here.
"""

from __future__ import annotations

import pytest

from qonnect import codec
from qonnect.kb.model import (
    ApplicationRecord,
    ClusterRecord,
    ComponentRecord,
    Domain,
    NodeSnapshot,
    QoSVector,
    ScheduleDecision,
)
from qonnect.sim.cluster import SimNode, SimWorkload

DECISION = ScheduleDecision("ratings", "c-1", ("w0", "w1"), 4.0, 2)
COMPONENT = ComponentRecord("ratings", Domain.EDGE, '{"objects":[]}', decision=DECISION)
# One instance of each slotted record, built by its constructor.
BUILT = {
    QoSVector: QoSVector(energy=1.0),
    ClusterRecord: ClusterRecord("c-1", Domain.EDGE, "10.0.0.1", 1.0),
    NodeSnapshot: NodeSnapshot("c-1", "w0", True, True, False, 0.1, 1.0, 4.0, 8.0, 10.0, 50.0, 2.0),
    ScheduleDecision: DECISION,
    ComponentRecord: COMPONENT,
    ApplicationRecord: ApplicationRecord(
        "app-1", "demo", {"app": "demo"}, QoSVector(performance=1.0), [COMPONENT], 3.0,
    ),
    SimNode: SimNode("w0", "worker"),
    SimWorkload: SimWorkload("ratings", 1),
}
DECODED = (QoSVector, ClusterRecord, NodeSnapshot, ScheduleDecision, ComponentRecord,
           ApplicationRecord)


@pytest.mark.parametrize("cls", BUILT, ids=lambda cls: cls.__name__)
def test_every_slotted_record_class_defines_its_slots(cls):
    assert "__slots__" in cls.__dict__
    assert not hasattr(BUILT[cls], "__dict__")


def parts_of(record: object) -> list:
    """``record`` and every record it holds."""
    if isinstance(record, ApplicationRecord):
        return [record, record.qos, *(p for comp in record.components for p in parts_of(comp))]
    if isinstance(record, ComponentRecord) and record.decision is not None:
        return [record, record.decision]
    return [record]


@pytest.mark.parametrize("cls", DECODED, ids=lambda cls: cls.__name__)
def test_a_decoded_record_is_its_class_and_has_no_dict(cls):
    record = BUILT[cls]
    decoded = codec.decoder(cls)(codec.loads(codec.dumps(codec.encoder(cls)(record))))
    assert type(decoded) is cls
    assert decoded == record
    parts = parts_of(decoded)
    assert [type(part) for part in parts] == [type(part) for part in parts_of(record)]
    assert not any(hasattr(part, "__dict__") for part in parts)
