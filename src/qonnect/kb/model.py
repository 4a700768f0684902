"""Domain records held by the knowledge base."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum


class Domain(str, Enum):
    CLOUD = "cloud"
    FOG = "fog"
    EDGE = "edge"


class ComponentStatus(str, Enum):
    PENDING = "Pending"
    SCHEDULED = "Scheduled"
    HEALTHY = "Healthy"
    PROGRESSING = "Progressing"
    FAILED = "Failed"
    WITHDRAWN = "Withdrawn"


@dataclass(frozen=True)
class QoSVector:
    """User weights over energy, pricing, and performance/capacity."""

    energy: float = 0.0
    pricing: float = 0.0
    performance: float = 0.0

    def __post_init__(self) -> None:
        if min(self.energy, self.pricing, self.performance) < 0:
            raise ValueError("QoS weights must be non-negative")

    def normalized(self) -> QoSVector:
        """The all-zero vector means "no preference" and becomes (1, 1, 1)."""
        if self.energy == 0 and self.pricing == 0 and self.performance == 0:
            return QoSVector(1.0, 1.0, 1.0)
        return self


@dataclass(frozen=True)
class ClusterRecord:
    cluster_id: str
    domain: Domain
    external_ip: str
    registered_at: float


@dataclass(frozen=True)
class NodeSnapshot:
    """Per-node telemetry plus the static profile attributes used by the scorer."""

    cluster_id: str
    node_name: str
    ready: bool
    schedulable: bool
    pressured: bool
    energy: float  # kWh per node-hour
    pricing: float  # EUR/h
    cpu: float  # cores
    memory: float  # GiB
    bandwidth: float  # Gbps
    storage: float  # GiB
    taken_at: float
    role: str = "worker"

    def __post_init__(self) -> None:
        for attr in ("energy", "pricing", "cpu", "memory", "bandwidth", "storage"):
            if getattr(self, attr) < 0:
                raise ValueError(f"node attribute {attr} must be non-negative")


@dataclass(frozen=True)
class ScheduleDecision:
    component_name: str
    cluster_id: str
    node_names: tuple[str, ...]
    decided_at: float
    deciding_term: int


@dataclass
class ComponentRecord:
    name: str
    target_domain: Domain
    manifest: dict
    status: ComponentStatus = ComponentStatus.PENDING
    decision: ScheduleDecision | None = None
    last_heartbeat: float | None = None


@dataclass
class ApplicationRecord:
    app_id: str
    name: str
    labels: dict[str, str]
    qos: QoSVector
    components: list[ComponentRecord]
    submitted_at: float
    version: int = 1
    withdrawn: bool = False

    def component(self, name: str) -> ComponentRecord | None:
        for comp in self.components:
            if comp.name == name:
                return comp
        return None
