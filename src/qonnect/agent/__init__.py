"""Resource Agent: stateless per-cluster reconciler driven by RLA polling."""

from qonnect.agent.client import RlaClient, RlaClientError
from qonnect.agent.ra import RaConfig, ResourceAgent

__all__ = [
    "RaConfig",
    "ResourceAgent",
    "RlaClient",
    "RlaClientError",
]
