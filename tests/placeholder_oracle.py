"""The recursive placeholder walk agents ran over decoded manifests, kept as
an oracle for the text substitution that replaced it
(``qonnect.agent.ra.substitute_placeholders``).

It substitutes in string values only, walking objects in their key order
and arrays in order, and raises at the first placeholder it cannot resolve.
"""

from __future__ import annotations

import re

from qonnect.agent.ra import PlaceholderError
from qonnect.rla.validation import PLACEHOLDER_RE


def substitute_in_values(value, placement: dict[str, str], config: dict[str, str]):
    """``value`` with every {{QONNECT_<DOMAIN>_IP}} token in a string value
    replaced by the concrete ingress ip."""
    if isinstance(value, str):
        def replace(match: re.Match) -> str:
            domain = match.group(1).lower()
            cluster_id = placement.get(domain)
            if cluster_id is None:
                raise PlaceholderError(f"no placement for domain {domain!r}")
            ip = config.get(cluster_id)
            if ip is None:
                raise PlaceholderError(f"no ingress ip cached for cluster {cluster_id}")
            return ip

        return PLACEHOLDER_RE.sub(replace, value)
    if isinstance(value, dict):
        return {k: substitute_in_values(v, placement, config) for k, v in value.items()}
    if isinstance(value, list):
        return [substitute_in_values(v, placement, config) for v in value]
    return value
