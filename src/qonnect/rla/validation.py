"""Application bundle validation.

A bundle is one ``application`` block (name, labels, qos) plus component
blocks, each targeting a domain and carrying opaque manifest objects. Two
conventions make manifests portable across domains: every component ships
an Ingress whose first path segment is the application name, and cross
domain addresses appear as ``{{QONNECT_<DOMAIN>_IP}}`` placeholders
(``PLACEHOLDER_RE``) that agents substitute before applying.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

from qonnect import codec
from qonnect.kb.model import Domain, QoSVector

VALID_DOMAINS = {d.value for d in Domain}

# A cross-domain address placeholder; group 1 is the domain, in upper case.
PLACEHOLDER_RE = re.compile(r"\{\{QONNECT_([A-Z]+)_IP\}\}")

_decode_qos = codec.decoder(QoSVector)


@dataclass(frozen=True)
class ParsedBundle:
    name: str
    labels: tuple[tuple[str, str], ...]
    qos: QoSVector
    components: tuple[tuple[str, Domain, dict], ...]


def _ingress_first_segment(obj: dict) -> str | None:
    path = obj.get("path")
    if not isinstance(path, str):
        return None
    segments = [s for s in path.split("/") if s]
    return segments[0] if segments else None


def parse_qos(data: object) -> QoSVector:
    """Weights from a request; unknown keys, non-numbers, negatives and weights
    that are not finite (NaN, infinities, integers too large for a float)
    raise ``ValueError``.

    ``QoSVector`` itself accepts NaN, so log entries written before this
    check still decode and replay.
    """
    if data is None:
        return QoSVector()
    qos = _decode_qos(data)
    try:
        weights = [float(qos.energy), float(qos.pricing), float(qos.performance)]
    except OverflowError:
        raise ValueError("QoS weights must be finite") from None
    if not all(map(math.isfinite, weights)):
        raise ValueError("QoS weights must be finite")
    return QoSVector(*weights)


def validate_bundle(bundle: object) -> tuple[ParsedBundle | None, list[dict]]:
    """Field-level validation; returns (parsed, errors) with parsed None on failure."""
    errors: list[dict] = []

    def err(field: str, message: str) -> None:
        errors.append({"field": field, "error": message})

    if not isinstance(bundle, dict):
        err("", "bundle must be a mapping")
        return None, errors
    application = bundle.get("application")
    if not isinstance(application, dict):
        err("application", "application block is required")
        return None, errors

    name = application.get("name")
    if not isinstance(name, str) or not name:
        err("application.name", "name is required")
        name = ""
    labels_raw = application.get("labels") or {}
    if not isinstance(labels_raw, dict) or not all(
        isinstance(k, str) and isinstance(v, str) for k, v in labels_raw.items()
    ):
        err("application.labels", "labels must map strings to strings")
        labels_raw = {}
    try:
        qos = parse_qos(application.get("qos"))
    except ValueError as exc:
        err("application.qos", str(exc))
        qos = QoSVector()

    components_raw = bundle.get("components")
    if not isinstance(components_raw, list) or not components_raw:
        err("components", "at least one component is required")
        components_raw = []

    seen: set[str] = set()
    components: list[tuple[str, Domain, dict]] = []
    for i, comp in enumerate(components_raw):
        prefix = f"components[{i}]"
        if not isinstance(comp, dict):
            err(prefix, "component must be a mapping")
            continue
        comp_name = comp.get("component") or comp.get("name")
        if not isinstance(comp_name, str) or not comp_name:
            err(f"{prefix}.component", "component name is required")
            continue
        if comp_name in seen:
            err(f"{prefix}.component", f"duplicate component name: {comp_name}")
            continue
        seen.add(comp_name)
        domain_raw = comp.get("domain")
        if domain_raw not in VALID_DOMAINS:
            err(f"{prefix}.domain", f"unknown domain: {domain_raw!r}")
            continue
        objects = comp.get("objects")
        if not isinstance(objects, list):
            err(f"{prefix}.objects", "objects list is required")
            continue
        ingresses = [o for o in objects if isinstance(o, dict) and o.get("kind") == "Ingress"]
        if not ingresses:
            err(f"{prefix}.objects", "an Ingress object is required")
            continue
        bad = [
            o for o in ingresses if name and _ingress_first_segment(o) != name
        ]
        if bad:
            err(
                f"{prefix}.objects",
                f"ingress path must start with /{name}/ (got {bad[0].get('path')!r})",
            )
            continue
        components.append((comp_name, Domain(domain_raw), {"objects": objects}))

    if errors:
        return None, errors
    return (
        ParsedBundle(
            name=name,
            labels=tuple(sorted(labels_raw.items())),
            qos=qos,
            components=tuple(components),
        ),
        [],
    )
