"""Application bundle validation.

A bundle is one ``application`` block (name, labels, qos) plus component
blocks, each targeting a domain and carrying opaque manifest objects. Two
conventions make manifests portable across domains: every component ships
an Ingress whose first path segment is the application name, and cross
domain addresses appear as ``{{QONNECT_<DOMAIN>_IP}}`` placeholders
(``PLACEHOLDER_RE``) that agents substitute before applying. A placeholder
resolves to the cluster of a component in its domain, so each must name a
domain that some component of the same bundle targets.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Iterable

from qonnect import codec
from qonnect.kb.model import Domain, QoSVector

VALID_DOMAINS = {d.value for d in Domain}

# A cross-domain address placeholder; group 1 is the domain, in upper case.
PLACEHOLDER_RE = re.compile(r"\{\{QONNECT_([A-Z]+)_IP\}\}")

_decode_qos = codec.decoder(QoSVector)

# Most levels of objects and arrays a component's manifest,
# ``{"objects": [...]}``, may nest. Kubernetes objects nest a few tens of
# levels; the log's decoder, which reads a manifest three levels below the
# top of its entry, stops near a thousand.
MAX_MANIFEST_DEPTH = 100


def placeholder_domains(manifest: str) -> set[str]:
    """The domains, in lower case, that the placeholders in a manifest's
    JSON text name."""
    return {m.lower() for m in PLACEHOLDER_RE.findall(manifest)}


@dataclass(frozen=True)
class ParsedBundle:
    name: str
    labels: tuple[tuple[str, str], ...]
    qos: QoSVector
    components: tuple[tuple[str, Domain, codec.ObjectText], ...]


def _check_objects(values: Iterable[object], levels: int) -> None:
    """Fail as the encoder would at the limits of a manifest: ``RecursionError``
    if any of ``values`` nests objects and arrays more than ``levels`` levels
    deep (an array of scalars is one level), and ``TypeError`` for an object
    key that is not a string, which the encoder orders as what it is but
    writes as a string. The walk stops at ``levels``, so it never recurses
    deeper than that."""
    for value in values:
        if isinstance(value, dict):
            if not all(isinstance(key, str) for key in value):
                raise TypeError("object keys must be strings")
            children = value.values()
        elif isinstance(value, (list, tuple)):
            children = value
        else:
            continue
        if levels == 0:
            raise RecursionError(f"nested deeper than {MAX_MANIFEST_DEPTH} levels")
        _check_objects(children, levels - 1)


def _too_deep(component: str) -> str:
    return f"the manifest of {component} nests deeper than {MAX_MANIFEST_DEPTH} levels"


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
    """Field-level validation; returns (parsed, errors) with parsed None on failure.

    ``parsed`` is in the form the log decodes to: exact strings, and each
    manifest as its canonical text, so no object of the caller's is kept.
    """
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
    if type(name) is not str or not name:
        err("application.name", "name is required")
        name = ""
    labels_raw = application.get("labels") or {}
    if not isinstance(labels_raw, dict) or not all(
        type(k) is str and type(v) is str for k, v in labels_raw.items()
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

    # A placeholder resolves to the cluster of a sibling in its domain, so
    # it must name a domain that some component of the bundle targets. A
    # sibling refused for another reason still counts, so that one bad
    # component is reported once.
    domains = (c.get("domain") for c in components_raw if isinstance(c, dict))
    targets = {d for d in domains if isinstance(d, str) and d in VALID_DOMAINS}
    seen: set[str] = set()
    kept: list[tuple[int, str, Domain, list]] = []  # position, name, domain, objects
    for i, comp in enumerate(components_raw):
        prefix = f"components[{i}]"
        if not isinstance(comp, dict):
            err(prefix, "component must be a mapping")
            continue
        comp_name = comp.get("component") or comp.get("name")
        if type(comp_name) is not str or not comp_name:
            err(f"{prefix}.component", "component name is required")
            continue
        if comp_name in seen:
            err(f"{prefix}.component", f"duplicate component name: {comp_name}")
            continue
        seen.add(comp_name)
        domain_raw = comp.get("domain")
        if not isinstance(domain_raw, str) or domain_raw not in VALID_DOMAINS:
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
        kept.append((i, comp_name, Domain(domain_raw), objects))

    texts: list[str] = []
    for i, comp_name, _, objects in kept:
        try:
            text = codec.dumps({"objects": objects}, allow_nan=False)
            _check_objects(objects, MAX_MANIFEST_DEPTH - 2)  # the levels below {"objects": [...]}
        except RecursionError:
            err(f"components[{i}].objects", _too_deep(comp_name))
            continue
        except (TypeError, ValueError):
            err(f"components[{i}].objects", "objects must be JSON values")
            continue
        unresolvable = sorted(placeholder_domains(text) - targets)
        if unresolvable:
            err(
                f"components[{i}].objects",
                f"placeholder {{{{QONNECT_{unresolvable[0].upper()}_IP}}}} names a domain"
                " that no component of the application targets",
            )
        texts.append(text)

    if errors:
        return None, errors
    return (
        ParsedBundle(
            name=name,
            labels=tuple(sorted(labels_raw.items())),
            qos=qos,
            components=tuple((c, d, t) for (_, c, d, _), t in zip(kept, texts)),
        ),
        [],
    )
