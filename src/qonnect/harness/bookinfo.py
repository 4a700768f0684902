"""A four-component storefront bundle used by the evaluation scenarios.

Metadata-equivalent stand-in for the well-known bookstore demo app: a cloud
frontend, two fog mid-tier services, and an edge ratings service. Cross-tier
URLs use domain placeholders so the same manifests deploy anywhere.
"""

from __future__ import annotations

import yaml


def _component(
    app: str, name: str, domain: str, env: dict[str, str] | None = None
) -> dict:
    return {
        "component": name,
        "domain": domain,
        "objects": [
            {
                "kind": "Deployment",
                "name": name,
                "replicas": 1,
                "labels": {"app": app, "service": name},
                "env": env or {},
            },
            {"kind": "Service", "name": name, "port": 9080},
            {"kind": "Ingress", "name": f"{name}-ingress", "path": f"/{app}/{name}"},
        ],
    }


def bookinfo_bundle(name: str = "bookinfo", qos: dict | None = None) -> dict:
    return {
        "application": {
            "name": name,
            "labels": {"app": name},
            "qos": qos if qos is not None else {"performance": 1.0},
        },
        "components": [
            _component(
                name,
                "productpage",
                "cloud",
                env={
                    "DETAILS_URL": f"http://{{{{QONNECT_FOG_IP}}}}/{name}/details",
                    "REVIEWS_URL": f"http://{{{{QONNECT_FOG_IP}}}}/{name}/reviews",
                },
            ),
            _component(name, "details", "fog"),
            _component(
                name,
                "reviews",
                "fog",
                env={"RATINGS_URL": f"http://{{{{QONNECT_EDGE_IP}}}}/{name}/ratings"},
            ),
            _component(
                name,
                "ratings",
                "edge",
                env={"HOME_URL": f"http://{{{{QONNECT_CLOUD_IP}}}}/{name}/productpage"},
            ),
        ],
    }


def parse_bundle_stream(text: str) -> dict:
    """Parse the YAML document stream into a submit bundle; ``ValueError`` if malformed."""
    try:
        docs = [d for d in yaml.safe_load_all(text) if d is not None]
    except (yaml.YAMLError, LookupError, AttributeError, RecursionError) as exc:
        # PyYAML raises KeyError for ``!!bool x``, AttributeError for ``!!timestamp x``.
        raise ValueError(f"not YAML: {exc}") from None
    if not docs or not isinstance(docs[0], dict) or "application" not in docs[0]:
        raise ValueError("the first document must carry the application block")
    return {"application": docs[0]["application"], "components": docs[1:]}
