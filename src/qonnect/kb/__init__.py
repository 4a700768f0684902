"""Replicated knowledge base: clusters, node telemetry, applications, decisions."""
