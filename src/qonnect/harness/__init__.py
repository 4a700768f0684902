"""Testbed harness: testbed spec, deterministic engine, live HTTP mode, scenarios, CLI."""
