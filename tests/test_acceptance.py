"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.
"""

from __future__ import annotations

import random
import time

from placement_oracle import oracle_place, random_instance
from raft_checks import chaos_run, stop_tolerance_run
from support import AWS_COEFFICIENTS, GCP_COEFFICIENTS, energy_coefficient, table_midpoint
from test_properties import (
    test_applied_objects_are_placeholder_free as prop_placeholder_free,
    test_positive_scaling_of_one_attribute_changes_nothing as prop_scaling_invariance,
    test_record_and_namespace_stay_bijective as prop_record_bijection,
    test_threshold_filter_never_empties as prop_threshold_nonempty,
    test_zero_qos_equals_unit_qos as prop_zero_qos,
)
from qonnect.harness.engine import Deployment
from qonnect.harness.scenarios import run_scenario
from qonnect.harness.testbed import TestbedSpec
from qonnect.scheduler.borda import BordaCountStrategy
from qonnect.sim.profiles import PROFILES

SCENARIO_SEEDS = list(range(1, 11))


def _report(criterion: int, label: str, ok: bool, extra: str = "") -> None:
    verdict = "PASS" if ok else "FAIL"
    suffix = f" ({extra})" if extra else ""
    print(f"ACCEPTANCE {criterion} [{label}]: {verdict}{suffix}")
    assert ok, f"criterion {criterion} failed: {label} {suffix}"


def _scenario_batch(criterion: int, scenario: int, label: str) -> None:
    started = time.monotonic()
    failures = []
    for seed in SCENARIO_SEEDS:
        deployment = Deployment(TestbedSpec(seed=seed))
        report = run_scenario(deployment, scenario)
        if report.verdict != "pass":
            failures.append((seed, report.render_text()))
    ok = not failures
    extra = f"{len(SCENARIO_SEEDS) - len(failures)}/{len(SCENARIO_SEEDS)} seeds, " \
            f"{time.monotonic() - started:.1f}s"
    if failures:
        extra += f"; first failure @seed {failures[0][0]}:\n{failures[0][1]}"
    _report(criterion, label, ok, extra)


def test_criterion_1_parameter_fidelity():
    started = time.monotonic()
    aws = energy_coefficient(AWS_COEFFICIENTS)
    gcp = energy_coefficient(GCP_COEFFICIENTS)
    ok = abs(aws - 0.0024042) <= 1e-7 and abs(gcp - 0.0027335) <= 1e-7
    ok = ok and table_midpoint(0.0024042, 0.0027335) == 0.0025689 == PROFILES["cost"].energy
    ok = ok and table_midpoint(0.0042, 32.7726) == 16.3884 == PROFILES["energy"].pricing
    ok = ok and table_midpoint(5.0, 100.0) == 52.5 == PROFILES["energy"].bandwidth
    _report(1, "parameter fidelity", ok, f"{(time.monotonic() - started) * 1e3:.1f} ms")


def test_criterion_2_scenario_performance_placement():
    _scenario_batch(2, 1, "scenario 1: performance placement")


def test_criterion_3_scenario_energy_migration():
    _scenario_batch(3, 2, "scenario 2: energy migration + cleanup")


def test_criterion_4_scenario_agent_failure():
    _scenario_batch(4, 3, "scenario 3: agent kill -> edge redeployment")


def test_criterion_5_scenario_leader_failure():
    _scenario_batch(5, 4, "scenario 4: leader kill -> re-election + scheduling")


def test_criterion_6_scorer_oracle_equivalence():
    started = time.monotonic()
    rng = random.Random(0xB0DA)
    agreements = 0
    total = 1000
    for _ in range(total):
        snapshots, qos = random_instance(rng)
        expected = oracle_place(snapshots, qos, now=100.0, staleness=60.0)
        result = BordaCountStrategy().place(snapshots, qos, now=100.0, staleness=60.0)
        if expected is None and result is None:
            agreements += 1
        elif expected is not None and result is not None:
            if (result.cluster_id, result.node_names) == expected:
                agreements += 1
    elapsed = time.monotonic() - started
    ok = agreements == total and elapsed < 10.0
    _report(6, "scorer oracle equivalence", ok, f"{agreements}/{total} in {elapsed:.2f}s")


def test_criterion_7_raft_safety_suite():
    started = time.monotonic()
    violations = []
    runs = 0
    for size in (3, 5):
        for seed in range(50):
            runs += 1
            try:
                chaos_run(size=size, seed=seed)
            except AssertionError as exc:
                violations.append(f"chaos n={size} seed={seed}: {exc}")
    for size in (3, 5):
        for seed in range(3):
            try:
                stop_tolerance_run(size=size, seed=seed)
            except AssertionError as exc:
                violations.append(f"stop-tolerance n={size} seed={seed}: {exc}")
    ok = not violations
    extra = f"{runs} chaos runs + stop tolerance, {time.monotonic() - started:.1f}s"
    if violations:
        extra += "; " + violations[0]
    _report(7, "raft safety suite", ok, extra)


def test_criterion_8_property_suite():
    started = time.monotonic()
    # Each call executes the full generated search (>=100 cases).
    prop_threshold_nonempty()
    prop_zero_qos()
    prop_scaling_invariance()
    prop_record_bijection()
    prop_placeholder_free()
    _report(8, "property suite", True, f"{time.monotonic() - started:.1f}s")
