"""Safety-invariant checkers over seeded RaftHarness chaos runs.

A chaos run drives a cluster through message drops, delivery jitter, and
scripted partitions while clients keep proposing, then heals the network
and verifies: election safety (one leader per term, ever, and the
elections the replicas report are those the harness observed), log
matching (agreement up to commit), and committed-entry durability (nothing
any node applied is ever lost or rewritten).
"""

from __future__ import annotations

import random

from raft_harness import RaftHarness


class SafetyViolation(AssertionError):
    pass


def _random_partition(rng: random.Random, size: int) -> list[list[int]]:
    nodes = list(range(size))
    rng.shuffle(nodes)
    cut = rng.randint(1, size - 1)
    return [nodes[:cut], nodes[cut:]]


def check_election_safety(harness: RaftHarness) -> None:
    """One leader per term, ever; and the replicas reported exactly the
    elections the harness observed, each once."""
    for term, leaders in harness.leaders_by_term.items():
        if len(leaders) > 1:
            raise SafetyViolation(f"term {term} had multiple leaders: {sorted(leaders)}")
    observed = sorted((term, node) for term, leaders in harness.leaders_by_term.items()
                      for node in leaders)
    if sorted(harness.elections) != observed:
        raise SafetyViolation(
            f"replicas reported elections {sorted(harness.elections)}, observed {observed}"
        )


def check_log_matching(harness: RaftHarness) -> None:
    ids = list(harness.nodes)
    for i in range(len(ids)):
        for j in range(i + 1, len(ids)):
            a, b = harness.nodes[ids[i]], harness.nodes[ids[j]]
            upto = min(a.commit_index, b.commit_index)
            for index in range(1, upto + 1):
                ea, eb = a.entry_at(index), b.entry_at(index)
                if ea is None or eb is None:
                    continue  # compacted prefix: covered by applied-map checks
                if ea != eb:
                    raise SafetyViolation(
                        f"log mismatch at {index}: node {ids[i]} has {ea}, "
                        f"node {ids[j]} has {eb}"
                    )


def check_applied_consistency(harness: RaftHarness) -> dict[int, str]:
    """No two nodes ever applied different commands at one index."""
    combined: dict[int, str] = {}
    for node_id, applied in harness.applied.items():
        for index, command in applied.items():
            if index in combined and combined[index] != command:
                raise SafetyViolation(
                    f"applied divergence at {index}: {combined[index]!r} vs "
                    f"{command!r} (node {node_id})"
                )
            combined.setdefault(index, command)
    return combined


def converge(harness: RaftHarness, timeout: float = 15.0) -> bool:
    """Heal everything and wait for all nodes to apply the same prefix, one
    that ends in an entry of the leader's term.

    A restarted node forgets its commit index, and a new leader learns its
    own only by committing an entry of its term; until then every node can
    agree on an index below one a node applied before it restarted.
    """
    harness.network.partition(None)
    harness.network.drop_rate = 0.0
    harness.network.jitter = 0.0
    for node_id in list(harness.stopped):
        harness.restart(node_id)

    def caught_up() -> bool:
        leader = harness.leader()
        if leader is None or leader.term_at(leader.commit_index) != leader.current_term:
            return False
        commits = [n.commit_index for n in harness.nodes.values()]
        applieds = [n.last_applied for n in harness.nodes.values()]
        return len(set(commits)) == 1 and applieds == commits

    return harness.run_until(caught_up, timeout)


def chaos_run(
    size: int,
    seed: int,
    duration: float = 8.0,
    drop_rate: float = 0.10,
    jitter: float = 0.02,
) -> RaftHarness:
    """One seeded chaos scenario; raises SafetyViolation on any breach."""
    harness = RaftHarness(size=size, seed=seed, drop_rate=drop_rate, jitter=jitter)
    rng = random.Random(seed * 7919 + size)

    # Two scripted partition windows inside the chaos phase.
    windows = sorted(rng.uniform(1.0, duration - 1.0) for _ in range(2))
    partitions = [
        (start, min(start + rng.uniform(0.8, 2.0), duration), _random_partition(rng, size))
        for start in windows
    ]

    proposal_gap = 0.15
    next_proposal = 0.5
    active: tuple[float, float] | None = None
    while harness.now < duration:
        for start, end, groups in partitions:
            if start <= harness.now < end and active != (start, end):
                harness.network.partition(groups)
                active = (start, end)
            elif active == (start, end) and harness.now >= end:
                harness.network.partition(None)
                active = None
        if harness.now >= next_proposal:
            next_proposal = harness.now + proposal_gap
            harness.propose()
        harness.step()
        check_election_safety(harness)

    if not converge(harness):
        raise SafetyViolation(f"cluster did not converge after healing (seed {seed})")

    check_election_safety(harness)
    check_log_matching(harness)
    combined = check_applied_consistency(harness)
    # Durability: every index any node ever applied is present on all nodes now.
    for node_id, node in harness.nodes.items():
        for index, command in combined.items():
            if index > node.commit_index:
                raise SafetyViolation(
                    f"node {node_id} lost committed index {index} (seed {seed})"
                )
            entry = node.entry_at(index)
            if entry is not None and entry.command != command:
                raise SafetyViolation(
                    f"node {node_id} rewrote committed index {index} (seed {seed})"
                )
    return harness


def stop_tolerance_run(size: int, seed: int) -> None:
    """Stopping floor(n/2) nodes never loses a committed entry."""
    harness = RaftHarness(size=size, seed=seed)
    if not harness.run_until(lambda: harness.leader_id() is not None, 5.0):
        raise SafetyViolation(f"no initial leader (n={size}, seed {seed})")

    first_batch = 10
    sent = 0
    while sent < first_batch:
        if harness.propose(f"pre-{sent}") is not None:
            sent += 1
        harness.step()
    if not harness.run_until(
        lambda: all(len(harness.applied[i]) >= first_batch for i in harness.alive()), 10.0
    ):
        raise SafetyViolation("first batch did not commit everywhere")

    # Stop a majority-1 set that includes the leader: the worst allowed case.
    to_stop = [harness.leader_id()]
    for node_id in harness.nodes:
        if len(to_stop) == size // 2:
            break
        if node_id not in to_stop:
            to_stop.append(node_id)
    for node_id in to_stop:
        harness.stop(node_id)

    if not harness.run_until(
        lambda: harness.leader_id() is not None and harness.leader_id() not in to_stop, 10.0
    ):
        raise SafetyViolation(f"no re-election with {len(to_stop)} nodes stopped (n={size})")

    second_batch = 5
    sent = 0
    while sent < second_batch:
        if harness.propose(f"post-{sent}") is not None:
            sent += 1
        harness.step()

    if not converge(harness):
        raise SafetyViolation("no convergence after restarting stopped nodes")
    combined = check_applied_consistency(harness)
    commands = set(combined.values())
    for i in range(first_batch):
        if f"pre-{i}" not in commands:
            raise SafetyViolation(f"lost committed entry pre-{i} (n={size}, seed {seed})")
    for i in range(second_batch):
        if f"post-{i}" not in commands:
            raise SafetyViolation(f"lost entry post-{i} committed under quorum loss (n={size})")
    check_election_safety(harness)
    check_log_matching(harness)
