"""Minimal Raft consensus: leader election, log replication, WAL persistence, snapshots."""
