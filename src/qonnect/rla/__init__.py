"""Resource Lead Agent: REST control API over a Raft-replicated knowledge base."""
