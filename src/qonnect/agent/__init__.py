"""Resource Agent: stateless per-cluster reconciler driven by RLA polling."""
