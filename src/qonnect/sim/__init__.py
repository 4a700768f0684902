"""In-process fake clusters: namespaces, workload rollouts, nodes, fault injection."""
