"""QoS-weighted Borda placement pipeline and the leader's scheduling loop."""
