"""Memory-hierarchy substrate: blocks, coherence states, cache arrays, MSHRs."""
