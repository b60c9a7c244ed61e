"""Repository benchmark: workloads, layer tracing and metric arithmetic."""
