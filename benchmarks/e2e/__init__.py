"""End-to-end wall-clock benchmark: four workloads, outside-in per-layer
tracing, and parent/change comparison.  See README.md."""
