"""Benchmark for the flagdomains package: seeded workloads, correctness
checks and per-layer tracing, driven by ``perfbench/run.py``."""
