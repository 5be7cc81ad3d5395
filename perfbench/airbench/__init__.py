"""Benchmark of the airmia pipeline: workloads, correctness checks and tracing.

The package drives airmia only through its public entry points and never
imports anything from inside the benchmark into the program.
"""
