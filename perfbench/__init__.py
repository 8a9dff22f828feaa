"""Benchmark for hiergrid: four workloads timed from outside the library.

`run.py` is the command line entry point; `workloads.py` defines what each
workload does and checks; `tracing.py` wraps the library's layer entry points
for the traced run; `measure.py` holds the shared statistics helpers.
"""
