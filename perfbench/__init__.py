"""Benchmark harness for gradedet: workloads, input generators, host-speed
calibration and tracer.

Run it from the repository root with ``python3 perfbench/run.py``.
"""
