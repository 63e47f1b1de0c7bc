"""Benchmark for the besselhyp evaluators; run it with ``python3 perfbench/run.py``.

See ``perfbench/README.md`` for the workloads, the metrics and the output.
"""
