"""Benchmark of the council planner; run it with ``python3 perfbench/run.py``."""
