"""Benchmark for packrun; run it with ``python3 perfbench/run.py --help``."""
