"""Benchmark of the compiler's user paths (run: python3 perfbench/run.py)."""
