"""Benchmark of the resurgence package; run ``python3 bench/run.py --help``."""
