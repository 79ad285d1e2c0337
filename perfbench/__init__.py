"""Benchmark of the tcbayes pipeline; ``run.py`` is the entry point."""
