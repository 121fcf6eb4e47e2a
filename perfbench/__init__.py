"""Benchmark for intval; see perfbench/run.py."""
