"""Benchmark suite for the reproduction.

Importable as a package so individual benchmarks can be run as modules,
e.g. ``python -m benchmarks.bench_streaming --quick``.
"""
