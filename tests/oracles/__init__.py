"""Straightforward reference implementations that pin the library.

Each oracle is the slow, obvious formulation of a library computation:
the per-access workload kernels (``workloads``), the per-access cache,
routing, reuse and entropy loops (``memsys``, ``profiling``), the per-row
dataset builders, study loops and Spearman coefficient (``dataset``), the
recursive tree builder and per-row prediction paths (``ml``), the scalar
statistical model and characterization run (``characterization``), the
byte-per-bit SECDED codec (``ecc``) and one independently fitted model
per rank (``predictor``); ``telemetry`` holds the span-tree lookups the
tests assert on.  Tests and benchmarks compare the library against them
bit for bit, or to a documented tolerance; nothing under ``src/``
imports this package (lint rule REP007).
"""
