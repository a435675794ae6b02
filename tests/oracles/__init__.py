"""Object-at-a-time reference implementations that pin the columnar library.

Each oracle is the straightforward per-access formulation of a library
computation: an ``OrderedDict`` LRU cache, per-command MCU routing, a
dict-based reuse-distance loop, a ``Counter`` entropy estimate and a
recorder that stores one :class:`~repro.memsys.access.MemoryAccess` per
access.  Tests and benchmarks compare the library against them bit for
bit; nothing under ``src/`` imports this package.
"""
