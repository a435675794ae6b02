"""Memory-hierarchy substrate: access columns, caches, trace simulation."""

from repro.memsys.access import AccessColumns, AccessType, MemoryAccess, as_access_columns
from repro.memsys.cache import CacheConfig, lru_pass, xgene2_l1_config, xgene2_l2_config
from repro.memsys.hierarchy import HierarchyStats, MemoryHierarchy

__all__ = [
    "AccessColumns",
    "AccessType",
    "MemoryAccess",
    "as_access_columns",
    "CacheConfig",
    "lru_pass",
    "xgene2_l1_config",
    "xgene2_l2_config",
    "HierarchyStats",
    "MemoryHierarchy",
]
