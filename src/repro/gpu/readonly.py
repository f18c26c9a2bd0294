"""Per-SM read-only caches (constant and texture), backed by the L2.

Table 2: "Const. cache: 8KB 128B line, Text. cache: 12KB 64B line".  These
caches never hold dirty data (the spaces are read-only from the SMs), so
their protocol is trivial: allocate on miss, fetch through the L2, nothing
to write back.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.cache.array import SetAssociativeCache
from repro.errors import ConfigurationError
from repro.gpu.l1 import L2Request
from repro.units import KB


@dataclass(frozen=True)
class ROCacheConfig:
    """Geometry of one read-only cache."""

    capacity_bytes: int
    associativity: int
    line_size: int

    def __post_init__(self) -> None:
        if self.capacity_bytes % (self.associativity * self.line_size) != 0:
            raise ConfigurationError("read-only cache geometry does not factor")


#: Table 2 geometries.
CONST_CACHE_CONFIG = ROCacheConfig(8 * KB, 4, 128)
TEXTURE_CACHE_CONFIG = ROCacheConfig(12 * KB, 4, 64)


class ReadOnlyCache:
    """One SM's constant or texture cache.

    ``array_factory`` is the cache-array class holding the lines (see
    :class:`~repro.gpu.l1.GPUL1Cache`).
    """

    def __init__(
        self,
        config: ROCacheConfig,
        name: str = "rocache",
        array_factory=SetAssociativeCache,
    ) -> None:
        self.config = config
        self.array = array_factory(
            config.capacity_bytes,
            config.associativity,
            config.line_size,
            name=name,
        )

    @property
    def hit_rate(self) -> float:
        """Demand hit rate."""
        return self.array.stats.hit_rate

    def access(self, address: int, now: float) -> Optional[L2Request]:
        """Read ``address``; returns the L2 fetch on a miss, else None.

        Read-only data is never dirty, so evictions are silent.
        """
        outcome = self.array.access(address, is_write=False, now=now)
        if outcome.hit:
            return None
        return L2Request("fetch", self.array.mapper.line_address(address))
