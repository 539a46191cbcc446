"""Memory spaces of the mobile SoC.

Mobile SoCs use one physical DRAM chip but *separate memory spaces* per
processor (§3.3): a tensor visible to the NPU driver is not automatically
visible to CPU user space, which is why shadow execution would naively
duplicate every MatMul weight.  The NPU can additionally only address a
limited region (≈4 GB for Hexagon, §4 implementation notes), which can be
smaller than the LLM weights — the reason llm.npu prioritizes
compute-heavy operators for NPU residency.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.errors import MemoryLimitError

GiB = 1024 ** 3
MiB = 1024 ** 2


@dataclass
class Allocation:
    """A live named allocation inside a memory space."""

    name: str
    nbytes: int


class MemorySpace:
    """A bounded region with named allocations and peak tracking."""

    def __init__(self, name: str, limit_bytes: Optional[int] = None):
        if limit_bytes is not None and limit_bytes <= 0:
            raise MemoryLimitError(f"{name}: non-positive limit")
        self.name = name
        self.limit_bytes = limit_bytes
        self._allocations: Dict[str, Allocation] = {}
        self.peak_bytes = 0

    @property
    def used_bytes(self) -> int:
        return sum(a.nbytes for a in self._allocations.values())

    def alloc(self, name: str, nbytes: int) -> Allocation:
        """Reserve ``nbytes`` under ``name``; raises on overflow."""
        if nbytes < 0:
            raise MemoryLimitError(f"{self.name}: negative allocation {name}")
        if name in self._allocations:
            raise MemoryLimitError(
                f"{self.name}: allocation {name!r} already exists"
            )
        new_total = self.used_bytes + nbytes
        if self.limit_bytes is not None and new_total > self.limit_bytes:
            raise MemoryLimitError(
                f"{self.name}: allocating {nbytes / MiB:.1f} MiB for "
                f"{name!r} exceeds limit "
                f"({new_total / MiB:.1f} / {self.limit_bytes / MiB:.1f} MiB)"
            )
        allocation = Allocation(name, nbytes)
        self._allocations[name] = allocation
        self.peak_bytes = max(self.peak_bytes, new_total)
        return allocation

    def free(self, name: str) -> None:
        if name not in self._allocations:
            raise MemoryLimitError(
                f"{self.name}: no allocation named {name!r}"
            )
        del self._allocations[name]

    def has(self, name: str) -> bool:
        return name in self._allocations

    def would_fit(self, nbytes: int) -> bool:
        """Whether an allocation of ``nbytes`` would fit right now."""
        if self.limit_bytes is None:
            return True
        return self.used_bytes + nbytes <= self.limit_bytes


class SocMemory:
    """The memory spaces of one device.

    ``dram`` is the whole physical memory (the device's RAM size); ``cpu``
    and ``npu`` are the per-processor spaces carved from it.  The NPU space
    carries the Hexagon ~4 GB addressing limit.  Tracking them separately
    reproduces the paper's memory accounting: shadow execution needs float
    weight copies in *CPU* space even though the bytes live in the same
    DRAM chip.
    """

    def __init__(self, dram_bytes: int, npu_region_bytes: int = 4 * GiB):
        self.dram = MemorySpace("dram", dram_bytes)
        self.cpu = MemorySpace("cpu", dram_bytes)
        self.npu = MemorySpace("npu", min(npu_region_bytes, dram_bytes))

    def alloc_shared(self, name: str, nbytes: int,
                     spaces: Optional[list] = None) -> None:
        """Allocate the same buffer into several spaces plus DRAM once."""
        spaces = spaces if spaces is not None else [self.cpu]
        self.dram.alloc(name, nbytes)
        done = []
        try:
            for space in spaces:
                space.alloc(name, nbytes)
                done.append(space)
        except MemoryLimitError:
            self.dram.free(name)
            for space in done:
                space.free(name)
            raise

    def report(self) -> Dict[str, int]:
        """Current usage per space in bytes."""
        return {
            "dram": self.dram.used_bytes,
            "cpu": self.cpu.used_bytes,
            "npu": self.npu.used_bytes,
        }
