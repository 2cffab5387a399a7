"""GPU hardware configurations.

Presets are *scaled-down* analogues of the paper's V100 and RTX 3070
targets: fewer SMs, fewer warp slots, and smaller caches so the Python
timing model runs in seconds.  All experiments report results normalized to
the baseline on the identical configuration (as the paper does), so uniform
scaling preserves relative behaviour; see DESIGN.md for the fidelity notes.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field, replace
from typing import Any, Dict, Optional


@dataclass(frozen=True)
class CacheConfig:
    """A sector-granular set-associative cache.

    The 32B sector is both the allocation and transfer unit (a "sectored"
    simplification of the V100's 128B-line/32B-sector L1).
    """

    size_bytes: int
    assoc: int
    sector_bytes: int = 32
    hit_latency: int = 20
    ports: int = 4  # sector lookups serviced per cycle
    mshrs: int = 32  # outstanding distinct miss sectors

    @property
    def num_sectors(self) -> int:
        return self.size_bytes // self.sector_bytes

    @property
    def num_sets(self) -> int:
        return max(1, self.num_sectors // self.assoc)

    def to_dict(self) -> Dict[str, Any]:
        """Plain-JSON form (the result store's serialization)."""
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "CacheConfig":
        return cls(**data)


@dataclass(frozen=True)
class GPUConfig:
    """Full simulated-GPU configuration."""

    name: str = "V100-scaled"
    num_sms: int = 4
    max_warps_per_sm: int = 16
    max_blocks_per_sm: int = 4
    registers_per_sm: int = 1024  # warp-wide registers (128B each)
    shared_mem_per_sm: int = 48 * 1024
    schedulers_per_sm: int = 2
    scheduler: str = "gto"  # "gto" (greedy-then-oldest) or "lrr" (loose round-robin)
    # Execution latencies (cycles).
    alu_latency: int = 4
    fpu_latency: int = 4
    sfu_latency: int = 16
    smem_latency: int = 24
    ctrl_latency: int = 2
    stack_op_latency: int = 1  # CARS push/pop renames
    # Memory hierarchy.
    l1: CacheConfig = field(
        default_factory=lambda: CacheConfig(size_bytes=32 * 1024, assoc=4)
    )
    l2: CacheConfig = field(
        default_factory=lambda: CacheConfig(
            size_bytes=256 * 1024, assoc=8, hit_latency=90, ports=4, mshrs=64
        )
    )
    dram_latency: int = 220
    dram_ports: int = 3  # sectors serviced per cycle, GPU-wide
    # Per-warp limits.
    max_outstanding_loads: int = 8
    # Front end.
    icache_bytes: int = 16 * 1024
    icache_miss_penalty: int = 20
    # Behaviour switches used by the idealized configurations.
    l1_force_hit: bool = False  # the paper's ALL-HIT study
    unlimited_occupancy: bool = False  # Idealized Virtual Warps (Zorua-like)
    warp_limit: Optional[int] = None  # Static Wavefront Limiter (Best-SWL)
    # CARS-specific knobs.
    cars_extra_pipeline_cycles: int = 1  # issue + operand-collector stages
    cars_max_context_switches: int = 64
    # Completed blocks required *per measured allocation level* before the
    # Fig 5 state machine starts steering SMs.  1 is the paper's behaviour
    # (engage once each seed population has retired a block); larger
    # values trade adaptation speed for less noisy runtime averages, and
    # the `repro tune` search explores this as a policy threshold.
    cars_policy_min_samples: int = 1
    # RegDem (shared-memory register demotion): per-warp spill arena carved
    # out of shared memory.  One warp-wide register is 128 B (4 B x 32
    # lanes), so the default arena holds 8 demoted registers per warp; the
    # arena is charged against the block's shared-memory occupancy limit.
    regdem_smem_bytes_per_warp: int = 1024
    # Register-file cache: compiler-managed LRU cache of callee-saved
    # registers, carved out of the per-warp register allocation.
    rfcache_regs: int = 12
    # Static register compression (arXiv 2006.05693): the compiler
    # re-encodes the kernel's register footprint at this percentage of
    # the baseline linker demand, shrinking the allocation the block
    # scheduler sees; every function call pays ``regcomp_extra_cycles``
    # to unpack the callee's compressed frame metadata.
    regcomp_ratio_pct: int = 70
    regcomp_extra_cycles: int = 1

    def to_dict(self) -> Dict[str, Any]:
        """Plain-JSON form: every field, nested caches as dicts."""
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "GPUConfig":
        data = dict(data)
        data["l1"] = CacheConfig.from_dict(data["l1"])
        data["l2"] = CacheConfig.from_dict(data["l2"])
        return cls(**data)

    def fingerprint(self) -> str:
        """Stable content digest over *every* field (not just ``name``).

        The result store keys runs on this, so two configs that differ in
        any knob — even ones sharing a ``name`` — never alias each other.
        """
        canonical = json.dumps(self.to_dict(), sort_keys=True,
                               separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()

    def with_l1_size(self, size_bytes: int) -> "GPUConfig":
        """A copy with a different L1 capacity (e.g. the 10MB-L1 study)."""
        return replace(
            self,
            name=f"{self.name}-l1-{size_bytes // 1024}k",
            l1=replace(self.l1, size_bytes=size_bytes),
        )

    def with_l1_ports(self, ports: int) -> "GPUConfig":
        """A copy with scaled L1 bandwidth (the Fig 17 port sweep)."""
        return replace(
            self, name=f"{self.name}-ports-{ports}", l1=replace(self.l1, ports=ports)
        )

    def with_warp_limit(self, limit: int) -> "GPUConfig":
        """A copy with an SWL warp limit."""
        return replace(self, name=f"{self.name}-swl-{limit}", warp_limit=limit)

    def with_force_hit(self) -> "GPUConfig":
        return replace(self, name=f"{self.name}-allhit", l1_force_hit=True)

    def with_unlimited_occupancy(self) -> "GPUConfig":
        return replace(
            self, name=f"{self.name}-idealvw", unlimited_occupancy=True
        )

    def with_regdem_arena(self, regs: int) -> "GPUConfig":
        """A copy whose RegDem shared-memory arena holds *regs* registers."""
        return replace(
            self,
            name=f"{self.name}-regdem-{regs}",
            regdem_smem_bytes_per_warp=128 * regs,
        )

    def with_rfcache_regs(self, regs: int) -> "GPUConfig":
        """A copy with a *regs*-entry register-file cache per warp."""
        return replace(self, name=f"{self.name}-rfc-{regs}", rfcache_regs=regs)

    def with_scheduler(self, scheduler: str) -> "GPUConfig":
        """A copy issued under a different warp scheduler (``gto``/``lrr``)."""
        if scheduler == self.scheduler:
            return self
        return replace(
            self, name=f"{self.name}-{scheduler}", scheduler=scheduler
        )

    def with_cars_policy(self, *, min_samples: int) -> "GPUConfig":
        """A copy whose Fig 5 state machine waits for *min_samples*
        completed blocks per allocation level before steering SMs."""
        if min_samples < 1:
            raise ValueError("min_samples must be >= 1")
        if min_samples == self.cars_policy_min_samples:
            return self
        return replace(
            self,
            name=f"{self.name}-ms{min_samples}",
            cars_policy_min_samples=min_samples,
        )

    def with_regcomp_ratio(self, pct: int) -> "GPUConfig":
        """A copy whose regcomp arm compresses frames to *pct* percent."""
        if not 1 <= pct <= 100:
            raise ValueError("regcomp ratio must be in 1..100 percent")
        return replace(
            self, name=f"{self.name}-regcomp-{pct}", regcomp_ratio_pct=pct
        )


def volta() -> GPUConfig:
    """Scaled-down NVIDIA V100 (Volta) — the paper's baseline target."""
    return GPUConfig()


def ampere() -> GPUConfig:
    """Scaled-down RTX 3070 (Ampere) — the Fig 18 sensitivity target.

    Relative to the Volta preset it has more SMs but a smaller register
    file and L1 per SM (the RTX 3070 has 96KB more-shared L1 and a lower
    registers-to-warp-slot ratio), which shifts CARS's occupancy tradeoff —
    the effect behind MST flipping to Low-watermark in the paper.
    """
    return GPUConfig(
        name="RTX3070-scaled",
        num_sms=6,
        max_warps_per_sm=12,
        registers_per_sm=1536,
        shared_mem_per_sm=32 * 1024,
        l1=CacheConfig(size_bytes=24 * 1024, assoc=4),
    )


def huge_l1(base: Optional[GPUConfig] = None) -> GPUConfig:
    """The paper's 10MB-L1 idealized configuration (scaled: 2MB here)."""
    cfg = base if base is not None else volta()
    return cfg.with_l1_size(2 * 1024 * 1024)


PRESETS: Dict[str, GPUConfig] = {
    "volta": volta(),
    "ampere": ampere(),
}
