"""Techniques studied (Section V-D): trace-to-µop expansion per ABI model.

Every technique replays the same dynamic traces through the same SM timing
model; what differs is

* which binary produced the trace (baseline vs fully-inlined LTO),
* the hardware config (L1 size/ports, force-hit, occupancy limits), and
* how the ABI records (CALL/RET/PUSH/POP) expand:
  - **baseline** — PUSH/POP become local-memory spill/fill accesses,
  - **CARS** — PUSH/POP become 1-cycle renames; CALL/RET drive the per-warp
    register stack, trapping to memory only on overflow (Fig 6).

The expansion behaviour is pluggable: a :class:`Technique` holds an
:class:`AbiModel` (a context factory plus capability flags), and
:func:`register_technique` / :func:`register_technique_family` add new
arms that :func:`resolve_technique` then reconstructs by bare name in any
process that imported the registering module.  The ``"baseline"`` and
``"cars"`` ``abi=`` strings are kept as compatibility aliases; the rival
arms ``regdem`` and ``rfcache`` (see :mod:`repro.spill`) register
themselves through this API exactly as a third-party plugin would.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable, ClassVar, Deque, Dict, List, Optional, Tuple, Union

from ..callgraph.analysis import KernelStackAnalysis
from ..cars.allocation import plan_allocation
from ..cars.policy import DynamicReservationPolicy, PolicyMemory
from ..cars.register_stack import WarpRegisterStack
from ..config.gpu_config import GPUConfig
from ..emu.trace import KernelTrace, TraceKind, TraceRecord
from ..metrics.counters import SimStats, STREAM_GLOBAL, STREAM_LOCAL, STREAM_SPILL
from ..resilience.errors import UnknownTechniqueError
from .occupancy import Occupancy, compute_occupancy
from .uop import Uop, UopKind, bar_uop, ctrl_uop, exec_uop, exit_uop, mem_uop
from .warp import WarpCtx

# Hot-path aliases for the expansion fast paths below.
_EXEC = UopKind.EXEC
_MEM = UopKind.MEM


class LaunchContext:
    """Per-(kernel-launch x technique) state driving µop expansion."""

    #: When True the SM manages a register pool and may stall warps
    #: (CARS's issue-stage stalled-warp list).
    manages_registers: bool = False

    #: CPI-stack bucket charged while a warp is parked on a blocking
    #: fill (``repro.obs.cpi`` reads this off the active context, so each
    #: ABI's stall traffic is attributed under its own label).  Must name
    #: a bucket :mod:`repro.obs.cpi` declares.
    blocking_fill_bucket: str = "cars_trap"

    def __init__(self, trace: KernelTrace, config: GPUConfig, stats: SimStats) -> None:
        self.trace = trace
        self.config = config
        self.stats = stats
        self.warps_per_block = trace.threads_per_block // 32
        self.occupancy = self._occupancy()
        # Front-end pressure: binaries larger than the i-cache pay an
        # amortized fetch penalty per instruction (Fig 16's LTO downside).
        code = max(1, trace.code_bytes)
        miss_rate = max(0.0, 1.0 - config.icache_bytes / code)
        self.fetch_penalty = miss_rate * config.icache_miss_penalty
        #: The decode table: record -> its one shared µop, for the kinds
        #: :meth:`_expand_common` decodes once.  Records hash by identity
        #: and the emulator interns them, so one entry serves every warp
        #: and every execution of a record.
        self.decoded: Dict[TraceRecord, Uop] = {}

    # -- occupancy ------------------------------------------------------

    def scheduler_regs_per_warp(self) -> int:
        """Per-warp register demand the block scheduler sees."""
        raise NotImplementedError

    def _occupancy(self) -> Occupancy:
        return compute_occupancy(
            self.config,
            self.scheduler_regs_per_warp(),
            self.warps_per_block,
            self.trace.shared_mem_bytes,
        )

    # -- CARS hooks (no-ops for static techniques) ----------------------

    def stack_level_for_block(self, sm_id: int) -> Tuple[int, int]:
        """(level_index, regs_per_warp) for a block spawning on *sm_id*."""
        return 0, self.scheduler_regs_per_warp()

    def attach_warp(self, warp: WarpCtx, regs_per_warp: int) -> None:
        """Initialize per-warp ABI state once registers are allocated."""

    def block_done(self, sm_id: int, level: int, runtime: int) -> None:
        pass

    def finalize(self) -> None:
        pass

    # -- expansion -------------------------------------------------------

    def expand(self, warp: WarpCtx, rec: TraceRecord, out: Deque[Uop]) -> None:
        """Append *rec*'s µops to *out* (the warp's issue deque).

        Appending into the caller's container rather than returning a
        fresh list avoids one allocation per dynamic instruction — the
        frontend's hottest rate.
        """
        raise NotImplementedError

    def _expand_common(
        self, warp: WarpCtx, rec: TraceRecord, out: Deque[Uop], extra: int
    ) -> None:
        """Records whose expansion is technique-independent.

        ALU, FPU, SFU, SMEM, BRANCH, BAR and EXIT records are decoded
        once per context: the first expansion builds the µop into
        :attr:`decoded`, and every later one, from any warp, appends that
        same object.  The plugin contract this rests on: a context's
        expansion of those kinds, the *extra* it passes included, may
        depend on the record and the context only, never on the warp,
        and has no side effects.  Per-warp state and counters belong to
        the CALL/RET/PUSH/POP branches of the subclass's :meth:`expand`.

        Global and local accesses are built per execution: a global
        record is one execution's coalesced sectors, so tabling it would
        only grow the table, and a local one is addressed per warp.  The
        ``Uop`` constructor is invoked directly on the global kinds: they
        are expanded once per dynamic instruction, and the extra call
        layer of ``mem_uop`` is measurable there.
        """
        kind = rec.kind
        if kind == TraceKind.GLOBAL_LD:
            out.append(
                Uop(_MEM, 1, rec.dst, rec.srcs, rec.sectors, STREAM_GLOBAL,
                    False, "GLOBAL_LD")
            )
        elif kind == TraceKind.GLOBAL_ST:
            out.append(
                Uop(_MEM, 1, (), rec.srcs, rec.sectors, STREAM_GLOBAL,
                    True, "GLOBAL_ST")
            )
        elif kind == TraceKind.LOCAL_LD:
            out.append(
                mem_uop(warp.local_sectors(rec.local_offset), STREAM_LOCAL,
                        False, rec.dst, (), "LOCAL_LD")
            )
        elif kind == TraceKind.LOCAL_ST:
            out.append(
                mem_uop(warp.local_sectors(rec.local_offset), STREAM_LOCAL,
                        True, (), rec.srcs, "LOCAL_ST")
            )
        else:
            uop = self.decoded.get(rec)
            if uop is None:
                uop = self.decoded[rec] = self._decode(rec, extra)
            out.append(uop)

    def _decode(self, rec: TraceRecord, extra: int) -> Uop:
        """The one µop of a decoded-kind record (see :meth:`_expand_common`)."""
        cfg = self.config
        kind = rec.kind
        if kind == TraceKind.BRANCH:
            return ctrl_uop(cfg.ctrl_latency + extra)
        if kind == TraceKind.BAR:
            return bar_uop()
        if kind == TraceKind.EXIT:
            return exit_uop()
        latency = {
            TraceKind.ALU: cfg.alu_latency,
            TraceKind.FPU: cfg.fpu_latency,
            TraceKind.SFU: cfg.sfu_latency,
            TraceKind.SMEM: cfg.smem_latency,
        }.get(kind)
        if latency is None:
            raise ValueError(f"unexpected record kind {kind!r}")
        return exec_uop(latency + extra, rec.dst, rec.srcs, kind.name)


class BaselineContext(LaunchContext):
    """Contemporary ABI: spills/fills are local-memory instructions."""

    def scheduler_regs_per_warp(self) -> int:
        # The linker's worst-case register usage over the call graph.
        return self.trace.regs_per_warp_baseline

    def expand(self, warp: WarpCtx, rec: TraceRecord, out: Deque[Uop]) -> None:
        kind = rec.kind
        stats = self.stats
        if kind == TraceKind.CALL:
            stats.calls += 1
            warp.frame_starts.append(warp.spill_depth)
            warp.spill_depth += rec.push_count
            out.append(ctrl_uop(self.config.ctrl_latency, "CALL"))
        elif kind == TraceKind.RET:
            stats.returns += 1
            if rec.frame_release and warp.frame_starts:
                warp.spill_depth = warp.frame_starts.pop()
            out.append(ctrl_uop(self.config.ctrl_latency, "RET"))
        elif kind == TraceKind.PUSH:
            stats.pushes += 1
            stats.push_regs += rec.reg_count
            start = warp.frame_starts[-1] if warp.frame_starts else 0
            for i in range(rec.reg_count):
                out.append(
                    Uop(_MEM, 1, (), (rec.srcs[i],),
                        warp.spill_sectors(start + i),
                        STREAM_SPILL, True, "SPILL_ST")
                )
        elif kind == TraceKind.POP:
            stats.pops += 1
            stats.pop_regs += rec.reg_count
            start = warp.frame_starts[-1] if warp.frame_starts else 0
            for i in range(rec.reg_count):
                out.append(
                    Uop(_MEM, 1, (rec.dst[i],), (),
                        warp.spill_sectors(start + i),
                        STREAM_SPILL, False, "SPILL_LD")
                )
        else:
            self._expand_common(warp, rec, out, extra=0)


class CarsContext(LaunchContext):
    """CARS: in-register stacks with renaming, traps, and dynamic policy."""

    manages_registers = True

    def __init__(
        self,
        trace: KernelTrace,
        config: GPUConfig,
        stats: SimStats,
        analysis: KernelStackAnalysis,
        mode: str = "dynamic",
        policy_memory: Optional[PolicyMemory] = None,
    ) -> None:
        self.analysis = analysis
        self.mode = mode
        super().__init__(trace, config, stats)
        self.plan = plan_allocation(
            analysis, config, self.warps_per_block, trace.shared_mem_bytes
        )
        self.policy: Optional[DynamicReservationPolicy] = None
        self._static_regs: Optional[int] = None
        if mode == "dynamic":
            if self.plan.dynamic:
                self.policy = DynamicReservationPolicy(
                    trace.kernel, self.plan.levels, config.num_sms,
                    policy_memory,
                    min_samples=config.cars_policy_min_samples,
                )
            else:
                self._static_regs = self.plan.levels[self.plan.static_level]
        elif mode == "low":
            self._static_regs = analysis.low_watermark
        elif mode == "high":
            self._static_regs = analysis.high_watermark
        elif mode.startswith("nxlow"):
            n = int(mode[len("nxlow"):])
            self._static_regs = analysis.nxlow_watermark(n)
        else:
            raise ValueError(f"unknown CARS mode {mode!r}")
        if not analysis.has_calls:
            # Function-free programs are untouched by CARS.
            self._static_regs = analysis.kernel_fru
            self.policy = None

    def scheduler_regs_per_warp(self) -> int:
        # The global block scheduler is unmodified: it sees the kernel's own
        # frame (embedded in the launch parameters, Section IV-A); extra
        # stack space is claimed inside the SM, stalling overflow warps.
        return self.analysis.kernel_fru

    def stack_level_for_block(self, sm_id: int) -> Tuple[int, int]:
        if self.policy is not None:
            level = self.policy.level_for_new_block(sm_id)
            regs = self.policy.regs_for_level(level)
        else:
            level = 0
            # __init__ guarantees exactly one of policy/_static_regs is set.
            assert self._static_regs is not None
            regs = self._static_regs
        regs = max(regs, self.analysis.kernel_fru)
        self.stats.allocation_log.append((self.trace.kernel, level, regs))
        return level, regs

    def attach_warp(self, warp: WarpCtx, regs_per_warp: int) -> None:
        stack_capacity = max(0, regs_per_warp - self.analysis.kernel_fru)
        warp.cars = WarpRegisterStack(stack_capacity)

    def block_done(self, sm_id: int, level: int, runtime: int) -> None:
        if self.policy is not None:
            self.policy.record_block(sm_id, level, runtime)

    def finalize(self) -> None:
        if self.policy is not None:
            self.policy.finalize()

    # -- expansion -------------------------------------------------------

    def expand(self, warp: WarpCtx, rec: TraceRecord, out: Deque[Uop]) -> None:
        cfg = self.config
        stats = self.stats
        extra = cfg.cars_extra_pipeline_cycles
        kind = rec.kind
        if kind == TraceKind.CALL:
            stats.calls += 1
            out.append(ctrl_uop(cfg.ctrl_latency + extra, "CALL"))
            stack = warp.cars
            assert stack is not None  # attach_warp ran at allocation
            spilled = stack.call(rec.fru)
            if spilled:
                stats.traps += 1
                for start, count in spilled:
                    stats.trap_spilled_regs += count
                    for i in range(count):
                        out.append(
                            mem_uop(
                                warp.trap_sectors(start + i),
                                STREAM_SPILL,
                                True,
                                (),
                                (),
                                "SPILL_ST",
                            )
                        )
        elif kind == TraceKind.RET:
            stats.returns += 1
            out.append(ctrl_uop(cfg.ctrl_latency + extra, "RET"))
            if rec.frame_release:
                stack = warp.cars
                assert stack is not None  # attach_warp ran at allocation
                filled = stack.ret()
                if filled is not None:
                    start, count = filled
                    stats.trap_filled_regs += count
                    # The caller cannot proceed until its frame is back in
                    # the register file: the last fill blocks the warp.
                    for i in range(count):
                        out.append(
                            mem_uop(
                                warp.trap_sectors(start + i),
                                STREAM_SPILL,
                                False,
                                (),
                                (),
                                "SPILL_LD",
                                blocking=i == count - 1,
                            )
                        )
        elif kind == TraceKind.PUSH:
            stats.pushes += 1
            stats.push_regs += rec.reg_count
            out.append(
                Uop(_EXEC, cfg.stack_op_latency + extra, (), rec.srcs, mix="STACK")
            )
        elif kind == TraceKind.POP:
            stats.pops += 1
            stats.pop_regs += rec.reg_count
            out.append(
                Uop(_EXEC, cfg.stack_op_latency + extra, rec.dst, (), mix="STACK")
            )
        else:
            # The added issue/operand-collector stage is charged to the ops
            # whose paths CARS modifies (calls, stack ops, branches through
            # the SIMT stack).  Plain ALU dependency chains keep their
            # baseline latency — the paper itself argues the renaming mux
            # "is unlikely to affect the SM's critical path" (Section IV-C).
            self._expand_common(
                warp, rec, out,
                extra=extra if kind == TraceKind.BRANCH else 0,
            )


# ---------------------------------------------------------------------------
# The pluggable ABI-model protocol
# ---------------------------------------------------------------------------


class AbiModel:
    """Context factory plus capability flags for one ABI mechanism.

    A :class:`Technique` holds one of these instead of branching on an
    ``abi`` string, so new register-pressure mechanisms plug in without
    editing this module: subclass, implement :meth:`make_context`, then
    :func:`register_abi_model` the name and :func:`register_technique`
    the arms built on it (see ``repro.spill`` for two worked examples).
    """

    #: Registry name; also what ``Technique.abi`` normalizes to.
    name: ClassVar[str] = "abstract"
    #: True when :meth:`make_context` needs a per-kernel
    #: :class:`KernelStackAnalysis` (the harness builds the call graph
    #: only for techniques that ask for it).
    requires_analysis: ClassVar[bool] = False

    def make_context(
        self,
        trace: KernelTrace,
        config: GPUConfig,
        stats: SimStats,
        analysis: Optional[KernelStackAnalysis] = None,
        policy_memory: Optional[PolicyMemory] = None,
    ) -> LaunchContext:
        raise NotImplementedError

    def _require_analysis(
        self, analysis: Optional[KernelStackAnalysis]
    ) -> KernelStackAnalysis:
        if analysis is None:
            raise ValueError(
                f"{type(self).__name__} requires a call-graph analysis"
            )
        return analysis


@dataclass(frozen=True)
class BaselineAbi(AbiModel):
    """Contemporary ABI: spills/fills are local-memory instructions."""

    name: ClassVar[str] = "baseline"

    def make_context(
        self,
        trace: KernelTrace,
        config: GPUConfig,
        stats: SimStats,
        analysis: Optional[KernelStackAnalysis] = None,
        policy_memory: Optional[PolicyMemory] = None,
    ) -> LaunchContext:
        return BaselineContext(trace, config, stats)


@dataclass(frozen=True)
class CarsAbi(AbiModel):
    """CARS register stacks at one reservation mode."""

    mode: str = "dynamic"

    name: ClassVar[str] = "cars"
    requires_analysis: ClassVar[bool] = True

    def make_context(
        self,
        trace: KernelTrace,
        config: GPUConfig,
        stats: SimStats,
        analysis: Optional[KernelStackAnalysis] = None,
        policy_memory: Optional[PolicyMemory] = None,
    ) -> LaunchContext:
        if analysis is None:
            # Preserved verbatim: callers catch this exact message.
            raise ValueError("CARS requires a call-graph analysis")
        return CarsContext(
            trace, config, stats, analysis, self.mode, policy_memory
        )


#: ``abi`` string -> model factory (receives the owning Technique, so
#: factories can read knobs like ``cars_mode``).  ``"baseline"`` and
#: ``"cars"`` are the compatibility aliases the pre-plugin API accepted.
ABI_MODELS: Dict[str, Callable[["Technique"], AbiModel]] = {}


def register_abi_model(
    name: str,
    factory: Callable[["Technique"], AbiModel],
    *,
    replace: bool = False,
) -> None:
    """Make ``Technique(abi=name)`` resolve to *factory*'s model."""
    if name in ABI_MODELS and not replace:
        raise ValueError(
            f"ABI model {name!r} is already registered "
            f"(pass replace=True to override)"
        )
    ABI_MODELS[name] = factory


register_abi_model("baseline", lambda technique: BaselineAbi())
register_abi_model("cars", lambda technique: CarsAbi(technique.cars_mode))


@dataclass(frozen=True)
class Technique:
    """A named (config transform, binary choice, ABI model) bundle.

    ``abi`` accepts either a registered ABI-model name (``"baseline"``,
    ``"cars"``, ``"regdem"``, ``"rfcache"``, …) or an :class:`AbiModel`
    instance; it is normalized to the model's name, and the model itself
    lands on :attr:`model`.
    """

    name: str
    abi: Union[str, AbiModel] = "baseline"
    use_inlined: bool = False
    cars_mode: str = "dynamic"
    config_fn: Optional[Callable[[GPUConfig], GPUConfig]] = None
    model: AbiModel = dataclasses.field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if isinstance(self.abi, AbiModel):
            model = self.abi
            object.__setattr__(self, "abi", model.name)
        else:
            factory = ABI_MODELS.get(self.abi)
            if factory is None:
                raise ValueError(
                    f"unknown ABI model {self.abi!r} "
                    f"(registered: {', '.join(sorted(ABI_MODELS))})"
                )
            model = factory(self)
        object.__setattr__(self, "model", model)

    @property
    def requires_analysis(self) -> bool:
        """Whether the harness must build a call-graph analysis."""
        return self.model.requires_analysis

    def adjust_config(self, config: GPUConfig) -> GPUConfig:
        return self.config_fn(config) if self.config_fn else config

    def make_context(
        self,
        trace: KernelTrace,
        config: GPUConfig,
        stats: SimStats,
        analysis: Optional[KernelStackAnalysis] = None,
        policy_memory: Optional[PolicyMemory] = None,
    ) -> LaunchContext:
        return self.model.make_context(
            trace, config, stats, analysis, policy_memory
        )


# ---------------------------------------------------------------------------
# Registration: fixed names and parametric families
# ---------------------------------------------------------------------------

#: The registered fixed techniques, by name.  Mutate through
#: :func:`register_technique`, not directly.
TECHNIQUE_REGISTRY: Dict[str, Technique] = {}


@dataclass(frozen=True)
class TechniqueFamily:
    """A parametric technique family (``swl_<n>``, ``cars_nxlow<n>``, …).

    ``factory`` receives the name's suffix after ``prefix`` and returns
    the reconstructed :class:`Technique`; a :class:`ValueError` from it
    means "suffix not mine" and resolution moves on.
    """

    prefix: str
    factory: Callable[[str], Technique]
    pattern: str


#: Registered parametric families, by prefix.
TECHNIQUE_FAMILIES: Dict[str, TechniqueFamily] = {}


def register_technique(technique: Technique, *, replace: bool = False) -> Technique:
    """Add *technique* to :data:`TECHNIQUE_REGISTRY` and return it.

    Registering the same object again is a no-op; a *different* technique
    under an existing name raises unless ``replace=True`` (collisions are
    almost always a plugin bug, not an intent).
    """
    existing = TECHNIQUE_REGISTRY.get(technique.name)
    if existing is not None and existing is not technique and not replace:
        raise ValueError(
            f"technique {technique.name!r} is already registered "
            f"(pass replace=True to override)"
        )
    TECHNIQUE_REGISTRY[technique.name] = technique
    return technique


def register_technique_family(
    prefix: str,
    factory: Callable[[str], Technique],
    *,
    pattern: Optional[str] = None,
    replace: bool = False,
) -> None:
    """Make :func:`resolve_technique` reconstruct ``<prefix><suffix>`` names.

    Families make parametric arms resolvable across process boundaries:
    the executor ships bare names, and any worker that imported the
    registering module rebuilds the technique from the suffix.
    """
    if prefix in TECHNIQUE_FAMILIES and not replace:
        raise ValueError(
            f"technique family {prefix!r} is already registered "
            f"(pass replace=True to override)"
        )
    TECHNIQUE_FAMILIES[prefix] = TechniqueFamily(
        prefix=prefix,
        factory=factory,
        pattern=pattern if pattern is not None else f"{prefix}<n>",
    )


def parse_family_int(suffix: str) -> int:
    """Parse a family-name suffix as a canonical decimal integer.

    Family names are store keys, so they must be canonical: ``swl_8``
    parses, while trailing or leading garbage (``8x``, ``08``, ``+8``,
    `` 8``, ``8_0``, unicode digits) raises :class:`ValueError` so that
    :func:`resolve_technique` falls through to
    :class:`~repro.resilience.errors.UnknownTechniqueError` instead of
    silently truncating the name.  ``int()`` alone is too permissive
    here — it strips whitespace and accepts signs and underscores.
    """
    if not (suffix.isascii() and suffix.isdigit()):
        raise ValueError(f"non-canonical family suffix {suffix!r}")
    if len(suffix) > 1 and suffix[0] == "0":
        raise ValueError(f"non-canonical family suffix {suffix!r}")
    return int(suffix)


def list_techniques() -> List[str]:
    """Sorted names of every registered fixed technique."""
    return sorted(TECHNIQUE_REGISTRY)


def list_technique_families() -> List[str]:
    """Sorted display patterns of the registered parametric families."""
    return sorted(family.pattern for family in TECHNIQUE_FAMILIES.values())


def resolve_technique(name: str) -> Technique:
    """Look a technique up by name, including the parametric families.

    Techniques carry ``config_fn`` closures that cannot cross a process
    boundary, so the parallel executor ships *names* and workers resolve
    them here: fixed names come from :data:`TECHNIQUE_REGISTRY`, and
    family names (``swl_<n>``, ``cars_nxlow<n>``, ``regdem_<r>``, …) are
    reconstructed on demand via :data:`TECHNIQUE_FAMILIES`.

    Raises :class:`~repro.resilience.errors.UnknownTechniqueError` (a
    ``KeyError`` subclass) with did-you-mean suggestions otherwise.
    """
    technique = TECHNIQUE_REGISTRY.get(name)
    if technique is not None:
        return technique
    # Longest prefix first so e.g. "cars_nxlow2" never falls into a
    # hypothetical shorter "cars_" family.
    for prefix in sorted(TECHNIQUE_FAMILIES, key=len, reverse=True):
        if not name.startswith(prefix) or len(name) <= len(prefix):
            continue
        family = TECHNIQUE_FAMILIES[prefix]
        try:
            technique = family.factory(name[len(prefix):])
        except ValueError:
            continue  # suffix did not parse; try a shorter family
        if technique.name == name:
            return technique
    known = list_techniques() + list_technique_families()
    raise UnknownTechniqueError.for_name(name, known)


# -- the paper's studied configurations -------------------------------------

BASELINE = register_technique(Technique("baseline"))
IDEAL_VW = register_technique(
    Technique("ideal_vw", config_fn=lambda c: c.with_unlimited_occupancy())
)
L1_HUGE = register_technique(
    Technique("l1_10mb", config_fn=lambda c: c.with_l1_size(2 * 1024 * 1024))
)
ALL_HIT = register_technique(
    Technique("all_hit", config_fn=lambda c: c.with_force_hit())
)
LTO = register_technique(Technique("lto", use_inlined=True))
CARS = register_technique(Technique("cars", abi="cars"))
CARS_LOW = register_technique(
    Technique("cars_low", abi="cars", cars_mode="low")
)
CARS_HIGH = register_technique(
    Technique("cars_high", abi="cars", cars_mode="high")
)


def swl(limit: int) -> Technique:
    """Static Wavefront Limiter at a fixed warp count."""
    return Technique(
        f"swl_{limit}", config_fn=lambda c, l=limit: c.with_warp_limit(l)
    )


def cars_nxlow(n: int) -> Technique:
    """CARS pinned at the NxLow-watermark allocation."""
    return Technique(f"cars_nxlow{n}", abi="cars", cars_mode=f"nxlow{n}")


register_technique_family(
    "swl_", lambda suffix: swl(parse_family_int(suffix)), pattern="swl_<n>"
)
register_technique_family(
    "cars_nxlow",
    lambda suffix: cars_nxlow(parse_family_int(suffix)),
    pattern="cars_nxlow<n>",
)
