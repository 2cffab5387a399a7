"""Lightweight call-graph analysis: MaxStackDepth and watermarks (Fig 4).

For every node the compiler computes FRU (extra registers pushed on entry)
and *MaxStackDepth* — the maximum register demand along any path from that
node to a leaf.  From these, three per-kernel allocation watermarks follow
(Section III-B):

* **Low-watermark** — kernel frame + the largest single-function FRU, i.e.
  enough stack for at least one call.
* **High-watermark** — the kernel's MaxStackDepth: enough stack for the
  deepest acyclic chain, eliminating all spills/fills for non-recursive
  code.
* **NxLow-watermark** — kernel frame + N x the Low-watermark stack space,
  the middle ground the dynamic policy walks between the two.

Recursive components are assumed to iterate once (Section III-C), so
High-watermark does not guarantee zero traffic for recursive kernels.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from .graph import CallGraph


@dataclass(frozen=True)
class KernelStackAnalysis:
    """Static analysis results for one kernel.

    Attributes:
        kernel: kernel name.
        kernel_fru: the root frame (all temporaries + globals of the kernel).
        max_fru: largest FRU among reachable device functions (0 if none).
        max_stack_depth: registers demanded by the deepest call chain,
            including the kernel frame (the paper's MaxStackDepth of the
            root node).
        cyclic: True when the reachable subgraph contains recursion.
        has_calls: False for call-free kernels (CARS leaves these alone).
    """

    kernel: str
    kernel_fru: int
    max_fru: int
    max_stack_depth: int
    cyclic: bool
    has_calls: bool

    @property
    def low_watermark(self) -> int:
        """Registers/warp for at least one in-register call frame."""
        return self.kernel_fru + self.max_fru

    @property
    def high_watermark(self) -> int:
        """Registers/warp to keep the deepest acyclic chain resident."""
        return self.max_stack_depth

    def nxlow_watermark(self, n: int) -> int:
        """Registers/warp for N stacked worst-case frames (capped at high)."""
        if n < 1:
            raise ValueError(f"N must be >= 1, got {n}")
        demand = self.kernel_fru + n * self.max_fru
        return min(demand, self.high_watermark) if self.has_calls else self.kernel_fru

    def allocation_levels(self) -> List[int]:
        """The ladder of register/warp allocations the dynamic policy walks.

        Level 0 is Low-watermark; each next level doubles the stack space
        (2xLow, 4xLow, ...) until High-watermark caps the ladder.
        """
        if not self.has_calls:
            return [self.kernel_fru]
        levels = [self.low_watermark]
        n = 2
        while levels[-1] < self.high_watermark:
            levels.append(self.nxlow_watermark(n))
            n *= 2
        return levels

    def stack_regs(self, regs_per_warp: int) -> int:
        """Register-stack space at a given per-warp allocation."""
        return max(0, regs_per_warp - self.kernel_fru)


def max_stack_depth(graph: CallGraph, node: str) -> int:
    """The paper's MaxStackDepth: max register demand on any path to a leaf.

    The heaviest chain of FRUs from *node*, one iteration per recursive
    cycle (:meth:`CallGraph.heaviest_chain`).
    """
    return graph.heaviest_chain(node, graph.fru)


def analyze_kernel(graph: CallGraph, kernel: str) -> KernelStackAnalysis:
    """Run the full lightweight analysis for one kernel."""
    if kernel not in graph.edges:
        raise KeyError(f"unknown kernel {kernel!r}")
    reachable = graph.reachable(kernel)
    devices = sorted(reachable - {kernel})
    max_fru = max((graph.fru[d] for d in devices), default=0)
    return KernelStackAnalysis(
        kernel=kernel,
        kernel_fru=graph.fru[kernel],
        max_fru=max_fru,
        max_stack_depth=max_stack_depth(graph, kernel),
        cyclic=graph.is_cyclic(kernel),
        has_calls=bool(graph.callees(kernel)) or any(graph.callees(d) for d in devices),
    )


def analyze_module_kernels(graph: CallGraph) -> Dict[str, KernelStackAnalysis]:
    """Analysis for every kernel in the graph."""
    return {k: analyze_kernel(graph, k) for k in graph.kernels}
