"""Link-time call-graph analysis (FRU, MaxStackDepth, watermarks).

One walk and one cycle test serve every static bound built on the call
graph.  :meth:`CallGraph.heaviest_chain` is the one-iteration walk
(Section III-C) under a per-node weight: FRUs give MaxStackDepth, one
per frame gives :meth:`CallGraph.max_call_depth`, and the linter's
CARS401 weighs each function's worst PUSH depth.
:meth:`CallGraph.cycle_nodes` (nontrivial SCCs plus self-callers) is the
one cycle test, read by :meth:`CallGraph.is_cyclic` and by the
interprocedural analysis in :mod:`repro.analysis.interproc`.
"""

from .graph import CallGraph, build_call_graph
from .analysis import (
    KernelStackAnalysis,
    analyze_kernel,
    analyze_module_kernels,
    max_stack_depth,
)

__all__ = [
    "CallGraph",
    "build_call_graph",
    "KernelStackAnalysis",
    "analyze_kernel",
    "analyze_module_kernels",
    "max_stack_depth",
]
