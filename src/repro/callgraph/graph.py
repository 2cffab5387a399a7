"""Call-graph construction from a linked module.

Reproduces the information the paper extracts with ``nvlink
--dump-callgraph`` plus SASS/ELF static analysis (Section V-C): nodes are
functions annotated with their FRU; edges are static call sites (indirect
sites contribute one edge per candidate target).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Mapping, Optional, Set, Tuple

from ..isa.program import Module


@dataclass
class CallGraph:
    """Static call graph for one linked module.

    Attributes:
        edges: caller -> set of possible callees.
        fru: Function Register Usage per node.
        kernels: the ``__global__`` roots.
        recursion_bounds: declared per-function activation bounds (None =
            unknown), consumed by the interprocedural analysis.
    """

    edges: Dict[str, Set[str]] = field(default_factory=dict)
    fru: Dict[str, int] = field(default_factory=dict)
    kernels: Tuple[str, ...] = ()
    recursion_bounds: Dict[str, Optional[int]] = field(default_factory=dict)

    def callees(self, name: str) -> Set[str]:
        return self.edges.get(name, set())

    def nodes(self) -> Set[str]:
        """Every function that appears as a caller or a callee."""
        names: Set[str] = set(self.edges)
        for targets in self.edges.values():
            names |= targets
        return names

    def sccs(self) -> List[FrozenSet[str]]:
        """Strongly connected components (iterative Tarjan).

        Returned in reverse topological order (callees before callers),
        which is exactly the order a bottom-up DP over the condensation
        wants.  Trivial one-node components are included; whether a node
        is *recursive* additionally requires a self-edge (see
        :meth:`cycle_nodes`).
        """
        index: Dict[str, int] = {}
        lowlink: Dict[str, int] = {}
        on_stack: Set[str] = set()
        stack: List[str] = []
        components: List[FrozenSet[str]] = []
        counter = [0]

        def strongconnect(root: str) -> None:
            # Explicit work stack: (node, iterator over callees) frames.
            work: List[Tuple[str, List[str]]] = []
            index[root] = lowlink[root] = counter[0]
            counter[0] += 1
            stack.append(root)
            on_stack.add(root)
            work.append((root, sorted(self.callees(root))))
            while work:
                node, todo = work[-1]
                advanced = False
                while todo:
                    child = todo.pop()
                    if child not in index:
                        index[child] = lowlink[child] = counter[0]
                        counter[0] += 1
                        stack.append(child)
                        on_stack.add(child)
                        work.append((child, sorted(self.callees(child))))
                        advanced = True
                        break
                    if child in on_stack:
                        lowlink[node] = min(lowlink[node], index[child])
                if advanced:
                    continue
                work.pop()
                if work:
                    parent = work[-1][0]
                    lowlink[parent] = min(lowlink[parent], lowlink[node])
                if lowlink[node] == index[node]:
                    members: Set[str] = set()
                    while True:
                        member = stack.pop()
                        on_stack.discard(member)
                        members.add(member)
                        if member == node:
                            break
                    components.append(frozenset(members))

        for name in sorted(self.nodes()):
            if name not in index:
                strongconnect(name)
        return components

    def reachable(self, root: str) -> Set[str]:
        seen = {root}
        stack = [root]
        while stack:
            node = stack.pop()
            for callee in self.callees(node):
                if callee not in seen:
                    seen.add(callee)
                    stack.append(callee)
        return seen

    def cycle_nodes(self) -> FrozenSet[str]:
        """Nodes on some cycle: members of a nontrivial SCC, or self-callers."""
        on_cycle: Set[str] = set()
        for component in self.sccs():
            if len(component) > 1:
                on_cycle |= component
        for name in self.nodes():
            if name in self.callees(name):
                on_cycle.add(name)
        return frozenset(on_cycle)

    def is_cyclic(self, root: str) -> bool:
        """True when the subgraph reachable from *root* contains a cycle."""
        return not self.cycle_nodes().isdisjoint(self.reachable(root))

    def heaviest_chain(self, root: str, weight: Mapping[str, int]) -> int:
        """Most total *weight* (0 for a node it omits) on a call chain
        from *root*.

        Recursive cycles contribute one iteration (each function counted
        once per chain), the paper's treatment of recursion (Section
        III-C).  A chain that leaves a strongly connected component never
        returns to it, so what a chain can still add depends only on its
        current node and the members of that node's component it has
        already visited.  The walk memoizes on exactly that pair: linear
        work on acyclic graphs however many paths they have, exponential
        only in the size of a recursive component.  It keeps its own
        stack, so deep chains never reach the interpreter's recursion
        limit.
        """
        component = {
            name: members for members in self.sccs() for name in members
        }
        memo: Dict[Tuple[str, FrozenSet[str]], int] = {}
        start = (root, frozenset({root}))
        stack = [start]
        while stack:
            state = stack[-1]
            if state in memo:
                stack.pop()
                continue
            name, visited = state
            inside = component.get(name, frozenset())
            children = [
                (callee, visited | {callee}) if callee in inside
                else (callee, frozenset({callee}))
                for callee in self.callees(name)
                if callee not in visited
            ]
            missing = [child for child in children if child not in memo]
            if missing:
                stack.extend(missing)
                continue
            best_child = max((memo[child] for child in children), default=0)
            memo[state] = weight.get(name, 0) + max(0, best_child)
            stack.pop()
        return memo[start]

    def max_call_depth(self, root: str) -> int:
        """Frames on the longest call chain below *root* (0 for a leaf
        kernel), one iteration per recursive cycle."""
        return self.heaviest_chain(root, dict.fromkeys(self.nodes() | {root}, 1)) - 1


def build_call_graph(module: Module) -> CallGraph:
    """Construct the call graph of a linked module."""
    graph = CallGraph()
    for func in module.functions.values():
        targets: Set[str] = set()
        for site in func.callees():
            targets.update(site)
        graph.edges[func.name] = targets
        graph.fru[func.name] = func.fru
        graph.recursion_bounds[func.name] = func.recursion_bound
    graph.kernels = tuple(f.name for f in module.kernels())
    return graph
