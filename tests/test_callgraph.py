"""Call-graph analysis tests, including the paper's Fig 4 example."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.callgraph import (
    CallGraph,
    KernelStackAnalysis,
    analyze_kernel,
    analyze_module_kernels,
    build_call_graph,
    max_stack_depth,
)
from repro.frontend import builder as b


def graph_from(edges, fru, kernels=("k",)):
    g = CallGraph()
    g.edges = {n: set(t) for n, t in edges.items()}
    for node in fru:
        g.edges.setdefault(node, set())
    g.fru = dict(fru)
    g.kernels = tuple(kernels)
    return g


class TestFig4Example:
    """The paper's worked example: Low-watermark = 30, High-watermark = 56.

    Kernel FRU = 20; the largest single function FRU = 10; the heaviest
    root-to-leaf chain demands 56 registers.
    """

    def setup_method(self):
        self.graph = graph_from(
            edges={
                "k": {"f1", "f2"},
                "f1": {"f3"},
                "f2": {"f3", "f4"},
                "f3": set(),
                "f4": {"f5"},
                "f5": set(),
            },
            fru={"k": 20, "f1": 8, "f2": 10, "f3": 9, "f4": 10, "f5": 6},
        )

    def test_max_stack_depth_is_heaviest_chain(self):
        # k(20) + f2(10) + f4(10) + f5(6) = 46; vs k+f2+f3 = 39; k+f1+f3=37.
        assert max_stack_depth(self.graph, "k") == 46

    def test_low_watermark(self):
        analysis = analyze_kernel(self.graph, "k")
        assert analysis.low_watermark == 20 + 10

    def test_high_watermark_equals_max_stack_depth(self):
        analysis = analyze_kernel(self.graph, "k")
        assert analysis.high_watermark == 46

    def test_nxlow_is_capped_at_high(self):
        analysis = analyze_kernel(self.graph, "k")
        assert analysis.nxlow_watermark(2) == 40
        assert analysis.nxlow_watermark(3) == 46  # capped
        assert analysis.nxlow_watermark(100) == 46

    def test_allocation_levels_ladder(self):
        analysis = analyze_kernel(self.graph, "k")
        levels = analysis.allocation_levels()
        assert levels[0] == analysis.low_watermark
        assert levels[-1] == analysis.high_watermark
        assert levels == sorted(levels)

    def test_nxlow_requires_positive_n(self):
        analysis = analyze_kernel(self.graph, "k")
        with pytest.raises(ValueError):
            analysis.nxlow_watermark(0)


class TestRecursion:
    def test_cycle_detected(self):
        g = graph_from({"k": {"f"}, "f": {"f"}}, {"k": 10, "f": 4})
        assert analyze_kernel(g, "k").cyclic

    def test_mutual_recursion_detected(self):
        g = graph_from(
            {"k": {"a"}, "a": {"b"}, "b": {"a"}},
            {"k": 10, "a": 3, "b": 4},
        )
        assert analyze_kernel(g, "k").cyclic

    def test_recursive_depth_counts_one_iteration(self):
        # Section III-C: assume one iteration of recursive components.
        g = graph_from({"k": {"f"}, "f": {"f"}}, {"k": 10, "f": 4})
        assert max_stack_depth(g, "k") == 14

    def test_acyclic_not_flagged(self):
        g = graph_from({"k": {"f"}, "f": set()}, {"k": 10, "f": 4})
        assert not analyze_kernel(g, "k").cyclic

    def test_mutual_recursion_one_iteration_each(self):
        # One iteration of the component means each member's frame is
        # counted once on the worst chain: k -> a -> b (b's edge back to
        # a is cut by the path set).
        g = graph_from(
            {"k": {"a"}, "a": {"b"}, "b": {"a"}},
            {"k": 10, "a": 3, "b": 4},
        )
        assert max_stack_depth(g, "k") == 17
        assert g.max_call_depth("k") == 2

    def test_recursive_callee_shared_by_two_kernels(self):
        # The same recursive device function reachable from two kernels:
        # each kernel's analysis is independent and both see the cycle.
        g = graph_from(
            {"k1": {"f"}, "k2": {"g"}, "g": {"f"}, "f": {"f"}},
            {"k1": 10, "k2": 20, "g": 2, "f": 4},
            kernels=("k1", "k2"),
        )
        a1, a2 = analyze_kernel(g, "k1"), analyze_kernel(g, "k2")
        assert a1.cyclic and a2.cyclic
        assert a1.max_stack_depth == 14
        assert a2.max_stack_depth == 26

    def test_self_recursive_kernel(self):
        g = graph_from({"k": {"k"}}, {"k": 10})
        assert analyze_kernel(g, "k").cyclic
        assert max_stack_depth(g, "k") == 10


class TestSccs:
    def test_components_and_order(self):
        g = graph_from(
            {"k": {"a"}, "a": {"b"}, "b": {"a", "c"}, "c": set()},
            {"k": 1, "a": 1, "b": 1, "c": 1},
        )
        comps = g.sccs()
        assert {frozenset({"a", "b"}), frozenset({"c"}),
                frozenset({"k"})} == set(comps)
        # Reverse topological: callees appear before their callers.
        assert comps.index(frozenset({"c"})) < comps.index(
            frozenset({"a", "b"}))
        assert comps.index(frozenset({"a", "b"})) < comps.index(
            frozenset({"k"}))

    def test_self_loop_is_trivial_component(self):
        # A self-caller forms a singleton SCC; the self-edge (not the
        # component size) is what marks it recursive.
        g = graph_from({"k": {"f"}, "f": {"f"}}, {"k": 1, "f": 1})
        assert frozenset({"f"}) in g.sccs()
        assert g.cycle_nodes() == {"f"}

    def test_nodes_includes_call_only_targets(self):
        g = CallGraph(edges={"k": {"ghost"}}, fru={"k": 1})
        assert g.nodes() == {"k", "ghost"}


class TestRecursionBounds:
    def test_builder_bound_reaches_graph(self):
        prog = b.program()
        b.device(prog, "fact", ["n"], [
            b.if_(b.v("n") < 2,
                  [b.ret(b.c(1))],
                  [b.ret(b.call("fact", b.v("n") - 1) * b.v("n"))]),
        ], recursion_bound=6)
        b.kernel(prog, "main", ["d"], [
            b.store(b.v("d"), b.call("fact", b.load(b.v("d")))),
        ])
        graph = build_call_graph(b.compile(prog))
        assert graph.recursion_bounds["fact"] == 6
        assert graph.recursion_bounds["main"] is None

    def test_bound_survives_inlining(self):
        from repro.frontend.inliner import inline_program
        from repro.frontend import compile_program

        prog = b.program()
        b.device(prog, "fact", ["n"], [
            b.if_(b.v("n") < 2,
                  [b.ret(b.c(1))],
                  [b.ret(b.call("fact", b.v("n") - 1) * b.v("n"))]),
        ], recursion_bound=6)
        b.kernel(prog, "main", ["d"], [
            b.store(b.v("d"), b.call("fact", b.load(b.v("d")))),
        ])
        graph = build_call_graph(compile_program(inline_program(prog)))
        # The inliner keeps recursive functions; the bound must ride along.
        assert graph.recursion_bounds["fact"] == 6


class TestCallFreeKernels:
    def test_no_calls_analysis(self):
        g = graph_from({"k": set()}, {"k": 24})
        analysis = analyze_kernel(g, "k")
        assert not analysis.has_calls
        assert analysis.low_watermark == 24  # max_fru is 0
        assert analysis.allocation_levels() == [24]
        assert analysis.nxlow_watermark(4) == 24


class TestGraphBuilding:
    def _module(self):
        prog = b.program()
        b.device(prog, "leaf", ["x"], [b.ret(b.v("x") + 1)], reg_pressure=4)
        b.device(prog, "mid", ["x"], [
            b.ret(b.call("leaf", b.v("x")) + 1),
        ], reg_pressure=2)
        b.device(prog, "va", ["x"], [b.ret(b.v("x"))], reg_pressure=3)
        b.device(prog, "vb", ["x"], [b.ret(b.v("x") * 2)], reg_pressure=5)
        b.kernel(prog, "main", ["d"], [
            b.let("r", b.call("mid", b.load(b.v("d")))),
            b.let("s", b.icall(["va", "vb"], b.v("r"), b.v("r"))),
            b.store(b.v("d"), b.v("s")),
        ])
        return b.compile(prog)

    def test_edges_from_compiled_module(self):
        graph = build_call_graph(self._module())
        assert graph.edges["main"] == {"mid", "va", "vb"}
        assert graph.edges["mid"] == {"leaf"}
        assert graph.kernels == ("main",)

    def test_indirect_sites_use_max_register_candidate(self):
        """Section III-C case 3: the analysis covers every candidate, so the
        heaviest one dominates MaxStackDepth through the max()."""
        graph = build_call_graph(self._module())
        analysis = analyze_kernel(graph, "main")
        # vb has more pressure than va; the chain mid->leaf competes too.
        vb_chain = graph.fru["main"] + graph.fru["vb"]
        mid_chain = graph.fru["main"] + graph.fru["mid"] + graph.fru["leaf"]
        assert analysis.max_stack_depth == max(vb_chain, mid_chain)

    def test_fru_matches_compiled_functions(self):
        module = self._module()
        graph = build_call_graph(module)
        for name, func in module.functions.items():
            assert graph.fru[name] == func.fru

    def test_analyze_module_kernels(self):
        graph = build_call_graph(self._module())
        result = analyze_module_kernels(graph)
        assert set(result) == {"main"}
        assert isinstance(result["main"], KernelStackAnalysis)

    def test_unknown_kernel_raises(self):
        graph = build_call_graph(self._module())
        with pytest.raises(KeyError):
            analyze_kernel(graph, "ghost")

    def test_max_call_depth(self):
        graph = build_call_graph(self._module())
        assert graph.max_call_depth("main") == 2  # main -> mid -> leaf

    def test_reachable(self):
        graph = build_call_graph(self._module())
        assert graph.reachable("mid") == {"mid", "leaf"}


# ---------------------------------------------------------------------------
# The one walk against brute force


_NAMES = [f"n{i}" for i in range(8)]


@st.composite
def small_graphs(draw):
    """Up to 7 defined functions with any edges (self-loops and mutual
    recursion included), plus one callee that is never defined."""
    size = draw(st.integers(1, 7))
    names = _NAMES[:size]
    targets = st.lists(st.sampled_from(_NAMES[:size + 1]), unique=True)
    graph = CallGraph(
        edges={name: set(draw(targets)) for name in names},
        fru={name: draw(st.integers(0, 12)) for name in names},
        kernels=(names[0],),
    )
    return graph, draw(st.sampled_from(names))


def _heaviest_simple_path(graph, root, weight):
    """Most total weight over every simple path that starts at *root*."""
    best = None

    def walk(node, path, total):
        nonlocal best
        best = total if best is None else max(best, total)
        for callee in graph.callees(node):
            if callee not in path:
                walk(callee, path | {callee}, total + weight(callee))

    walk(root, {root}, weight(root))
    return best


def _reaches_a_cycle(graph, root):
    return any(
        node in graph.reachable(callee)
        for node in graph.reachable(root)
        for callee in graph.callees(node)
    )


class TestOneWalk:
    @settings(max_examples=300, deadline=None)
    @given(small_graphs(), st.dictionaries(
        st.sampled_from(_NAMES), st.integers(-20, 20)))
    def test_walk_equals_brute_force_enumeration(self, case, weights):
        graph, root = case
        assert max_stack_depth(graph, root) == _heaviest_simple_path(
            graph, root, lambda name: graph.fru.get(name, 0))
        assert graph.max_call_depth(root) == _heaviest_simple_path(
            graph, root, lambda name: 1) - 1
        assert graph.heaviest_chain(root, weights) == _heaviest_simple_path(
            graph, root, lambda name: weights.get(name, 0))
        assert graph.is_cyclic(root) == _reaches_a_cycle(graph, root)
