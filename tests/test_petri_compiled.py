"""Tests for the compiled bitmask net and the production columnar graph.

The differential tests are the contract of the engine: on every model of
``repro.dfs.examples`` (and a few hand-built nets) the graph
``build_reachability_graph`` returns must answer the whole marking-level
API -- states, successors, predecessors (in order), enabled sets,
deadlocks, frontier and property verdicts -- exactly like the explicit
oracle (``tests/oracles/reachability.py``), including under truncation.
Nets the engine cannot compile are refused.
"""

import pytest

from repro.dfs.examples import (
    conditional_comp_dfs,
    conditional_comp_sdfs,
    linear_pipeline,
    token_ring,
)
from repro.dfs.translation import to_compiled_net, to_petri_net
from repro.exceptions import CompilationError, SafenessOverflowError
from repro.petri.batch import ColumnarReachabilityGraph
from repro.petri.compiled import CompiledNet
from repro.petri.marking import Marking
from repro.petri.net import PetriNet
from repro.petri.reachability import build_reachability_graph
from repro.verification.checkers import (
    DeadlockQuery,
    PersistenceQuery,
    ReachQuery,
    SafenessQuery,
)

from oracles.compiled import explore_compiled, is_enabled
from oracles.reachability import explore


EXAMPLE_MODELS = [
    pytest.param(lambda: conditional_comp_dfs(comp_stages=1), id="conditional-dfs-1"),
    pytest.param(lambda: conditional_comp_dfs(comp_stages=2), id="conditional-dfs-2"),
    pytest.param(lambda: conditional_comp_sdfs(comp_stages=1), id="conditional-sdfs"),
    pytest.param(lambda: linear_pipeline(stages=3), id="linear-pipeline"),
    pytest.param(lambda: token_ring(registers=4, tokens=1), id="token-ring-4-1"),
    pytest.param(lambda: token_ring(registers=5, tokens=2), id="token-ring-5-2"),
]


def both_graphs(net, max_states=200000):
    explicit = explore(net, max_states=max_states)
    compiled = build_reachability_graph(net, max_states=max_states)
    assert isinstance(compiled, ColumnarReachabilityGraph)
    return explicit, compiled


def enabled(graph, marking):
    """Transitions enabled at *marking*, from the graph's edges."""
    return sorted({transition for transition, _ in graph.successors(marking)})


def hazard_net():
    net = PetriNet("hazard")
    net.add_place("g", tokens=1)
    net.add_place("g_done")
    net.add_place("p", tokens=1)
    net.add_place("q")
    net.add_transition("kill")
    net.add_transition("observe")
    net.add_arc("g", "kill")
    net.add_arc("kill", "g_done")
    net.add_arc("p", "observe")
    net.add_arc("observe", "q")
    net.add_read_arc("g", "observe")
    return net


class TestDifferentialExamples:
    @pytest.mark.parametrize("model", EXAMPLE_MODELS)
    def test_states_and_edges_identical(self, model):
        net = to_petri_net(model())
        explicit, compiled = both_graphs(net)
        assert explicit.states == compiled.states
        assert explicit.edge_count() == compiled.edge_count()
        assert not compiled.truncated
        for marking in explicit.states:
            assert enabled(explicit, marking) == enabled(compiled, marking)
            assert explicit.successors(marking) == compiled.successors(marking)
            assert explicit.predecessors(marking) == compiled.predecessors(marking)

    @pytest.mark.parametrize("model", EXAMPLE_MODELS)
    def test_deadlocks_and_property_verdicts_identical(
            self, model, exhaustive_on_both_graphs):
        net = to_petri_net(model())
        explicit, compiled = both_graphs(net)
        assert explicit.deadlocks() == compiled.deadlocks()
        explicit_outcomes, compiled_outcomes = exhaustive_on_both_graphs(
            net, [DeadlockQuery(), SafenessQuery(), PersistenceQuery()])
        for a, b in zip(explicit_outcomes, compiled_outcomes):
            assert a.holds == b.holds

        def strip(ws):
            return [{k: w[k] for k in ("marking", "fired", "disabled") if k in w}
                    for w in ws]
        assert strip(explicit_outcomes[2].witnesses) == \
            strip(compiled_outcomes[2].witnesses)

    @pytest.mark.parametrize("model", EXAMPLE_MODELS)
    def test_trace_lengths_identical(self, model):
        net = to_petri_net(model())
        explicit, compiled = both_graphs(net)
        for marking in explicit.states:
            assert len(explicit.trace_to(marking)) == len(compiled.trace_to(marking))

    def test_exclusion_pair_witnesses_identical(self, exhaustive_on_both_graphs):
        net = to_petri_net(conditional_comp_dfs(comp_stages=1))
        queries = [ReachQuery('$"{}" & $"{}"'.format(first, second))
                   for first, second in [("Mt_ctrl_1", "Mf_ctrl_1"),
                                         ("M_in_1", "M_out_1"),
                                         ("M_in_1", "M_in_0")]]
        for a, b in zip(*exhaustive_on_both_graphs(net, queries)):
            assert [w["marking"] for w in a.witnesses] == \
                [w["marking"] for w in b.witnesses]
            assert a.holds == b.holds

    def test_reach_witnesses_identical(self, exhaustive_on_both_graphs):
        net = to_petri_net(conditional_comp_dfs(comp_stages=1))
        queries = [ReachQuery(expression) for expression in
                   ['$"M_in_1"', '$"M_r1_1" & $"Mf_ctrl_1"',
                    'tokens(M_ctrl_1) >= 1 -> !$"C_cond_1"']]
        for a, b in zip(*exhaustive_on_both_graphs(net, queries)):
            assert [w["marking"] for w in a.witnesses] == \
                [w["marking"] for w in b.witnesses]
            assert [len(w["trace"]) for w in a.witnesses] == \
                [len(w["trace"]) for w in b.witnesses]
            assert a.holds == b.holds

    def test_persistence_hazard_witnesses_identical(
            self, exhaustive_on_both_graphs):
        [a], [b] = exhaustive_on_both_graphs(hazard_net(), [PersistenceQuery()])
        assert a.holds is False and b.holds is False
        assert a.witnesses[0]["fired"] == b.witnesses[0]["fired"] == "kill"
        assert a.witnesses[0]["disabled"] == b.witnesses[0]["disabled"] == "observe"


class TestTruncationParity:
    @pytest.mark.parametrize("max_states", [1, 2, 5, 17])
    def test_truncated_graphs_identical(self, max_states):
        net = to_petri_net(conditional_comp_dfs(comp_stages=1))
        explicit, compiled = both_graphs(net, max_states=max_states)
        assert explicit.truncated and compiled.truncated
        assert explicit.states == compiled.states
        assert explicit.frontier == compiled.frontier
        assert explicit.deadlocks() == compiled.deadlocks()
        assert explicit.edge_count() == compiled.edge_count()
        for marking in explicit.states:
            assert enabled(explicit, marking) == enabled(compiled, marking)
            assert explicit.successors(marking) == compiled.successors(marking)
            assert explicit.predecessors(marking) == compiled.predecessors(marking)


class TestCompiledNet:
    def test_encode_decode_roundtrip(self):
        compiled = to_compiled_net(token_ring(registers=4, tokens=1))
        initial = compiled.net.initial_marking()
        assert compiled.decode(compiled.encode(initial)) == initial

    def test_encode_rejects_multi_token_markings(self):
        compiled = to_compiled_net(linear_pipeline(stages=1))
        with pytest.raises(CompilationError):
            compiled.encode(Marking({"M_r0_1": 2}))

    def test_encode_rejects_unknown_places(self):
        compiled = to_compiled_net(linear_pipeline(stages=1))
        with pytest.raises(CompilationError):
            compiled.encode(Marking({"nonexistent": 1}))

    def test_weighted_arcs_are_not_compilable(self):
        net = PetriNet("weighted")
        net.add_place("p", tokens=1)
        net.add_place("q")
        net.add_transition("t")
        net.add_arc("p", "t", weight=2)
        net.add_arc("t", "q")
        with pytest.raises(CompilationError):
            CompiledNet.compile(net)

    def test_enabledness_matches_net(self):
        net = hazard_net()
        compiled = CompiledNet.compile(net)
        marking = net.initial_marking()
        state = compiled.encode(marking)
        for index, name in enumerate(compiled.transition_names):
            assert is_enabled(compiled, index, state) == net.is_enabled(name, marking)

    def test_overflow_is_detected(self):
        net = PetriNet("overflow")
        net.add_place("p", tokens=1)
        net.add_place("q", tokens=1)
        net.add_transition("t")
        net.add_arc("p", "t")
        net.add_arc("t", "q")  # q already marked: firing makes 2 tokens
        compiled = CompiledNet.compile(net)
        with pytest.raises(SafenessOverflowError):
            explore_compiled(compiled)

    def test_one_safe_net_annotation_from_translation(self):
        net = to_petri_net(linear_pipeline(stages=1))
        assert net.annotation["one_safe"] == "by-construction"


class TestRefusedNets:
    def test_multi_token_marking_is_refused(self):
        net = PetriNet("unsafe")
        net.add_place("src", tokens=2)
        net.add_place("sink")
        net.add_transition("move")
        net.add_arc("src", "move")
        net.add_arc("move", "sink")
        with pytest.raises(CompilationError, match="2 tokens in place 'src'"):
            build_reachability_graph(net)

    def test_weighted_arc_is_refused(self):
        net = PetriNet("weighted")
        net.add_place("p", tokens=1)
        net.add_place("q")
        net.add_transition("t")
        net.add_arc("p", "t", weight=2)
        net.add_arc("t", "q")
        with pytest.raises(CompilationError, match="has weight 2"):
            build_reachability_graph(net)

    def test_runtime_overflow_carries_its_trace(self):
        net = PetriNet("overflow")
        net.add_place("p", tokens=1)
        net.add_place("q", tokens=1)
        net.add_transition("t")
        net.add_arc("p", "t")
        net.add_arc("t", "q")
        with pytest.raises(SafenessOverflowError) as raised:
            build_reachability_graph(net)
        error = raised.value
        assert (error.transition, error.place, error.trace) == ("t", "q", ["t"])

    def test_forced_compiled_engine_raises(self):
        net = PetriNet("unsafe")
        net.add_place("src", tokens=2)
        net.add_place("sink")
        net.add_transition("move")
        net.add_arc("src", "move")
        net.add_arc("move", "sink")
        with pytest.raises(CompilationError):
            explore_compiled(CompiledNet.compile(net))

    def test_explicit_engine_is_the_reference(self):
        net = to_petri_net(linear_pipeline(stages=1))
        graph = explore(net)
        assert not isinstance(graph, ColumnarReachabilityGraph)
        assert graph.states == build_reachability_graph(net).states

    def test_engine_knob_is_gone(self):
        net = to_petri_net(linear_pipeline(stages=1))
        with pytest.raises(TypeError):
            build_reachability_graph(net, engine="explicit")
