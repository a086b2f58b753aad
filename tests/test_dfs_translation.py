"""Tests for the DFS -> Petri net translation (Fig. 3 / Fig. 4)."""

from repro.dfs.model import DataflowStructure
from repro.dfs.translation import marking_to_dfs_state, place_name, to_petri_net

from oracles.analysis import invariant_value, place_invariants
from oracles.reachability import explore
from oracles.simulation import PetriSimulator


class TestPlaceEncoding:
    def test_place_name_format(self):
        assert place_name("M", "ctrl", 1) == "M_ctrl_1"
        assert place_name("C", "f", 0) == "C_f_0"

    def test_logic_node_gets_one_variable(self, simple_chain):
        net = to_petri_net(simple_chain)
        assert net.has_place("C_f_0") and net.has_place("C_f_1")
        assert not net.has_place("Mt_f_0")

    def test_dynamic_register_gets_three_variables(self, conditional_dfs):
        net = to_petri_net(conditional_dfs)
        for kind in ("M", "Mt", "Mf"):
            assert net.has_place("{}_ctrl_0".format(kind))
            assert net.has_place("{}_ctrl_1".format(kind))

    def test_initial_marking_encodes_dfs_marking(self, simple_chain):
        net = to_petri_net(simple_chain)
        marking = net.initial_marking()
        assert marking["M_a_1"] == 1 and marking["M_a_0"] == 0
        assert marking["M_b_0"] == 1 and marking["M_b_1"] == 0
        assert marking["C_f_0"] == 1

    def test_initially_false_control_register(self):
        dfs = DataflowStructure()
        dfs.add_control("c", marked=True, value=False)
        marking = to_petri_net(dfs).initial_marking()
        assert marking["M_c_1"] == 1
        assert marking["Mf_c_1"] == 1
        assert marking["Mt_c_0"] == 1

    def test_transition_names_match_paper_style(self, conditional_dfs):
        net = to_petri_net(conditional_dfs)
        for name in ("Mt_ctrl+", "Mf_ctrl+", "Mt_filt+", "Mf_filt+", "C_cond+", "M_in-"):
            assert net.has_transition(name)


class TestTranslationSoundness:
    def test_variable_pairs_are_place_invariants(self, simple_chain):
        net = to_petri_net(simple_chain)
        invariants = place_invariants(net)
        pairs = [{"C_f_0", "C_f_1"}, {"M_a_0", "M_a_1"}, {"M_b_0", "M_b_1"}]
        for pair in pairs:
            assert any(set(invariant) == pair for invariant in invariants)

    def test_invariants_hold_over_reachable_states(self, conditional_dfs):
        net = to_petri_net(conditional_dfs)
        graph = explore(net)
        # Every complementary pair keeps exactly one token.
        for node in conditional_dfs.nodes:
            kinds = ("C",) if conditional_dfs.is_logic(node) else (
                ("M",) if not conditional_dfs.node(node).is_dynamic else ("M", "Mt", "Mf"))
            for kind in kinds:
                invariant = {place_name(kind, node, 0): 1, place_name(kind, node, 1): 1}
                values = {invariant_value(invariant, marking) for marking in graph.states}
                assert values == {1}

    def test_net_is_one_safe(self, conditional_dfs):
        graph = explore(to_petri_net(conditional_dfs))
        for marking in graph.states:
            assert all(count <= 1 for _, count in marking.items())

    def test_guard_literals_become_read_arcs(self, simple_chain):
        net = to_petri_net(simple_chain)
        # M_b+ requires C_f evaluated (read arc on C_f_1) and M_a marked.
        reads = net.read_places("M_b+")
        assert "C_f_1" in reads

    def test_marking_to_dfs_state_summary(self, conditional_dfs):
        net = to_petri_net(conditional_dfs)
        graph = explore(net)
        # Find a state where the control register holds a False token.
        target = graph.find(lambda m: m["Mf_ctrl_1"] > 0)
        assert target is not None
        summary = marking_to_dfs_state(conditional_dfs, target)
        assert summary["marked"]["ctrl"] is False


class TestTraceCompatibility:
    def test_dfs_trace_is_a_petri_net_firing_sequence(self, conditional_dfs):
        """The same event names must be fireable in both semantics."""
        from repro.dfs.simulation import DfsSimulator

        dfs_sim = DfsSimulator(conditional_dfs)
        trace = dfs_sim.run_random(150, seed=21)
        net_sim = PetriSimulator(to_petri_net(conditional_dfs))
        net_sim.fire_sequence(trace)  # raises if any step is not enabled

    def test_petri_trace_is_a_dfs_event_sequence(self, conditional_dfs):
        from repro.dfs.simulation import DfsSimulator

        net_sim = PetriSimulator(to_petri_net(conditional_dfs))
        trace = net_sim.run_random(150, seed=22)
        dfs_sim = DfsSimulator(conditional_dfs)
        dfs_sim.fire_sequence(trace)
