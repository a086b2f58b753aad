"""Tests for the verification engine (deadlock, mismatch, persistence...)."""

import pytest

from repro.campaign.jobs import VerificationJob
from repro.dfs.examples import conditional_comp_dfs, token_ring
from repro.dfs.model import DataflowStructure
from repro.exceptions import CompilationError, ConfigurationError
from repro.petri.batch import ColumnarReachabilityGraph
from repro.petri.net import PetriNet
from repro.verification.checkers import (
    CheckerContext,
    SafenessQuery,
    create_checker,
)
from repro.verification.checkers.walk_core import replay_witness
from repro.verification.properties import (
    consistency_violation_expression,
    control_mismatch_expression,
    variable_consistency_pairs,
)
from repro.verification.verifier import Verifier
from repro.workcraft.cli import main as cli_main


def deadlocking_model():
    """Two registers in mutual wait: an empty ring of length 2 via logic.

    A two-register loop with no token can never move: marking either register
    requires the other one to be marked first.
    """
    dfs = DataflowStructure("deadlock")
    dfs.add_register("a")
    dfs.add_register("b")
    dfs.add_logic("f")
    dfs.add_logic("g")
    dfs.connect_chain("a", "f", "b")
    dfs.connect_chain("b", "g", "a")
    return dfs


def mismatch_model():
    """A push guarded by two control registers initialised with opposite values."""
    dfs = DataflowStructure("mismatch")
    dfs.add_register("src", marked=True)
    dfs.add_control("ct", marked=True, value=True)
    dfs.add_control("cf", marked=True, value=False)
    dfs.add_push("p")
    dfs.add_register("dst")
    dfs.connect("src", "p")
    dfs.connect("ct", "p")
    dfs.connect("cf", "p")
    dfs.connect("p", "dst")
    return dfs


class TestStandardProperties:
    def test_conditional_example_passes_all_checks(self, conditional_dfs):
        summary = Verifier(conditional_dfs).verify_all()
        assert summary.passed
        assert summary.state_count > 0
        assert "deadlock freedom" in [r.property_name for r in summary.results]

    def test_token_ring_passes(self, ring):
        assert Verifier(ring).verify_all().passed

    def test_deadlock_detected_with_counterexample(self):
        verifier = Verifier(deadlocking_model())
        result = verifier.verify_deadlock_freedom()
        assert result.holds is False
        assert result.witnesses
        assert "dfs_state" in result.witnesses[0]

    def test_safeness_always_holds_for_translations(self, conditional_dfs):
        assert Verifier(conditional_dfs).verify_safeness().holds is True

    def test_value_exclusion(self, conditional_dfs):
        assert Verifier(conditional_dfs).verify_value_mutual_exclusion().holds is True


class TestControlMismatch:
    def test_mismatch_expression_none_when_single_control(self, conditional_dfs):
        assert control_mismatch_expression(conditional_dfs) is None

    def test_mismatch_detected(self):
        verifier = Verifier(mismatch_model())
        result = verifier.verify_control_mismatch()
        assert result.holds is False
        assert result.witnesses

    def test_mismatch_expression_for_specific_node(self):
        expression = control_mismatch_expression(mismatch_model(), "p")
        assert expression is not None
        assert {"Mt_ct_1", "Mf_ct_1", "Mt_cf_1", "Mf_cf_1"} >= expression.places()

    def test_mismatched_node_is_disabled(self):
        """The guarded push can never accept a token -- the pipe deadlocks."""
        verifier = Verifier(mismatch_model())
        assert verifier.verify_deadlock_freedom().holds is False


class TestCustomProperties:
    def test_custom_reach_property_pass(self, conditional_dfs):
        verifier = Verifier(conditional_dfs)
        # "comp register marked while the control register holds False" must
        # never happen -- that is the whole point of the bypass.
        result = verifier.verify_custom('$"M_r1_1" & $"Mf_ctrl_1"',
                                        property_name="bypass isolation")
        assert result.holds is True

    def test_custom_reach_property_fail(self, conditional_dfs):
        verifier = Verifier(conditional_dfs)
        result = verifier.verify_custom('$"M_in_1"', property_name="input never marked")
        assert result.holds is False
        assert result.witnesses[0]["trace"]

    def test_consistency_pairs_and_expression(self, conditional_dfs):
        pairs = variable_consistency_pairs(conditional_dfs)
        assert ("M_ctrl_0", "M_ctrl_1") in pairs
        verifier = Verifier(conditional_dfs)
        result = verifier.verify_custom(
            consistency_violation_expression(conditional_dfs),
            property_name="variable consistency")
        assert result.holds is True


class TestSummary:
    def test_report_is_readable(self, conditional_dfs):
        summary = Verifier(conditional_dfs).verify_all(include_persistence=False)
        text = summary.report()
        assert "deadlock freedom" in text
        assert "OK" in text

    def test_summary_collects_violations(self):
        summary = Verifier(deadlocking_model()).verify_all(include_persistence=False)
        assert not summary.passed
        assert summary.violations
        assert summary.result("deadlock freedom").violated

    def test_larger_comp_pipeline_still_verifies(self):
        verifier = Verifier(conditional_comp_dfs(comp_stages=3))
        assert verifier.verify_deadlock_freedom().holds is True

    def test_truncated_exploration_is_inconclusive(self):
        verifier = Verifier(token_ring(registers=6, tokens=2), max_states=5)
        result = verifier.verify_deadlock_freedom()
        assert result.holds is None


class TestTruncatedVerdicts:
    """A violation found is conclusive; none found on a truncated graph is not."""

    TRUNCATED = "state space truncated after 10 states; result inconclusive"
    EXPECTED = [
        ("1-safeness", None, TRUNCATED, 0),
        ("deadlock freedom", None, TRUNCATED, 0),
        ("control-token mismatch", True,
         "no node is guarded by two or more control registers", 0),
        ("token-value exclusion", None,
         "inconclusive (truncated state space)", 0),
        ("persistence", None, TRUNCATED, 0),
        ("output marked", False, "2 reachable bad state(s)", 2),
    ]

    @pytest.mark.parametrize("graph_class", ["columnar", "explicit"])
    def test_every_check_on_a_truncated_graph(self, request, graph_class):
        if graph_class == "explicit":
            request.getfixturevalue("explicit_engine")
        verifier = Verifier(conditional_comp_dfs(), max_states=10)
        summary = verifier.verify_all()
        custom = verifier.verify_custom('$"M_out_1"',
                                        property_name="output marked")
        assert isinstance(verifier.graph, ColumnarReachabilityGraph) == \
            (graph_class == "columnar")
        assert summary.truncated and summary.state_count == 10
        observed = [(result.property_name, result.holds, result.details,
                     len(result.witnesses))
                    for result in list(summary.results) + [custom]]
        assert observed == self.EXPECTED


def force_overflow(net):
    """Make the first initially enabled transition of *net* put a second
    token into a place that is marked and stays marked."""
    initial = net.initial_marking()
    transition = net.enabled_transitions(initial)[0]
    place = next(place for place, _ in initial.items()
                 if place not in net.consumed_places(transition))
    net.add_arc(transition, place)
    return transition


class TestOverflowingNets:
    """A token overflow is the 1-safeness verdict; a net that does not
    compile is refused."""

    def test_verify_all_reports_the_overflow(self, conditional_dfs):
        verifier = Verifier(conditional_dfs)
        transition = force_overflow(verifier.net)
        summary = verifier.verify_all()
        safeness, *others = summary.results
        assert (safeness.property_name, safeness.holds) == ("1-safeness", False)
        (witness,) = safeness.witnesses
        assert witness["transition"] == transition
        assert replay_witness(verifier.net, "overflow", witness["trace"],
                              transition=transition) is not None
        assert [(result.property_name, result.holds) for result in others] == [
            ("deadlock freedom", None),
            ("control-token mismatch", True),   # no two control registers
            ("token-value exclusion", None),
            ("persistence", None)]
        assert all("second token" in result.details for result in others
                   if result.holds is None)

    def test_summary_counts_the_states_admitted_before_the_overflow(
            self, conditional_dfs):
        """The first firing overflows: only the initial state was admitted."""
        verifier = Verifier(conditional_dfs)
        force_overflow(verifier.net)
        summary = verifier.verify_all()
        assert summary.state_count == verifier.state_count == 1
        assert "(1 reachable states)" in summary.report()
        assert not summary.truncated

    def test_overflow_at_depth_two_counts_every_admitted_state(self):
        """``t1`` refills the never-consumed place ``q`` two firings deep;
        by then the initial state and both of its successors are
        admitted."""
        net = PetriNet("late-overflow")
        for place, tokens in (("p0", 1), ("p1", 0), ("p2", 0), ("q", 1),
                              ("a0", 1), ("a1", 0)):
            net.add_place(place, tokens=tokens)
        for transition, inputs, outputs in (
                ("t0", ["p0"], ["p1"]), ("t1", ["p1"], ["p2", "q"]),
                ("ta", ["a0"], ["a1"]), ("tb", ["a1"], ["a0"])):
            net.add_transition(transition)
            for place in inputs:
                net.add_arc(place, transition)
            for place in outputs:
                net.add_arc(transition, place)
        context = CheckerContext(net)
        outcome = create_checker("exhaustive", context).check(SafenessQuery())
        assert outcome.holds is False
        assert outcome.witnesses[0]["trace"] == ["t0"]
        assert outcome.witnesses[0]["transition"] == "t1"
        assert context.exploration_summary() == (3, False, None)
        assert context.overflow.states == 3

    def test_uncompilable_net_exits_2_in_one_line(self, monkeypatch, capsys):
        weighted = PetriNet("weighted")
        weighted.add_place("p", tokens=1)
        weighted.add_transition("t")
        weighted.add_arc("p", "t", weight=2)
        monkeypatch.setattr("repro.verification.verifier.to_petri_net",
                            lambda dfs: weighted)
        with pytest.raises(CompilationError):
            Verifier(conditional_comp_dfs()).verify_safeness()
        assert cli_main(["verify", "--example", "ring"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro-dfs: error: cannot compile net")
        assert err.count("\n") == 1


class TestWitnessShape:
    def test_safeness_witnesses_are_decorated(self, conditional_dfs):
        """All five checks attach dfs_state; safeness must not be the odd one.

        Translations are 1-safe by construction, so a violation is forced
        behind the verifier's back: an initially enabled transition gets an
        extra output arc into a place that is marked and stays marked.
        """
        verifier = Verifier(conditional_dfs)
        force_overflow(verifier.net)
        result = verifier.verify_safeness()
        assert result.holds is False
        assert result.witnesses
        assert "dfs_state" in result.witnesses[0]
        assert "place" in result.witnesses[0]

    def test_engines_agree_on_summary(self, conditional_dfs, request):
        batch = Verifier(conditional_dfs).verify_all()
        request.getfixturevalue("explicit_engine")
        verifier = Verifier(conditional_dfs)
        explicit = verifier.verify_all()
        assert not isinstance(verifier.graph, ColumnarReachabilityGraph)
        assert batch.state_count == explicit.state_count
        for a, b in zip(batch.results, explicit.results):
            assert a.property_name == b.property_name
            assert a.holds == b.holds


class TestWitnessBudget:
    """The verdict comes from the graph; the budget only caps the witnesses."""

    REACHABLE = '$"M_in_1"'

    @pytest.mark.parametrize("budget", [0, 2])
    @pytest.mark.parametrize("graph_class", ["columnar", "explicit"])
    def test_reach_verdict_ignores_the_budget(self, request, graph_class,
                                              budget):
        if graph_class == "explicit":
            request.getfixturevalue("explicit_engine")
        verifier = Verifier(conditional_comp_dfs(comp_stages=1))
        result = verifier.verify_custom(self.REACHABLE, max_witnesses=budget)
        assert isinstance(verifier.graph, ColumnarReachabilityGraph) == \
            (graph_class == "columnar")
        assert result.holds is False, result.details
        assert len(result.witnesses) == budget

    def test_zero_budget_job_verdict_is_violated(self):
        job = VerificationJob("zero", "conditional", {"comp_stages": 1},
                              properties=("bad",), max_witnesses=0,
                              custom_properties={"bad": self.REACHABLE})
        (record,) = job.run()["verdict"]["properties"]
        assert record["holds"] is False
        assert record["witnesses"] == 0

    def test_negative_budget_is_refused(self, conditional_dfs):
        with pytest.raises(ConfigurationError, match="max_witnesses"):
            Verifier(conditional_dfs).verify_custom(self.REACHABLE,
                                                    max_witnesses=-1)
        with pytest.raises(ConfigurationError, match="max_witnesses"):
            VerificationJob("neg", "conditional", max_witnesses=-1)
