"""Tests for the pluggable checker architecture.

The differential suite is the safety net of the whole refactor: every
checker may answer ``None`` (inconclusive) wherever it likes, but a
*conclusive* verdict that contradicts the exhaustive engine on a fully
explored state space is a soundness bug, never a tuning issue.
"""

import pytest

from repro.campaign.jobs import VerificationJob, build_pipeline_model
from repro.campaign.cache import options_digest
from repro.dfs.examples import conditional_comp_dfs, linear_pipeline, token_ring
from repro.dfs.model import DataflowStructure
from repro.dfs.semantics import marking_event_names, place_name
from repro.dfs.translation import place_name as translation_place_name
from repro.dfs.translation import to_petri_net
from repro.exceptions import ConfigurationError, VerificationError
from repro.petri.invariants import (
    SiphonBudgetExceeded,
    compute_semiflows,
    is_siphon,
    is_trap,
    maximal_trap_within,
    minimal_siphons,
    place_bounds,
    siphon_trap_certificate,
)
from repro.petri.net import PetriNet
from repro.petri.reachability import build_reachability_graph
from repro.reach.cubes import Cube, to_cubes
from repro.reach.evaluator import marking_predicate
from repro.reach.parser import parse
from repro.verification.checkers import (
    CHECKERS,
    DEFAULT_ORDER,
    CheckerContext,
    DeadlockQuery,
    PortfolioChecker,
    ReachQuery,
    SafenessQuery,
    create_checker,
)
from repro.verification.checkers.inductive import _MaskInvariant
from repro.verification.verifier import Verifier

from oracles.invariants import (
    cube_refuted,
    reference_siphons,
    siphon_trap_proved,
)
from oracles.reachability import explore
from oracles.walk import scalar_walk_verifier

DIFFERENTIAL_PROPERTIES = ("safeness", "deadlock", "mismatch", "exclusion")
ALL_CHECKERS = ("exhaustive", "inductive", "walk", "portfolio")


def deadlocking_model():
    """Two registers in mutual wait: an empty ring of length 2 via logic."""
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


#: The example-DFS family: name -> factory.  Clean and buggy (hole /
#: deadlock / mismatch) models both, so agreement is tested in both verdict
#: directions.
MODEL_FAMILY = {
    "conditional": lambda: conditional_comp_dfs(comp_stages=1),
    "conditional3": lambda: conditional_comp_dfs(comp_stages=3),
    "linear": lambda: linear_pipeline(stages=3),
    "ring": lambda: token_ring(registers=4, tokens=1),
    "pipeline2": lambda: build_pipeline_model(2, static_prefix=1),
    "pipeline3-hole": lambda: build_pipeline_model(3, static_prefix=1, holes=[2]),
    "deadlock": deadlocking_model,
    "mismatch": mismatch_model,
}


class TestDifferentialAgreement:
    """Conclusive verdicts must never contradict the exhaustive engine."""

    @pytest.fixture(scope="class")
    def exhaustive_verdicts(self):
        verdicts = {}
        for model_name, factory in MODEL_FAMILY.items():
            summary = Verifier(factory(), checker="exhaustive").verify_properties(
                DIFFERENTIAL_PROPERTIES)
            verdicts[model_name] = {
                result.property_name: result.holds for result in summary.results}
        return verdicts

    @pytest.mark.parametrize("checker", ALL_CHECKERS)
    @pytest.mark.parametrize("model_name", sorted(MODEL_FAMILY))
    def test_conclusive_verdicts_agree(self, checker, model_name,
                                       exhaustive_verdicts):
        summary = Verifier(MODEL_FAMILY[model_name](),
                           checker=checker).verify_properties(
            DIFFERENTIAL_PROPERTIES)
        reference = exhaustive_verdicts[model_name]
        for result in summary.results:
            expected = reference[result.property_name]
            assert expected is not None, (
                "the exhaustive reference must be conclusive on the "
                "(small) example family")
            if result.holds is None:
                continue  # inconclusive is always acceptable
            assert result.holds is expected, (
                "{} checker contradicts exhaustive on {}/{}: {} vs {} "
                "({})".format(checker, model_name, result.property_name,
                              result.holds, expected, result.details))

    @pytest.mark.parametrize("backend", ("scalar", "batch"))
    @pytest.mark.parametrize("model_name", sorted(MODEL_FAMILY))
    def test_walk_backends_agree_with_exhaustive(self, backend, model_name,
                                                 exhaustive_verdicts):
        """The swarm and its scalar oracle, against the exhaustive engine.

        The swarm is a throughput engine only: a conclusive swarm verdict
        contradicting the scalar/exhaustive truth is a soundness bug.
        """
        dfs = MODEL_FAMILY[model_name]()
        verifier = (scalar_walk_verifier(dfs) if backend == "scalar"
                    else Verifier(dfs, checker="walk"))
        summary = verifier.verify_properties(DIFFERENTIAL_PROPERTIES)
        reference = exhaustive_verdicts[model_name]
        for result in summary.results:
            if result.holds is None:
                continue
            assert result.holds is reference[result.property_name], (
                "walk[{}] contradicts exhaustive on {}/{}: {}".format(
                    backend, model_name, result.property_name,
                    result.details))

    def test_scalar_walk_same_seed_same_witness(self):
        """The seeding contract: same seed, same verdict, same trace."""
        dfs = build_pipeline_model(3, static_prefix=1, holes=[2])
        outcomes = []
        for _ in range(2):
            verifier = scalar_walk_verifier(dfs, seed=2026)
            outcomes.append(verifier.verify_deadlock_freedom())
        assert outcomes[0].holds is outcomes[1].holds is False
        assert (outcomes[0].witnesses[0]["trace"]
                == outcomes[1].witnesses[0]["trace"])

    @pytest.mark.parametrize("checker", ALL_CHECKERS)
    def test_violation_witnesses_carry_replayable_traces(self, checker):
        """Any conclusive 'violated' must come with a firable trace."""
        dfs = build_pipeline_model(3, static_prefix=1, holes=[2])
        result = Verifier(dfs, checker=checker).verify_deadlock_freedom()
        if result.holds is None:
            pytest.skip("{} checker was inconclusive here".format(checker))
        assert result.holds is False
        net = to_petri_net(dfs)
        marking = net.initial_marking()
        for transition in result.witnesses[0]["trace"]:
            marking = net.fire(transition, marking)
        assert marking == result.witnesses[0]["marking"]
        assert not net.enabled_transitions(marking)
        assert "dfs_state" in result.witnesses[0]


class TestBeyondTheTruncationHorizon:
    """The acceptance scenario: conclusive verdicts past ``max_states``."""

    def test_inductive_concludes_where_exhaustive_truncates(self):
        dfs = build_pipeline_model(4, static_prefix=1)

        exhaustive = Verifier(dfs, max_states=2000, checker="exhaustive")
        summary = exhaustive.verify_properties(("safeness", "exclusion"))
        assert summary.truncated
        assert [r.holds for r in summary.results] == [None, None]

        inductive = Verifier(dfs, max_states=2000, checker="inductive")
        summary = inductive.verify_properties(("safeness", "exclusion"))
        assert [r.holds for r in summary.results] == [True, True]
        assert all(r.method == "inductive" for r in summary.results)
        # No state space was ever built for the proof.
        assert summary.state_count == 0 and not summary.truncated

    def test_walk_finds_hole_deadlock_where_exhaustive_truncates(self):
        dfs = build_pipeline_model(4, static_prefix=1, holes=[2])

        exhaustive = Verifier(dfs, max_states=200, checker="exhaustive")
        assert exhaustive.verify_deadlock_freedom().holds is None

        walk = Verifier(dfs, max_states=200, checker="walk")
        result = walk.verify_deadlock_freedom()
        assert result.holds is False
        assert result.method == "walk"
        assert result.witnesses[0]["trace"]

    def test_portfolio_is_conclusive_both_ways_beyond_the_horizon(self):
        clean = Verifier(build_pipeline_model(4, static_prefix=1),
                         max_states=2000, checker="portfolio")
        result = clean.verify_value_mutual_exclusion()
        assert result.holds is True
        assert result.method == "inductive"

        holey = Verifier(build_pipeline_model(4, static_prefix=1, holes=[2]),
                         max_states=200, checker="portfolio")
        result = holey.verify_deadlock_freedom()
        assert result.holds is False
        assert result.method == "walk"


class TestCheckerSelection:
    def test_unknown_checker_is_rejected(self, conditional_dfs):
        with pytest.raises(VerificationError):
            Verifier(conditional_dfs, checker="quantum")

    def test_walk_never_claims_holds(self, conditional_dfs):
        summary = Verifier(conditional_dfs, checker="walk").verify_properties(
            DIFFERENTIAL_PROPERTIES)
        assert all(result.holds is not True for result in summary.results
                   if result.method == "walk")

    def test_persistence_reaches_exhaustive_through_the_portfolio(
            self, conditional_dfs):
        result = Verifier(conditional_dfs,
                          checker="portfolio").verify_persistence()
        assert result.holds is True
        assert result.method == "exhaustive"

    def test_portfolio_rejects_bad_configurations(self, conditional_dfs):
        context = CheckerContext(to_petri_net(conditional_dfs))
        with pytest.raises(ConfigurationError):
            PortfolioChecker(context, order=("portfolio", "exhaustive"))
        with pytest.raises(ConfigurationError):
            PortfolioChecker(context, order=("exhaustive", "no-such"))
        with pytest.raises(ConfigurationError):
            PortfolioChecker(context, order=("exhaustive",),
                             walk={"walks": 2})

    def test_checker_options_reach_the_members(self, conditional_dfs):
        verifier = Verifier(conditional_dfs, checker="walk",
                            checker_options={"walk": {"walks": 1, "steps": 1}})
        result = verifier.verify_deadlock_freedom()
        assert result.holds is None
        assert "1 walk(s) of 1 step(s)" in result.details

    def test_unknown_checker_options_keys_are_rejected(self, conditional_dfs):
        with pytest.raises(VerificationError):
            Verifier(conditional_dfs, checker_options={"wakl": {"walks": 2}})

    @pytest.mark.parametrize("options", [
        {"walk": {"bogus": 1}},
        {"walk": {"backend": "scalar"}},
        {"portfolio": {"walk": {"backend": "scalar"}}},
        {"portfolio": {"inductive": {"walks": 8}}},
        {"exhaustive": {"max_states": 10}},
        {"walk": ["walks", 8]},
        {"portfolio": {"race": True}},
    ], ids=["walk-bogus", "walk-backend", "portfolio-walk-backend",
            "portfolio-inductive-walks", "exhaustive-any", "not-a-mapping",
            "portfolio-race"])
    def test_unknown_checker_options_fail_at_construction(self, options,
                                                          conditional_dfs):
        """A bad option is a ConfigurationError where the verifier or job is
        built, never a TypeError on first use (inside a pool worker)."""
        with pytest.raises(ConfigurationError):
            Verifier(conditional_dfs, checker="portfolio",
                     checker_options=options)
        with pytest.raises(ConfigurationError):
            VerificationJob("j", "conditional", checker="portfolio",
                            checker_options=options)
        with pytest.raises(ConfigurationError):
            VerificationJob.from_dict(dict(
                VerificationJob("j", "conditional").to_dict(),
                checker_options=options))

    @pytest.mark.parametrize("options", [
        {"walk": {"dnf_limit": 64}},
        {"inductive": {"max_depth": 4}},
        {"inductive": {"dnf_limit": 256}},
        {"inductive": {"max_work": 2000000}},
        {"inductive": {"max_siphon_nodes": 100000}},
        {"portfolio": {"race_timeout": 5.0}},
    ], ids=["walk-dnf_limit", "inductive-max_depth", "inductive-dnf_limit",
            "inductive-max_work", "inductive-max_siphon_nodes",
            "portfolio-race_timeout"])
    def test_budgets_fixed_as_module_constants_are_refused(self, options,
                                                          conditional_dfs):
        """Budgets that are module constants are not options: setting one,
        even to its constant's value, is an unknown option."""
        (name,) = next(iter(options.values()))
        with pytest.raises(ConfigurationError, match=name):
            Verifier(conditional_dfs, checker="portfolio",
                     checker_options=options)
        with pytest.raises(ConfigurationError, match=name):
            VerificationJob("j", "conditional", checker="portfolio",
                            checker_options=options)

    def test_known_nested_checker_options_are_accepted(self, conditional_dfs):
        options = {"walk": {"walks": 2, "swarm": 4},
                   "portfolio": {"walk": {"steps": 8},
                                 "inductive": {"max_cubes": 64}}}
        Verifier(conditional_dfs, checker="portfolio", checker_options=options)
        VerificationJob("j", "conditional", checker="portfolio",
                        checker_options=options)

    def test_top_level_member_options_reach_the_portfolio(self, conditional_dfs):
        # The README documents checker_options={"walk": {...}} as tuning the
        # walks; that must hold when the walk runs as a portfolio member.
        verifier = Verifier(conditional_dfs, checker="portfolio",
                            checker_options={"walk": {"walks": 3, "seed": 5}})
        portfolio = verifier._active_checker()
        walk = next(m for m in portfolio.members if m.name == "walk")
        assert walk.walks == 3
        assert walk.seed == 5

    def test_registry_exposes_all_engines(self):
        assert set(ALL_CHECKERS) <= set(CHECKERS)
        context = CheckerContext(to_petri_net(conditional_comp_dfs()))
        checker = create_checker("inductive", context, {"max_cubes": 7})
        assert checker.max_cubes == 7
        with pytest.raises(VerificationError):
            create_checker("no-such", context)


class TestInductiveInternals:
    def test_semiflows_hold_on_every_reachable_marking(self, conditional_dfs):
        net = to_petri_net(conditional_dfs)
        semiflows = compute_semiflows(net)
        assert semiflows
        graph = build_reachability_graph(net)
        for marking in graph.states:
            assert all(flow.holds_at(marking) for flow in semiflows)
        # Complementary pairs bound every place of the translation by one.
        bounds = place_bounds(semiflows)
        assert all(bounds.get(place) == 1 for place in net.places)

    def test_inductive_falsification_replays_into_a_real_bad_state(
            self, conditional_dfs):
        verifier = Verifier(conditional_dfs, checker="inductive")
        result = verifier.verify_custom('$"M_in_1"',
                                        property_name="input never marked")
        assert result.holds is False
        witness = result.witnesses[0]
        net = to_petri_net(conditional_dfs)
        marking = net.initial_marking()
        for transition in witness["trace"]:
            marking = net.fire(transition, marking)
        assert marking[place_name("M", "in", 1)] == 1

    def test_inductive_proof_of_a_custom_safety_property(self, conditional_dfs):
        # The bypass isolation property holds; the backward induction must
        # close rather than stay inconclusive on this small model.
        verifier = Verifier(conditional_dfs, checker="inductive")
        result = verifier.verify_custom('$"M_r1_1" & $"Mf_ctrl_1"',
                                        property_name="bypass isolation")
        assert result.holds is True
        assert "closed" in result.details

    def test_budget_exhaustion_is_inconclusive_not_wrong(self, conditional_dfs):
        verifier = Verifier(conditional_dfs, checker="inductive",
                            checker_options={"inductive": {"max_cubes": 1}})
        result = verifier.verify_custom('$"M_r1_1" & $"Mf_ctrl_1"')
        assert result.holds is None
        assert "budget" in result.details


class TestNonOneSafeNets:
    """Cube reasoning must refuse nets the invariants cannot certify 1-safe."""

    @staticmethod
    def _overflowing_net():
        from repro.petri.net import PetriNet

        net = PetriNet("not_one_safe")
        net.add_place("p", tokens=1)
        net.add_place("q", tokens=1)
        net.add_transition("t")
        net.add_arc("q", "t")
        net.add_arc("t", "p")
        return net

    def test_inductive_never_contradicts_exhaustive_on_multi_token_nets(self):
        context = CheckerContext(self._overflowing_net())
        query = ReachQuery("tokens(p) >= 2")
        exhaustive = create_checker("exhaustive", context)
        # Firing t puts two tokens into p: exploration stops there, which
        # violates 1-safeness and leaves the Reach query open.
        assert exhaustive.check(SafenessQuery()).holds is False
        reach = exhaustive.check(query)
        assert reach.holds is None
        assert "second token into place 'p'" in reach.details
        inductive = create_checker("inductive", context).check(query)
        assert inductive.holds is None
        assert "1-safety" in inductive.details
        portfolio = create_checker("portfolio", context).check(query)
        assert portfolio.holds is None  # no member may conclude

    def test_walk_overflow_is_not_a_deadlock_or_reach_verdict(self):
        context = CheckerContext(self._overflowing_net())
        walk = create_checker("walk", context)
        assert walk.check(DeadlockQuery()).holds is None
        assert walk.check(ReachQuery('$"q"')).holds is False  # init is bad
        outcome = walk.check(SafenessQuery())
        assert outcome.holds is False
        assert outcome.witnesses[0]["place"] == "p"
        assert "overflows" in outcome.details


class TestReachCubes:
    def test_dnf_of_nested_expression(self):
        cubes = to_cubes(parse('($"a_1" | $"b_1") & !$"c_1"'))
        assert set(cubes) == {
            Cube(true_places=("a_1",), false_places=("c_1",)),
            Cube(true_places=("b_1",), false_places=("c_1",)),
        }

    def test_compare_resolves_under_one_safety(self):
        assert to_cubes(parse('tokens(p) >= 1')) == [Cube(true_places=("p",))]
        assert to_cubes(parse('tokens(p) < 1')) == [Cube(false_places=("p",))]
        assert to_cubes(parse('tokens(p) > 1')) == []  # unsatisfiable
        assert to_cubes(parse('tokens(p) >= 0')) == [Cube()]  # trivially true

    def test_contradictions_are_dropped(self):
        assert to_cubes(parse('$"p" & !$"p"')) == []

    def test_cube_budget_returns_none(self):
        terms = " & ".join('($"a{0}" | $"b{0}")'.format(i) for i in range(12))
        assert to_cubes(parse(terms), max_cubes=16) is None

    def test_marking_predicate_matches_graph_evaluation(self, conditional_dfs):
        net = to_petri_net(conditional_dfs)
        predicate = marking_predicate('$"M_in_1"', net=net)
        graph = build_reachability_graph(net)
        for marking in graph.states:
            assert predicate(marking) == (marking["M_in_1"] > 0)


class TestCustomProperties:
    def test_custom_name_runs_through_verify_properties(self, conditional_dfs):
        summary = Verifier(conditional_dfs).verify_properties(
            ("deadlock", "input_never_marked"),
            custom={"input_never_marked": '$"M_in_1"'})
        result = summary.result("input_never_marked")
        assert result.holds is False
        assert result.witnesses[0]["trace"]

    def test_builtin_names_cannot_be_shadowed(self, conditional_dfs):
        verifier = Verifier(conditional_dfs)
        with pytest.raises(ConfigurationError, match="shadow"):
            verifier.verify_properties(("deadlock",),
                                       custom={"deadlock": "true"})
        with pytest.raises(ConfigurationError, match="shadow"):
            VerificationJob("j", "conditional", properties=("deadlock",),
                            custom_properties={"deadlock": "true"})
        # Refused before any check ran: nothing was explored.
        assert verifier.context.state_count == 0

    def test_unknown_property_error_lists_customs(self, conditional_dfs):
        with pytest.raises(ConfigurationError) as excinfo:
            Verifier(conditional_dfs).verify_properties(
                ("deadlock", "nope"), custom={"listed_custom": "false"})
        assert "'nope'" in str(excinfo.value)
        assert "listed_custom" in str(excinfo.value)
        with pytest.raises(ConfigurationError, match="unknown property"):
            VerificationJob("j", "conditional", properties=("deadlok",))

    def test_campaign_job_carries_inline_custom_properties(self):
        job = VerificationJob(
            "custom-job", "conditional", kwargs={"comp_stages": 1},
            properties=("deadlock", "bad_input"),
            custom_properties={"bad_input": '$"M_in_1"'})
        payload = job.run()
        records = {record["property"]: record
                   for record in payload["verdict"]["properties"]}
        assert records["bad_input"]["holds"] is False
        assert records["bad_input"]["trace"]
        assert payload["verdict"]["passed"] is False


class TestCampaignSeedThreading:
    """The lfsr_seeds axis must reach the walk checker, not just the smoke."""

    def test_seed_threads_into_the_walk_checker(self):
        job = VerificationJob("j", "conditional", checker="walk", lfsr_seed=7)
        assert job.effective_checker_options() == {"walk": {"seed": 7}}

    def test_seed_threads_into_a_portfolio_walk_member(self, conditional_dfs):
        job = VerificationJob("j", "conditional", checker="portfolio",
                              lfsr_seed=7,
                              checker_options={"portfolio": {"walk": {"walks": 4}}})
        options = job.effective_checker_options()
        assert options["walk"] == {"seed": 7}
        # The job's stored (digest-relevant) options are left untouched.
        assert job.checker_options == {"portfolio": {"walk": {"walks": 4}}}
        # End to end: the instantiated portfolio's walk member sees both the
        # axis seed (top-level) and the explicit nested member options.
        verifier = Verifier(conditional_dfs, checker="portfolio",
                            checker_options=options)
        portfolio = verifier._active_checker()
        walk = next(m for m in portfolio.members if m.name == "walk")
        assert walk.seed == 7
        assert walk.walks == 4

    def test_explicit_seed_wins_over_the_axis(self):
        job = VerificationJob("j", "conditional", checker="walk", lfsr_seed=7,
                              checker_options={"walk": {"seed": 99}})
        assert job.effective_checker_options() == {"walk": {"seed": 99}}

    def test_exhaustive_jobs_are_unaffected(self):
        job = VerificationJob("j", "conditional", lfsr_seed=7)
        assert job.effective_checker_options() == {}


class TestCampaignCacheKeys:
    def test_checker_choice_distinguishes_cache_keys(self):
        base = dict(kwargs={"comp_stages": 1}, properties=("deadlock",))
        exhaustive = VerificationJob("a", "conditional", checker="exhaustive",
                                     **base)
        portfolio = VerificationJob("b", "conditional", checker="portfolio",
                                    **base)
        assert options_digest(exhaustive.options()) != \
            options_digest(portfolio.options())

    def test_custom_expressions_are_part_of_the_cache_digest(self):
        def job(expression):
            return VerificationJob("j", "conditional", kwargs={"comp_stages": 1},
                                   properties=("deadlock", "custom_prop"),
                                   custom_properties={"custom_prop": expression})

        first_job = job('$"M_in_1"')
        first = options_digest(first_job.options())
        second = options_digest(job('$"M_dst_1"').options())
        # Reusing a name for a different expression can never be answered
        # from the stale cached verdict of the old expression.
        assert first != second
        payload = first_job.run()
        assert payload["verdict"]["properties"][1]["holds"] is False

    def test_checker_options_distinguish_cache_keys(self):
        base = dict(kwargs={"comp_stages": 1}, properties=("deadlock",),
                    checker="walk")
        short = VerificationJob("a", "conditional",
                                checker_options={"walk": {"walks": 2}}, **base)
        long = VerificationJob("b", "conditional",
                               checker_options={"walk": {"walks": 64}}, **base)
        assert options_digest(short.options()) != options_digest(long.options())

    def test_warm_cache_round_trips_checker_verdicts(self, tmp_path):
        def job():
            return VerificationJob(
                "hole", "pipeline",
                kwargs={"stages": 3, "static_prefix": 1, "holes": [2]},
                properties=("deadlock",), checker="portfolio", expect="deadlock")

        cache_dir = str(tmp_path / "cache")
        cold = job().run(cache=cache_dir)
        warm = job().run(cache=cache_dir)
        assert cold["cache"] == "miss" and warm["cache"] == "hit"
        assert warm["verdict"] == cold["verdict"]
        record = warm["verdict"]["properties"][0]
        assert record["holds"] is False
        assert record["method"] == "walk"
        assert warm["verdict"]["checker"] == "portfolio"


class TestNamingHelpers:
    def test_place_name_single_source_of_truth(self):
        # The translation re-exports the semantics helper, not a copy.
        assert translation_place_name is place_name
        assert place_name("Mt", "ctrl", 1) == "Mt_ctrl_1"

    def test_place_name_rejects_unknown_kinds_and_bits(self):
        from repro.exceptions import TranslationError

        with pytest.raises(TranslationError):
            place_name("M", "x", 2)
        with pytest.raises(TranslationError):
            place_name("Q", "x", 1)

    def test_marking_event_names_cover_all_marking_actions(self):
        assert marking_event_names("out") == {"M_out+", "Mt_out+", "Mf_out+"}

    def test_simulator_counts_tokens_through_the_helper(self, conditional_dfs):
        from repro.dfs.simulation import DfsSimulator

        simulator = DfsSimulator(conditional_dfs)
        simulator.run_random(200, seed=7)
        counted = simulator.tokens_produced("out")
        expected = sum(1 for name in simulator.trace
                       if name in marking_event_names("out"))
        assert counted == expected


# -- small structural nets -----------------------------------------------------


def pair_ring():
    """A two-state cycle over complementary place pairs: a <-> b.

    Deadlock-free, 1-safe, invariant-complete: the semiflows pin every
    reachable-looking assignment.
    """
    net = PetriNet("pair_ring")
    for place, tokens in (("a", 1), ("na", 0), ("b", 0), ("nb", 1)):
        net.add_place(place, tokens=tokens)
    net.add_transition("t_ab")
    net.add_transition("t_ba")
    for src, dst in (("a", "t_ab"), ("nb", "t_ab"), ("t_ab", "na"),
                     ("t_ab", "b"), ("b", "t_ba"), ("na", "t_ba"),
                     ("t_ba", "nb"), ("t_ba", "a")):
        net.add_arc(src, dst)
    return net


def latch_ring():
    """pair_ring with a one-shot latch ``c``: consumes ``nc`` on the way out.

    Reaches a genuine deadlock in two steps (t_ab, t_ba), and the
    unreachable-but-invariant-consistent marking ``na & nc`` is refuted by
    backward induction, not by the semiflows alone.
    """
    net = PetriNet("latch_ring")
    for place, tokens in (("a", 1), ("na", 0), ("b", 0), ("nb", 1),
                          ("c", 0), ("nc", 1)):
        net.add_place(place, tokens=tokens)
    net.add_transition("t_ab")
    net.add_transition("t_ba")
    for src, dst in (("a", "t_ab"), ("nb", "t_ab"), ("nc", "t_ab"),
                     ("t_ab", "na"), ("t_ab", "b"), ("t_ab", "c"),
                     ("b", "t_ba"), ("na", "t_ba"), ("t_ba", "nb"),
                     ("t_ba", "a")):
        net.add_arc(src, dst)
    return net


def wide_rings(count):
    """*count* independent pair_ring components: 2**count reachable states.

    The state space is exponential in *count* while the net stays linear,
    so structural proofs close instantly on a net the exhaustive engine
    cannot finish.
    """
    net = PetriNet("wide_rings_{}".format(count))
    for i in range(count):
        for place, tokens in (("a{}", 1), ("na{}", 0), ("b{}", 0),
                              ("nb{}", 1)):
            net.add_place(place.format(i), tokens=tokens)
        ab, ba = "t_ab{}".format(i), "t_ba{}".format(i)
        net.add_transition(ab)
        net.add_transition(ba)
        for src, dst in (("a{}", ab), ("nb{}", ab), (ab, "na{}"),
                         (ab, "b{}"), ("b{}", ba), ("na{}", ba),
                         (ba, "nb{}"), (ba, "a{}")):
            src = src.format(i) if isinstance(src, str) and "{}" in src else src
            dst = dst.format(i) if isinstance(dst, str) and "{}" in dst else dst
            net.add_arc(src, dst)
    return net


# -- the structural route: siphon/trap proofs ---------------------------------


class TestSiphonTrap:
    def test_siphon_and_trap_predicates(self):
        net = pair_ring()
        assert is_siphon(net, {"a", "b"})
        assert is_trap(net, {"a", "b"})
        assert is_siphon(net, {"na", "nb"})
        assert not is_siphon(net, {"a"})
        assert maximal_trap_within(net, {"a", "b", "na"}) == {"a", "b", "na"}
        assert maximal_trap_within(net, {"na"}) == set()
        # Genuine shrinking: dropping b (whose production escapes) leaves
        # the one-shot latch place, which nothing ever consumes.
        assert maximal_trap_within(latch_ring(), {"b", "c"}) == {"c"}

    def test_minimal_siphons_of_the_pair_ring(self):
        siphons = minimal_siphons(pair_ring())
        assert frozenset({"a", "b"}) in siphons
        assert frozenset({"na", "nb"}) in siphons
        assert all(not s < t for s in siphons for t in siphons if s != t)

    def test_certificate_proves_the_pair_ring(self):
        certificate = siphon_trap_certificate(pair_ring())
        assert certificate["proved"]
        assert "(holds, unbounded)" in certificate["reason"]
        assert certificate["witnesses"]

    @pytest.mark.parametrize("factory", [
        lambda: linear_pipeline(stages=3),
        lambda: token_ring(registers=4, tokens=1),
    ])
    def test_certificate_proves_the_cli_example_families(self, factory):
        net = to_petri_net(factory())
        certificate = siphon_trap_certificate(
            net, semiflows=compute_semiflows(net))
        assert certificate["proved"]

    def test_certificate_never_proves_a_deadlocking_net(self):
        net = to_petri_net(build_pipeline_model(3, static_prefix=1, holes=[2]))
        certificate = siphon_trap_certificate(
            net, semiflows=compute_semiflows(net))
        assert not certificate["proved"]

    def test_inductive_checker_proves_deadlock_freedom(self):
        net = to_petri_net(linear_pipeline(stages=3))
        checker = create_checker("inductive", CheckerContext(net))
        outcome = checker.check(DeadlockQuery())
        assert outcome.holds is True
        assert "(holds, unbounded)" in outcome.details

    def test_inductive_checker_reports_an_initially_dead_net(self):
        net = PetriNet("stuck")
        net.add_place("p", tokens=0)
        net.add_transition("t")
        net.add_arc("p", "t")
        checker = create_checker("inductive", CheckerContext(net))
        outcome = checker.check(DeadlockQuery())
        assert outcome.holds is False
        assert outcome.witnesses


def _ope_net(stages, prefix, holes=()):
    return to_petri_net(build_pipeline_model(stages, static_prefix=prefix,
                                             holes=list(holes)))


SIPHON_NETS = dict(
    {"family-" + name: (lambda factory=factory: to_petri_net(factory()))
     for name, factory in MODEL_FAMILY.items()},
    **{"pair_ring": lambda: pair_ring(),
       "latch_ring": lambda: latch_ring(),
       "wide_rings21": lambda: wide_rings(21),
       "ope2s_p1": lambda: _ope_net(2, 1),
       "ope3s_p1": lambda: _ope_net(3, 1),
       "ope4s_p2": lambda: _ope_net(4, 2),
       "ope5s_p3": lambda: _ope_net(5, 3),
       "ope3s_p1_hole2": lambda: _ope_net(3, 1, [2]),
       "ope4s_p1_hole3": lambda: _ope_net(4, 1, [3]),
       "ope5s_p2_hole4": lambda: _ope_net(5, 2, [4])})


@pytest.mark.parametrize("name", sorted(SIPHON_NETS))
def test_certificate_agrees_with_the_full_enumeration_oracle(name):
    """Stopping at the first siphon without a reserve proves exactly what
    checking every minimal siphon proves."""
    net = SIPHON_NETS[name]()
    semiflows = compute_semiflows(net)
    certificate = siphon_trap_certificate(net, semiflows=semiflows)
    assert certificate["proved"] == siphon_trap_proved(net, semiflows)


@pytest.mark.parametrize("name", sorted(
    name for name in SIPHON_NETS
    if name not in ("family-pipeline2", "family-pipeline3-hole")
    and not name.startswith("ope")))
def test_minimal_siphons_walk_the_reference_search_tree(name):
    """Same siphons as the plain recursive search, and the same node count:
    one node short of it, the budget is exceeded."""
    net = SIPHON_NETS[name]()
    siphons, nodes = reference_siphons(net)
    assert minimal_siphons(net, max_nodes=nodes) == siphons
    with pytest.raises(SiphonBudgetExceeded):
        minimal_siphons(net, max_nodes=nodes - 1)


@pytest.mark.parametrize("stages, prefix", [(4, 2), (18, 2)],
                         ids=["ope4s_p2", "ope18s_p2"])
def test_inductive_deadlock_declines_at_a_siphon_not_the_budget(stages,
                                                                prefix):
    """The full enumeration runs out of nodes on these nets; the search
    stops long before, at a siphon it can name."""
    checker = create_checker("inductive",
                             CheckerContext(_ope_net(stages, prefix)))
    outcome = checker.check(DeadlockQuery())
    assert outcome.holds is None
    assert "the siphon [" in outcome.details
    assert "budget" not in outcome.details


def test_checker_help_is_generated_from_the_registry():
    from repro.workcraft.cli import _checker_help
    text = _checker_help()
    for name, cls in CHECKERS.items():
        assert name in text
        assert cls.summary


def test_registry_holds_the_four_solver_free_checkers():
    assert sorted(CHECKERS) == ["exhaustive", "inductive", "portfolio",
                                "walk"]
    assert DEFAULT_ORDER == ("inductive", "walk", "exhaustive")
    assert PortfolioChecker(CheckerContext(pair_ring())).order == \
        DEFAULT_ORDER


@pytest.mark.parametrize("factory, query, holds, method", [
    (pair_ring, DeadlockQuery(), True, "inductive"),
    (lambda: wide_rings(21), DeadlockQuery(), True, "inductive"),
    (pair_ring, ReachQuery('$"na" & $"b"'), False, "inductive"),
    (latch_ring, DeadlockQuery(), False, "walk"),
    (lambda: _hole_net(), DeadlockQuery(), False, "walk"),
], ids=["pair-deadlock", "wide21-deadlock", "pair-reach-violated",
        "latch-deadlock", "hole-deadlock"])
def test_portfolio_answers_from_its_first_conclusive_member(
        factory, query, holds, method):
    """In the default order, a verdict the inductive checker reaches never
    waits for a walk, and a deadlock it cannot refute goes to the walk."""
    checker = create_checker("portfolio",
                             CheckerContext(factory(), max_states=1000))
    outcome = checker.check(query)
    assert (outcome.holds, outcome.method) == (holds, method), \
        outcome.details


def test_portfolio_still_concludes_without_a_solver():
    net = to_petri_net(token_ring(registers=4, tokens=1))
    checker = create_checker("portfolio", CheckerContext(net))
    assert checker.check(DeadlockQuery()).holds is True


def _hole_net():
    return to_petri_net(build_pipeline_model(3, static_prefix=1, holes=[2]))


#: Every verdict the retired IC3 engine reached in its own suite, and the
#: solver-free checker that reaches the same one: (net, query, checker,
#: max_states, verdict, detail fragment).  ``None`` keeps the context's
#: default state bound.
SOLVER_FREE_VERDICTS = [
    (lambda: wide_rings(21), DeadlockQuery(), "inductive", 1000, True,
     "every minimal siphon (84) holds a permanent token reserve"),
    (lambda: wide_rings(21), ReachQuery('$"a0" & $"b0"'), "inductive", 1000,
     True, "refuted by 84 place invariant(s)"),
    (pair_ring, DeadlockQuery(), "inductive", 1000, True,
     "(holds, unbounded)"),
    (pair_ring, ReachQuery('$"a" & $"b"'), "inductive", 1000, True,
     "refuted by 4 place invariant(s)"),
    (pair_ring, ReachQuery('$"na" & $"b"'), "inductive", 1000, False,
     "bad state reachable in 1 step(s)"),
    (latch_ring, ReachQuery('$"na" & $"nc"'), "inductive", 1000, True,
     "backward induction closed after 1 cube(s)"),
    (latch_ring, DeadlockQuery(), "walk", 1000, False, "deadlocked state"),
    (latch_ring, DeadlockQuery(), "exhaustive", 1000, False,
     "1 reachable deadlock state(s)"),
    (_hole_net, DeadlockQuery(), "walk", 1000, False, "deadlocked state"),
    (_hole_net, DeadlockQuery(), "exhaustive", None, False,
     "reachable deadlock state(s)"),
    (_hole_net, SafenessQuery(), "exhaustive", None, True, "1-bounded"),
] + [
    (factory, query, "exhaustive", None, True, "")
    for factory in (
        lambda: to_petri_net(conditional_comp_dfs(comp_stages=1)),
        lambda: to_petri_net(linear_pipeline(stages=3)),
        lambda: to_petri_net(token_ring(registers=4, tokens=1)))
    for query in (DeadlockQuery(), SafenessQuery())
]


@pytest.mark.parametrize(
    "factory, query, checker, max_states, holds, fragment",
    SOLVER_FREE_VERDICTS,
    ids=["wide21-deadlock", "wide21-reach", "pair-deadlock", "pair-reach",
         "pair-reach-violated", "latch-reach", "latch-deadlock-walk",
         "latch-deadlock-exhaustive", "hole-deadlock-walk",
         "hole-deadlock-exhaustive", "hole-safeness", "conditional-deadlock",
         "conditional-safeness", "linear-deadlock", "linear-safeness",
         "ring-deadlock", "ring-safeness"])
def test_solver_free_checkers_reach_every_former_ic3_verdict(
        factory, query, checker, max_states, holds, fragment):
    """A solver-free checker concludes each verdict, and every violation's
    trace replays on the net to a bad marking."""
    net = factory()
    context = (CheckerContext(net) if max_states is None
               else CheckerContext(net, max_states=max_states))
    outcome = create_checker(checker, context).check(query)
    assert outcome.holds is holds, outcome.details
    assert fragment in outcome.details
    if holds:
        return
    marking = net.initial_marking()
    for transition in outcome.witnesses[0]["trace"]:
        marking = net.fire(transition, marking)
    if query.kind == "deadlock":
        assert not net.enabled_transitions(marking)
    else:
        assert marking_predicate(query.expression)(marking)


# -- cube refutation: the bitmask test against the per-name reference ---------


#: Nets with a covering set of semiflows (every place is bounded), on which
#: the inductive checker lowers cubes to ``(ones, zeros)`` masks.
REFUTATION_NETS = {
    "pair": pair_ring,
    "latch": latch_ring,
    "wide3": lambda: wide_rings(3),
    "linear": lambda: to_petri_net(linear_pipeline(stages=3)),
    "ring": lambda: to_petri_net(token_ring(registers=4, tokens=1)),
    "conditional": lambda: to_petri_net(conditional_comp_dfs(comp_stages=1)),
    "hole": _hole_net,
    "ring2": lambda: to_petri_net(token_ring(registers=6, tokens=2)),
}


def _mask_refuter(net):
    """The inductive checker's refutation, as a function of one cube."""
    semiflows = compute_semiflows(net)
    bounds = place_bounds(semiflows)
    place_bit = {place: 1 << index
                 for index, place in enumerate(sorted(net.places))}
    invariants = [_MaskInvariant(semiflow, place_bit, bounds)
                  for semiflow in semiflows]

    def refuted(cube):
        ones = sum(place_bit[place] for place in cube.true_places)
        zeros = sum(place_bit[place] for place in cube.false_places)
        return not all(invariant.feasible(ones, zeros)
                       for invariant in invariants)
    return refuted, semiflows, bounds


class TestCubeRefutation:
    @pytest.mark.parametrize("name", sorted(REFUTATION_NETS))
    def test_mask_refutation_agrees_with_the_per_name_oracle(self, name):
        """On seeded random cubes of one to four literals, the bitmask test
        refutes exactly the cubes the per-name reference refutes, and the
        sample holds both kinds."""
        import random

        net = REFUTATION_NETS[name]()
        refuted, semiflows, bounds = _mask_refuter(net)
        assert set(bounds) == set(net.places)
        places = sorted(net.places)
        rng = random.Random(name)
        verdicts = []
        for _ in range(400):
            literals = rng.sample(places, rng.randint(1, min(4, len(places))))
            marked = [place for place in literals if rng.random() < 0.5]
            cube = Cube(marked, set(literals) - set(marked))
            expected = cube_refuted(cube, semiflows, bounds)
            assert refuted(cube) is expected, (
                sorted(cube.true_places), sorted(cube.false_places))
            verdicts.append(expected)
        assert any(verdicts) and not all(verdicts)

    @pytest.mark.parametrize("name", sorted(REFUTATION_NETS))
    def test_no_reachable_marking_is_refuted(self, name):
        """Soundness: the cube that pins a reachable marking completely
        (every place marked or empty) survives every invariant."""
        net = REFUTATION_NETS[name]()
        refuted, _, _ = _mask_refuter(net)
        graph = explore(net)
        assert len(graph) > 1
        for marking in graph.states:
            marked = [place for place in net.places if marking[place]]
            cube = Cube(marked, set(net.places) - set(marked))
            assert not refuted(cube), marked
