"""Tests for the vectorised walk swarm (repro.verification.checkers.walk_batch).

The contract mirrors ``tests/test_petri_batch.py``: the swarm is a
*throughput* engine, never a *semantics* change.  Its RNG draws and
guidance ranks are pinned bit-for-bit against the pure-int helpers of
``walk_core`` and the scalar oracle (``tests/oracles/walk.py``), and its
conclusive verdicts are differentially checked against that oracle and the
exhaustive engine on the whole example family.
"""

import pytest

from repro.campaign.jobs import VerificationJob, build_pipeline_model
from repro.campaign.cache import options_digest
from repro.dfs.examples import conditional_comp_dfs, linear_pipeline, token_ring
from repro.dfs.model import DataflowStructure
from repro.dfs.translation import to_petri_net
from repro.exceptions import ConfigurationError
from repro.petri.compiled import CompiledNet
from repro.petri.net import PetriNet
from repro.reach.ast import ReachExpression
from repro.reach.cubes import to_cubes
from repro.reach.parser import parse
from repro.verification.checkers import (
    CheckerContext,
    DeadlockQuery,
    ReachQuery,
    SafenessQuery,
    create_checker,
)
from repro.verification.checkers.walk_core import (
    cube_mask_table,
    mix64,
    replay_witness,
    walk_draw,
)
from repro.verification.verifier import Verifier

from oracles.compiled import is_enabled
from oracles.walk import (
    cube_rank,
    fewest_enabled_rank,
    scalar_walk_checker,
    scalar_walk_verifier,
)

DIFFERENTIAL_PROPERTIES = ("safeness", "deadlock", "mismatch", "exclusion")


def deadlocking_model():
    """Two registers in mutual wait (mirrors tests/test_checkers.py)."""
    dfs = DataflowStructure("deadlock")
    dfs.add_register("a")
    dfs.add_register("b")
    dfs.add_logic("f")
    dfs.add_logic("g")
    dfs.connect_chain("a", "f", "b")
    dfs.connect_chain("b", "g", "a")
    return dfs


def mismatch_model():
    """A push guarded by opposite-valued controls (mirrors test_checkers)."""
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


#: The example-DFS family of tests/test_checkers.py: clean and buggy models
#: both, so swarm/scalar/exhaustive agreement is tested in both directions.
MODEL_FAMILY = {
    "conditional": lambda: conditional_comp_dfs(comp_stages=1),
    "conditional3": lambda: conditional_comp_dfs(comp_stages=3),
    "linear": lambda: linear_pipeline(stages=3),
    "ring": lambda: token_ring(registers=4, tokens=1),
    "pipeline2": lambda: build_pipeline_model(2, static_prefix=1),
    "pipeline3-hole": lambda: build_pipeline_model(3, static_prefix=1,
                                                   holes=[2]),
    "deadlock": deadlocking_model,
    "mismatch": mismatch_model,
}

def overflow_net():
    """A non-1-safe net: firing ``t`` puts a second token into ``p``."""
    net = PetriNet("overflow")
    net.add_place("p", tokens=1)
    net.add_place("q", tokens=1)
    net.add_transition("t")
    net.add_arc("q", "t")
    net.add_arc("t", "p")
    net.add_arc("t", "q")
    return net


def walk_checker(net, **options):
    return create_checker("walk", CheckerContext(net), options)


class TestCounterRng:
    """The vectorised RNG must be bit-identical to the scalar stream."""

    def test_draw_rows_matches_walk_draw(self):
        import numpy as np
        from repro.verification.checkers.walk_batch import draw_rows

        seeds = (0, 1, 0xACE1, (1 << 64) - 1)
        walks = np.array([0, 1, 2, 7, 1023, 8191, (1 << 40) + 3],
                         dtype=np.int64)
        steps = np.array([0, 1, 2, 255, 256, 65536, 1], dtype=np.int64)
        for seed in seeds:
            vector = draw_rows(seed, walks, steps)
            scalar = [walk_draw(seed, int(w), int(s))
                      for w, s in zip(walks, steps)]
            assert vector.tolist() == scalar

    def test_streams_are_width_independent(self):
        # The draw of (seed, walk, step) never depends on any other walk:
        # the same triple gives the same word however many rows surround it.
        assert walk_draw(7, 5, 3) == walk_draw(7, 5, 3)
        assert walk_draw(7, 5, 3) != walk_draw(7, 6, 3)
        assert walk_draw(7, 5, 3) != walk_draw(8, 5, 3)

    def test_mix64_avalanche(self):
        words = {mix64(value) for value in range(1024)}
        assert len(words) == 1024  # no collisions on a dense counter range
        assert all(word <= (1 << 64) - 1 for word in words)


class TestSharedScoring:
    """The swarm and the scalar oracle rank states through the same arithmetic."""

    def test_cube_rank_rows_matches_scalar(self):
        import numpy as np
        from repro.verification.checkers.walk_batch import (
            cube_rank_rows,
            cube_word_table,
        )

        net = to_petri_net(build_pipeline_model(3, static_prefix=1))
        compiled = CompiledNet.compile(net)
        places = compiled.place_names
        expression = parse('$"{}" & !$"{}" | $"{}"'.format(
            places[0], places[3], places[7]))
        masks = cube_mask_table(compiled.mask_of,
                                to_cubes(expression, max_cubes=16))
        from repro.petri.batch import WordTables
        tables = WordTables(compiled)
        # A spread of states: walk the reachable set for realistic rows.
        states = [compiled.encode(net.initial_marking())]
        for index in range(len(compiled.transition_names)):
            if is_enabled(compiled, index, states[-1]):
                states.append(compiled.fire(index, states[-1]))
        states.extend([0, (1 << len(places)) - 1])
        rows = tables.encode_rows(states)
        vector = cube_rank_rows(cube_word_table(masks, tables.words), rows)
        scalar = [cube_rank(masks, state) for state in states]
        assert vector.tolist() == scalar  # exact float64 equality

    def test_fewest_enabled_matches_enabled_matrix_counts(self):
        import numpy as np
        from repro.petri.batch import WordTables

        net = to_petri_net(MODEL_FAMILY["conditional"]())
        compiled = CompiledNet.compile(net)
        tables = WordTables(compiled)
        state = compiled.encode(net.initial_marking())
        counts = tables.enabled_matrix(tables.encode_rows([state]))
        assert int(counts.sum()) == fewest_enabled_rank(compiled, state)


class TestSwarmDifferential:
    """Swarm verdicts must never contradict scalar or exhaustive."""

    @pytest.fixture(scope="class")
    def exhaustive_verdicts(self):
        verdicts = {}
        for model_name, factory in MODEL_FAMILY.items():
            summary = Verifier(factory(),
                               checker="exhaustive").verify_properties(
                DIFFERENTIAL_PROPERTIES)
            verdicts[model_name] = {
                result.property_name: result.holds
                for result in summary.results}
        return verdicts

    @pytest.mark.parametrize("swarm", [4, 1024])
    @pytest.mark.parametrize("model_name", sorted(MODEL_FAMILY))
    def test_swarm_agrees_with_exhaustive(self, model_name, swarm,
                                          exhaustive_verdicts):
        summary = Verifier(
            MODEL_FAMILY[model_name](), checker="walk",
            checker_options={"walk": {"swarm": swarm}},
        ).verify_properties(DIFFERENTIAL_PROPERTIES)
        reference = exhaustive_verdicts[model_name]
        for result in summary.results:
            if result.holds is None:
                continue  # inconclusive is always acceptable
            assert result.holds is reference[result.property_name], (
                "swarm({}) contradicts exhaustive on {}/{}: {}".format(
                    swarm, model_name, result.property_name, result.details))

    @pytest.mark.parametrize("model_name", sorted(MODEL_FAMILY))
    def test_swarm_and_scalar_verdicts_are_consistent(self, model_name,
                                                      exhaustive_verdicts):
        """Swarm and oracle conclusive answers point at the same truth."""
        reference = exhaustive_verdicts[model_name]
        dfs = MODEL_FAMILY[model_name]()
        for verifier in (scalar_walk_verifier(dfs),
                         Verifier(dfs, checker="walk")):
            summary = verifier.verify_properties(DIFFERENTIAL_PROPERTIES)
            for result in summary.results:
                if result.holds is not None:
                    assert result.holds is reference[result.property_name]

    @pytest.mark.parametrize("model_name", sorted(MODEL_FAMILY))
    def test_width_one_swarm_replays_the_scalar_oracle(self, model_name):
        """One row at a time, the swarm *is* the scalar walker: same
        verdicts, details, witness traces and markings, draw for draw."""
        dfs = MODEL_FAMILY[model_name]()
        options = {"seed": 2026}
        oracle = scalar_walk_verifier(dfs, **options).verify_properties(
            DIFFERENTIAL_PROPERTIES)
        swarm = Verifier(dfs, checker="walk", checker_options={
            "walk": dict(options, swarm=1)}).verify_properties(
            DIFFERENTIAL_PROPERTIES)
        for expected, result in zip(oracle.results, swarm.results):
            assert (result.holds, result.details) == (expected.holds,
                                                      expected.details)
            assert result.witnesses == expected.witnesses

    def test_swarm_witness_traces_replay_on_the_net(self):
        dfs = build_pipeline_model(3, static_prefix=1, holes=[2])
        result = Verifier(dfs, checker="walk").verify_deadlock_freedom()
        assert result.holds is False
        net = to_petri_net(dfs)
        marking = net.initial_marking()
        for transition in result.witnesses[0]["trace"]:
            marking = net.fire(transition, marking)
        assert marking == result.witnesses[0]["marking"]
        assert not net.enabled_transitions(marking)


class TestBeyondTheTruncationHorizon:
    def test_swarm_finds_hole_deadlock_past_a_1000_state_truncation(self):
        dfs = build_pipeline_model(4, static_prefix=1, holes=[2])
        exhaustive = Verifier(dfs, max_states=1000, checker="exhaustive")
        assert exhaustive.verify_deadlock_freedom().holds is None

        swarm = Verifier(dfs, max_states=1000, checker="walk")
        result = swarm.verify_deadlock_freedom()
        assert result.holds is False
        assert result.method == "walk"
        assert result.witnesses[0]["trace"]


class TestSwarmEdgeCases:
    def test_multi_word_net(self):
        """The swarm spans word boundaries exactly like the BFS engine."""
        from repro.petri.batch import WordTables

        dfs = build_pipeline_model(3, static_prefix=1, holes=[2])
        net = to_petri_net(dfs)
        assert WordTables(CompiledNet.compile(net)).words >= 2
        checker = walk_checker(net)
        outcome = checker.check(DeadlockQuery())
        assert outcome.holds is False
        assert set(checker.last_hunt_stats) == {"walks", "steps", "expanded"}

    def test_degenerate_all_dead_swarm(self):
        """An initially deadlocked net: every row witnesses the same state."""
        net = PetriNet("stuck")
        net.add_place("p", tokens=1)
        net.add_place("q")
        net.add_transition("t")
        net.add_arc("q", "t")  # never enabled: q is empty
        net.add_arc("t", "p")
        checker = walk_checker(net, walks=64, swarm=16)
        outcome = checker.check(DeadlockQuery())
        assert outcome.holds is False
        # All 64 walks retire on the same initial deadlock; the witness
        # list dedupes to the one distinct state and the trace is empty.
        assert len(outcome.witnesses) == 1
        assert outcome.witnesses[0]["trace"] == []
        assert checker.last_hunt_stats["walks"] == 64

    def test_swarm_overflow_is_conclusive_only_for_safeness(self):
        net = overflow_net()
        checker = walk_checker(net)
        assert checker.check(DeadlockQuery()).holds is None
        outcome = checker.check(SafenessQuery())
        assert outcome.holds is False
        assert outcome.witnesses[0]["place"] == "p"
        assert outcome.witnesses[0]["transition"] == "t"
        assert "overflows" in outcome.details

    def test_swarm_is_deterministic_per_seed_and_width(self):
        dfs = build_pipeline_model(3, static_prefix=1, holes=[2])
        net = to_petri_net(dfs)
        traces = []
        for _ in range(2):
            checker = walk_checker(net, seed=99, swarm=32)
            traces.append(checker.check(DeadlockQuery()).witnesses[0]["trace"])
        assert traces[0] == traces[1]

    def test_scalar_rewrite_is_deterministic_per_seed(self):
        """Same seed, same verdict, same witness trace on the scalar oracle."""
        dfs = build_pipeline_model(3, static_prefix=1, holes=[2])
        net = to_petri_net(dfs)
        traces = []
        for _ in range(2):
            checker = scalar_walk_checker(net, seed=0xACE1)
            traces.append(checker.check(DeadlockQuery()).witnesses[0]["trace"])
        assert traces[0] == traces[1]


class TestWitnessReplay:
    """Swarm traces are only trusted after replaying on the net."""

    def test_tampered_deadlock_trace_is_rejected(self):
        net = to_petri_net(build_pipeline_model(3, static_prefix=1,
                                                holes=[2]))
        checker = walk_checker(net)
        trace = checker.check(DeadlockQuery()).witnesses[0]["trace"]
        assert replay_witness(net, "deadlock", trace) is not None
        assert replay_witness(net, "deadlock", trace[:-1]) is None
        assert replay_witness(net, "deadlock", ["nonsense"] + trace) is None

    def test_overflow_replay_checks_the_extra_token(self):
        net = overflow_net()
        witness = replay_witness(net, "overflow", [], transition="t")
        assert witness is not None and witness["transition"] == "t"

        safe = PetriNet("safe")
        safe.add_place("p", tokens=1)
        safe.add_place("q")
        safe.add_transition("t")
        safe.add_arc("p", "t")
        safe.add_arc("t", "q")
        # A 1-safe firing is no overflow witness...
        assert replay_witness(safe, "overflow", [], transition="t") is None
        # ...and neither is a transition the trace already disabled.
        assert replay_witness(safe, "overflow", ["t"], transition="t") is None


class TestScalarFallback:
    """One walk engine: the removed backend knob is refused, the oracle stays."""

    def test_unknown_backend_is_rejected(self):
        dfs = MODEL_FAMILY["conditional"]()
        for backend in ("gpu", "scalar", "batch"):
            with pytest.raises(ConfigurationError, match="unknown option"):
                Verifier(dfs, checker="walk",
                         checker_options={"walk": {"backend": backend}})

    @pytest.mark.parametrize("engine", ["batch", "scalar"])
    def test_unknown_node_kind_fails_loudly(self, engine):
        """Every node kind of ``repro.reach.ast`` compiles to a row
        predicate; a user-defined one is a programming error, raised
        instead of answered inconclusive by a silent fallback."""
        class Anywhere(ReachExpression):
            def evaluate(self, marking):
                return True

        net = to_petri_net(MODEL_FAMILY["conditional"]())
        factory = scalar_walk_checker if engine == "scalar" else walk_checker
        with pytest.raises(TypeError, match="Anywhere"):
            factory(net).check(ReachQuery(Anywhere()))

    def test_walk_cli_flags_reach_the_checker(self, capsys):
        from repro.workcraft.cli import main as cli_main

        # A pure falsifier on a clean model answers inconclusive (exit 1);
        # the point here is that --walks reached the checker's budget.
        exit_code = cli_main(["verify", "--example", "conditional",
                              "--checker", "walk", "--walks", "2",
                              "--no-persistence"])
        assert exit_code == 1
        assert "2 walk(s)" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["verify", "campaign"])
    def test_walk_backend_flag_is_gone(self, command, capsys):
        from repro.workcraft.cli import main as cli_main

        with pytest.raises(SystemExit) as exit_info:
            cli_main([command, "--walk-backend", "scalar"])
        assert exit_info.value.code == 2
        assert "--walk-backend" in capsys.readouterr().err


class TestCampaignDigests:
    """Walk-driven jobs digest the one walk engine as a constant."""

    def test_walk_jobs_digest_the_resolved_backend(self):
        job = VerificationJob("j", "conditional", checker="walk")
        assert job.options()["walk_backend"] == "batch"
        with pytest.raises(ConfigurationError, match="unknown option"):
            VerificationJob("j", "conditional", checker="walk",
                            checker_options={"walk": {"backend": "scalar"}})

    def test_portfolio_jobs_resolve_the_nested_member_backend(self):
        job = VerificationJob("j", "conditional", checker="portfolio")
        assert job.options()["walk_backend"] == "batch"
        with pytest.raises(ConfigurationError, match="unknown option"):
            VerificationJob(
                "j", "conditional", checker="portfolio",
                checker_options={"portfolio": {"walk": {"backend": "scalar"}}})

    def test_exhaustive_jobs_carry_no_walk_backend(self):
        job = VerificationJob("j", "conditional", checker="exhaustive")
        assert "walk_backend" not in job.options()

    def test_wire_roundtrip_rederives_the_backend(self):
        job = VerificationJob("j", "conditional", checker="walk")
        payload = job.to_dict()
        assert "walk_backend" in payload
        payload["walk_backend"] = "scalar"  # never trusted from the wire
        rebuilt = VerificationJob.from_dict(payload)
        assert rebuilt.options()["walk_backend"] == "batch"
        assert (options_digest(rebuilt.options())
                == options_digest(job.options()))

    def test_swarm_width_rides_checker_options_into_the_digest(self):
        wide = VerificationJob(
            "j", "conditional", checker="walk",
            checker_options={"walk": {"swarm": 8192}})
        narrow = VerificationJob(
            "j", "conditional", checker="walk",
            checker_options={"walk": {"swarm": 64}})
        assert (options_digest(wide.options())
                != options_digest(narrow.options()))
