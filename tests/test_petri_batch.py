"""Tests for the array-native batch exploration engine (repro.petri.batch).

The differential tests are the contract of the engine: on every model of
the example family the batch explorer must produce a graph bit-identical to
the ``explore_compiled`` reference record -- same states in the same
discovery order, same packed edges (regenerated from the graph's enabled
sets), same parents (hence traces), same frontier and truncation -- and
the columnar fast paths must answer every
property/Reach query with the same verdicts and witnesses as the explicit
explorer.
"""

import random

import numpy as np
import pytest

from repro.campaign.jobs import build_pipeline_model
from repro.dfs.examples import (
    conditional_comp_dfs,
    conditional_comp_sdfs,
    linear_pipeline,
    token_ring,
)
from repro.dfs.translation import to_petri_net
from repro.exceptions import SafenessOverflowError
import repro.petri.batch as batch_module
from repro.petri.batch import (
    ColumnarReachabilityGraph,
    WordTables,
    _pack_bits,
    dedup_first,
    explore_batch,
    fire_enabled_flags,
    int_to_words,
    words_to_int,
)
from repro.petri.compiled import CompiledNet
from repro.petri.net import PetriNet
from repro.petri.reachability import build_reachability_graph, explore
from repro.petri.storage import HashIndex
from repro.verification.checkers import (
    DeadlockQuery,
    PersistenceQuery,
    ReachQuery,
    SafenessQuery,
)

from oracles.compiled import ExplorationRecord, explore_compiled, graph_columns


EXAMPLE_MODELS = [
    pytest.param(lambda: conditional_comp_dfs(comp_stages=1), id="conditional-dfs-1"),
    pytest.param(lambda: conditional_comp_dfs(comp_stages=2), id="conditional-dfs-2"),
    pytest.param(lambda: conditional_comp_sdfs(comp_stages=1), id="conditional-sdfs"),
    pytest.param(lambda: linear_pipeline(stages=3), id="linear-pipeline"),
    pytest.param(lambda: token_ring(registers=4, tokens=1), id="token-ring-4-1"),
    pytest.param(lambda: token_ring(registers=5, tokens=2), id="token-ring-5-2"),
    pytest.param(lambda: build_pipeline_model(2, static_prefix=1), id="ope2"),
    pytest.param(lambda: build_pipeline_model(3, static_prefix=1, holes=[2]),
                 id="ope3-hole2"),
]


def both_graphs(net, max_states=200000):
    compiled = CompiledNet.compile(net)
    sequential = explore_compiled(compiled, max_states=max_states)
    batch = explore_batch(compiled, max_states=max_states)
    assert isinstance(batch, ColumnarReachabilityGraph)
    return sequential, batch


#: The canonical arrays of a graph, in ``columns()`` order.
COLUMNS = ("words", "edges", "offsets", "parents", "frontier")


def assert_identical(reference, graph, tag=""):
    """*graph* has *reference*'s five canonical arrays and truncation.

    *reference* is an :class:`ExplorationRecord` (compared through its
    ``columns()``) or another columnar graph.  A columnar graph's edges
    are regenerated (:func:`graph_columns`) and must match the edge count
    it kept, and its enabled column must be the enabled matrix of its
    state table, frontier rows included.
    """
    if isinstance(reference, ExplorationRecord):
        expected = reference.columns()
    else:
        expected = graph_columns(reference)
    columns = graph_columns(graph)
    for name, left, right in zip(COLUMNS, columns, expected):
        assert np.array_equal(left, right), (tag, name)
    assert graph.edge_count() == len(columns[1]), tag
    assert np.array_equal(
        graph._enabled_arr,
        _pack_bits(graph.tables.enabled_matrix(graph._words))), (tag, "enabled")
    assert graph.truncated == reference.truncated, tag


def assert_membership(graph, sample=200):
    """``in`` answers exactly, through the hash index.

    Every state is a member; a state with one more place marked is a
    member exactly when it is one of the graph's states, and at least one
    such marking is not.
    """
    states = graph.states
    assert all(marking in graph for marking in states)
    known = set(states)
    places = graph.compiled.place_names
    outside = 0
    for position, marking in enumerate(states[:sample]):
        rotated = places[position % len(places):] + places
        place = next(place for place in rotated if not marking[place])
        extra = marking.add(place)
        assert (extra in graph) == (extra in known), extra
        outside += extra not in known
    assert outside


def record_trace(record, index):
    """The firing sequence of *record*'s BFS tree from the root to *index*."""
    names = record.compiled.transition_names
    trace = []
    while record.parents[index] is not None:
        packed = record.parents[index]
        trace.append(names[packed & 0xFFFF])
        index = packed >> 16
    return trace[::-1]


class TestDifferentialExamples:
    @pytest.mark.parametrize("model", EXAMPLE_MODELS)
    def test_bit_identical_graphs(self, model):
        net = to_petri_net(model())
        sequential, batch = both_graphs(net)
        assert_identical(sequential, batch)
        decode = sequential.compiled.decode
        assert batch.states == [decode(state) for state in sequential.states]
        assert batch.edge_count() == sum(map(len, sequential.edges))
        assert batch.deadlocks() == explore(net).deadlocks()

    @pytest.mark.parametrize("model", EXAMPLE_MODELS)
    def test_truncation_parity(self, model):
        net = to_petri_net(model())
        for max_states in (1, 2, 5, 17, 100):
            sequential, batch = both_graphs(net, max_states=max_states)
            assert_identical(sequential, batch, "max_states={}".format(max_states))
            explicit = explore(net, max_states=max_states)
            assert batch.frontier == explicit.frontier
            assert batch.deadlocks() == explicit.deadlocks()

    @pytest.mark.parametrize("model", EXAMPLE_MODELS)
    def test_traces_and_membership(self, model):
        net = to_petri_net(model())
        sequential, batch = both_graphs(net)
        explicit = explore(net)
        for index, marking in enumerate(explicit.states):
            assert marking in batch
            assert batch.trace_to(marking) == record_trace(sequential, index)
            assert batch.enabled(marking) == explicit.enabled(marking)
            assert batch.is_expanded(marking) == explicit.is_expanded(marking)

    def test_property_verdicts_identical(self, exhaustive_on_both_graphs):
        net = to_petri_net(conditional_comp_dfs(comp_stages=2))
        explicit, batch = exhaustive_on_both_graphs(
            net, [DeadlockQuery(), PersistenceQuery(), SafenessQuery(bound=1)])
        for left, right in zip(explicit, batch):
            assert (left.holds, left.details, left.witnesses) == \
                (right.holds, right.details, right.witnesses)

    def test_persistence_witnesses_identical_on_hazard(
            self, exhaustive_on_both_graphs):
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
        ([left], [right]) = exhaustive_on_both_graphs(net, [PersistenceQuery()])
        assert left.holds is False and right.holds is False
        assert (left.details, left.witnesses) == (right.details, right.witnesses)

    def test_exclusion_pairs_vectorised_path(self, exhaustive_on_both_graphs):
        """Mutual exclusion of two places is the Reach query ``$a & $b``."""
        net = to_petri_net(conditional_comp_dfs(comp_stages=1))
        queries = [ReachQuery('$"{}" & $"{}"'.format(a, b))
                   for a, b in [("Mt_ctrl_1", "Mf_ctrl_1"), ("M_in_1", "M_out_1"),
                                ("M_in_1", "M_in_0")]]
        explicit, batch = exhaustive_on_both_graphs(net, queries)
        for left, right in zip(explicit, batch):
            assert (left.holds, left.details, left.witnesses) == \
                (right.holds, right.details, right.witnesses)
            assert left.holds is (not left.witnesses)

    def test_reach_witnesses_identical(self, exhaustive_on_both_graphs):
        net = to_petri_net(conditional_comp_dfs(comp_stages=1))
        queries = [ReachQuery(expression) for expression in
                   ['$"M_in_1"', '$"M_r1_1" & $"Mf_ctrl_1"',
                    'tokens(M_ctrl_1) >= 1 -> !$"C_cond_1"',
                    '!$"M_in_1" | $"M_out_1"']]
        explicit, batch = exhaustive_on_both_graphs(net, queries)
        for left, right in zip(explicit, batch):
            assert (left.holds, left.details) == (right.holds, right.details)
            assert [w["marking"] for w in left.witnesses] == \
                [w["marking"] for w in right.witnesses]
            assert [len(w["trace"]) for w in left.witnesses] == \
                [len(w["trace"]) for w in right.witnesses]

    def test_overflow_detected_like_sequential(self):
        net = PetriNet("overflow")
        net.add_place("p", tokens=1)
        net.add_place("q", tokens=1)
        net.add_transition("t")
        net.add_arc("p", "t")
        net.add_arc("t", "q")
        compiled = CompiledNet.compile(net)
        with pytest.raises(SafenessOverflowError):
            explore_batch(compiled)


def ring_hazard_net(seed, rings, lengths, branches, read_arcs,
                    edge_cases=False):
    """A seeded 1-safe net of token rings that violates persistence.

    Each ring moves one token round its places, so every ring stays live.
    Extra branches between two places of one ring make choices, which only
    ``allow_conflicts=False`` counts.  The first *read_arcs* branches also
    read a place of another ring: that ring moving on disables the branch,
    a hazard under either setting.

    With *edge_cases*, three transitions probe the corners of the
    disabling rule (firing ``t1`` disables ``t2`` exactly when ``t1``
    takes a place ``t2`` needs and does not put it back): ``loop``
    consumes and re-produces ``r0p0``, which ``look`` reads, and so
    disables nothing; ``look`` also reads ``r1p0``, a read-arc hazard
    when ring 1 moves on; ``idle`` has an empty preset and postset.
    """
    rng = random.Random(seed)
    net = PetriNet("rings-{}".format(seed))
    sizes = [rng.randint(*lengths) for _ in range(rings)]
    for ring, size in enumerate(sizes):
        for i in range(size):
            net.add_place("r{}p{}".format(ring, i), tokens=int(i == 0))
        for i in range(size):
            name = "r{}t{}".format(ring, i)
            net.add_transition(name)
            net.add_arc("r{}p{}".format(ring, i), name)
            net.add_arc(name, "r{}p{}".format(ring, (i + 1) % size))
    for branch in range(branches):
        ring, other = rng.sample(range(rings), 2)
        name = "b{}".format(branch)
        net.add_transition(name)
        net.add_arc("r{}p{}".format(ring, rng.randrange(sizes[ring])), name)
        net.add_arc(name, "r{}p{}".format(ring, rng.randrange(sizes[ring])))
        if branch < read_arcs:
            net.add_read_arc(
                "r{}p{}".format(other, rng.randrange(sizes[other])), name)
    if edge_cases:
        for name in ("loop", "look", "idle"):
            net.add_transition(name)
        net.add_arc("r0p0", "loop")
        net.add_arc("loop", "r0p0")
        net.add_read_arc("r0p0", "look")
        net.add_read_arc("r1p0", "look")
    return net


#: Seeded ring-hazard nets: small ones the explicit explorer can afford,
#: one with the disabling rule's edge cases, and two spanning more than
#: 64 places and 64 transitions.
HAZARD_NETS = (
    [(seed, dict(rings=2 + seed % 2, lengths=(2, 4), branches=3,
                 read_arcs=2)) for seed in range(8)]
    + [(8, dict(rings=3, lengths=(2, 4), branches=3, read_arcs=1,
                edge_cases=True))]
    + [(100 + seed, dict(rings=3, lengths=(22, 24), branches=8,
                         read_arcs=6)) for seed in range(2)])


def _witness_key(witness):
    return (sorted(witness["marking"].items()), witness["fired"],
            witness["disabled"])


class TestPersistenceOnHazardNets:
    """The edge-bitset scan against the pure-int pair loop and the
    explicit marking loop, on nets that really violate persistence."""

    def test_generated_nets_violate_and_span_words(self):
        wide = ring_hazard_net(100, **HAZARD_NETS[-1][1])
        assert len(wide.places) > 64 and len(wide.transitions) > 64
        for seed, shape in HAZARD_NETS:
            graph = explore_batch(CompiledNet.compile(
                ring_hazard_net(seed, **shape)))
            assert graph.persistence_scan(allow_conflicts=True)[0] > 0

    @pytest.mark.parametrize("seed,shape", HAZARD_NETS)
    def test_scan_matches_oracles(self, seed, shape):
        net = ring_hazard_net(seed, **shape)
        compiled = CompiledNet.compile(net)
        full = len(explore_batch(compiled))
        small = full < 1000
        for max_states in (max(1, full // 2), full):
            batch = explore_batch(compiled, max_states=max_states)
            sequential = explore_compiled(compiled, max_states=max_states)
            assert batch.truncated == (max_states < full)
            assert_identical(sequential, batch, max_states)
            explicit = explore(net, max_states=max_states) if small else None
            for allow_conflicts in (True, False):
                for max_witnesses in (0, 1, 5):
                    tag = (seed, max_states, allow_conflicts, max_witnesses)
                    expected = sequential.persistence_scan(
                        allow_conflicts=allow_conflicts,
                        max_witnesses=max_witnesses)
                    assert batch.persistence_scan(
                        allow_conflicts=allow_conflicts,
                        max_witnesses=max_witnesses) == expected, tag
                if explicit is not None:
                    assert explicit.truncated == batch.truncated, tag
                    everything = len(batch) ** 2 * len(net.transitions)
                    left = explicit.persistence_scan(
                        allow_conflicts=allow_conflicts,
                        max_witnesses=everything)
                    right = batch.persistence_scan(
                        allow_conflicts=allow_conflicts,
                        max_witnesses=everything)
                    assert left[0] == right[0], tag
                    assert sorted(map(_witness_key, left[1])) == \
                        sorted(map(_witness_key, right[1])), tag

    @pytest.mark.parametrize("block", [1, 7, 64])
    def test_scan_blocks_do_not_change_the_answer(self, block, monkeypatch):
        compiled = CompiledNet.compile(ring_hazard_net(100, **HAZARD_NETS[-2][1]))
        graph = explore_batch(compiled, max_states=3000)
        expected = [graph.persistence_scan(allow_conflicts=allow, max_witnesses=5)
                    for allow in (True, False)]
        monkeypatch.setattr(batch_module, "_SCAN_BLOCK", block)
        assert [graph.persistence_scan(allow_conflicts=allow, max_witnesses=5)
                for allow in (True, False)] == expected


def empty_preset_net():
    """A net whose transitions all have empty presets: always enabled."""
    net = PetriNet("empty-presets")
    net.add_place("p")
    net.add_place("q", tokens=1)
    for name in ("emit", "tick"):
        net.add_transition(name)
    net.add_arc("emit", "p")
    return net


#: Nets for the enabledness and hash kernels: every hazard seed (read
#: arcs, the consume-and-reproduce ``loop``, the empty-preset ``idle``), the
#: 4-stage OPE (3 state words, 2 enabled words) and an all-empty-preset net.
KERNEL_NETS = (
    [pytest.param(lambda seed=seed, shape=shape: ring_hazard_net(seed, **shape),
                  id="hazard-{}".format(seed)) for seed, shape in HAZARD_NETS]
    + [pytest.param(lambda: to_petri_net(
           build_pipeline_model(4, static_prefix=2)), id="ope4"),
       pytest.param(empty_preset_net, id="empty-presets")])


def kernel_rows(compiled, seed=0):
    """Reachable rows of *compiled* (up to 2000) and as many random rows.

    Dense random rows block most multi-place presets; reachable ones
    enable the transitions the net really fires.
    """
    try:
        states = explore_compiled(compiled, max_states=2000).states
    except SafenessOverflowError:
        states = [compiled.encode(compiled.net.initial_marking())]
    tables = WordTables(compiled)
    reachable = tables.encode_rows(states)
    noise = np.random.default_rng(seed).integers(
        0, np.iinfo(np.uint64).max, size=reachable.shape, dtype=np.uint64,
        endpoint=True)
    return np.concatenate([reachable, noise])


class TestKernels:
    @pytest.mark.parametrize("make_net", KERNEL_NETS)
    def test_enabled_bits_match_enabled_matrix(self, make_net):
        compiled = CompiledNet.compile(make_net())
        tables = WordTables(compiled)
        rows = kernel_rows(compiled)
        assert np.array_equal(tables.enabled_bits(rows),
                              _pack_bits(tables.enabled_matrix(rows)))
        assert tables.enabled_bits(rows[:0]).shape == (0, len(tables.all_enabled))

    def test_kernel_nets_cover_their_cases(self):
        ope = WordTables(CompiledNet.compile(to_petri_net(
            build_pipeline_model(4, static_prefix=2))))
        assert (ope.words, len(ope.all_enabled)) == (3, 2)
        empty = WordTables(CompiledNet.compile(empty_preset_net()))
        assert len(empty.byte_positions) == 0
        assert int(empty.all_enabled[0]) == 0b11

    @pytest.mark.parametrize("make_net", KERNEL_NETS)
    def test_successor_hash_is_parent_hash_plus_delta(self, make_net):
        compiled = CompiledNet.compile(make_net())
        tables = WordTables(compiled)
        rows = kernel_rows(compiled)
        flat = np.flatnonzero(tables.enabled_matrix(rows))
        local, transition, successor, overflowed = fire_enabled_flags(
            tables, rows, flat)
        kept = ~overflowed
        assert kept.any()
        expected = (tables.hash_rows(rows)[local[kept]]
                    + tables.delta_hash[transition[kept]])
        assert np.array_equal(tables.hash_rows(successor[kept]), expected)


def cut_record(record, budget):
    """*record* as the sequential BFS leaves it with a *budget* of states.

    The first *budget* states are discovered in the same order and every
    one of them is still expanded: it keeps its edges to those states, and
    the states with an edge past the budget form the frontier.
    """
    cut = ExplorationRecord(record.compiled)
    cut.states = record.states[:budget]
    cut.parents = record.parents[:budget]
    cut.edges = [[packed for packed in edges if packed >> 16 < budget]
                 for edges in record.edges[:budget]]
    cut.frontier = [index for index, edges in enumerate(cut.edges)
                    if len(edges) < len(record.edges[index])]
    cut.truncated = budget < len(record.states)
    return cut


def level_starts(record):
    """The index of the first state of every BFS level after the first."""
    depth = [0]
    for packed in record.parents[1:]:
        depth.append(depth[packed >> 16] + 1)
    return [index for index in range(1, len(depth))
            if depth[index] != depth[index - 1]]


def overflow_hazard_net(seed, shape):
    """A ring-hazard net with a one-shot ``inject`` that breaks 1-safeness.

    ``inject`` consumes a fuse, reads a place of one ring and puts a second
    token on a place of another, so the two tokens of that ring collide a
    few levels later: the first overflow sits deep in the BFS.
    """
    net = ring_hazard_net(seed, **shape)
    rng = random.Random(seed)
    rings = sorted({name[1:name.index("p")] for name in net.places})
    ring, other = rng.sample(rings, 2)
    net.add_place("fuse", tokens=1)
    net.add_transition("inject")
    net.add_arc("fuse", "inject")
    net.add_read_arc("r{}p0".format(other), "inject")
    net.add_arc("inject", "r{}p1".format(ring))
    return net


def small_ope():
    """The 588-state 2-stage OPE (static prefix 2), 44 BFS levels."""
    return CompiledNet.compile(to_petri_net(
        build_pipeline_model(2, static_prefix=2)))


def commuting_free_net():
    """A net with choices but no independent pair: every footprint clashes.

    Three places in a ring, each transition moving the token on, and a
    ``skip`` from ``a`` to ``c`` that competes with ``ab``.
    """
    net = PetriNet("no-independence")
    for place, tokens in (("a", 1), ("b", 0), ("c", 0)):
        net.add_place(place, tokens=tokens)
    for name, source, target in (("ab", "a", "b"), ("bc", "b", "c"),
                                 ("ca", "c", "a"), ("skip", "a", "c")):
        net.add_transition(name)
        net.add_arc(source, name)
        net.add_arc(name, target)
    return net


class TestSleepSets:
    """Sleep sets prune firings, never states, edges or truncation."""

    @pytest.mark.parametrize("make_net", [
        pytest.param(small_ope, id="ope2-p2"),
        *[pytest.param(lambda seed=seed, shape=shape: CompiledNet.compile(
              ring_hazard_net(seed, **shape)), id="hazard-{}".format(seed))
          for seed, shape in HAZARD_NETS[:-2]]])
    def test_every_state_budget_matches_the_oracle(self, make_net):
        compiled = make_net()
        full = explore_compiled(compiled)
        for budget in range(1, len(full.states) + 1):
            sequential = explore_compiled(compiled, max_states=budget)
            batch = explore_batch(compiled, max_states=budget)
            assert_identical(sequential, batch, budget)
            assert batch.edge_count() == sum(map(len, sequential.edges))
            # The derived cut the wide nets rely on is the oracle's own.
            derived = cut_record(full, budget)
            assert derived.truncated == sequential.truncated, budget
            for left, right in zip(derived.columns(), sequential.columns()):
                assert np.array_equal(left, right), budget

    @pytest.mark.parametrize("seed,shape", HAZARD_NETS[-2:])
    def test_level_boundary_and_sampled_cuts_of_wide_nets(self, seed, shape):
        """Budgets that cut a level's last state or end exactly on it, and
        a seeded sample that cuts levels in the middle."""
        compiled = CompiledNet.compile(ring_hazard_net(seed, **shape))
        full = explore_compiled(compiled)
        budgets = {budget for start in level_starts(full)
                   for budget in (start - 1, start)}
        budgets.update(random.Random(seed).sample(range(1, len(full.states)),
                                                  40))
        for budget in sorted((budgets - {0}) | {len(full.states)}):
            batch = explore_batch(compiled, max_states=budget)
            assert_identical(cut_record(full, budget), batch, budget)

    @pytest.mark.parametrize("max_states", [588, 300])
    def test_resume_from_every_level(self, max_states, tmp_path, monkeypatch):
        """A run killed after any level resumes to the uninterrupted graph.

        The run dies at the fault point after each level's appends, before
        that level's manifest, so it resumes from the level before: with an
        empty sleep set, or none when a level was already cut.
        """
        compiled = small_ope()
        reference = explore_batch(compiled, max_states=max_states)
        assert reference.truncated == (max_states < 588)
        levels = reference.exploration_stats["levels"]

        class Killed(Exception):
            pass

        for kill_at in range(1, levels):
            checkpoint = str(tmp_path / str(kill_at))
            hits = []

            def trigger(name, site=None):
                hits.append(site)
                if hits.count("level") == kill_at:
                    raise Killed
                return False

            with monkeypatch.context() as patch:
                patch.setattr(batch_module._faults, "trigger", trigger)
                with pytest.raises(Killed):
                    explore_batch(compiled, max_states=max_states,
                                  checkpoint=checkpoint)
            resumed = explore_batch(compiled, max_states=max_states,
                                    checkpoint=checkpoint)
            stats = resumed.exploration_stats
            assert stats["checkpoint"]["resumed_from_level"] == (
                kill_at - 1 or None), kill_at
            assert stats["levels"] == levels, kill_at
            assert_identical(reference, resumed, kill_at)

    @pytest.mark.parametrize("seed,shape", HAZARD_NETS)
    def test_overflow_names_the_oracles_pair(self, seed, shape):
        compiled = CompiledNet.compile(overflow_hazard_net(seed, shape))
        with pytest.raises(SafenessOverflowError) as expected:
            explore_compiled(compiled)
        with pytest.raises(SafenessOverflowError) as raised:
            explore_batch(compiled)
        assert str(raised.value) == str(expected.value)

    def test_overflow_of_a_transition_enabled_after_itself(self):
        """``emit`` has an empty preset: its second firing overflows."""
        compiled = CompiledNet.compile(empty_preset_net())
        with pytest.raises(SafenessOverflowError) as expected:
            explore_compiled(compiled)
        with pytest.raises(SafenessOverflowError) as raised:
            explore_batch(compiled)
        assert str(raised.value) == str(expected.value)

    def test_independent_pairs_are_fired_once(self):
        graph = explore_batch(small_ope())
        stats = graph.exploration_stats
        assert stats["edges"] == graph.edge_count() == 1594
        assert len(graph) <= stats["fired"] < stats["edges"]

    def test_without_independent_pairs_every_edge_is_fired(self):
        compiled = CompiledNet.compile(commuting_free_net())
        assert not WordTables(compiled).indep.any()
        graph = explore_batch(compiled)
        assert_identical(explore_compiled(compiled), graph)
        stats = graph.exploration_stats
        assert stats["fired"] == stats["edges"] == graph.edge_count() > 0

    @pytest.mark.parametrize("make_net", KERNEL_NETS)
    def test_independent_transitions_commute(self, make_net):
        """Independent pairs fire to one row in either order, and neither
        changes the other's enabledness or overflow; ``lower_indep`` is
        the part below the diagonal."""
        compiled = CompiledNet.compile(make_net())
        tables = WordTables(compiled)
        count = len(tables.need)
        indep, lower = (np.unpackbits(table.view(np.uint8), axis=1,
                                      count=count, bitorder="little")
                        .astype(bool)
                        for table in (tables.indep, tables.lower_indep))
        assert np.array_equal(indep, indep.T)
        assert not indep.diagonal().any()
        assert np.array_equal(lower, np.tril(indep, k=-1))
        us, ts = np.nonzero(indep)
        pick = np.random.default_rng(0).permutation(len(us))[:200]
        us, ts = us[pick], ts[pick]
        rows = kernel_rows(compiled)[None]

        def fire(rows, transitions):
            return ((rows & tables.keep[transitions][:, None])
                    | tables.produce[transitions][:, None])

        def enables(rows, transitions):
            need = tables.need[transitions][:, None]
            return ((rows & need) == need).all(axis=-1)

        def overflows(rows, transitions):
            return (rows & tables.keep[transitions][:, None]
                    & tables.produce[transitions][:, None]).any(axis=-1)

        after_u = fire(rows, us)
        assert np.array_equal(fire(after_u, ts), fire(fire(rows, ts), us))
        assert np.array_equal(enables(after_u, ts), enables(rows, ts))
        assert np.array_equal(overflows(after_u, ts), overflows(rows, ts))


class TestEngineSelection:
    def test_auto_prefers_batch_when_numpy_present(self):
        net = to_petri_net(linear_pipeline(stages=1))
        graph = build_reachability_graph(net)
        assert isinstance(graph, ColumnarReachabilityGraph)

    def test_batch_falls_back_to_explicit_on_unsafe_net(self):
        net = PetriNet("unsafe")
        net.add_place("src", tokens=2)
        net.add_place("sink")
        net.add_transition("move")
        net.add_arc("src", "move")
        net.add_arc("move", "sink")
        graph = build_reachability_graph(net)
        assert not isinstance(graph, ColumnarReachabilityGraph)
        assert len(graph) == 3


class TestPrimitives:
    def test_int_word_roundtrip(self):
        for words in (1, 2, 4):
            for value in (0, 1, (1 << 64) - 1, 1 << 64, (1 << (64 * words)) - 1):
                value %= 1 << (64 * words)
                assert words_to_int(int_to_words(value, words)) == value

    @pytest.mark.parametrize("words", [1, 2, 3, 4])
    def test_dedup_first_matches_np_unique(self, words):
        """First occurrences and groups agree with ``np.unique``.

        Hashes take only 4 values, so most distinct rows collide and the
        exact row compares decide every group.
        """
        rng = np.random.default_rng(words)
        row_view = np.dtype([("w{}".format(w), np.uint64)
                             for w in range(words)])
        for size in (1, 2, 7, 64, 500, 3000):
            rows = rng.integers(0, 3, size=(size, words)).astype(np.uint64)
            hashes = rows.sum(axis=1) % np.uint64(4)
            firsts, group_of = dedup_first(rows, hashes)
            _, first_index, inverse = np.unique(
                rows.view(row_view).ravel(), return_index=True,
                return_inverse=True)
            assert firsts.tolist() == sorted(first_index.tolist())
            # np.unique numbers groups by value; dedup_first by first
            # occurrence.
            rank = np.empty(len(first_index), dtype=np.int64)
            rank[np.argsort(first_index)] = np.arange(len(first_index))
            assert group_of.tolist() == rank[inverse.ravel()].tolist()

    def test_hash_collisions_stay_exact(self, monkeypatch):
        """Force every row hash equal: dedup and probes must stay exact.

        Only meaningful on multi-word nets -- single-word rows are their
        own (collision-free) hash by construction.
        """
        net = to_petri_net(build_pipeline_model(3, static_prefix=1))
        compiled = CompiledNet.compile(net)
        assert WordTables(compiled).words >= 2
        # Bounded: with every hash colliding the probes degrade to linear
        # scans, which is exactly the (slow but exact) path under test.
        sequential = explore_compiled(compiled, max_states=2000)
        monkeypatch.setattr(
            WordTables, "hash_rows",
            lambda self, rows: np.zeros(len(rows), dtype=np.uint64))
        # Successor hashes are parent hashes plus these deltas: with every
        # delta zero too, they really collide.
        assert not WordTables(compiled).delta_hash.any()
        batch = explore_batch(compiled, max_states=2000)
        assert_identical(sequential, batch, "degenerate hash")

    def test_membership_on_a_multi_word_net(self, monkeypatch):
        net = to_petri_net(build_pipeline_model(3, static_prefix=1))
        compiled = CompiledNet.compile(net)
        assert WordTables(compiled).words >= 2
        # From a 1024-slot first table, 3000 states cross three growths.
        monkeypatch.setattr(HashIndex, "_MIN_BITS", 10)
        assert_membership(explore_batch(compiled, max_states=3000))

    def test_multi_word_net_spans_words(self):
        net = to_petri_net(build_pipeline_model(3, static_prefix=1))
        compiled = CompiledNet.compile(net)
        tables = WordTables(compiled)
        assert tables.words >= 2
        graph = explore_batch(compiled, max_states=5000)
        assert graph.tables.words == tables.words
        sequential = explore_compiled(compiled, max_states=5000)
        assert_identical(sequential, graph)
