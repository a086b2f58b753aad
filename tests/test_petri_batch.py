"""Tests for the array-native batch exploration engine (repro.petri.batch).

The differential tests are the contract of the engine: on every model of
the example family the batch explorer must produce a graph bit-identical to
the ``explore_compiled`` reference record -- same states in the same
discovery order, same packed edges (regenerated from the states' enabled
sets), same parents (rebuilt from the fired transitions, hence traces),
same frontier and truncation -- and
the columnar fast paths must answer every
property/Reach query with the same verdicts and witnesses as the explicit
oracle (``tests/oracles/reachability.py``).  A token overflow raises the
oracle's error, with the oracle's trace, and is the 1-safeness verdict.
"""

import json
import os
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
from repro.exceptions import CompilationError, SafenessOverflowError
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
from repro.petri.layout import RowLayout
from repro.petri.net import PetriNet
from repro.petri.reachability import build_reachability_graph
from repro.petri.storage import MANIFEST_NAME, HashIndex
from repro.verification.checkers import (
    CheckerContext,
    DeadlockQuery,
    ExhaustiveChecker,
    PersistenceQuery,
    ReachQuery,
    SafenessQuery,
)
from repro.verification.checkers.walk_core import replay_witness

from oracles.compiled import ExplorationRecord, explore_compiled, graph_columns
from oracles.reachability import explore, explore_one_safe


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
    it kept, and its deadlock indices must be the all-zero rows of the
    enabled matrix of its state table.
    """
    if isinstance(reference, ExplorationRecord):
        expected = reference.columns()
    else:
        expected = graph_columns(reference)
    columns = graph_columns(graph)
    for name, left, right in zip(COLUMNS, columns, expected):
        assert np.array_equal(left, right), (tag, name)
    assert graph.edge_count() == len(columns[1]), tag
    assert np.array_equal(graph._dead_arr, dead_rows(graph)), (tag, "dead")
    assert graph.truncated == reference.truncated, tag


def dead_rows(graph):
    """The indices of the rows of *graph*'s state table that enable nothing."""
    enabled = graph.tables.enabled_matrix(graph._words)
    return np.flatnonzero(~enabled.any(axis=1))


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
            assert batch.trace_to(marking) == sequential.trace(index)
            assert {t for t, _ in batch.successors(marking)} == \
                set(explicit.enabled(marking))
            assert batch.is_expanded(marking) == explicit.is_expanded(marking)

    def test_property_verdicts_identical(self, exhaustive_on_both_graphs):
        net = to_petri_net(conditional_comp_dfs(comp_stages=2))
        explicit, batch = exhaustive_on_both_graphs(
            net, [DeadlockQuery(), PersistenceQuery(), SafenessQuery()])
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
                    edge_cases=False, fuses=0):
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

    With *fuses*, a chain ``c0 -> c1 -> ... -> c0`` passes a token on:
    step ``i`` consumes ``c_i`` and fuse ``f_{i-1}`` and gives ``c_{i+1}``
    and fuse ``f_i``, and ``blow_i`` destroys fuse ``f_i`` (the chain then
    stops).  No place invariant covers a fuse, so each keeps a plain bit
    in the dense row layout, and the rows stay wider than one word.
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
    chain = fuses + 1 if fuses else 0
    for i in range(chain):
        net.add_place("c{}".format(i), tokens=int(i == 0))
    for i in range(fuses):
        net.add_place("f{}".format(i))
        net.add_transition("blow{}".format(i))
        net.add_arc("f{}".format(i), "blow{}".format(i))
    for i in range(chain):
        name = "step{}".format(i)
        net.add_transition(name)
        net.add_arc("c{}".format(i), name)
        net.add_arc(name, "c{}".format((i + 1) % chain))
        if i:
            net.add_arc("f{}".format(i - 1), name)
        if i < fuses:
            net.add_arc(name, "f{}".format(i))
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

#: A small hazard net with 66 fuses: its rows span two words in the dense
#: layout too (the wide nets above fit one).
FUSED_NET = (200, dict(rings=2, lengths=(2, 3), branches=3, read_arcs=2,
                       fuses=66))


def _witness_key(witness):
    return (sorted(witness["marking"].items()), witness["fired"],
            witness["disabled"])


class TestPersistenceOnHazardNets:
    """The edge-bitset scan against the pure-int pair loop and the
    explicit marking loop, on nets that really violate persistence."""

    def test_generated_nets_violate_and_span_words(self):
        wide = ring_hazard_net(100, **HAZARD_NETS[-1][1])
        assert len(wide.places) > 64 and len(wide.transitions) > 64
        for seed, shape in HAZARD_NETS + [FUSED_NET]:
            graph = explore_batch(CompiledNet.compile(
                ring_hazard_net(seed, **shape)))
            assert graph.persistence_scan(allow_conflicts=True)[0] > 0
        assert graph.tables.words >= 2

    @pytest.mark.parametrize("seed,shape", HAZARD_NETS + [FUSED_NET])
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
#: arcs, the consume-and-reproduce ``loop``, the empty-preset ``idle``, two
#: dense words), the 4-stage OPE (3 state words, 2 enabled words) and an
#: all-empty-preset net.
KERNEL_NETS = (
    [pytest.param(lambda seed=seed, shape=shape: ring_hazard_net(seed, **shape),
                  id="hazard-{}".format(seed))
     for seed, shape in HAZARD_NETS + [FUSED_NET]]
    + [pytest.param(lambda: to_petri_net(
           build_pipeline_model(4, static_prefix=2)), id="ope4"),
       pytest.param(empty_preset_net, id="empty-presets")])


def kernel_tables(compiled, dense):
    """The tables of *compiled* in its dense layout, or in the identity one."""
    initial = compiled.encode(compiled.net.initial_marking())
    return WordTables(compiled, RowLayout.of(compiled, initial) if dense
                      else None)


def kernel_rows(tables, seed=0):
    """Reachable rows of *tables*' net (up to 2000) and as many random rows.

    Dense random rows block most multi-place presets (and hold field
    values no place has); reachable ones enable the transitions the net
    really fires.
    """
    compiled = tables.compiled
    try:
        states = explore_compiled(compiled, max_states=2000).states
    except SafenessOverflowError:
        states = [compiled.encode(compiled.net.initial_marking())]
    reachable = tables.encode_rows(states)
    noise = np.random.default_rng(seed).integers(
        0, np.iinfo(np.uint64).max, size=reachable.shape, dtype=np.uint64,
        endpoint=True)
    return np.concatenate([reachable, noise])


class TestKernels:
    @pytest.mark.parametrize("dense", [False, True], ids=["identity", "dense"])
    @pytest.mark.parametrize("make_net", KERNEL_NETS)
    def test_enabled_bits_match_enabled_matrix(self, make_net, dense):
        tables = kernel_tables(CompiledNet.compile(make_net()), dense)
        rows = kernel_rows(tables)
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

    @pytest.mark.parametrize("dense", [False, True], ids=["identity", "dense"])
    @pytest.mark.parametrize("make_net", KERNEL_NETS)
    def test_successor_hash_is_parent_hash_plus_delta(self, make_net, dense):
        tables = kernel_tables(CompiledNet.compile(make_net()), dense)
        rows = kernel_rows(tables)
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


def assert_overflow_verdict(net, raised, expected):
    """*raised*, the batch engine's overflow, is the oracle's *expected*
    one and the exhaustive 1-safeness verdict.

    Its trace is the oracle's BFS-tree trace of the source, of the
    source's BFS depth, then the named transition; the explicit oracle
    stops at the same pair, as deep.  The verdict's witness replays that
    trace on the net and names the same pair.
    """
    depth = len(expected.trace) - 1
    assert expected.trace[-1] == expected.transition
    assert raised.trace == expected.trace
    assert len(raised.trace) == depth + 1
    with pytest.raises(SafenessOverflowError) as explicit:
        explore_one_safe(net)
    assert str(explicit.value) == str(expected)
    assert len(explicit.value.trace) == depth + 1
    outcome = ExhaustiveChecker(CheckerContext(net)).check(SafenessQuery())
    assert outcome.holds is False
    (witness,) = outcome.witnesses
    assert (witness["transition"], witness["place"]) == \
        (expected.transition, expected.place)
    assert witness["trace"] + [witness["transition"]] == expected.trace
    assert replay_witness(net, "overflow", witness["trace"],
                          transition=witness["transition"]) is not None


def wide_ope():
    """The 4-stage OPE (static prefix 1): 180 places, 66 bits (2 words)
    in the dense layout."""
    return CompiledNet.compile(to_petri_net(
        build_pipeline_model(4, static_prefix=1)))


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
            if kill_at > 1:
                with open(os.path.join(checkpoint, MANIFEST_NAME)) as handle:
                    manifest = json.load(handle)
                assert manifest["version"] == 4
                assert sorted(manifest["stores"]) == [
                    "dead", "frontier", "parents", "words"]
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
        assert_overflow_verdict(compiled.net, raised.value, expected.value)

    def test_overflow_of_a_transition_enabled_after_itself(self):
        """``emit`` has an empty preset: its second firing overflows."""
        compiled = CompiledNet.compile(empty_preset_net())
        with pytest.raises(SafenessOverflowError) as expected:
            explore_compiled(compiled)
        with pytest.raises(SafenessOverflowError) as raised:
            explore_batch(compiled)
        assert str(raised.value) == str(expected.value)
        assert_overflow_verdict(compiled.net, raised.value, expected.value)
        assert expected.value.trace == ["emit", "emit"]

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
        rows = kernel_rows(tables)[None]

        def fire(rows, transitions):
            return ((rows & tables.keep[transitions][:, None])
                    | tables.give[transitions][:, None])

        def enables(rows, transitions):
            need = tables.need[transitions][:, None]
            return ((rows & need) == need).all(axis=-1)

        def overflows(rows, transitions):
            return (rows & tables.keep[transitions][:, None]
                    & tables.give[transitions][:, None]).any(axis=-1)

        after_u = fire(rows, us)
        assert np.array_equal(fire(after_u, ts), fire(fire(rows, ts), us))
        assert np.array_equal(enables(after_u, ts), enables(rows, ts))
        assert np.array_equal(overflows(after_u, ts), overflows(rows, ts))


def dead_end_net():
    """Two independent choices, one of them with a dead end a level later:
    its six deadlocks lie on two BFS levels, and cuts split them."""
    net = PetriNet("dead-ends")
    net.add_place("p", tokens=1)
    net.add_place("r", tokens=1)
    for place in ("q0", "q1", "s0", "s1", "s2", "s3"):
        net.add_place(place)
    for name, source, target in (("a0", "p", "q0"), ("a1", "p", "q1"),
                                 ("b0", "r", "s0"), ("b1", "r", "s1"),
                                 ("b2", "r", "s2"), ("c", "s2", "s3")):
        net.add_transition(name)
        net.add_arc(source, name)
        net.add_arc(name, target)
    return net


class TestKeptColumns:
    """The graph keeps rows, fired transitions, deadlock indices, the
    frontier and hash slots; parents, traces and enabled sets are derived
    from them."""

    @pytest.mark.parametrize("seed,shape", HAZARD_NETS + [FUSED_NET])
    def test_traces_follow_the_oracles_parents(self, seed, shape):
        """Every state's trace (a sample on the two wide nets) is the
        oracle's parent chain, complete and cut at half the states."""
        compiled = CompiledNet.compile(ring_hazard_net(seed, **shape))
        full = explore_compiled(compiled)
        step = 1 if len(full.states) < 1000 else 23
        for budget in (len(full.states), max(1, len(full.states) // 2)):
            graph = explore_batch(compiled, max_states=budget)
            assert graph.truncated == (budget < len(full.states))
            for index in range(0, budget, step):
                marking = graph._marking_at(index)
                assert graph.trace_to(marking) == full.trace(index), \
                    (budget, index)

    def test_deadlocks_keep_the_explicit_order(self):
        net = dead_end_net()
        compiled = CompiledNet.compile(net)
        full = len(explore(net))
        for budget in range(1, full + 1):
            graph = explore_batch(compiled, max_states=budget)
            assert np.array_equal(graph._dead_arr, dead_rows(graph)), budget
            assert graph.deadlocks() == explore(
                net, max_states=budget).deadlocks(), budget
        assert len(graph.deadlocks()) == 6

    def test_fired_column_is_one_byte_up_to_256_transitions(self):
        small = explore_batch(small_ope())
        assert small._fired_arr.dtype == np.uint8
        net = PetriNet("wide-choice")
        net.add_place("p", tokens=1)
        for t in range(300):
            net.add_place("q{}".format(t))
            net.add_transition("t{}".format(t))
            net.add_arc("p", "t{}".format(t))
            net.add_arc("t{}".format(t), "q{}".format(t))
        compiled = CompiledNet.compile(net)
        graph = explore_batch(compiled)
        assert graph._fired_arr.dtype == np.uint16
        assert_identical(explore_compiled(compiled), graph)
        assert graph.trace_to(graph._marking_at(300)) == [
            compiled.transition_names[299]]

    def test_ope4_keeps_at_most_twenty_bytes_per_state(self):
        """The paper's 4-stage OPE (static prefix 2): one word per row,
        one byte per fired transition, hash slots at most half full."""
        graph = explore_batch(CompiledNet.compile(to_petri_net(
            build_pipeline_model(4, static_prefix=2))), max_states=1000000)
        assert len(graph) == 855252
        kept = sum(array.nbytes for array in (
            graph._words, graph._fired_arr, graph._dead_arr,
            graph._frontier_arr, graph._slots))
        assert kept <= 20 * len(graph), kept / len(graph)


class TestEngineSelection:
    def test_the_batch_engine_builds_every_graph(self):
        net = to_petri_net(linear_pipeline(stages=1))
        graph = build_reachability_graph(net)
        assert isinstance(graph, ColumnarReachabilityGraph)

    def test_uncompilable_nets_are_refused(self):
        unsafe = PetriNet("unsafe")
        unsafe.add_place("src", tokens=2)
        unsafe.add_place("sink")
        unsafe.add_transition("move")
        unsafe.add_arc("src", "move")
        unsafe.add_arc("move", "sink")
        weighted = PetriNet("weighted")
        weighted.add_place("p", tokens=1)
        weighted.add_transition("t")
        weighted.add_arc("p", "t")
        weighted.add_arc("t", "p", weight=2)
        for net, reason in ((unsafe, "2 tokens in place 'src'"),
                            (weighted, "has weight 2")):
            with pytest.raises(CompilationError, match=reason):
                build_reachability_graph(net)


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

        Only meaningful on multi-word rows -- single-word rows are their
        own (collision-free) hash by construction.
        """
        compiled = wide_ope()
        assert kernel_tables(compiled, dense=True).words >= 2
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
        # From a 1024-slot first table, 3000 states cross three growths.
        monkeypatch.setattr(HashIndex, "_MIN_BITS", 10)
        graph = explore_batch(wide_ope(), max_states=3000)
        assert graph.tables.words >= 2
        assert_membership(graph)

    def test_multi_word_net_spans_words(self):
        compiled = wide_ope()
        graph = explore_batch(compiled, max_states=5000)
        assert graph.tables.words >= 2
        sequential = explore_compiled(compiled, max_states=5000)
        assert_identical(sequential, graph)
