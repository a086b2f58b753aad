"""Property-based tests (hypothesis) on the core data structures and models."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chip.lfsr import Lfsr
from repro.dfs.examples import conditional_comp_dfs, token_ring
from repro.dfs.serialization import dfs_from_document, dfs_to_document
from repro.dfs.simulation import DfsSimulator
from repro.dfs.translation import to_petri_net
from repro.ope.functional import OpePipelineFunctional
from repro.ope.reference import OpeReference, ordinal_ranks
from repro.petri.marking import Marking
from repro.silicon.voltage import VoltageModel

from oracles.simulation import PetriSimulator


# -- markings ------------------------------------------------------------------

place_names = st.sampled_from(["p0", "p1", "p2", "p3", "p4"])
markings = st.dictionaries(place_names, st.integers(min_value=0, max_value=3))


@given(markings)
def test_marking_round_trip_through_dict(tokens):
    marking = Marking(tokens)
    assert Marking(marking.as_dict()) == marking


@given(markings, place_names)
def test_marking_add_then_remove_is_identity(tokens, place):
    marking = Marking(tokens)
    assert marking.add(place).remove(place) == marking


@given(markings, markings)
def test_marking_covers_is_reflexive_and_monotone(a, b):
    first = Marking(a)
    assert first.covers(first)
    union = {place: max(a.get(place, 0), b.get(place, 0)) for place in set(a) | set(b)}
    assert Marking(union).covers(first)


# -- ordinal pattern encoding -----------------------------------------------------

streams = st.lists(st.integers(min_value=0, max_value=50), min_size=0, max_size=60)


@given(streams)
def test_ordinal_ranks_is_a_permutation(stream):
    ranks = ordinal_ranks(stream)
    assert sorted(ranks) == list(range(1, len(stream) + 1))


@given(streams, st.integers(min_value=1, max_value=8))
@settings(max_examples=60)
def test_functional_pipeline_matches_reference(stream, depth):
    assert OpePipelineFunctional(depth).process(stream) == OpeReference(depth).encode(stream)


@given(st.lists(st.integers(min_value=0, max_value=50), min_size=2, max_size=30))
def test_rank_of_smallest_item_is_one(window):
    ranks = ordinal_ranks(window)
    smallest_index = window.index(min(window))
    assert ranks[smallest_index] == 1


# -- LFSR ---------------------------------------------------------------------------

@given(st.integers(min_value=1, max_value=0xFFFF))
@settings(max_examples=40)
def test_lfsr_never_produces_zero_and_is_deterministic(seed):
    first = Lfsr(seed=seed).stream(64)
    second = Lfsr(seed=seed).stream(64)
    assert first == second
    assert all(value != 0 for value in first)


# -- voltage model --------------------------------------------------------------------

@given(st.floats(min_value=0.4, max_value=1.6), st.floats(min_value=0.4, max_value=1.6))
@settings(max_examples=60)
def test_voltage_model_delay_is_monotone(v1, v2):
    model = VoltageModel()
    low, high = sorted((v1, v2))
    assert model.delay_scale(low) >= model.delay_scale(high) - 1e-12
    assert model.energy_scale(low) <= model.energy_scale(high) + 1e-12


# -- DFS serialization and semantics ----------------------------------------------------

@given(st.integers(min_value=1, max_value=4))
@settings(max_examples=20, deadline=None)
def test_dfs_document_round_trip(comp_stages):
    original = conditional_comp_dfs(comp_stages=comp_stages)
    restored = dfs_from_document(dfs_to_document(original))
    assert restored.nodes.keys() == original.nodes.keys()
    assert restored.edges == original.edges


@given(st.integers(min_value=0, max_value=2 ** 32 - 1), st.integers(min_value=20, max_value=80))
@settings(max_examples=20, deadline=None)
def test_random_dfs_trace_replays_on_petri_net(seed, steps):
    """Any token-game trace is a firing sequence of the translated net."""
    dfs = conditional_comp_dfs()
    simulator = DfsSimulator(dfs)
    trace = simulator.run_random(steps, seed=seed)
    PetriSimulator(to_petri_net(dfs)).fire_sequence(trace)


@given(st.integers(min_value=0, max_value=2 ** 32 - 1))
@settings(max_examples=20, deadline=None)
def test_token_ring_random_walk_keeps_invariant(seed):
    ring = token_ring(registers=5, tokens=2)
    simulator = DfsSimulator(ring)
    rng = random.Random(seed)
    registers = len(ring.register_nodes)
    for _ in range(60):
        if simulator.step_random(rng) is None:
            break
        assert 1 <= simulator.state.token_count() <= registers - 1
