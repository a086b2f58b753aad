"""Dense row layouts from place invariants (repro.petri.layout).

The batch engine runs on the layout :meth:`RowLayout.of` derives from the
net's value-1, 0/1-weight semiflows; the identity layout (one bit per
place) is its degenerate case.  The differential tests here run both on
the example families, the golden models, the seeded hazard nets and the
OPE nets -- complete, cut by the state budget and resumed from a
checkpoint -- and require the same decoded state table, enabled sets,
parents, frontier, regenerated edges, traces and verdicts.  The guard
tests pin the soundness rules: a semiflow becomes a field only with value
1 at the run's start marking and when every transition moves its token
one place to another (or leaves it alone), and a marking that breaks a
field's invariant is no state.
"""

import os
import sys

import numpy as np
import pytest

from repro.campaign.jobs import build_pipeline_model
from repro.dfs.examples import conditional_comp_dfs
from repro.dfs.translation import to_petri_net
from repro.exceptions import SafenessOverflowError
import repro.petri.batch as batch_module
from repro.petri.batch import explore_batch
from repro.petri.compiled import CompiledNet
from repro.petri.layout import RowLayout
from repro.petri.net import PetriNet

from oracles.compiled import graph_columns
from test_checkers import MODEL_FAMILY
from test_petri_batch import (
    EXAMPLE_MODELS,
    FUSED_NET,
    HAZARD_NETS,
    overflow_hazard_net,
    ring_hazard_net,
)

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                "golden"))

import regen  # noqa: E402


@pytest.fixture
def identity_layout(monkeypatch):
    """``run()`` under the identity layout: every net keeps one bit per place."""
    def run(call):
        with monkeypatch.context() as patch:
            patch.setattr(RowLayout, "of", classmethod(
                lambda cls, compiled, state: cls.identity_of(
                    len(compiled.place_names))))
            return call()
    return run


def ope(stages, prefix):
    return CompiledNet.compile(to_petri_net(
        build_pipeline_model(stages, static_prefix=prefix)))


def layout_of(compiled, marking=None):
    marking = marking if marking is not None else compiled.net.initial_marking()
    return RowLayout.of(compiled, compiled.encode(marking))


def assert_same_graph(dense, plain, sample=300):
    """The dense graph is the identity graph, decoded; a sample of states
    has the same traces, successors and predecessors."""
    for name, left, right in zip(
            ("words", "edges", "offsets", "parents", "frontier"),
            graph_columns(dense), graph_columns(plain)):
        assert np.array_equal(left, right), name
    assert np.array_equal(dense._dead_arr, plain._dead_arr)
    assert np.array_equal(dense.tables.enabled_bits(dense._words),
                          plain.tables.enabled_bits(plain._words))
    assert (dense.truncated, dense.edge_count()) == \
        (plain.truncated, plain.edge_count())
    assert dense.tables.words <= plain.tables.words
    step = max(1, len(plain) // sample)
    for index in range(0, len(plain), step):
        marking = plain._marking_at(index)
        assert dense._index_of(marking) == index
        assert dense.trace_to(marking) == plain.trace_to(marking)
        assert dense.successors(marking) == plain.successors(marking)
        assert dense.predecessors(marking) == plain.predecessors(marking)


def both(identity_layout, compiled, **options):
    dense = explore_batch(compiled, **options)
    plain = identity_layout(lambda: explore_batch(compiled, **options))
    assert plain.tables.layout.identity
    return dense, plain


def hazard(seed, shape):
    return CompiledNet.compile(ring_hazard_net(seed, **shape))


DIFFERENTIAL_NETS = (
    [pytest.param(lambda make=param.values[0]: CompiledNet.compile(
        to_petri_net(make())), id=param.id) for param in EXAMPLE_MODELS]
    + [pytest.param(lambda seed=seed, shape=shape: hazard(seed, shape),
                    id="hazard-{}".format(seed))
       for seed, shape in HAZARD_NETS + [FUSED_NET]]
    + [pytest.param(lambda: ope(4, 2), id="ope4s_p2"),
       pytest.param(lambda: ope(4, 1), id="ope4s_p1"),
       pytest.param(lambda: ope(8, 1), id="ope8s_p1")])


class TestDifferential:
    @pytest.mark.parametrize("make_net", DIFFERENTIAL_NETS)
    def test_dense_graph_is_the_identity_graph(self, make_net,
                                               identity_layout):
        compiled = make_net()
        full, _ = both(identity_layout, compiled, max_states=4000)
        for max_states in (1, 17, max(1, len(full) // 2), 4000):
            dense, plain = both(identity_layout, compiled,
                                max_states=max_states)
            assert_same_graph(dense, plain)

    @pytest.mark.parametrize("seed,shape", HAZARD_NETS)
    def test_persistence_and_overflow(self, seed, shape, identity_layout):
        dense, plain = both(identity_layout, hazard(seed, shape),
                            max_states=3000)
        for allow in (True, False):
            assert dense.persistence_scan(allow_conflicts=allow) == \
                plain.persistence_scan(allow_conflicts=allow)
        compiled = CompiledNet.compile(overflow_hazard_net(seed, shape))
        with pytest.raises(SafenessOverflowError) as expected:
            identity_layout(lambda: explore_batch(compiled))
        with pytest.raises(SafenessOverflowError) as raised:
            explore_batch(compiled)
        assert str(raised.value) == str(expected.value)

    @pytest.mark.parametrize("model", sorted(MODEL_FAMILY))
    def test_golden_verdicts_and_traces(self, model, identity_layout):
        dense = regen.transcript(model, "exhaustive")
        assert dense == identity_layout(
            lambda: regen.transcript(model, "exhaustive"))

    @pytest.mark.parametrize("max_states", [None, 300])
    def test_checkpoint_resume(self, max_states, tmp_path, monkeypatch,
                               identity_layout):
        """Killed after a level, resumed in the dense layout: the identity
        graph, decoded."""
        compiled = ope(2, 2)
        options = {} if max_states is None else {"max_states": max_states}
        _, plain = both(identity_layout, compiled, **options)
        levels = plain.exploration_stats["levels"]
        for kill_at in range(1, levels, 5):
            checkpoint = str(tmp_path / str(kill_at))
            explore_killed(monkeypatch, kill_at, compiled,
                           checkpoint=checkpoint, **options)
            resumed = explore_batch(compiled, checkpoint=checkpoint, **options)
            assert resumed.exploration_stats["checkpoint"][
                "resumed_from_level"] == (kill_at - 1 or None)
            assert_same_graph(resumed, plain, sample=20)


class Killed(Exception):
    pass


def explore_killed(monkeypatch, kill_at, *args, **options):
    """Run :func:`explore_batch`, killed after level *kill_at*'s appends."""
    hits = []

    def trigger(name, site=None):
        hits.append(site)
        if hits.count("level") == kill_at:
            raise Killed
        return False

    with monkeypatch.context() as patch:
        patch.setattr(batch_module._faults, "trigger", trigger)
        with pytest.raises(Killed):
            explore_batch(*args, **options)


class TestLayoutShape:
    @pytest.mark.parametrize("stages,prefix,bits", [
        (4, 2, 51), (5, 3, 57), (8, 7, 60), (4, 1, 66), (8, 1, 150)])
    def test_dense_bits_of_the_ope_nets(self, stages, prefix, bits):
        layout = layout_of(ope(stages, prefix))
        assert layout.bits == bits
        assert layout.words == (bits + 63) // 64
        # Every place shares its field with another place: none is plain.
        _, counts = np.unique(layout.offset, return_counts=True)
        assert (counts > 1).all()

    def test_fields_never_cross_a_byte(self):
        layout = layout_of(ope(8, 1))
        first = layout.offset // 8
        last = (layout.offset + layout.width - 1) // 8
        assert np.array_equal(first, last)

    def test_state_column_is_one_word_on_the_perfbench_model(self):
        graph = explore_batch(ope(4, 2), max_states=2000)
        assert graph._words.shape == (2000, 1)


def conditional():
    return CompiledNet.compile(to_petri_net(conditional_comp_dfs(comp_stages=1)))


def is_plain(layout, compiled, place):
    """*place* keeps a bit of its own (it is in no field)."""
    index = compiled.place_names.index(place)
    return (layout.code[index] == 1
            and (layout.offset == layout.offset[index]).sum() == 1)


def square_net(bad):
    """A token round four places; with *bad*, a transition that takes two
    places of the cycle's invariant and gives two (it never fires)."""
    net = PetriNet("square")
    for place, tokens in (("a", 1), ("b", 0), ("c", 0), ("d", 0)):
        net.add_place(place, tokens=tokens)
    for name, source, target in (("ab", "a", "b"), ("bc", "b", "c"),
                                 ("cd", "c", "d"), ("da", "d", "a")):
        net.add_transition(name)
        net.add_arc(source, name)
        net.add_arc(name, target)
    if bad:
        net.add_transition("swap")
        for place in ("a", "b"):
            net.add_arc(place, "swap")
        for place in ("c", "d"):
            net.add_arc("swap", place)
    return net


class TestSoundnessGuards:
    @pytest.mark.parametrize("change", ["both", "neither"])
    def test_a_start_marking_off_value_one_makes_no_field(
            self, change, identity_layout, tmp_path, monkeypatch):
        compiled = conditional()
        marking = compiled.net.initial_marking()
        assert marking["C_cond_0"] and not marking["C_cond_1"]
        marking = (marking.add("C_cond_1") if change == "both"
                   else marking.remove("C_cond_0"))
        assert not is_plain(layout_of(compiled), compiled, "C_cond_0")
        layout = layout_of(compiled, marking)
        assert is_plain(layout, compiled, "C_cond_0")
        assert is_plain(layout, compiled, "C_cond_1")
        try:
            plain = identity_layout(
                lambda: explore_batch(compiled, marking=marking))
        except SafenessOverflowError as error:
            with pytest.raises(SafenessOverflowError) as raised:
                explore_batch(compiled, marking=marking)
            assert str(raised.value) == str(error)
            return
        assert_same_graph(explore_batch(compiled, marking=marking), plain)
        # Resumed from a checkpoint of that run: the same layout again.
        checkpoint = str(tmp_path / "ckpt")
        explore_killed(monkeypatch, 1, compiled, marking=marking,
                       checkpoint=checkpoint)
        resumed = explore_batch(compiled, marking=marking,
                                checkpoint=checkpoint)
        assert_same_graph(resumed, plain)

    def test_markings_breaking_an_invariant_are_not_states(
            self, identity_layout):
        compiled = conditional()
        dense = explore_batch(compiled)
        plain = identity_layout(lambda: explore_batch(compiled))
        layout = dense.tables.layout
        names = compiled.place_names
        assert (layout.code < 0).any()  # derived places are covered too
        for marking in plain.states:
            for place in names:
                # Flip one place: every field, pair and derived place
                # loses its invariant that way.
                flipped = (marking.remove(place) if marking[place]
                           else marking.add(place))
                assert flipped not in plain
                assert flipped not in dense
                assert dense._index_of(flipped) is None
                assert layout.encode(compiled.encode(flipped)) is None

    def test_a_transition_moving_two_tokens_of_a_field_keeps_plain_bits(
            self, identity_layout):
        good = CompiledNet.compile(square_net(bad=False))
        layout = layout_of(good)
        assert not layout.identity and layout.bits == 2
        compiled = CompiledNet.compile(square_net(bad=True))
        assert layout_of(compiled).identity
        dense, plain = both(identity_layout, compiled)
        assert_same_graph(dense, plain)
