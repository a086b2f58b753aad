"""Component-restricted Farkas elimination against the whole-net oracle.

:func:`repro.petri.invariants.compute_semiflows` eliminates each transition
over the rows of its own incidence component only.  Its contract is to be
indistinguishable from the whole-net elimination kept in
:mod:`oracles.invariants`: the same semiflows in the same order (weights
and their place order included), and the same
:class:`~repro.petri.invariants.InvariantBudgetExceeded` -- same message,
so same transition -- under any row budget.
"""

import pytest

from repro.campaign.jobs import FACTORIES, build_pipeline_model
from repro.dfs.translation import to_petri_net
from repro.petri.invariants import InvariantBudgetExceeded, compute_semiflows
from repro.petri.net import PetriNet

from oracles.invariants import whole_net_semiflows
from test_checkers import MODEL_FAMILY


def _bridged_cycles():
    """Two token cycles joined by one transition moving a token across."""
    net = PetriNet("bridged")
    for place, tokens in (("a0", 1), ("a1", 0), ("b0", 1), ("b1", 0)):
        net.add_place(place, tokens=tokens)
    for source, target in (("a0", "a1"), ("a1", "a0"),
                           ("b0", "b1"), ("b1", "b0")):
        name = "t_{}_{}".format(source, target)
        net.add_transition(name)
        net.add_arc(source, name)
        net.add_arc(name, target)
    net.add_transition("t_bridge")
    net.add_arc("a1", "t_bridge")
    net.add_arc("t_bridge", "b0")
    return net


def _weighted():
    """Weighted arcs: ``3*p + 2*q`` is the invariant, plus a unit cycle."""
    net = PetriNet("weighted")
    net.add_place("p", tokens=2)
    net.add_place("q", tokens=0)
    net.add_place("r", tokens=1)
    net.add_place("s", tokens=0)
    net.add_transition("split")
    net.add_arc("p", "split", weight=2)
    net.add_arc("split", "q", weight=3)
    net.add_transition("merge")
    net.add_arc("q", "merge", weight=3)
    net.add_arc("merge", "p", weight=2)
    net.add_transition("hop")
    net.add_arc("r", "hop")
    net.add_arc("hop", "s")
    net.add_transition("back")
    net.add_arc("s", "back", weight=2)
    net.add_arc("back", "r", weight=2)
    return net


def _zero_effect_self_loop():
    """A self-loop on ``guard`` has zero net effect and joins nothing."""
    net = PetriNet("self_loop")
    net.add_place("guard", tokens=1)
    net.add_place("x0", tokens=1)
    net.add_place("x1", tokens=0)
    net.add_transition("set")
    net.add_arc("guard", "set")
    net.add_arc("set", "guard")
    net.add_arc("x0", "set")
    net.add_arc("set", "x1")
    net.add_transition("reset")
    net.add_arc("x1", "reset")
    net.add_arc("reset", "x0")
    return net


def _isolated_and_arcless():
    """An isolated place, a transition with no arcs, one with read arcs only."""
    net = PetriNet("loose_ends")
    for place, tokens in (("c0", 1), ("c1", 0), ("lonely", 3), ("seen", 1)):
        net.add_place(place, tokens=tokens)
    net.add_transition("go")
    net.add_arc("c0", "go")
    net.add_arc("go", "c1")
    net.add_transition("come")
    net.add_arc("c1", "come")
    net.add_arc("come", "c0")
    net.add_transition("idle")
    net.add_transition("look")
    net.add_read_arc("seen", "look")
    net.add_read_arc("c1", "look")
    return net


def _read_arcs_only():
    net = PetriNet("read_only")
    net.add_place("u", tokens=1)
    net.add_place("v", tokens=0)
    net.add_transition("peek")
    net.add_read_arc("u", "peek")
    net.add_read_arc("v", "peek")
    return net


NETS = {}
for _name, _factory in MODEL_FAMILY.items():
    NETS["golden-" + _name] = (lambda factory=_factory: to_petri_net(factory()))
for _name, _factory in FACTORIES.items():
    # Every family at its default size; the pipeline family has no default.
    _kwargs = {"stages": 3} if _name == "pipeline" else {}
    NETS["family-" + _name] = (lambda factory=_factory, kwargs=_kwargs:
                               to_petri_net(factory(**kwargs)))
for _stages, _prefix in ((4, 1), (4, 2), (8, 7)):
    NETS["ope{}s_p{}".format(_stages, _prefix)] = (
        lambda stages=_stages, prefix=_prefix: to_petri_net(
            build_pipeline_model(stages, static_prefix=prefix)))
NETS.update({
    "bridged-cycles": _bridged_cycles,
    "weighted": _weighted,
    "zero-effect-self-loop": _zero_effect_self_loop,
    "isolated-and-arcless": _isolated_and_arcless,
    "read-arcs-only": _read_arcs_only,
})


def _outcome(derive, net, **options):
    """The list of ``(weights items, value)``, or the budget error's text."""
    try:
        semiflows = derive(net, **options)
    except InvariantBudgetExceeded as error:
        return "raised: " + str(error)
    return [(list(semiflow.weights.items()), semiflow.value)
            for semiflow in semiflows]


@pytest.mark.parametrize("name", sorted(NETS))
def test_equals_the_whole_net_elimination(name):
    net = NETS[name]()
    ours = compute_semiflows(net)
    assert ours == whole_net_semiflows(net)
    assert _outcome(compute_semiflows, net) == _outcome(whole_net_semiflows, net)


@pytest.mark.parametrize("name", ["bridged-cycles", "weighted",
                                  "isolated-and-arcless", "golden-ring",
                                  "golden-pipeline3-hole"])
def test_same_outcome_under_every_small_budget(name):
    """The budget counts every row, so it fires at the oracle's transition."""
    net = NETS[name]()
    budgets = range(1, len(net.places) + 8)
    for max_rows in budgets:
        assert (_outcome(compute_semiflows, net, max_rows=max_rows)
                == _outcome(whole_net_semiflows, net, max_rows=max_rows))


def test_budget_blow_up_on_one_component():
    net = _bridged_cycles()
    with pytest.raises(InvariantBudgetExceeded) as ours:
        compute_semiflows(net, max_rows=2)
    with pytest.raises(InvariantBudgetExceeded) as oracle:
        whole_net_semiflows(net, max_rows=2)
    assert str(ours.value) == str(oracle.value)
    assert "'t_a0_a1'" in str(ours.value)


def test_isolated_place_and_read_arcs_are_their_own_semiflows():
    semiflows = compute_semiflows(_read_arcs_only())
    assert [(s.weights, s.value) for s in semiflows] == [({"u": 1}, 1),
                                                         ({"v": 1}, 0)]
    loose = {frozenset(s.weights): s.value
             for s in compute_semiflows(_isolated_and_arcless())}
    assert loose[frozenset({"lonely"})] == 3
    assert loose[frozenset({"seen"})] == 1
