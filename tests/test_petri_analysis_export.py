"""Tests for the invariant oracle (tests/oracles/analysis.py) and repro.petri.export."""

import numpy as np
import pytest

from repro.dfs.translation import to_petri_net
from repro.petri.export import to_dot, to_g_format
from repro.petri.invariants import compute_semiflows
from repro.petri.net import PetriNet

from oracles.analysis import (
    _rational_nullspace,
    incidence_matrix,
    invariant_value,
    place_invariants,
    transition_invariants,
)
from oracles.reachability import explore
from test_checkers import MODEL_FAMILY


def complementary_pair_net():
    """x_0 / x_1 complementary places with x+ and x- transitions."""
    net = PetriNet("pair")
    net.add_place("x_0", tokens=1)
    net.add_place("x_1")
    net.add_transition("x+")
    net.add_transition("x-")
    net.add_arc("x_0", "x+")
    net.add_arc("x+", "x_1")
    net.add_arc("x_1", "x-")
    net.add_arc("x-", "x_0")
    return net


class TestIncidenceMatrix:
    def test_shape_and_entries(self):
        net = complementary_pair_net()
        matrix, places, transitions = incidence_matrix(net)
        assert matrix.shape == (len(places), len(transitions))
        row = {name: index for index, name in enumerate(places)}
        col = {name: index for index, name in enumerate(transitions)}
        assert matrix[row["x_0"], col["x+"]] == -1
        assert matrix[row["x_1"], col["x+"]] == 1

    def test_read_arcs_do_not_contribute(self):
        net = complementary_pair_net()
        net.add_place("guard", tokens=1)
        net.add_read_arc("guard", "x+")
        matrix, places, _ = incidence_matrix(net)
        guard_row = matrix[places.index("guard")]
        assert not guard_row.any()


class TestInvariants:
    def test_complementary_pair_is_a_place_invariant(self):
        invariants = place_invariants(complementary_pair_net())
        assert any(set(inv) == {"x_0", "x_1"} and set(inv.values()) == {1}
                   for inv in invariants)

    def test_invariant_value_constant_over_reachable_states(self):
        net = complementary_pair_net()
        invariants = place_invariants(net)
        graph = explore(net)
        for invariant in invariants:
            values = {invariant_value(invariant, marking) for marking in graph.states}
            assert len(values) == 1

    def test_transition_invariant_of_the_cycle(self):
        invariants = transition_invariants(complementary_pair_net())
        assert any(set(inv) == {"x+", "x-"} for inv in invariants)


class TestSemiflowOracle:
    """The Farkas semiflows of ``repro.petri.invariants``, checked by the oracle."""

    @pytest.mark.parametrize("model_name", sorted(MODEL_FAMILY))
    def test_semiflows_lie_in_the_rational_invariant_space(self, model_name):
        net = to_petri_net(MODEL_FAMILY[model_name]())
        matrix, places, _ = incidence_matrix(net)
        basis = [[invariant.get(place, 0) for place in places]
                 for invariant in place_invariants(net)]
        assert basis
        # y lies in the rational span of the basis rows exactly when it is
        # orthogonal to every vector of the basis matrix's nullspace.
        complement = _rational_nullspace(np.array(basis, dtype=np.int64))
        semiflows = compute_semiflows(net)
        assert semiflows
        for semiflow in semiflows:
            y = np.array([semiflow.weights.get(place, 0) for place in places],
                         dtype=np.int64)
            assert not (y @ matrix).any(), "y^T C != 0"
            for vector in complement:
                assert int(np.dot(y, vector)) == 0, (
                    "semiflow outside the span of the oracle's invariants")


class TestExport:
    def test_dot_contains_all_elements(self):
        net = complementary_pair_net()
        dot = to_dot(net)
        assert dot.startswith("digraph")
        for name in ("x_0", "x_1", "x+", "x-"):
            assert name in dot

    def test_dot_highlight(self):
        dot = to_dot(complementary_pair_net(), highlight=["x_0"])
        assert "color=red" in dot

    def test_dot_read_arc_rendered_dashed(self):
        net = complementary_pair_net()
        net.add_place("guard", tokens=1)
        net.add_read_arc("guard", "x+")
        assert "style=dashed" in to_dot(net)

    def test_g_format_sections(self):
        text = to_g_format(complementary_pair_net())
        assert ".model" in text
        assert ".graph" in text
        assert ".marking {x_0}" in text
        assert text.rstrip().endswith(".end")
