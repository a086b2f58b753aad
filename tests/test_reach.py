"""Tests for the Reach predicate language (parser, AST, evaluator)."""

import pytest

from repro.exceptions import ReachEvaluationError, ReachSyntaxError
from repro.petri.marking import Marking
from repro.petri.net import PetriNet
from repro.reach import ast
from repro.reach.ast import And, Constant, Marked, Not, conjunction, disjunction
from repro.reach.evaluator import evaluate
from repro.reach.parser import parse
from repro.verification.checkers import (
    CheckerContext,
    ExhaustiveChecker,
    ReachQuery,
)


class TestParser:
    def test_marked_place_dollar_syntax(self):
        expression = parse('$"M_r_1"')
        assert expression.places() == {"M_r_1"}
        assert expression.evaluate(Marking({"M_r_1": 1}))
        assert not expression.evaluate(Marking())

    def test_bare_identifier_is_marked(self):
        assert parse("p").evaluate(Marking({"p": 1}))

    def test_boolean_operators_and_precedence(self):
        expression = parse('a | b & !c')
        # & binds tighter than |.
        assert expression.evaluate(Marking({"a": 1}))
        assert expression.evaluate(Marking({"b": 1}))
        assert not expression.evaluate(Marking({"b": 1, "c": 1}))

    def test_parentheses(self):
        expression = parse('(a | b) & c')
        assert not expression.evaluate(Marking({"a": 1}))
        assert expression.evaluate(Marking({"a": 1, "c": 1}))

    def test_implication(self):
        expression = parse("a -> b")
        assert expression.evaluate(Marking())
        assert expression.evaluate(Marking({"a": 1, "b": 1}))
        assert not expression.evaluate(Marking({"a": 1}))

    def test_token_comparison(self):
        expression = parse("tokens(p) >= 2")
        assert expression.evaluate(Marking({"p": 2}))
        assert not expression.evaluate(Marking({"p": 1}))

    def test_constants(self):
        assert parse("true").evaluate(Marking())
        assert not parse("false").evaluate(Marking())

    def test_syntax_error_on_garbage(self):
        with pytest.raises(ReachSyntaxError):
            parse("a &&& b")

    def test_syntax_error_on_trailing_tokens(self):
        with pytest.raises(ReachSyntaxError):
            parse("a b")

    def test_empty_expression_rejected(self):
        with pytest.raises(ReachSyntaxError):
            parse("   ")


class TestAst:
    def test_operator_overloads(self):
        expression = Marked("a") & ~Marked("b")
        assert expression.evaluate(Marking({"a": 1}))
        assert not expression.evaluate(Marking({"a": 1, "b": 1}))

    def test_conjunction_of_empty_list_is_true(self):
        assert conjunction([]).evaluate(Marking())

    def test_disjunction_of_empty_list_is_false(self):
        assert not disjunction([]).evaluate(Marking())

    def test_places_collects_all_names(self):
        expression = And(Marked("x"), Not(Marked("y")))
        assert expression.places() == {"x", "y"}

    def test_constant_repr(self):
        assert repr(Constant(True)) == "true"


class TestEvaluator:
    def _net(self):
        net = PetriNet("n")
        net.add_place("p", tokens=1)
        net.add_place("q")
        net.add_transition("t")
        net.add_arc("p", "t")
        net.add_arc("t", "q")
        return net

    def test_evaluate_checks_place_names(self):
        net = self._net()
        with pytest.raises(ReachEvaluationError):
            evaluate('$"missing"', net.initial_marking(), net=net)

    def _check(self, expression):
        checker = ExhaustiveChecker(CheckerContext(self._net()))
        return checker.check(ReachQuery(expression))

    def test_reach_witnesses_carry_traces(self, explicit_engine):
        witnesses = self._check('$"q"').witnesses
        assert len(witnesses) == 1
        assert witnesses[0]["trace"] == ["t"]

    def test_reach_verdict(self, explicit_engine):
        assert self._check('$"q"').holds is False
        assert self._check('$"p" & $"q"').holds is True

    def test_unknown_places_are_refused(self):
        with pytest.raises(ReachEvaluationError):
            self._check('$"missing"')

    def test_evaluate_accepts_ast_or_text(self):
        marking = Marking({"p": 1})
        assert evaluate(Marked("p"), marking)
        assert evaluate("p", marking)

    def test_evaluate_rejects_other_types(self):
        with pytest.raises(ReachEvaluationError):
            evaluate(42, Marking())


def _concrete_node_kinds():
    """Every public ReachExpression subclass of ``repro.reach.ast``."""
    kinds, pending = [], list(ast.ReachExpression.__subclasses__())
    while pending:
        kind = pending.pop()
        pending.extend(kind.__subclasses__())
        if kind.__module__ == ast.__name__ and not kind.__name__.startswith("_"):
            kinds.append(kind)
    return sorted(kinds, key=lambda kind: kind.__name__)


def _node_examples(marked, empty):
    """Instances of each node kind over a marked and an empty place."""
    leaf = ast.Marked(marked)
    other = ast.Marked(empty)
    return {
        ast.Constant: [ast.Constant(True), ast.Constant(False)],
        ast.Marked: [leaf, other, ast.Marked("no_such_place")],
        ast.Compare: [ast.Compare(place, operator, value)
                      for place in (marked, empty, "no_such_place")
                      for operator in sorted(ast.Compare._OPERATORS)
                      for value in (0, 1)],
        ast.Not: [ast.Not(leaf), ast.Not(other)],
        ast.And: [ast.And(leaf, other), ast.And(leaf, ast.Not(other))],
        ast.Or: [ast.Or(leaf, other), ast.Or(other, other)],
        ast.Implies: [ast.Implies(leaf, other), ast.Implies(other, leaf)],
    }


class TestRowPredicateCoversEveryNodeKind:
    """The columnar compiler has no fallback: every node kind must compile.

    A node kind added to ``repro.reach.ast`` without a row-predicate rule
    (and an example here) fails this test instead of reaching a graph scan
    or a walk swarm that would raise on it.
    """

    @pytest.mark.parametrize("kind", _concrete_node_kinds(),
                             ids=lambda kind: kind.__name__)
    def test_compiles_and_agrees_with_evaluate(self, kind):
        from repro.dfs.examples import token_ring
        from repro.dfs.translation import to_petri_net
        from repro.petri.batch import compile_row_predicate
        from repro.petri.reachability import build_reachability_graph

        net = to_petri_net(token_ring())
        graph = build_reachability_graph(net)
        initial = net.initial_marking()
        marked = next(place for place in sorted(net.places) if initial[place])
        empty = next(place for place in sorted(net.places)
                     if not initial[place])
        examples = _node_examples(marked, empty)
        assert kind in examples, "no example for Reach node {}".format(
            kind.__name__)
        markings = [graph._marking_at(index) for index in range(len(graph))]
        for expression in examples[kind]:
            predicate = compile_row_predicate(expression,
                                              graph.tables.row_test)
            assert predicate(graph._words).tolist() == [
                bool(expression.evaluate(marking)) for marking in markings]
