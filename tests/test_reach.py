"""Tests for the Reach predicate language (parser, AST, evaluator)."""

import pytest

from repro.exceptions import ReachEvaluationError, ReachSyntaxError
from repro.petri.marking import Marking
from repro.petri.net import PetriNet
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
