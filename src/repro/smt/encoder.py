"""SMT-LIB encoding of Petri-net semantics: markings, steps, predicates.

The encoding follows the functional style SMPT uses for its z3 backend:

* a marking at unrolling step ``k`` is one Int variable ``|p@k|`` per
  place, constrained to ``0..1``: the encoding serves IC3, which runs only
  on nets whose place invariants certify 1-safety (the caller checks that
  certificate; the :class:`SmtEncoder` does not);
* the transition fired at step ``k`` is a single Int selector ``|t@k|``
  ranging over the sorted transition names -- the same canonical order the
  compiled bitmask engine uses, so a model's selector values replay
  directly through :meth:`repro.petri.net.PetriNet.fire`;
* the step relation asserts (a) the selected transition is enabled --
  consume arcs need ``weight`` tokens, read arcs need one token -- and
  (b) every place's next value is its current value plus an ``ite`` chain
  over the transitions that *touch* it.  The size of the step formula is
  O(arcs), not O(places x transitions): untouched places contribute one
  frame equality, read arcs contribute nothing to the update at all.

Reach predicates are translated from the AST directly (no 1-safe cube
normalisation involved); the DNF cubes of :mod:`repro.reach.cubes` are
what the IC3 engine blocks.  Place invariants (semiflows) become per-step
linear equalities; asserting them is sound at any step because a semiflow
holds at the initial marking and is preserved by every firing.

Everything returned here is either a *declaration line* (ready to send) or
a *formula string* (the caller wraps it in ``(assert ...)`` or combines it
further).  Formulas are plain QF-LIA terms, so the evaluator of
:mod:`repro.smt.sexpr` can check them against concrete markings -- the
solver-free differential oracle used by ``tests/test_smt.py``.
"""

from repro.exceptions import ReachEvaluationError
from repro.reach.ast import (
    And,
    Compare,
    Constant,
    Implies,
    Marked,
    Not,
    Or,
)

#: Reach comparison operators with a 1:1 SMT-LIB spelling.
_DIRECT_OPERATORS = {"<": "<", "<=": "<=", ">": ">", ">=": ">=", "==": "="}


def conjoin(formulas):
    """``(and ...)`` over formula strings (``true`` when empty)."""
    formulas = [f for f in formulas if f != "true"]
    if not formulas:
        return "true"
    if len(formulas) == 1:
        return formulas[0]
    return "(and {})".format(" ".join(formulas))


def disjoin(formulas):
    """``(or ...)`` over formula strings (``false`` when empty)."""
    formulas = [f for f in formulas if f != "false"]
    if not formulas:
        return "false"
    if len(formulas) == 1:
        return formulas[0]
    return "(or {})".format(" ".join(formulas))


def negate(formula):
    if formula == "true":
        return "false"
    if formula == "false":
        return "true"
    return "(not {})".format(formula)


def _literal(value):
    """An integer literal (SMT-LIB spells negatives as ``(- n)``)."""
    return str(value) if value >= 0 else "(- {})".format(-value)


class SmtEncoder:
    """Encode one Petri net into SMT-LIB declaration and formula strings."""

    def __init__(self, net):
        self.net = net
        self.place_names = sorted(net.places)
        self.transition_names = sorted(net.transitions)
        self.transition_index = {
            name: index for index, name in enumerate(self.transition_names)}
        # Per transition: the token requirement of enabledness (consume
        # weights joined with read arcs) and the non-zero marking deltas.
        self._need = []
        self._delta = []
        # Per place: the transitions that change it, as (index, delta).
        self._touched = {}
        for index, name in enumerate(self.transition_names):
            consume = net.consumed_places(name)
            produce = net.produced_places(name)
            read = net.read_places(name)
            need = dict(consume)
            for place in read:
                need[place] = max(need.get(place, 0), 1)
            delta = dict(produce)
            for place, weight in consume.items():
                delta[place] = delta.get(place, 0) - weight
            delta = {place: d for place, d in delta.items() if d}
            self._need.append(need)
            self._delta.append(delta)
            for place, d in delta.items():
                self._touched.setdefault(place, []).append((index, d))

    # -- naming ---------------------------------------------------------------

    @staticmethod
    def place(name, step):
        """The Int variable of place *name* at unrolling step *step*."""
        return "|{}@{}|".format(name, step)

    @staticmethod
    def selector(step):
        """The Int selector of the transition fired at step *step*."""
        return "|t@{}|".format(step)

    def place_variables(self, step):
        return [self.place(name, step) for name in self.place_names]

    # -- markings -------------------------------------------------------------

    def declare_marking(self, step):
        """Declaration lines for the marking variables of *step*."""
        return ["(declare-const {} Int)".format(var)
                for var in self.place_variables(step)]

    def marking_bounds(self, step):
        """Range formulas ``0 <= p <= 1``, one per place."""
        return ["(and (>= {0} 0) (<= {0} 1))".format(var)
                for var in self.place_variables(step)]

    def initial(self, step=0):
        """The formula pinning *step* to the initial marking."""
        marking = self.net.initial_marking()
        return conjoin([
            "(= {} {})".format(self.place(name, step), _literal(marking[name]))
            for name in self.place_names])

    # -- the transition relation ----------------------------------------------

    def enabled(self, index, step):
        """The enabledness formula of transition *index* at *step*."""
        return conjoin([
            "(>= {} {})".format(self.place(place, step), _literal(tokens))
            for place, tokens in sorted(self._need[index].items())])

    def deadlock(self, step):
        """No transition is enabled at *step*."""
        return conjoin([
            negate(self.enabled(index, step))
            for index in range(len(self.transition_names))])

    def declare_step(self, step):
        """Declaration lines for the selector of *step*."""
        return ["(declare-const {} Int)".format(self.selector(step))]

    def step_formulas(self, step):
        """Formulas relating the markings of *step* and *step + 1*.

        ``selector`` ranges over the transitions, the selected transition is
        enabled at *step*, and every place is updated by exactly the
        selected transition's effect (the frame equality for untouched
        places).  The caller asserts each formula (or folds them under an
        activation literal, as IC3 does).
        """
        selector = self.selector(step)
        count = len(self.transition_names)
        formulas = [
            "(and (>= {0} 0) (< {0} {1}))".format(selector, count),
            disjoin([
                conjoin(["(= {} {})".format(selector, index),
                         self.enabled(index, step)])
                for index in range(count)]),
        ]
        for name in self.place_names:
            current = self.place(name, step)
            following = self.place(name, step + 1)
            touched = self._touched.get(name)
            if not touched:
                formulas.append("(= {} {})".format(following, current))
                continue
            update = "0"
            for index, delta in reversed(touched):
                update = "(ite (= {} {}) {} {})".format(
                    selector, index, _literal(delta), update)
            formulas.append(
                "(= {} (+ {} {}))".format(following, current, update))
        return formulas

    # -- predicates and invariants --------------------------------------------

    def predicate(self, expression, step):
        """Translate a Reach AST into a formula over the *step* marking.

        Sound for arbitrary token counts: token comparisons translate
        directly, with no 1-safe normalisation.  Raises
        :class:`~repro.exceptions.ReachEvaluationError` on AST nodes outside
        the Reach core (none exist today, but a loud failure beats encoding
        the wrong property).
        """
        if isinstance(expression, Constant):
            return "true" if expression.value else "false"
        if isinstance(expression, Marked):
            return "(>= {} 1)".format(self.place(expression.place, step))
        if isinstance(expression, Compare):
            variable = self.place(expression.place, step)
            value = _literal(expression.value)
            if expression.operator in _DIRECT_OPERATORS:
                return "({} {} {})".format(
                    _DIRECT_OPERATORS[expression.operator], variable, value)
            if expression.operator == "!=":
                return "(not (= {} {}))".format(variable, value)
        if isinstance(expression, Not):
            return negate(self.predicate(expression.operand, step))
        if isinstance(expression, And):
            return conjoin([self.predicate(expression.left, step),
                            self.predicate(expression.right, step)])
        if isinstance(expression, Or):
            return disjoin([self.predicate(expression.left, step),
                            self.predicate(expression.right, step)])
        if isinstance(expression, Implies):
            return "(=> {} {})".format(self.predicate(expression.left, step),
                                       self.predicate(expression.right, step))
        raise ReachEvaluationError(
            "cannot encode Reach node {!r} into SMT-LIB".format(
                type(expression).__name__))

    def cube(self, cube, step):
        """A 1-safe DNF cube as a formula (used by the IC3 engine)."""
        literals = []
        for place in sorted(cube.true_places):
            literals.append("(>= {} 1)".format(self.place(place, step)))
        for place in sorted(cube.false_places):
            literals.append("(<= {} 0)".format(self.place(place, step)))
        return conjoin(literals)

    def invariant(self, semiflow, step):
        """A place invariant as a linear equality over the *step* marking."""
        terms = []
        for place, weight in sorted(semiflow.weights.items()):
            variable = self.place(place, step)
            terms.append(variable if weight == 1
                         else "(* {} {})".format(weight, variable))
        total = terms[0] if len(terms) == 1 else "(+ {})".format(" ".join(terms))
        return "(= {} {})".format(total, _literal(semiflow.value))

    def invariants(self, semiflows, step):
        return [self.invariant(semiflow, step) for semiflow in semiflows]

    def __repr__(self):
        return "SmtEncoder({!r}, places={}, transitions={})".format(
            self.net.name, len(self.place_names), len(self.transition_names))
