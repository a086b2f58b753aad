"""Disjunctive normal form of Reach expressions over 1-safe markings.

The graph-based evaluator scans materialised states, so it can take any
predicate as an opaque callable.  Symbolic checkers cannot: the inductive
engine of :mod:`repro.verification.checkers` reasons about *sets* of
markings, and needs the bad-state predicate as a union of **cubes** --
conjunctions of place literals ("these places marked, those empty").  This
module normalises a Reach AST into that form.

Token-count comparisons are resolved under the 1-safe assumption (every
place holds zero or one token), which is exact for the DFS translations the
checkers operate on: ``tokens(p) >= 1`` becomes "p marked", ``tokens(p) < 1``
becomes "p empty", and comparisons no 0/1 count can satisfy collapse to the
``false`` constant.

Normalisation can blow up exponentially, so it carries a cube budget;
:func:`to_cubes` returns ``None`` (not an error) when the expression holds a
node kind it does not know or exceeds the budget -- callers then fall back
to enumerative checking.
"""

from repro.reach import ast as _ast


class Cube:
    """A conjunction of place literals: *true_places* marked, *false_places* empty."""

    __slots__ = ("true_places", "false_places")

    def __init__(self, true_places=(), false_places=()):
        self.true_places = frozenset(true_places)
        self.false_places = frozenset(false_places)

    def conjoin(self, other):
        """Conjunction with *other*; ``None`` when contradictory."""
        true_places = self.true_places | other.true_places
        false_places = self.false_places | other.false_places
        if true_places & false_places:
            return None
        return Cube(true_places, false_places)

    def evaluate(self, marking):
        """Evaluate the cube on a marking (1-safe semantics)."""
        return (all(marking[place] > 0 for place in self.true_places)
                and all(marking[place] == 0 for place in self.false_places))

    def places(self):
        return self.true_places | self.false_places

    def __eq__(self, other):
        return (isinstance(other, Cube)
                and self.true_places == other.true_places
                and self.false_places == other.false_places)

    def __hash__(self):
        return hash((self.true_places, self.false_places))

    def __repr__(self):
        literals = sorted(self.true_places) + [
            "!" + place for place in sorted(self.false_places)]
        return "Cube({})".format(" & ".join(literals) or "true")


def _compare_literal(expression, positive):
    """Resolve a token-count comparison to a literal under 1-safety."""
    operator = _ast.Compare._OPERATORS[expression.operator]
    satisfied_empty = operator(0, expression.value)
    satisfied_marked = operator(1, expression.value)
    if not positive:
        satisfied_empty = not satisfied_empty
        satisfied_marked = not satisfied_marked
    if satisfied_empty and satisfied_marked:
        return [Cube()]
    if not satisfied_empty and not satisfied_marked:
        return []
    if satisfied_marked:
        return [Cube(true_places=(expression.place,))]
    return [Cube(false_places=(expression.place,))]


def _dnf(expression, positive, max_cubes):
    if isinstance(expression, _ast.Constant):
        return [Cube()] if expression.value == positive else []
    if isinstance(expression, _ast.Marked):
        if positive:
            return [Cube(true_places=(expression.place,))]
        return [Cube(false_places=(expression.place,))]
    if isinstance(expression, _ast.Compare):
        return _compare_literal(expression, positive)
    if isinstance(expression, _ast.Not):
        return _dnf(expression.operand, not positive, max_cubes)
    if isinstance(expression, (_ast.And, _ast.Or, _ast.Implies)):
        left_positive = positive if not isinstance(expression, _ast.Implies) \
            else not positive
        if isinstance(expression, _ast.Implies):
            # a -> b  ==  !a | b; under negation it is  a & !b.
            disjunctive = positive
            left = _dnf(expression.left, left_positive, max_cubes)
            right = _dnf(expression.right, positive, max_cubes)
        elif isinstance(expression, _ast.Or):
            disjunctive = positive
            left = _dnf(expression.left, positive, max_cubes)
            right = _dnf(expression.right, positive, max_cubes)
        else:  # And: conjunctive when positive, disjunctive when negated
            disjunctive = not positive
            left = _dnf(expression.left, positive, max_cubes)
            right = _dnf(expression.right, positive, max_cubes)
        if left is None or right is None:
            return None
        if disjunctive:
            combined = left + right
            if len(combined) > max_cubes:
                return None
            return combined
        product = []
        for cube_a in left:
            for cube_b in right:
                cube = cube_a.conjoin(cube_b)
                if cube is not None:
                    product.append(cube)
                if len(product) > max_cubes:
                    return None
        return product
    return None  # unknown AST node kind (e.g. a user-defined subclass)


def _prune_subsumed(cubes):
    """Drop cubes covered by a more general cube (fewer literals)."""
    kept = []
    for i, cube in enumerate(cubes):
        subsumed = False
        for j, other in enumerate(cubes):
            if i == j:
                continue
            if (other.true_places <= cube.true_places
                    and other.false_places <= cube.false_places
                    and (other != cube or j < i)):
                subsumed = True
                break
        if not subsumed:
            kept.append(cube)
    return kept


def to_cubes(expression, max_cubes=256):
    """Normalise a Reach AST into a list of :class:`Cube` (DNF).

    An empty list means the expression is unsatisfiable on 1-safe markings.
    Returns ``None`` when the AST holds an unknown node kind or the
    normalised form would exceed *max_cubes* cubes; callers fall back to
    enumerative evaluation in that case.
    """
    cubes = _dnf(expression, True, max_cubes)
    if cubes is None:
        return None
    return _prune_subsumed(list(dict.fromkeys(cubes)))
