"""The pure-int scalar random walker: the oracle of the vectorised swarm.

:func:`scalar_hunt` fires one transition of one walk per step on Python
ints, with the shared semantics of :mod:`repro.verification.checkers
.walk_core`: the counter-based draw of ``(seed, walk, step)`` and the
guidance ranks below; every walk starts at the initial marking.  The swarm of
:mod:`repro.verification.checkers.walk_batch` reproduces these ranks bit for
bit in uint64/float64 columns and tie-breaks guided moves the same way, so
the two must agree on every conclusive verdict of the example family.

:class:`ScalarWalkChecker` is the walk checker with this walker in place of
the swarm: verdicts, witness replay and outcome texts stay the checker's
own, only the engine underneath changes.
"""

from repro.exceptions import SafenessOverflowError
from repro.petri.compiled import iter_bits
from repro.reach import ast as _ast
from repro.verification.checkers import CheckerContext
from repro.verification.checkers.walk import RandomWalkChecker
from repro.verification.checkers.walk_batch import SwarmResult
from repro.verification.checkers.walk_core import walk_draw
from repro.verification.verifier import Verifier

from oracles.compiled import enabled_mask


def compile_mask_predicate(expression, mask_of):
    """Compile a Reach AST into a predicate over ``int`` bitmask states.

    The scalar walker's own compiler, independent of the swarm's
    :func:`~repro.petri.batch.compile_row_predicate`.  *mask_of* maps a
    place name to its single-bit mask (``0`` for unknown places, which then
    hold zero tokens -- matching marking semantics on 1-safe states).
    Raises :class:`TypeError` for a node kind it does not know.
    """
    if isinstance(expression, _ast.Constant):
        value = expression.value
        return lambda state: value
    if isinstance(expression, _ast.Marked):
        bit = mask_of(expression.place)
        return lambda state: bool(state & bit)
    if isinstance(expression, _ast.Compare):
        bit = mask_of(expression.place)
        operator = _ast.Compare._OPERATORS[expression.operator]
        value = expression.value
        return lambda state: operator(1 if state & bit else 0, value)
    if isinstance(expression, _ast.Not):
        operand = compile_mask_predicate(expression.operand, mask_of)
        return lambda state: not operand(state)
    if isinstance(expression, (_ast.And, _ast.Or, _ast.Implies)):
        left = compile_mask_predicate(expression.left, mask_of)
        right = compile_mask_predicate(expression.right, mask_of)
        if isinstance(expression, _ast.And):
            return lambda state: left(state) and right(state)
        if isinstance(expression, _ast.Or):
            return lambda state: left(state) or right(state)
        return lambda state: (not left(state)) or right(state)
    raise TypeError("no mask predicate for Reach node {!r}".format(
        type(expression).__name__))


def fewest_enabled_rank(compiled, state):
    """Deadlock guidance: successors with fewer options rank better."""
    return enabled_mask(compiled, state).bit_count()


def cube_rank(masks, state):
    """Reach guidance: minus the best matched-literal fraction over *masks*.

    *masks* is a :func:`~repro.verification.checkers.walk_core
    .cube_mask_table`.  Lower is better (``-1.0`` means some cube fully
    matched, i.e. the state is bad).  The division is a single float64
    operation, so the swarm reproduces the exact rank values.
    """
    best = 0
    for ones, zeros, size in masks:
        matched = (state & ones).bit_count() + (~state & zeros).bit_count()
        best = max(best, size and matched / size)
    return -best


def scalar_hunt(compiled, initial, walks, steps, seed, guidance,
                max_witnesses, predicate=None, cube_masks=None,
                score_kind=None, stop_in_deadlock=False,
                overflow_conclusive=False):
    """Run the walk budget one firing at a time; a :class:`SwarmResult`.

    The arguments mirror :func:`~repro.verification.checkers.walk_batch
    .swarm_hunt`, except that *predicate* is an int-state bitmask predicate
    (:func:`compile_mask_predicate`) and there is no
    swarm width.  Witness states are ints and traces transition indices,
    exactly as the swarm reports them.
    """
    guided_threshold = int(guidance * 256)
    witnesses = []
    # Walks often re-find the same bad state; witnesses (and the reported
    # count) cover *distinct* states only.
    witnessed_states = set()
    steps_fired = 0

    def witness(state, trace):
        if state not in witnessed_states:
            witnessed_states.add(state)
            witnesses.append({"state": state, "trace": list(trace)})

    if score_kind == "fewest":
        score = fewest_enabled_rank
    elif score_kind == "cube":
        def score(compiled_net, state):
            return cube_rank(cube_masks, state)
    else:
        score = None

    for walk_index in range(walks):
        state = initial
        trace = []
        for step in range(steps):
            if predicate is not None and predicate(state):
                witness(state, trace)
                break
            enabled = enabled_mask(compiled, state)
            if not enabled:
                if stop_in_deadlock:
                    witness(state, trace)
                break
            draw = walk_draw(seed, walk_index, step + 1)
            try:
                transition, state = _step(
                    compiled, state, enabled, draw, score,
                    guided=(draw >> 8) & 0xFF < guided_threshold)
            except SafenessOverflowError as overflow:
                if not overflow_conclusive:
                    break  # wrong property: end this walk, try another
                found = {
                    "state": state, "trace": list(trace),
                    "transition": compiled.transition_index[
                        overflow.transition],
                    "place": compiled.place_names.index(overflow.place),
                }
                return SwarmResult(witnesses, found, steps_fired,
                                   walk_index + 1, steps_fired)
            steps_fired += 1
            trace.append(transition)
        if len(witnesses) >= max_witnesses:
            break
    return SwarmResult(witnesses, None, steps_fired, walks, steps_fired)


def _step(compiled, state, enabled, draw, score, guided):
    indices = list(iter_bits(enabled))
    if guided and score is not None and len(indices) > 1:
        best = None
        for index in indices:
            successor = compiled.fire(index, state)
            rank = score(compiled, successor)
            if best is None or rank < best[0]:
                best = (rank, index, successor)
        return best[1], best[2]
    index = indices[draw % len(indices)]
    return index, compiled.fire(index, state)


class ScalarWalkChecker(RandomWalkChecker):
    """The walk checker with :func:`scalar_hunt` in place of the swarm."""

    def _walk(self, compiled, initial, kind, max_witnesses, expression,
              row_predicate, cube_masks, score_kind, stop_in_deadlock,
              overflow_conclusive):
        predicate = (compile_mask_predicate(expression, compiled.mask_of)
                     if kind == "reach" else None)
        return scalar_hunt(
            compiled, initial, walks=self.walks, steps=self.steps,
            seed=self.seed or 0xACE1, guidance=self.guidance,
            max_witnesses=max_witnesses,
            predicate=predicate, cube_masks=cube_masks,
            score_kind=score_kind, stop_in_deadlock=stop_in_deadlock,
            overflow_conclusive=overflow_conclusive)


def scalar_walk_checker(net, **options):
    """A :class:`ScalarWalkChecker` on a fresh context of *net*."""
    return ScalarWalkChecker(CheckerContext(net), **options)


def scalar_walk_verifier(dfs, **options):
    """A walk :class:`Verifier` of *dfs* whose walk checker is the oracle.

    The oracle is never registered as a checker, so it cannot leak into
    the CLI, campaign digests or pool workers; it is placed straight into
    the verifier's checker slot instead.
    """
    verifier = Verifier(dfs, checker="walk")
    verifier._checker = ScalarWalkChecker(verifier.context, **options)
    return verifier
