"""Vectorised walk swarms on the batch firing primitive.

A scalar walker fires one transition of one state per Python bytecode
iteration; this engine advances **thousands of concurrent walks per pass**.
Every walk is one row of a ``(width, words)`` uint64 matrix, and one pass of
the main loop is:

1. retire rows that exhausted their step budget (the state after a walk's
   final firing is never predicate-checked);
2. test the bad-state predicate on the whole matrix
   (:func:`repro.petri.batch.compile_row_predicate`);
3. one :meth:`~repro.petri.batch.WordTables.enabled_matrix` scan -- rows
   with nothing enabled are deadlock witnesses (when hunting deadlocks);
4. draw one word per row from the counter-based RNG of
   :func:`~repro.verification.checkers.walk_core.walk_draw` -- a walk's
   stream depends only on ``(seed, walk, step)``, never on the swarm width;
5. fire **every** enabled (state, transition) pair of the matrix at once
   through :func:`repro.petri.batch.fire_enabled_flags`;
6. pick each row's move: guided rows take the best-ranked successor
   (one ``lexsort`` + segment heads, ranked by enabled counts for deadlock
   hunts and by matched bad-cube literal fractions for Reach hunts),
   uniform rows index their candidate list by the draw -- guided ties go
   to the lowest transition index;
7. retire the rows whose move overflowed a place;
8. commit the surviving moves;
9. retired rows are **reseeded in place**, in walk order: the next walk
   launches from the initial marking into the freed row.

Every walk starts at the initial marking, so its witness trace is its own
firings.  Each walk's moves are width-independent, but which walk occupies
which row -- and so the order in which witnesses of one pass are reported,
and which walk finds them first -- follows when earlier walks retired;
hence the engine is deterministic per ``(seed, walks, swarm width)``, and
the width is part of the contract (and of campaign digests).  Witness
traces produced here are raw transition indices -- the checker replays
them on the net before trusting any verdict.

The scalar walker of ``tests/oracles/walk.py`` is this engine's oracle: it
ranks, draws and tie-breaks the same way one firing at a time.
"""

import numpy

from repro.petri.batch import (
    fire_enabled_flags,
    int_to_words,
    overflow_place,
    words_to_int,
)
from repro.verification.checkers.walk_core import (
    DRAW_SEED_STRIDE,
    DRAW_STEP_STRIDE,
    DRAW_WALK_STRIDE,
    MIX_MULTIPLIER_A,
    MIX_MULTIPLIER_B,
)

_MASK64 = (1 << 64) - 1


def draw_rows(seed, walks, steps):
    """Vectorised :func:`~repro.verification.checkers.walk_core.walk_draw`.

    *walks* and *steps* are integer vectors; returns the uint64 draw of
    each ``(seed, walk, step)`` triple, bit-identical to the scalar
    function (uint64 arithmetic wraps exactly like the masked int math).
    """
    value = (numpy.uint64((seed * DRAW_SEED_STRIDE) & _MASK64)
             + walks.astype(numpy.uint64) * numpy.uint64(DRAW_WALK_STRIDE)
             + steps.astype(numpy.uint64) * numpy.uint64(DRAW_STEP_STRIDE))
    value = ((value ^ (value >> numpy.uint64(30)))
             * numpy.uint64(MIX_MULTIPLIER_A))
    value = ((value ^ (value >> numpy.uint64(27)))
             * numpy.uint64(MIX_MULTIPLIER_B))
    return value ^ (value >> numpy.uint64(31))


def cube_word_table(cube_masks, words):
    """Split int ``(ones, zeros, size)`` cube masks into uint64 word rows."""
    table = []
    for ones, zeros, size in cube_masks or ():
        if not size:
            continue
        table.append(
            (numpy.array(int_to_words(ones, words), dtype=numpy.uint64),
             numpy.array(int_to_words(zeros, words), dtype=numpy.uint64),
             size))
    return table


def cube_rank_rows(table, rows):
    """Per row: minus the best matched-literal fraction over the cubes.

    Lower is better (``-1.0`` means some cube fully matched, i.e. the row is
    bad).  Each division is one float64 operation, so the scalar test
    oracle reproduces the exact rank values.
    """
    best = numpy.zeros(len(rows), dtype=numpy.float64)
    for ones, zeros, size in table:
        matched = (numpy.bitwise_count(rows & ones).sum(axis=1)
                   + numpy.bitwise_count(~rows & zeros).sum(axis=1))
        best = numpy.maximum(best, matched / size)
    return -best


class SwarmResult:
    """What one swarm hunt produced, plus its work counters.

    ``witnesses`` are ``{"state": int, "trace": [transition indices]}``
    dicts for distinct bad/deadlocked states; ``overflow`` is the
    conclusive 1-safeness counterexample of a safeness hunt (or ``None``);
    ``steps`` counts committed row advances and ``expanded`` all fired
    (state, transition) candidate pairs -- the bench's throughput numbers.
    """

    __slots__ = ("witnesses", "overflow", "steps", "walks", "expanded")

    def __init__(self, witnesses, overflow, steps, walks, expanded):
        self.witnesses = witnesses
        self.overflow = overflow
        self.steps = steps
        self.walks = walks
        self.expanded = expanded


def swarm_hunt(tables, initial, walks, steps, swarm, seed, guidance,
               max_witnesses, row_predicate=None, cube_masks=None,
               score_kind=None, stop_in_deadlock=False,
               overflow_conclusive=False):
    """Run the walk budget as a vectorised swarm; a :class:`SwarmResult`.

    *tables* is the :class:`~repro.petri.batch.WordTables` of the compiled
    net and *initial* the int initial state.  The remaining knobs mirror
    the walk checker's (see :class:`RandomWalkChecker`); *swarm* caps the
    matrix width -- ``min(walks, swarm)`` rows advance concurrently and
    retired rows are reseeded in place until *walks* walks have launched.
    """
    words = tables.words
    width = max(1, min(int(swarm), int(walks)))
    threshold = int(guidance * 256)
    cube_table = (cube_word_table(cube_masks, words)
                  if score_kind == "cube" else None)

    initial_row = numpy.array(int_to_words(initial, words), dtype=numpy.uint64)
    rows = numpy.tile(initial_row, (width, 1))
    walk_id = numpy.arange(width, dtype=numpy.int64)
    steps_taken = numpy.zeros(width, dtype=numpy.int64)
    active = numpy.ones(width, dtype=bool)
    trace_buf = numpy.zeros((width, max(int(steps), 1)), dtype=numpy.int32)
    launched = width

    witnesses = []
    witnessed = set()
    total_steps = 0
    expanded = 0

    def trace_of(i):
        return [int(t) for t in trace_buf[i, :int(steps_taken[i])]]

    def witness(i):
        state = words_to_int(rows[i])
        if state not in witnessed:
            witnessed.add(state)
            witnesses.append({"state": state, "trace": trace_of(i)})

    def state_rank(block):
        if score_kind == "fewest":
            return tables.enabled_matrix(block).sum(axis=1).astype(
                numpy.float64)
        return cube_rank_rows(cube_table, block)

    def retire(i):
        """Reseed row *i* with the next walk, or park it when none is left."""
        nonlocal launched
        if launched >= walks:
            active[i] = False
            return
        walk_id[i] = launched
        launched += 1
        steps_taken[i] = 0
        rows[i] = initial_row

    while len(witnesses) < max_witnesses:
        act = numpy.flatnonzero(active)
        if not len(act):
            break
        retired = []
        # 1. step-budget exhaustion (the post-final-fire state is never
        # predicate-checked, matching the scalar loop bound).
        exhausted = steps_taken[act] >= steps
        if exhausted.any():
            retired.extend(act[exhausted].tolist())
            act = act[~exhausted]
        # 2. bad-state predicate over the whole matrix.
        if len(act) and row_predicate is not None:
            hits = row_predicate(rows[act])
            if hits.any():
                for i in act[hits].tolist():
                    witness(i)
                retired.extend(act[hits].tolist())
                act = act[~hits]
        if len(act):
            # 3. enabledness; silent rows are deadlock witnesses.
            enabled = tables.enabled_matrix(rows[act])
            counts = enabled.sum(axis=1)
            dead = counts == 0
            if dead.any():
                if stop_in_deadlock:
                    for i in act[dead].tolist():
                        witness(i)
                retired.extend(act[dead].tolist())
                keep = ~dead
                act, enabled, counts = act[keep], enabled[keep], counts[keep]
        if len(act):
            # 4. one counter-based draw per row.
            draws = draw_rows(seed, walk_id[act], steps_taken[act] + 1)
            if score_kind is not None:
                guided = (((draws >> numpy.uint64(8)) & numpy.uint64(0xFF))
                          < numpy.uint64(threshold))
                guided &= counts > 1
            else:
                guided = numpy.zeros(len(act), dtype=bool)
            # 5. fire every enabled pair of the matrix in one batch.
            flat = numpy.flatnonzero(enabled)
            source_local, transition, successor, overflowed = (
                fire_enabled_flags(tables, rows[act], flat))
            expanded += len(flat)
            if overflow_conclusive and overflowed.any():
                position = int(numpy.argmax(overflowed))
                i = int(act[int(source_local[position])])
                overflow = {
                    "state": words_to_int(rows[i]),
                    "trace": trace_of(i),
                    "transition": int(transition[position]),
                    "place": int(overflow_place(tables, rows[act],
                                                source_local, transition,
                                                position)),
                }
                return SwarmResult(witnesses, overflow, total_steps,
                                   launched, expanded)
            # 6. choose each row's move.
            seg_start = numpy.cumsum(counts) - counts
            choice = numpy.empty(len(act), dtype=numpy.int64)
            uniform = ~guided
            if uniform.any():
                offsets = (draws[uniform]
                           % counts[uniform].astype(numpy.uint64))
                choice[uniform] = (seg_start[uniform]
                                   + offsets.astype(numpy.int64))
            if guided.any():
                pair_guided = guided[source_local]
                g_flat = numpy.flatnonzero(pair_guided)
                g_rank = state_rank(successor[g_flat])
                g_source = source_local[g_flat]
                # Sorting by (row, rank, transition) and taking segment
                # heads picks the minimum rank with ties to the lowest
                # transition index -- the scalar stepper's exact choice.
                order = numpy.lexsort((transition[g_flat], g_rank, g_source))
                ordered_source = g_source[order]
                head = numpy.ones(len(order), dtype=bool)
                head[1:] = ordered_source[1:] != ordered_source[:-1]
                choice[ordered_source[head]] = g_flat[order[head]]
            # 7. overflow retirement: a guided row dies on *any*
            # overflowing candidate (the scalar scorer fires them all); a
            # uniform row dies only when its chosen pair overflowed.
            kill = overflowed[choice] & uniform
            if guided.any() and overflowed.any():
                row_overflowed = numpy.zeros(len(act), dtype=bool)
                row_overflowed[source_local[overflowed]] = True
                kill |= guided & row_overflowed
            if kill.any():
                retired.extend(act[kill].tolist())
            live = ~kill
            # 8. commit the surviving moves.
            if live.any():
                target = act[live]
                pick = choice[live]
                rows[target] = successor[pick]
                trace_buf[target, steps_taken[target]] = (
                    transition[pick].astype(numpy.int32))
                steps_taken[target] += 1
                total_steps += int(live.sum())
        # 9. reseed in walk order, so which row each new walk takes is
        # fixed for a fixed (seed, walks, width).
        for i in sorted(retired, key=lambda index: int(walk_id[index])):
            retire(i)
    return SwarmResult(witnesses, None, total_steps, launched, expanded)
