"""Reachability analysis: the one entry point of state-space exploration.

In the paper the computationally heavy verification is delegated to the
MPSAT unfolding tool.  The DFS models considered here translate into
1-safe Petri nets whose reachable state spaces are modest (the OPE
pipeline stages are analysed per-stage or with a bounded number of
stages), so a breadth-first exploration is sufficient and keeps the
library self-contained.

There is one engine, the array-native batch explorer of
:mod:`repro.petri.batch`, and :func:`build_reachability_graph` is where
every caller reaches it.  This module imports it lazily, so importing
:mod:`repro.petri.reachability` loads no NumPy.  The explicit
``Marking``-dict explorer lives on only as the batch engine's test
oracle (``tests/oracles/reachability.py``).
"""


def build_reachability_graph(net, marking=None, max_states=200000,
                             resume=None):
    """Build the reachability graph of *net* on the batch engine.

    The net must compile to bitmask form (:mod:`repro.petri.compiled`):
    arc weights above one, a multi-token marking or 65,535 or more
    transitions raise :class:`~repro.exceptions.CompilationError`.  A
    firing that puts a second token into a place stops the exploration
    with :class:`~repro.exceptions.SafenessOverflowError`, the net's
    1-safeness violation, carrying the trace that reaches it.

    Parameters
    ----------
    net, marking:
        The :class:`~repro.petri.net.PetriNet` to explore, and its starting
        marking (the net's initial marking by default).
    max_states:
        Safety bound on the number of stored states.  A graph that hit it
        is ``truncated``, and property checks treat it as inconclusive.
    resume:
        A checkpoint directory making the exploration **crash-safe**: the
        engine keeps its checkpointed arrays in named files under the
        directory (the rest of the run stays in RAM) and atomically
        records a manifest after every completed BFS level (see
        :class:`~repro.petri.storage.Checkpoint`).  When the directory
        already holds a valid manifest -- the leftover of a killed run --
        exploration restarts from the last complete level instead of from
        scratch, and the resumed graph is bit-identical to an
        uninterrupted run.  A run that completes, or stops on an
        overflow, removes the directory's files.

    Without *resume* the engine keeps every array in RAM.
    """
    from repro.petri.batch import explore_batch
    from repro.petri.compiled import CompiledNet

    return explore_batch(CompiledNet.compile(net), marking,
                         max_states=max_states,
                         checkpoint=str(resume) if resume else None)
