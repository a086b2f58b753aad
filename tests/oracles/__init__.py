"""Reference implementations kept only as test oracles.

Each module here is a second implementation of semantics that ``src/``
implements once, kept because an independent engine is what gives a
differential test its teeth:

* :mod:`oracles.compiled` -- the pure-int, one-firing-at-a-time BFS of a
  :class:`~repro.petri.compiled.CompiledNet`, which the batch engine of
  :mod:`repro.petri.batch` must match bit for bit;
* :mod:`oracles.reachability` -- the explicit BFS over ``Marking`` dicts
  and its dict-based graph, on which the differential suites (the
  ``explicit_engine`` fixture) decide every query a second time;
* :mod:`oracles.simulation` -- the token-game simulator
  (``PetriSimulator``, ``random_trace``) that replays DFS event sequences
  on translated nets;
* :mod:`oracles.walk` -- the pure-int scalar random walker, which the
  vectorised swarm of :mod:`repro.verification.checkers.walk_batch` mirrors
  draw for draw;
* :mod:`oracles.analysis` -- rational-nullspace place and transition
  invariants, against which the Farkas semiflows of
  :mod:`repro.petri.invariants` are checked;
* :mod:`oracles.invariants` -- the whole-net Farkas elimination, which the
  per-component elimination of :mod:`repro.petri.invariants` must match
  element for element.

Nothing under ``src/`` may import this package
(``tests/test_imports.py`` enforces it), and oracles run in-process only,
never inside pool workers.  Tests import it as ``oracles`` (pytest puts
``tests/`` on ``sys.path``); the benches add ``tests/`` themselves.
"""
