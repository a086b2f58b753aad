"""Proving-tier cost profile: the structural deadlock proof.

The siphon/trap route of
:func:`repro.petri.invariants.siphon_trap_certificate` proves
deadlock-freedom *cold* (minimal-siphon enumeration included), timed
against the exhaustive engine exploring the same net.  It is the inductive
checker's unbounded deadlock proof, so its cost in calibration-kernel runs
is gated.
"""

import time

from repro.dfs.examples import token_ring
from repro.dfs.translation import to_petri_net
from repro.petri.invariants import compute_semiflows, siphon_trap_certificate
from repro.verification.checkers import (
    CheckerContext,
    DeadlockQuery,
    create_checker,
)

from .conftest import best_of, print_table, timed


def test_structural_deadlock_proof_vs_exhaustive():
    net = to_petri_net(token_ring(registers=6, tokens=1))

    def prove():
        """One cold proof, on a freshly translated net."""
        fresh = to_petri_net(token_ring(registers=6, tokens=1))
        return timed(lambda: siphon_trap_certificate(
            fresh, semiflows=compute_semiflows(fresh)))

    structural, certificate, kernel_runs = best_of(5, prove)

    start = time.perf_counter()
    outcome = create_checker(
        "exhaustive", CheckerContext(net)).check(DeadlockQuery())
    exhaustive = time.perf_counter() - start

    verdicts = {True: "holds", False: "violated", None: "inconclusive"}
    print_table("structural deadlock proof (cold siphon/trap enumeration)", [
        {"method": "exhaustive", "seconds": exhaustive,
         "verdict": verdicts[outcome.holds], "scope": "explored states"},
        {"method": "siphon-trap", "seconds": structural,
         "kernel_runs": kernel_runs,
         "verdict": verdicts[certificate["proved"] or None],
         "scope": "unbounded ({} siphons)".format(
             certificate.get("siphons", 0))},
    ])

    # Both conclude, and the structural proof covers *every* marking, not
    # just the explored ones.
    assert outcome.holds is True
    assert certificate["proved"]
    assert "(holds, unbounded)" in certificate["reason"]
