"""Proving-tier cost profile: structural proofs, and IC3 at scale.

Two costs of the unbounded proving stack, the first solver-free so the
bench (and its regression gate) runs on every CI machine:

* **structural deadlock proof** -- the siphon/trap fallback of
  :func:`repro.petri.invariants.siphon_trap_certificate` proving
  deadlock-freedom *cold* (minimal-siphon enumeration included) against
  the exhaustive engine exploring the same net.  This is the no-solver
  answer of the proving tier, so its cost in calibration-kernel runs is
  gated too.
* **IC3 beyond the horizon** (z3 only) -- the acceptance scenario:
  a 2**21-state net whose exhaustive exploration is truncated three
  orders of magnitude below its state count, proved unbounded by the
  IC3 checker through the real solver.
"""

import time

import pytest

from repro.dfs.examples import token_ring
from repro.dfs.translation import to_petri_net
from repro.petri.invariants import compute_semiflows, siphon_trap_certificate
from repro.petri.net import PetriNet
from repro.smt.solver import solver_available
from repro.verification.checkers import (
    CheckerContext,
    DeadlockQuery,
    ReachQuery,
    create_checker,
)

from .conftest import best_of, print_table, timed


def wide_rings(count):
    """*count* independent two-state cycles: 2**count reachable states."""
    net = PetriNet("wide_rings_{}".format(count))
    for i in range(count):
        names = {k: k + str(i) for k in ("a", "na", "b", "nb")}
        for key, tokens in (("a", 1), ("na", 0), ("b", 0), ("nb", 1)):
            net.add_place(names[key], tokens=tokens)
        ab, ba = "t_ab{}".format(i), "t_ba{}".format(i)
        net.add_transition(ab)
        net.add_transition(ba)
        for src, dst in ((names["a"], ab), ((names["nb"]), ab),
                         (ab, names["na"]), (ab, names["b"]),
                         (names["b"], ba), (names["na"], ba),
                         (ba, names["nb"]), (ba, names["a"])):
            net.add_arc(src, dst)
    return net


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


@pytest.mark.skipif(not solver_available(),
                    reason="needs the z3 binary on PATH")
def test_ic3_proves_beyond_the_exhaustive_horizon():
    # 2**21 = 2,097,152 reachable states, explored with a 50k truncation
    # bound: the exhaustive engine shrugs, IC3 proves.
    net = wide_rings(21)
    context = CheckerContext(net, max_states=50000)
    query = ReachQuery('$"a0" & $"b0"')

    start = time.perf_counter()
    truncated = create_checker("exhaustive", context).check(query)
    exhaustive = time.perf_counter() - start

    start = time.perf_counter()
    proved = create_checker("ic3", context).check(query)
    ic3 = time.perf_counter() - start

    verdicts = {True: "holds", False: "violated", None: "inconclusive"}
    print_table("ic3 vs exhaustive beyond the horizon (2**21 states)", [
        {"checker": "exhaustive", "seconds": exhaustive,
         "verdict": verdicts[truncated.holds], "scope": "50k states"},
        {"checker": "ic3", "seconds": ic3,
         "verdict": verdicts[proved.holds], "scope": "unbounded"},
    ])

    assert truncated.holds is None
    assert proved.holds is True
    assert "holds, unbounded" in proved.details
