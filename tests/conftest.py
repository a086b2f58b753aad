"""Shared fixtures: example models used across the test suite."""

import os
import uuid

import pytest

from repro.dfs.examples import (
    conditional_comp_dfs,
    conditional_comp_sdfs,
    linear_pipeline,
    token_ring,
)
from repro.dfs.model import DataflowStructure
from repro.pipelines.generic import build_generic_pipeline

from oracles.reachability import explore_one_safe


@pytest.fixture
def conditional_dfs():
    """The motivating example of Fig. 1b (one comp stage)."""
    return conditional_comp_dfs(comp_stages=1)


@pytest.fixture
def conditional_sdfs():
    """The SDFS rendering of the motivating example (Fig. 1a)."""
    return conditional_comp_sdfs(comp_stages=1)


@pytest.fixture
def ring():
    """A 4-register token ring with one token."""
    return token_ring(registers=4, tokens=1)


@pytest.fixture
def pipeline3():
    """A 3-stage linear pipeline (no cycles)."""
    return linear_pipeline(stages=3)


@pytest.fixture
def small_reconfigurable_pipeline():
    """A 2-stage generic pipeline: one static stage plus one reconfigurable stage."""
    return build_generic_pipeline(2, static_prefix_stages=1, name="pipe2")


@pytest.fixture
def simple_chain():
    """A minimal register -> logic -> register chain."""
    dfs = DataflowStructure("chain")
    dfs.add_register("a", marked=True)
    dfs.add_logic("f")
    dfs.add_register("b")
    dfs.connect_chain("a", "f", "b")
    return dfs


@pytest.fixture
def explicit_engine(monkeypatch):
    """Make every checker context explore with the explicit oracle.

    Production explores on the batch engine only; the differential tests
    swap in the explicit engine of ``tests/oracles/reachability.py``, held
    to the same refusals and overflow errors, behind the verifier's back.
    """
    monkeypatch.setattr(
        "repro.verification.checkers.base.build_reachability_graph",
        lambda net, max_states=200000, **_: explore_one_safe(
            net, max_states=max_states))


@pytest.fixture
def exhaustive_on_both_graphs(request):
    """Decide queries on both graph classes: ``run(net, queries)``.

    ``run`` answers every query with the exhaustive checker on the
    columnar graph of the batch engine, then activates
    ``explicit_engine`` and answers them again on the explicit graph; it
    returns the two outcome lists as ``(explicit, columnar)``.  Call it
    once per test: the explicit engine stays in place afterwards.
    """
    from repro.petri.batch import ColumnarReachabilityGraph
    from repro.verification.checkers import CheckerContext, ExhaustiveChecker

    def decide(net, queries, max_witnesses):
        context = CheckerContext(net)
        checker = ExhaustiveChecker(context)
        outcomes = [checker.check(query, max_witnesses=max_witnesses)
                    for query in queries]
        return outcomes, isinstance(context.graph, ColumnarReachabilityGraph)

    def run(net, queries, max_witnesses=5):
        columnar, is_columnar = decide(net, queries, max_witnesses)
        assert is_columnar
        request.getfixturevalue("explicit_engine")
        explicit, is_columnar = decide(net, queries, max_witnesses)
        assert not is_columnar
        return explicit, columnar

    return run


class CountingFamily:
    """The ``_test_counting`` job family: it counts its model builds.

    Each build of the small conditional model leaves one marker file named
    ``<pid>-<unique>`` in *count_dir*, so a test can tell submit-side key
    builds (this process) apart from pool executions (its children).  The
    family reaches pool workers only under the fork start method.
    """

    name = "_test_counting"

    def __init__(self, count_dir):
        self.count_dir = count_dir

    @staticmethod
    def factory(count_dir=None, **kwargs):
        if count_dir:
            path = os.path.join(
                count_dir, "{}-{}".format(os.getpid(), uuid.uuid4().hex))
            with open(path, "w", encoding="utf-8"):
                pass
        return conditional_comp_dfs()

    def job(self, job_id, properties=("safeness", "deadlock")):
        from repro.campaign.jobs import VerificationJob
        return VerificationJob(job_id, self.name,
                               kwargs={"count_dir": self.count_dir},
                               properties=properties)

    def pool_executions(self):
        """Marker files written by processes other than this one."""
        pid = str(os.getpid())
        return [name for name in os.listdir(self.count_dir)
                if not name.startswith(pid + "-")]


@pytest.fixture
def counting_family(monkeypatch, tmp_path):
    """Add :class:`CountingFamily` to the job families for one test."""
    from repro.campaign.jobs import FACTORIES

    count_dir = tmp_path / "count"
    count_dir.mkdir()
    monkeypatch.setitem(FACTORIES, CountingFamily.name, CountingFamily.factory)
    return CountingFamily(str(count_dir))
