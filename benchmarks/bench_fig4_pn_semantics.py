"""E2 / Fig. 3-4: Petri-net semantics of the motivating-example DFS.

Regenerates the statistics of the translation (places, transitions, read
arcs) and explores its full state space, checking the structural facts the
paper's figure shows: the control register is refined into mutually exclusive
``Mt``/``Mf`` transitions, the non-deterministic ``cond`` choice exists, and
the whole net is 1-safe and deadlock-free.  The property checks run through
a campaign :class:`~repro.campaign.jobs.VerificationJob` -- the same
picklable unit of work the parallel campaign engine schedules.
"""

from repro.campaign import VerificationJob
from repro.dfs.examples import conditional_comp_dfs
from repro.dfs.translation import to_petri_net
from repro.petri.net import ArcKind
from repro.petri.reachability import build_reachability_graph

from .conftest import print_table


def _build_and_explore():
    dfs = conditional_comp_dfs(comp_stages=1)
    net = to_petri_net(dfs)
    # The translation is 1-safe, so the batch bitmask engine explores it.
    graph = build_reachability_graph(net)
    return dfs, net, graph


def _verify_job():
    """The Fig. 1b model verified as a (cache-keyed, picklable) campaign job."""
    job = VerificationJob(
        "fig4-conditional", "conditional", kwargs={"comp_stages": 1},
        properties=("safeness", "deadlock"))
    return job.run()


def test_fig4_petri_net_semantics(benchmark):
    dfs, net, graph = _build_and_explore()
    read_arcs = sum(1 for arc in net.arcs if arc.kind is ArcKind.READ)
    rows = [{
        "dfs_nodes": len(dfs.nodes),
        "pn_places": len(net.places),
        "pn_transitions": len(net.transitions),
        "read_arcs": read_arcs,
        "reachable_states": len(graph),
        "deadlocks": len(graph.deadlocks()),
    }]
    print_table("Fig. 4 -- Petri-net translation of the Fig. 1b DFS", rows)

    # The control register contributes the refined Mt/Mf transition pairs.
    for name in ("Mt_ctrl+", "Mf_ctrl+", "Mt_ctrl-", "Mf_ctrl-"):
        assert net.has_transition(name)
    # The True/False choice of cond is a reachable non-deterministic choice.
    both_enabled = [m for m in graph.states if net.is_enabled("Mt_ctrl+", m)
                    and net.is_enabled("Mf_ctrl+", m)]
    assert both_enabled

    # Standard properties of the translation, checked through the campaign
    # job layer (identical verdicts to calling the Verifier directly).
    payload = _verify_job()
    verdict = payload["verdict"]
    assert verdict["passed"] is True
    assert verdict["state_count"] == len(graph)
    assert verdict["truncated"] is False
    assert all(record["holds"] is True for record in verdict["properties"])
    print_table("campaign-job verdict of the Fig. 1b DFS", [
        {"property": record["property"], "holds": record["holds"],
         "details": record["details"]} for record in verdict["properties"]])

    benchmark(_build_and_explore)
