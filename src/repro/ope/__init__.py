"""Ordinal pattern encoding (OPE) -- the paper's case study and chip workload.

OPE "ranks" the last ``N`` items of an incoming data stream: for every window
position it outputs the list of ranks the window items would take after
sorting (ties broken by position, earlier items first).  Users sweep the
window size ``N`` to discover hidden patterns, which is why the accelerator
needs a reconfigurable pipeline depth.

* :mod:`repro.ope.reference`  -- the behavioural (golden) model, including the
  worked example of Section III-A;
* :mod:`repro.ope.functional` -- a stage-by-stage functional model of the
  pipelined algorithm (one stage per window slot, ranks computed by concurrent
  comparisons and reuse of the previous rank list), checked against the
  reference;
* :mod:`repro.ope.pipeline`   -- the DFS models of the static and
  reconfigurable OPE pipelines (Fig. 7);
* :mod:`repro.ope.circuit`    -- mapping of those models onto the NCL-D
  component library and the matching analytic silicon models.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".reference": ["OpeReference", "ordinal_ranks", "paper_example_table"],
    ".functional": ["OpePipelineFunctional"],
    ".pipeline": ["build_reconfigurable_ope_pipeline", "build_static_ope_pipeline"],
    ".circuit": ["ope_netlist", "ope_silicon_model"],
})
