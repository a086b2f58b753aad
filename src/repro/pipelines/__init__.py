"""The reconfigurable-pipeline design methodology (Section III of the paper).

A generic pipeline (Fig. 6a) is a row of stages exchanging data through
*local* channels (stage to stage) while also receiving the *global* common
input and contributing to the aggregated output.  A static stage (Fig. 6b)
uses plain registers on all four interfaces; a reconfigurable stage (Fig. 6c)
replaces the local and global input registers with push registers and the
global output register with a pop register, each guarded by a 3-register
control loop.  Initialising the loops with True tokens includes the stage in
the pipeline; False tokens exclude (bypass) it.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".control": ["add_control_loop"],
    ".stage": ["StagePorts", "add_reconfigurable_stage", "add_static_stage"],
    ".generic": ["GenericPipeline", "build_generic_pipeline"],
    ".reconfigurable": ["PipelineConfiguration"],
})
