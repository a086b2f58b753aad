"""A programmatic tool layer standing in for the Workcraft GUI.

The paper's EDA support is a plugin of the Workcraft framework: models are
edited and simulated interactively, translated to Petri nets for
verification, analysed for performance and exported to Verilog.  This package
exposes the same operations programmatically:

* :mod:`repro.workcraft.project` -- a workspace of named models that can be
  saved to / loaded from a directory of JSON documents;
* :mod:`repro.workcraft.plugins` -- a registry describing the model types the
  tool understands and the operations available on each;
* :mod:`repro.workcraft.export`  -- exporters (DOT, JSON, Petri-net ``.g``,
  Verilog) addressed by format name;
* :mod:`repro.workcraft.cli`     -- the ``repro-dfs`` command-line interface
  (validate, verify, simulate, analyse, translate, export, info).
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".project": ["Project"],
    ".plugins": ["PluginRegistry", "default_registry"],
    ".export": ["available_formats", "dfs_to_dot", "export_model"],
})
