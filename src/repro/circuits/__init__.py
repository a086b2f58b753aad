"""Asynchronous circuit back-end: NCL-D dual-rail components and netlists.

The paper translates a verified DFS model "into a circuit implementation
netlist using a library of pre-built NCL-D style asynchronous dual-rail
components (comparator, adder, and a set of registers) that rely on 4-phase
communication protocol", and exports the result as a Verilog netlist for a
conventional back-end flow.  This package provides:

* :mod:`repro.circuits.signals`   -- dual-rail signal encoding with spacers;
* :mod:`repro.circuits.gates`     -- C-elements, threshold gates and simple
  Boolean gates with behavioural evaluation;
* :mod:`repro.circuits.library`   -- a behavioural cell/component library with
  area, delay and energy figures (loosely modelled on a 90 nm low-power
  process);
* :mod:`repro.circuits.netlist`   -- hierarchical netlists (modules,
  instances, nets, ports);
* :mod:`repro.circuits.handshake` -- 4-phase dual-rail channels;
* :mod:`repro.circuits.mapping`   -- direct mapping of DFS nodes onto library
  components (including the daisy-chain / tree C-element synchronisation
  choice evaluated in the paper);
* :mod:`repro.circuits.simulation`-- event-driven simulation of mapped
  netlists with energy accounting;
* :mod:`repro.circuits.verilog`   -- Verilog netlist export.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".signals": ["DualRail", "Rail", "encode_word", "decode_word"],
    ".gates": ["CElement", "Gate", "NclGate", "majority", "threshold"],
    ".library": ["Cell", "CellLibrary", "Component", "default_library"],
    ".netlist": ["Instance", "Module", "Net", "Netlist", "Port", "PortDirection"],
    ".handshake": ["Channel", "ChannelPhase", "FourPhaseProtocol"],
    ".mapping": ["MappingOptions", "SyncStyle", "map_dfs_to_netlist"],
    ".simulation": ["CircuitSimulator", "SimulationStats"],
    ".verilog": ["to_verilog"],
})
