"""Silicon-level modelling: voltage-dependent timing, energy and measurements.

The paper validates the DFS methodology with a chip fabricated in a 90 nm
low-power CMOS process and measures it over a 0.3-1.6 V supply range.  We do
not have silicon, so this package provides the closest simulated equivalent:

* :mod:`repro.silicon.voltage` -- an alpha-power-law delay model, quadratic
  switching-energy scaling and a voltage-dependent leakage model, with the
  near-threshold freeze behaviour observed on the chip (operation stops below
  about 0.34 V and resumes when the supply recovers);
* :mod:`repro.silicon.energy` -- an energy account separating switching and
  leakage contributions;
* :mod:`repro.silicon.environment` -- supply-voltage waveforms (constant,
  steps, ramps) used for the unstable-supply experiment of Fig. 9b;
* :mod:`repro.silicon.chip` -- an analytic timing/energy model of a pipelined
  accelerator assembled from the component library figures and calibrated to
  the paper's reference point (static 18-stage OPE at 1.2 V: 1.22 s and
  2.74 mJ for 16 M items);
* :mod:`repro.silicon.measurement` -- the measurement harness: computation
  time, consumed energy, power traces and voltage sweeps.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".voltage": ["VoltageModel"],
    ".energy": ["EnergyAccount", "EnergyBreakdown"],
    ".environment": ["SupplyWaveform", "constant_supply", "ramp_supply", "step_supply"],
    ".chip": ["PipelineSiliconModel", "SyncStructure"],
    ".measurement": ["Measurement", "MeasurementHarness", "PowerTrace"],
})
