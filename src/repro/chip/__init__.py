"""The evaluation chip (Fig. 8): OPE pipelines plus test infrastructure.

The fabricated chip contains two OPE implementations -- an 18-stage static
pipeline and a reconfigurable pipeline supporting depths 3 to 18 -- selected
by the ``config`` input, plus the infrastructure needed for accurate
measurements: a linear-feedback shift register (LFSR) that generates the
input stream in *random* mode, and an accumulator that folds the produced
rank lists into a single checksum so that only one output word has to cross
the chip boundary.  The checksum is validated against the behavioural OPE
model initialised with the same seed and count.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".lfsr": ["Lfsr"],
    ".accumulator": ["ChecksumAccumulator"],
    ".top": ["ChipConfig", "ChipMode", "OpeChip"],
    ".testbench": [
        "depth_scaling_experiment",
        "random_mode_experiment",
        "unstable_supply_experiment",
        "voltage_sweep_experiment",
    ],
})
