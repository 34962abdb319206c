"""Zero-area pulse formation and homodyne mode-matching simulator.

Subpackages by concern: grids and transforms (``fields``), the resonant
medium response (``medium``), overlap and delay scans (``modes``), the
finite-resolution LO shaper (``shaper``), the vacuum/single-photon mixture
(``quantum``), and the scenario/CSV layer (``config``, ``runners``, ``cli``).
"""

import sys
from os import environ

if "numpy" not in sys.modules and {"OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"}.isdisjoint(environ):
    environ["OPENBLAS_NUM_THREADS"] = "1"  # zapsim makes no BLAS call: numpy loads without OpenBLAS's idle pool
    try:
        import numpy  # noqa: F401  (OpenBLAS reads the variable only as it loads)
    finally:
        del environ["OPENBLAS_NUM_THREADS"]

from .fields import (
    Grid,
    GridAdequacyWarning,
    SpectralField,
    TemporalField,
    gaussian_pulse,
    make_grid,
    normalize,
    pulse_area,
    pulse_energy,
    to_spectrum,
    to_time,
)
from .medium import (
    MediumParams,
    MediumPreset,
    energy_transmission,
    propagate,
    temperature_presets,
    transfer_function,
    transmit,
)
from .modes import (
    ScanCurve,
    eta_curve,
    visibility_curve,
)
from .quantum import (
    EtaEstimate,
    HeraldedState,
    QuadratureSample,
    estimate_eta,
    is_nonclassical,
    quadrature_pdf,
    sample_quadratures,
    wigner,
    wigner_grid,
)
from .shaper import (
    ShaperConfig,
    achievable_lo,
)
from .config import ConfigError, ScenarioConfig

__version__ = "0.1.0"

__all__ = [
    "Grid",
    "GridAdequacyWarning",
    "SpectralField",
    "TemporalField",
    "gaussian_pulse",
    "make_grid",
    "normalize",
    "pulse_area",
    "pulse_energy",
    "to_spectrum",
    "to_time",
    "MediumParams",
    "MediumPreset",
    "energy_transmission",
    "propagate",
    "temperature_presets",
    "transfer_function",
    "transmit",
    "ScanCurve",
    "eta_curve",
    "visibility_curve",
    "EtaEstimate",
    "HeraldedState",
    "QuadratureSample",
    "estimate_eta",
    "is_nonclassical",
    "quadrature_pdf",
    "sample_quadratures",
    "wigner",
    "wigner_grid",
    "ShaperConfig",
    "achievable_lo",
    "ConfigError",
    "ScenarioConfig",
    "__version__",
]
