"""Photonic spectra of one-dimensional biperiodic ("bichromatic") atomic lattices.

Three engines over a shared core:

* :mod:`bilattice.bandstructure` -- Bloch coupled-mode eigenproblem,
  analytic band edges, bandgap detection;
* :mod:`bilattice.transfer_matrix` -- finite-lattice probe transmission/
  reflection with absorption, closed form up to 1e6 planes;
* :mod:`bilattice.cavity` -- linearized intracavity steady state, output
  spectra, vacuum Rabi splitting, cavity-induced transparency.

:mod:`bilattice.sweep` drives parameter grids deterministically,
:mod:`bilattice.tableio` writes their tables as CSV or JSON, and
:mod:`bilattice.cli_io` maps config files and tables onto them
(`python -m bilattice.cli_io` or the ``bilattice`` script).
"""

from .bandstructure import (
    BandStructure,
    BlochMatrix,
    Gap,
    analytic_band_edges,
    build_bloch_matrix,
    compute_bands,
    find_gaps,
    gap_widths_vs_rho,
)
from .cavity import (
    CavityConfig,
    SteadyState,
    cavity_spectrum_scan,
    collective_coupling_squared,
    cooperativity,
    eigenfrequencies,
    output_intensity,
    output_intensity_closed_form,
    rabi_peak_frequencies,
    steady_state,
)
from .core import (
    AtomSpecies,
    LatticeConfig,
    beta_to_spacings,
    cavity_coupling,
    freespace_coupling,
    polarizability,
    xi_parameter,
)
from .sweep import Cell, SweepSpec, Table, run_sweep
from .transfer_matrix import (
    ScatterMatrix,
    Spectrum,
    cell_dephasing,
    dimer_matrix,
    period_matrix,
    plane_coefficients,
    spectrum_scan,
    stack_coefficients,
    transmission_asymptotic,
    transmission_closed_form,
)

__version__ = "0.1.0"

__all__ = [
    "AtomSpecies",
    "BandStructure",
    "BlochMatrix",
    "CavityConfig",
    "Cell",
    "Gap",
    "LatticeConfig",
    "ScatterMatrix",
    "Spectrum",
    "SteadyState",
    "SweepSpec",
    "Table",
    "analytic_band_edges",
    "beta_to_spacings",
    "build_bloch_matrix",
    "cavity_coupling",
    "cavity_spectrum_scan",
    "cell_dephasing",
    "collective_coupling_squared",
    "compute_bands",
    "cooperativity",
    "dimer_matrix",
    "eigenfrequencies",
    "find_gaps",
    "freespace_coupling",
    "gap_widths_vs_rho",
    "output_intensity",
    "output_intensity_closed_form",
    "period_matrix",
    "plane_coefficients",
    "polarizability",
    "rabi_peak_frequencies",
    "run_sweep",
    "spectrum_scan",
    "stack_coefficients",
    "steady_state",
    "transmission_asymptotic",
    "transmission_closed_form",
    "xi_parameter",
]
