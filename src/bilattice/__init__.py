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
(``python -m bilattice`` or the ``bilattice`` script).

``import bilattice`` imports none of these modules.  Each public name below
is looked up in its module on first use (PEP 562), so a program that uses
one engine imports only that engine.
"""

from importlib import import_module

__version__ = "0.1.0"

# each public name, under the module that defines it
_EXPORTS = {
    "bandstructure": (
        "BandStructure", "BlochMatrix", "Gap", "analytic_band_edges",
        "build_bloch_matrix", "compute_bands", "find_gaps", "gap_widths_vs_rho",
    ),
    "cavity": (
        "CavityConfig", "SteadyState", "cavity_spectrum_scan",
        "collective_coupling_squared", "eigenfrequencies", "output_intensity",
        "output_intensity_closed_form", "rabi_peak_frequencies", "steady_state",
    ),
    "core": (
        "AtomSpecies", "LatticeConfig", "cavity_coupling", "freespace_coupling",
        "polarizability", "xi_parameter",
    ),
    "sweep": ("Cell", "SweepSpec", "Table", "run_sweep"),
    "transfer_matrix": (
        "ScatterMatrix", "Spectrum", "cell_dephasing", "dimer_matrix",
        "period_matrix", "spectrum_scan", "stack_coefficients", "transmission_closed_form",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    """A public name, read from its module, which is imported on first use."""
    try:
        module = _MODULE_OF[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(import_module(f".{module}", __name__), name)


def __dir__():
    return sorted([*globals(), *__all__])
