"""Shared fixtures: the Rb D2 production parameter sets used across the suite."""

from __future__ import annotations

import copy
import math

import pytest

from bilattice.cavity import CavityConfig
from bilattice.constants import C, TWO_PI
from bilattice.core import AtomSpecies, LatticeConfig

GAMMA = TWO_PI * 6e6
LAMBDA_ATOM = 780e-9


@pytest.fixture(scope="session")
def rb():
    return AtomSpecies.from_wavelength(LAMBDA_ATOM, GAMMA)


def with_strength(species, factor):
    """Test double: a copy of ``species`` whose oscillator strength is scaled
    by ``factor`` after construction, its cross section by ``factor`` and its
    dipole moment by sqrt(factor).  ``factor = 0`` gives atoms that do not
    couple to light.  ``AtomSpecies`` itself derives both from (omega, gamma)."""
    double = copy.copy(species)
    object.__setattr__(double, "cross_section", factor * species.cross_section)
    object.__setattr__(double, "dipole_moment", math.sqrt(factor) * species.dipole_moment)
    return double


@pytest.fixture(scope="session")
def omega0(rb):
    """Lattice-light frequency: 10 gamma to the blue of the D2 line."""
    return rb.transition_frequency + 10.0 * GAMMA


@pytest.fixture(scope="session")
def cell_size(omega0):
    return TWO_PI * C / omega0


def make_lattice(
    omega0,
    rho_frac=0.0,
    cells=500_000,
    areal_density=5.7e-2 * 1e12,
    detuning_even=-10.0,
    detuning_odd=-10.0,
):
    """Lattice with species placed at omega0 + detuning*gamma, a = lambda0."""
    a = TWO_PI * C / omega0
    even = AtomSpecies(omega0 + detuning_even * GAMMA, GAMMA)
    odd = AtomSpecies(omega0 + detuning_odd * GAMMA, GAMMA)
    return LatticeConfig(
        cell_size=a,
        intracell_distance=rho_frac * a,
        cell_count=cells,
        areal_density=areal_density,
        species_even=even,
        species_odd=odd,
    )


@pytest.fixture(scope="session")
def probe_lattice(omega0):
    """The 1e6-plane transmission setup (rho set per test via .replace)."""
    return make_lattice(omega0)


@pytest.fixture(scope="session")
def fiber_lattice(omega0):
    """The band-structure setup: hollow fiber with 5 um waist, M = 100 cells,
    one atom per site over the mode area pi w^2 / 4."""
    return make_lattice(omega0, cells=100, areal_density=4.0 / (math.pi * (5e-6) ** 2))


def make_cavity(omega0, cells=100, occupancy=3000.0, pump=1.0, **kwargs):
    """The 85 mm resonator setup, commensurate with the lattice (k a/pi = 2)."""
    defaults = dict(
        mode_frequency=omega0,
        linewidth=TWO_PI * 21e3,
        length=85e-3,
        waist=130e-6,
        pump=pump,
        cell_count=cells,
        commensurate=True,
        occupancy=occupancy,
    )
    defaults.update(kwargs)
    return CavityConfig(**defaults)
