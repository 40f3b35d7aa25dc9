"""Species, lattice geometry and single-emitter coupling constants.

Everything here is a pure function of its inputs and is shared by the
band-structure, transfer-matrix and cavity engines.  Internal units are SI
throughout (angular frequencies in rad/s, lengths in m); spectra are
converted to linewidth units only at the output layer.

Conventions
-----------
* Detuning of a probe from a transition: delta_j = omega_j - omega_p.
* Polarizability is the Gaussian-convention volume polarizability
  alpha = (3 lambda_p^3 / 16 pi^3) * (2 delta/gamma + i) / (1 + 4 delta^2/gamma^2),
  chosen so that the sheet parameter xi = 2 pi k_p n_s alpha is dimensionless
  with Im(xi) >= 0 and xi(resonance) = i n_s sigma_0 / 2.
* Resonant cross section sigma_0 = 3 lambda^2 / 2 pi; dipole moment from the
  radiative linewidth, D^2 = 3 pi eps0 hbar c^3 gamma / omega^3.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .constants import C, EPS0, HBAR, NAMED_TRANSITIONS, TWO_PI


def _sigma0(wavelength: float) -> float:
    return 3.0 * wavelength**2 / TWO_PI


def _dipole_from_linewidth(omega: float, gamma: float) -> float:
    return math.sqrt(3.0 * math.pi * EPS0 * HBAR * C**3 * gamma / omega**3)


@dataclass(frozen=True)
class AtomSpecies:
    """One dipolar transition: frequency, linewidth, strength.

    The wavelength lambda_j = 2 pi c / omega_j is derived from the frequency.
    At most one of ``cross_section`` / ``dipole_moment`` (keyword-only) may be
    supplied; whichever is missing is derived (resonant cross section
    3 lambda^2/2 pi, dipole from the radiative-linewidth relation).
    """

    transition_frequency: float          # omega_j [rad/s]
    linewidth: float                     # gamma_j [rad/s]
    cross_section: float = field(default=None, kw_only=True)   # varsigma [m^2]
    dipole_moment: float = field(default=None, kw_only=True)   # |D_j| [C m]

    def __post_init__(self):
        if self.transition_frequency <= 0 or self.linewidth <= 0:
            raise ValueError("transition frequency and linewidth must be positive")
        if self.cross_section is not None and self.dipole_moment is not None:
            raise ValueError("give at most one of cross_section, dipole_moment")
        if self.cross_section is None:
            object.__setattr__(self, "cross_section", _sigma0(self.transition_wavelength))
        elif self.cross_section < 0:
            raise ValueError("cross section must be non-negative")
        if self.dipole_moment is None:
            object.__setattr__(
                self,
                "dipole_moment",
                _dipole_from_linewidth(self.transition_frequency, self.linewidth),
            )
        elif self.dipole_moment < 0:
            raise ValueError("dipole moment must be non-negative")

    @property
    def transition_wavelength(self) -> float:
        """lambda_j = 2 pi c / omega_j [m]."""
        return TWO_PI * C / self.transition_frequency

    @classmethod
    def from_wavelength(cls, wavelength: float, gamma: float, **kwargs) -> "AtomSpecies":
        return cls(TWO_PI * C / wavelength, gamma, **kwargs)

    @classmethod
    def named(cls, name: str) -> "AtomSpecies":
        try:
            entry = NAMED_TRANSITIONS[name]
        except KeyError:
            known = ", ".join(sorted(NAMED_TRANSITIONS))
            raise KeyError(f"unknown transition {name!r} (known: {known})") from None
        return cls.from_wavelength(entry["wavelength"], entry["gamma"])

    def with_frequency(self, omega: float) -> "AtomSpecies":
        """Same linewidth, shifted transition (wavelength and strength re-derived)."""
        return AtomSpecies(omega, self.linewidth)


@dataclass(frozen=True)
class LatticeConfig:
    """Biperiodic lattice: two atomic planes per cell of size ``cell_size``.

    Plane positions are x_{2l} = l*a and x_{2l+1} = l*a + rho for
    l = 0..cell_count-1 (N = 2M planes).  ``areal_density`` n_s, the atoms
    per unit area of each plane, is the lattice's one density: it sets the
    sheet response xi = 2 pi k_p n_s alpha of the transfer matrix and, with
    one atom per site per 1/n_s of area, the 1D quantization volume
    V = M a / n_s of the Bloch coupled-mode matrix.
    """

    cell_size: float                     # a [m]
    intracell_distance: float            # rho [m], 0 <= rho <= a
    cell_count: int                      # M
    areal_density: float                 # n_s [m^-2]
    species_even: AtomSpecies
    species_odd: AtomSpecies

    def __post_init__(self):
        if not 0.0 <= self.intracell_distance <= self.cell_size:
            raise ValueError("intracell distance must satisfy 0 <= rho <= a")
        if self.cell_count < 1:
            raise ValueError("need at least one cell")
        if not 0.0 < self.areal_density < math.inf:
            raise ValueError("areal density must be positive and finite")

    @property
    def plane_count(self) -> int:
        return 2 * self.cell_count

    @property
    def reciprocal_vector(self) -> float:
        """Elementary reciprocal-lattice vector G0 = 2 pi / a [rad/m]."""
        return TWO_PI / self.cell_size

    @property
    def bragg_frequency(self) -> float:
        """Photon frequency at |k| = G0 [rad/s]."""
        return C * self.reciprocal_vector

    @property
    def quantization_volume(self) -> float:
        """V = M a / n_s [m^3]: one atom per site per 1/n_s of area."""
        return self.cell_count * self.cell_size / self.areal_density

    def plane_positions(self):
        cells = np.arange(self.cell_count) * self.cell_size
        pos = np.empty(self.plane_count)
        pos[0::2] = cells
        pos[1::2] = cells + self.intracell_distance
        return pos

    def replace(self, **changes) -> "LatticeConfig":
        import dataclasses

        return dataclasses.replace(self, **changes)


def beta_to_spacings(beta: float, wavelength: float) -> tuple[float, float]:
    """Well spacings (d1, d2) of the two-beam superlattice potential
    U(x) ~ beta^2 cos^2(kx/2) + cos^2(kx).

    d2 = (lambda/pi) * acos(-beta^2/4) and d1 = lambda - d2, so d1 + d2 is
    exactly one wavelength; (d1, d2) serve as (rho, a - rho) with a = lambda.
    Requires beta^2 <= 4 (acos argument in [-1, 0]).
    """
    arg = -beta * beta / 4.0
    if arg < -1.0:
        raise ValueError(f"beta^2 = {beta * beta} exceeds 4: potential has no double well")
    d2 = wavelength * math.acos(arg) / math.pi
    return wavelength - d2, d2


def polarizability(omega_p: float, species: AtomSpecies) -> complex:
    """Complex volume polarizability per atom at probe frequency omega_p [m^3].

    Lorentzian response versus delta = omega_j - omega_p; purely imaginary on
    resonance with peak modulus (3/16 pi^3) lambda_p^3.  Elementwise on an
    array of omega_p, as is xi_parameter.
    """
    if np.any(np.asarray(omega_p) <= 0):
        raise ValueError("probe frequency must be positive")
    lam_p = TWO_PI * C / omega_p
    delta = species.transition_frequency - omega_p
    g = species.linewidth
    lorentz = (2.0 * delta / g + 1j) / (1.0 + 4.0 * delta * delta / (g * g))
    return (3.0 * lam_p**3 / (16.0 * math.pi**3)) * lorentz


def xi_parameter(omega_p: float, species: AtomSpecies, areal_density: float) -> complex:
    """Dimensionless sheet response xi = 2 pi k_p n_s alpha of one atomic plane.

    Im(xi) >= 0 for any real detuning (absorptive sign); xi -> i n_s sigma_0/2
    on resonance.
    """
    if areal_density < 0:
        raise ValueError("areal density must be non-negative")
    k_p = omega_p / C
    return TWO_PI * k_p * areal_density * polarizability(omega_p, species)


def freespace_coupling(species: AtomSpecies, omega_k: float, volume: float) -> float:
    """Single-atom coupling |G| [rad/s] to a propagating mode at omega_k.

    |G| = omega_j |D_j| sqrt(1 / (2 V eps0 hbar omega_k)); the collective
    coupling sqrt(M)|G| is M-independent when V = M a / n_s.
    """
    if omega_k <= 0 or volume <= 0:
        raise ValueError("mode frequency and volume must be positive")
    return (
        species.transition_frequency
        * species.dipole_moment
        * math.sqrt(1.0 / (2.0 * volume * EPS0 * HBAR * omega_k))
    )


def cavity_coupling(species: AtomSpecies, cavity) -> float:
    """Single-atom cavity coupling g = sqrt(varsigma/(4 pi A)) sqrt(gamma * dω) [rad/s].

    A = pi w_c^2/4 is the mode area and dω = 2 pi c / L the free spectral
    range of a cavity with length ``cavity.length`` and waist ``cavity.waist``.
    Multiple site occupancy rescales g -> sqrt(n̄) g where it is consumed.
    """
    if cavity.length <= 0 or cavity.waist <= 0:
        raise ValueError("cavity length and waist must be positive")
    mode_area = math.pi * cavity.waist**2 / 4.0
    free_spectral_range = TWO_PI * C / cavity.length
    return math.sqrt(species.cross_section / (4.0 * math.pi * mode_area)) * math.sqrt(
        species.linewidth * free_spectral_range
    )
