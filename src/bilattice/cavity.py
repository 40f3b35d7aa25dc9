"""Intracavity steady state of the lattice coupled to one standing-wave mode.

The linearized mean-value equations for the cavity amplitude and the spin
waves at quasi-momenta +-Q (Q + G = k, k the cavity wavevector) are

    da/dt    = -(i delta_c + kappa) a + eta
               - i (sqrt(M)/2) [g1 (e^{-i phi} b_+ + e^{i phi} b_-)
                                + g2 (e^{-i theta} d_+ + e^{i theta} d_-)],
    db_+-/dt = -(i delta_1 + gamma_1/2) b_+- - i (sqrt(M)/2) g1 e^{+-i phi} a,
    dd_+-/dt = -(i delta_2 + gamma_2/2) d_+- - i (sqrt(M)/2) g2 e^{+-i theta} a,

with theta = k rho + phi, delta_c = omega_c - omega_p, delta_j = omega_j -
omega_p.  The lattice's place in the standing wave, (rho, phi), is an
argument of every evaluation, not a field of ``CavityConfig``.  When the
cavity wavevector is commensurate with the lattice (k = N pi / a) the +Q and
-Q spin waves are one and the same mode (Q = 0 for even N, pi/a for odd N)
and the system reduces to three equations with the standing-wave overlap
factors cos(phi), cos(k rho + phi); incommensurate geometries keep all five
amplitudes, and their spectra are independent of rho and phi.

Eliminating the spins exactly, for any detunings and linewidths, gives

    <a> = eta / (i delta_c + kappa + sum_j C_j / (i delta_j + gamma_j/2)),

C_1 = M g1^2 cos^2 phi, C_2 = M g2^2 cos^2(k rho + phi) (commensurate) or
C_j = M g_j^2 / 2 (incommensurate).  This closed form is the production path
(``output_intensity``, ``cavity_spectrum_scan``), one array evaluation per
probe grid; ``steady_state`` keeps the linear solve as its oracle.  With
equal species it is a single-pole response with collective rate M R,
R = (C_1 + C_2)/M.  Multiple site occupancy n̄ rescales every g_j by
sqrt(n̄).  Output photon flux: I = 2 kappa |<a>|^2.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .constants import C
from .core import AtomSpecies, cavity_coupling


@dataclass(frozen=True)
class CavityConfig:
    """Standing-wave resonator probed through one mirror.

    ``linewidth`` is the half-width kappa (rad/s).  ``cell_count`` is the
    number M of lattice cells (two planes each) inside the mode;
    ``occupancy`` the mean atom number per site.
    """

    mode_frequency: float          # omega_c [rad/s]
    linewidth: float               # kappa [rad/s]
    length: float                  # L [m]
    waist: float                   # w_c [m]
    pump: float                    # eta [rad/s-scaled drive amplitude]
    cell_count: int                # M lattice cells inside the mode
    commensurate: bool
    occupancy: float = 1.0         # n-bar atoms per site

    def __post_init__(self):
        if self.linewidth <= 0 or self.length <= 0 or self.waist <= 0:
            raise ValueError("kappa, length and waist must be positive")
        if self.cell_count < 1:
            raise ValueError("need at least one cell")
        if self.occupancy <= 0:
            raise ValueError("site occupancy must be positive")

    @property
    def wavevector(self) -> float:
        return self.mode_frequency / C

    def commensurate_order(self, cell_size: float) -> int:
        """Integer N of k = N pi / a; the spin wave addressed is Q = 0 for
        even N and Q = pi/a for odd N."""
        ratio = self.wavevector * cell_size / math.pi
        order = round(ratio)
        if self.commensurate and abs(ratio - order) > 1e-6 * max(1.0, abs(ratio)):
            warnings.warn(
                f"cavity marked commensurate but k a / pi = {ratio:.9g} is not "
                "an integer",
                stacklevel=2,
            )
        return order


@dataclass(frozen=True)
class SteadyState:
    """Mean amplitudes; in commensurate geometry the +Q and -Q entries coincide."""

    cavity_amplitude: complex      # <a>
    spin_even_plus: complex        # <b_{+Q}>
    spin_even_minus: complex       # <b_{-Q}>
    spin_odd_plus: complex         # <d_{+Q}>
    spin_odd_minus: complex        # <d_{-Q}>


def _species_couplings(
    g1: float, g2: float, k: float, rho: float, phi: float, commensurate: bool
) -> tuple[float, float]:
    """Per-cell coupling-squared of each species to the addressed spin wave(s)."""
    if commensurate:
        return (g1 * math.cos(phi)) ** 2, (g2 * math.cos(k * rho + phi)) ** 2
    return 0.5 * g1 * g1, 0.5 * g2 * g2


def collective_coupling_squared(
    g1: float, g2: float, k: float, rho: float, phi: float, commensurate: bool
) -> float:
    """Effective coupling-squared R per cell entering the collective rate M R.

    Incommensurate: R = (g1^2 + g2^2)/2, independent of rho and phi.
    Commensurate:   R = g1^2 cos^2(phi) + g2^2 cos^2(k rho + phi).
    """
    r1, r2 = _species_couplings(g1, g2, k, rho, phi, commensurate)
    return r1 + r2


def eigenfrequencies(
    delta_c: float,
    delta_atom: float,
    kappa: float,
    gamma: float,
    cell_count: int,
    coupling_sq: float,
) -> tuple[complex, complex, complex]:
    """Complex eigenfrequencies (nu_0, nu_+, nu_-) of the homogeneous system.

    Valid for equal atomic detunings and linewidths.  nu_0 = Delta - i
    gamma/2 is the dark spin wave; nu_+- are the polaritons

        nu_+- = (delta_c + Delta - i(kappa + gamma/2))/2
                +- sqrt(((delta_c - Delta - i kappa + i gamma/2)/2)^2 + M R).

    Real parts are resonance positions, imaginary parts minus the linewidths;
    on resonance and for M R >> kappa gamma the splitting is 2 sqrt(M R).
    """
    nu0 = delta_atom - 0.5j * gamma
    mean = 0.5 * (delta_c + delta_atom - 1j * (kappa + 0.5 * gamma))
    half = cmath.sqrt(
        (0.5 * (delta_c - delta_atom - 1j * kappa + 0.5j * gamma)) ** 2
        + cell_count * coupling_sq
    )
    return nu0, mean + half, mean - half


def _effective_couplings(
    cavity: CavityConfig, species_even: AtomSpecies, species_odd: AtomSpecies
) -> tuple[float, float]:
    scale = math.sqrt(cavity.occupancy)
    return (
        scale * cavity_coupling(species_even, cavity),
        scale * cavity_coupling(species_odd, cavity),
    )


def steady_state(
    cavity: CavityConfig,
    species_even: AtomSpecies,
    species_odd: AtomSpecies,
    omega_p: float,
    rho: float,
    phi: float,
) -> SteadyState:
    """Solve the linear mean-value system at probe frequency omega_p.

    Handles unequal detunings and linewidths; the commensurate branch solves
    the reduced 3x3 system (b_+ = b_-, d_+ = d_-), the incommensurate one the
    full 5x5 system.  With kappa, gamma > 0 the system is never singular.
    The spectra use the spin-eliminated closed form (``output_intensity``);
    this solve, which also returns the spin amplitudes, is its oracle.
    """
    g1, g2 = _effective_couplings(cavity, species_even, species_odd)
    delta_c = cavity.mode_frequency - omega_p
    d1 = species_even.transition_frequency - omega_p
    d2 = species_odd.transition_frequency - omega_p
    hg1 = species_even.linewidth / 2.0
    hg2 = species_odd.linewidth / 2.0
    kap = cavity.linewidth
    eta = cavity.pump
    root_m = math.sqrt(cavity.cell_count)
    theta = cavity.wavevector * rho + phi

    if cavity.commensurate:
        cb = root_m * g1 * math.cos(phi)
        cd = root_m * g2 * math.cos(theta)
        a_mat = np.array(
            [
                [1j * delta_c + kap, 1j * cb, 1j * cd],
                [1j * cb, 1j * d1 + hg1, 0.0],
                [1j * cd, 0.0, 1j * d2 + hg2],
            ],
            dtype=complex,
        )
        rhs = np.array([eta, 0.0, 0.0], dtype=complex)
        try:
            a, b, d = np.linalg.solve(a_mat, rhs)
        except np.linalg.LinAlgError as exc:
            raise RuntimeError("singular cavity steady-state system") from exc
        return SteadyState(a, b, b, d, d)

    ep, em = cmath.exp(1j * phi), cmath.exp(-1j * phi)
    fp, fm = cmath.exp(1j * theta), cmath.exp(-1j * theta)
    half = 0.5j * root_m
    a_mat = np.array(
        [
            [1j * delta_c + kap, half * g1 * em, half * g1 * ep, half * g2 * fm, half * g2 * fp],
            [half * g1 * ep, 1j * d1 + hg1, 0.0, 0.0, 0.0],
            [half * g1 * em, 0.0, 1j * d1 + hg1, 0.0, 0.0],
            [half * g2 * fp, 0.0, 0.0, 1j * d2 + hg2, 0.0],
            [half * g2 * fm, 0.0, 0.0, 0.0, 1j * d2 + hg2],
        ],
        dtype=complex,
    )
    rhs = np.array([eta, 0.0, 0.0, 0.0, 0.0], dtype=complex)
    try:
        a, bp, bm, dp, dm = np.linalg.solve(a_mat, rhs)
    except np.linalg.LinAlgError as exc:
        raise RuntimeError("singular cavity steady-state system") from exc
    return SteadyState(a, bp, bm, dp, dm)


def output_intensity(
    cavity: CavityConfig,
    species_even: AtomSpecies,
    species_odd: AtomSpecies,
    omega_p,
    rho: float,
    phi: float,
):
    """Photon flux at the cavity output, I = 2 kappa |<a>|^2 [photons/s].

    <a> from the exact spin elimination (module docstring); elementwise on
    an array of probe frequencies omega_p.
    """
    g1, g2 = _effective_couplings(cavity, species_even, species_odd)
    rates = _species_couplings(g1, g2, cavity.wavevector, rho, phi, cavity.commensurate)
    return _intensity(cavity, (species_even, species_odd), rates, omega_p)


def _intensity(cavity: CavityConfig, species, rates, omega_p):
    """``output_intensity`` from each species' per-cell coupling-squared."""
    spins = sum(
        cavity.cell_count * rate / (1j * (sp.transition_frequency - omega_p) + 0.5 * sp.linewidth)
        for rate, sp in zip(rates, species)
    )
    amplitude = cavity.pump / (1j * (cavity.mode_frequency - omega_p) + cavity.linewidth + spins)
    return 2.0 * cavity.linewidth * np.abs(amplitude) ** 2


def output_intensity_closed_form(
    delta_c: float,
    delta_atom: float,
    kappa: float,
    gamma: float,
    cell_count: int,
    coupling_sq: float,
    pump: float,
) -> float:
    """Printed single-pole output intensity, valid for equal detunings/linewidths:

    I = 2 kappa eta^2 (Delta^2 + gamma^2/4)
        / ((kappa gamma/2 - delta_c Delta + M R)^2 + (Delta kappa + delta_c gamma/2)^2).
    """
    num = 2.0 * kappa * pump * pump * (delta_atom**2 + gamma**2 / 4.0)
    mr = cell_count * coupling_sq
    den = (kappa * gamma / 2.0 - delta_c * delta_atom + mr) ** 2 + (
        delta_atom * kappa + delta_c * gamma / 2.0
    ) ** 2
    return num / den


def rabi_peak_frequencies(
    omega_c: float, omega_atom: float, cell_count: int, coupling_sq: float
) -> tuple[float, float]:
    """Strong-coupling output maxima (omega_c + omega_a)/2 +- sqrt(((omega_c - omega_a)/2)^2 + M R)."""
    mean = 0.5 * (omega_c + omega_atom)
    half = math.sqrt((0.5 * (omega_c - omega_atom)) ** 2 + cell_count * coupling_sq)
    return mean - half, mean + half


def _refine_peak(x: np.ndarray, y: np.ndarray, i: int) -> float:
    """Quadratic interpolation of a local maximum at interior grid index i."""
    y0, y1, y2 = y[i - 1], y[i], y[i + 1]
    denom = y0 - 2.0 * y1 + y2
    if denom == 0.0:
        return float(x[i])
    shift = 0.5 * (y0 - y2) / denom
    return float(x[i] + shift * (x[1] - x[0]))


def extract_peaks(probe_grid: np.ndarray, intensity: np.ndarray) -> list[float]:
    """Local maxima of a sampled spectrum, refined by quadratic interpolation."""
    y = np.asarray(intensity)
    inner = y[1:-1]
    maxima = np.flatnonzero((inner > y[:-2]) & (inner >= y[2:])) + 1
    return [_refine_peak(probe_grid, y, i) for i in maxima.tolist()]


class CavityScanCell(NamedTuple):
    intensities: np.ndarray
    peaks: list[float]
    predicted_peaks: tuple[float, float]


def cavity_spectrum_scan(
    cavity: CavityConfig,
    species_even: AtomSpecies,
    species_odd: AtomSpecies,
    probe_grid: Sequence[float],
    rho_values: Sequence[float],
    phi_values: Sequence[float],
) -> list[CavityScanCell]:
    """Output spectra over (rho, phi) grids, with extracted and predicted peaks.

    The couplings g_j, which do not depend on (rho, phi), are computed once;
    each cell's spectrum is then one array evaluation over the probe grid,
    and its predicted peaks come from the strong-coupling two-peak formula
    with the same effective M R.  Cells come back in lexicographic grid
    order: cell i * len(phi_values) + j is (rho_values[i], phi_values[j]).
    """
    if len(probe_grid) == 0 or len(rho_values) == 0 or len(phi_values) == 0:
        raise ValueError("empty scan grid")
    probe = np.asarray(probe_grid, dtype=float)
    g1, g2 = _effective_couplings(cavity, species_even, species_odd)

    def run_cell(rho, phi):
        rates = _species_couplings(g1, g2, cavity.wavevector, rho, phi, cavity.commensurate)
        intensity = _intensity(cavity, (species_even, species_odd), rates, probe)
        predicted = rabi_peak_frequencies(
            cavity.mode_frequency, species_even.transition_frequency, cavity.cell_count, sum(rates)
        )
        return CavityScanCell(intensity, extract_peaks(probe, intensity), predicted)

    return [run_cell(rho, phi) for rho in rho_values for phi in phi_values]
