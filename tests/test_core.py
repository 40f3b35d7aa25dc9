"""Species, geometry and coupling-constant contracts."""

from __future__ import annotations

import math
from types import SimpleNamespace

import numpy as np
import pytest

from bilattice.constants import C, EPS0, HBAR, TWO_PI
from bilattice.core import (
    AtomSpecies,
    LatticeConfig,
    cavity_coupling,
    freespace_coupling,
    polarizability,
    xi_parameter,
)

from conftest import GAMMA, LAMBDA_ATOM, make_cavity, make_lattice, with_strength


# ---------------------------------------------------------------------------
# AtomSpecies


def test_species_derives_cross_section_and_dipole(rb):
    assert rb.cross_section == pytest.approx(3 * LAMBDA_ATOM**2 / (2 * math.pi), rel=1e-12)
    expected_d2 = 3 * math.pi * EPS0 * HBAR * C**3 * GAMMA / rb.transition_frequency**3
    assert rb.dipole_moment**2 == pytest.approx(expected_d2, rel=1e-12)


def test_species_strength_is_keyword_only():
    # a third positional argument was once the wavelength; it must not set sigma
    with pytest.raises(TypeError):
        AtomSpecies(TWO_PI * C / 780e-9, GAMMA, 781e-9)
    # nor may a keyword set either strength: (omega, gamma) alone fix both
    for strength in ({"cross_section": 1e-13}, {"dipole_moment": 1e-29}):
        with pytest.raises(TypeError):
            AtomSpecies(TWO_PI * C / 780e-9, GAMMA, **strength)
        with pytest.raises(TypeError):
            AtomSpecies.from_wavelength(LAMBDA_ATOM, GAMMA, **strength)


def test_named_species_registry():
    sp = AtomSpecies.named("rb85_d2")
    assert sp.transition_wavelength == pytest.approx(780e-9)
    with pytest.raises(KeyError, match="unknown transition"):
        AtomSpecies.named("unobtainium")


def test_with_frequency_keeps_linewidth_and_rederives(rb):
    shifted = rb.with_frequency(rb.transition_frequency + 530 * GAMMA)
    assert shifted.linewidth == rb.linewidth
    lam = TWO_PI * C / shifted.transition_frequency
    assert shifted.transition_wavelength == pytest.approx(lam, rel=1e-15)


# ---------------------------------------------------------------------------
# polarizability / xi


def test_polarizability_resonance_is_purely_imaginary(rb):
    alpha = polarizability(rb.transition_frequency, rb)
    lam_p = rb.transition_wavelength
    assert alpha.real == 0.0
    assert alpha.imag == pytest.approx(3 * lam_p**3 / (16 * math.pi**3), rel=1e-12)


def test_polarizability_half_linewidth_detuning(rb):
    # delta = gamma/2 turns the Lorentzian factor into (1 + i)/2
    omega_p = rb.transition_frequency - GAMMA / 2
    alpha = polarizability(omega_p, rb)
    prefactor = 3 * (TWO_PI * C / omega_p) ** 3 / (16 * math.pi**3)
    # recovering delta by differencing ~2.4e15 rad/s frequencies keeps ~8 digits
    assert alpha / prefactor == pytest.approx((1 + 1j) / 2, rel=1e-7)


def test_polarizability_vanishes_far_detuned(rb):
    near = abs(polarizability(rb.transition_frequency, rb))
    far = abs(polarizability(rb.transition_frequency - 1e6 * GAMMA, rb))
    assert far < 1e-5 * near


def test_polarizability_absorptive_and_peaked_on_resonance(rb):
    detunings = np.linspace(-50, 50, 401) * GAMMA
    alphas = np.array(
        [polarizability(rb.transition_frequency - d, rb) for d in detunings]
    )
    assert np.all(alphas.imag > 0)
    assert np.argmax(np.abs(alphas)) == np.argmin(np.abs(detunings))


def test_xi_zero_density(rb):
    assert xi_parameter(rb.transition_frequency, rb, 0.0) == 0


def test_polarizability_and_xi_reject_unphysical_input(rb):
    for omega_p in (0.0, -rb.transition_frequency, np.array([1.0, 0.0])):
        with pytest.raises(ValueError, match="^probe frequency must be positive$"):
            polarizability(omega_p, rb)
    with pytest.raises(ValueError, match="^areal density must be non-negative$"):
        xi_parameter(rb.transition_frequency, rb, -1.0)


def test_xi_resonance_purely_imaginary_positive(rb):
    xi = xi_parameter(rb.transition_frequency, rb, 5.7e10)
    assert xi.real == 0.0
    assert xi.imag > 0
    # resonant value is i n_s sigma_0 / 2
    assert xi.imag == pytest.approx(5.7e10 * rb.cross_section / 2, rel=1e-12)


def test_xi_concrete_rb_value(rb):
    # delta = +10 gamma at n_s = 5.7e-2 um^-2, evaluated independently
    omega_p = rb.transition_frequency - 10 * GAMMA
    xi = xi_parameter(omega_p, rb, 5.7e10)
    assert xi == pytest.approx(0.0004129155234695847 + 2.0645776173479235e-05j, rel=1e-12)


def test_xi_absorptive_sign_everywhere(rb):
    rng = np.random.default_rng(11)
    for d in rng.uniform(-1e4, 1e4, size=200):
        xi = xi_parameter(rb.transition_frequency + d * GAMMA, rb, 5.7e10)
        assert xi.imag > 0


# ---------------------------------------------------------------------------
# couplings


def test_freespace_coupling_volume_scaling(rb):
    g1 = freespace_coupling(rb, rb.transition_frequency, 1e-15)
    g2 = freespace_coupling(rb, rb.transition_frequency, 2e-15)
    assert g1 / g2 == pytest.approx(math.sqrt(2), rel=1e-12)


def test_freespace_coupling_mode_frequency_scaling(rb):
    g1 = freespace_coupling(rb, rb.transition_frequency, 1e-15)
    g2 = freespace_coupling(rb, 4 * rb.transition_frequency, 1e-15)
    assert g1 / g2 == pytest.approx(2.0, rel=1e-12)


def test_collective_coupling_independent_of_cell_count(omega0):
    values = []
    for cells in (10, 100, 1000):
        cfg = make_lattice(omega0, cells=cells)
        g = freespace_coupling(
            cfg.species_even, cfg.bragg_frequency, cfg.quantization_volume
        )
        values.append(math.sqrt(cells) * g)
    assert values[0] == pytest.approx(values[1], rel=1e-12)
    assert values[0] == pytest.approx(values[2], rel=1e-12)


def test_freespace_coupling_concrete_fiber_value(rb):
    # sqrt(M)|G| = sqrt(3 pi c^3 gamma / (2 omega^2 A_eff a)) for a 5 um waist,
    # a = lambda, evaluated at the transition frequency itself
    mode_area = math.pi * (5e-6) ** 2 / 4
    volume = mode_area * 100 * LAMBDA_ATOM
    g = freespace_coupling(rb, rb.transition_frequency, volume)
    assert math.sqrt(100) * g == pytest.approx(7320638553.333263, rel=1e-12)


def test_cavity_coupling_concrete_value(rb, omega0):
    cav = make_cavity(omega0)
    assert cavity_coupling(rb, cav) == pytest.approx(1206225.354651841, rel=1e-12)


def test_cavity_coupling_scales_with_cross_section(rb, omega0):
    cav = make_cavity(omega0)
    weak = with_strength(rb, 1 / 4)
    assert cavity_coupling(weak, cav) == pytest.approx(
        cavity_coupling(rb, cav) / 2, rel=1e-12
    )
    assert cavity_coupling(with_strength(rb, 0.0), cav) == 0.0


def test_couplings_reject_unphysical_input(rb, omega0):
    for omega_k in (0.0, -omega0):
        with pytest.raises(ValueError, match="^mode frequency and volume must be positive$"):
            freespace_coupling(rb, omega_k, 1e-15)
    cav = make_cavity(omega0)
    for length in (0.0, -85e-3):
        # CavityConfig refuses such a length itself; the coupling takes any
        # object with a length and a waist
        bad = SimpleNamespace(length=length, waist=cav.waist)
        with pytest.raises(ValueError, match="^cavity length and waist must be positive$"):
            cavity_coupling(rb, bad)


def test_operations_are_pure(rb):
    omega_p = rb.transition_frequency - 3 * GAMMA
    assert polarizability(omega_p, rb) == polarizability(omega_p, rb)
    assert xi_parameter(omega_p, rb, 5.7e10) == xi_parameter(omega_p, rb, 5.7e10)
    assert freespace_coupling(rb, omega_p, 1e-15) == freespace_coupling(rb, omega_p, 1e-15)


# ---------------------------------------------------------------------------
# LatticeConfig


def test_lattice_invariants(omega0):
    lattice = make_lattice(omega0, cells=3)
    for size in (0.0, math.inf):
        with pytest.raises(ValueError, match="^cell size must be positive and finite$"):
            lattice.replace(cell_size=size)
    with pytest.raises(ValueError, match="rho"):
        make_lattice(omega0, rho_frac=1.5)
    with pytest.raises(ValueError, match="cell"):
        make_lattice(omega0, cells=0)
    with pytest.raises(ValueError, match="positive"):
        make_lattice(omega0, areal_density=-1.0)
