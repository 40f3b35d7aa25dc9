"""Cavity steady state, eigenfrequencies, output spectra."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bilattice.cavity import (
    CavityConfig,
    cavity_spectrum_scan,
    collective_coupling_squared,
    eigenfrequencies,
    extract_peaks,
    output_intensity,
    output_intensity_closed_form,
    rabi_peak_frequencies,
    steady_state,
)
from bilattice.constants import TWO_PI
from bilattice.core import AtomSpecies, cavity_coupling

from conftest import GAMMA, LAMBDA_ATOM, make_cavity, make_lattice, with_strength
from oracles import cooperativity

KAPPA = TWO_PI * 21e3


@pytest.fixture(scope="module")
def lattice(omega0):
    return make_lattice(omega0, cells=100)


@pytest.fixture(scope="module")
def effective_g(omega0):
    cav = make_cavity(omega0)
    sp = AtomSpecies.from_wavelength(LAMBDA_ATOM, GAMMA)
    return math.sqrt(cav.occupancy) * cavity_coupling(sp, cav)


# ---------------------------------------------------------------------------
# config


def test_cavity_config_validation(omega0):
    with pytest.raises(ValueError, match="positive"):
        make_cavity(omega0, linewidth=-1.0)
    with pytest.raises(ValueError, match="at least one cell"):
        make_cavity(omega0, cells=0)
    with pytest.raises(ValueError, match="occupancy"):
        make_cavity(omega0, occupancy=0.0)


def test_commensurate_order_parity(omega0, cell_size):
    cav = make_cavity(omega0)
    assert cav.commensurate_order(cell_size) == 2   # k a = 2 pi, even -> Q = 0
    half = make_cavity(omega0 / 2)
    assert half.commensurate_order(cell_size) == 1  # odd -> Q = pi/a


# ---------------------------------------------------------------------------
# collective coupling


def test_collective_coupling_incommensurate_mean(effective_g):
    g = effective_g
    assert collective_coupling_squared(g, g, 1.0, 0.5, 0.7, False) == pytest.approx(g * g)


def test_collective_coupling_nodes_decouple(effective_g, cell_size):
    # phi = pi/2, rho = 0: every atom sits at a node of the mode
    g = effective_g
    k = TWO_PI / cell_size
    r = collective_coupling_squared(g, g, k, 0.0, math.pi / 2, True)
    assert r <= 1e-30 * g * g


def test_collective_coupling_antinodes_add(effective_g, cell_size):
    g = effective_g
    k = TWO_PI / cell_size
    r = collective_coupling_squared(g, g, k, 0.0, 0.0, True)
    assert r == pytest.approx(2 * g * g, rel=1e-12)


# ---------------------------------------------------------------------------
# eigenfrequencies


def test_eigenfrequencies_decoupled_limit():
    delta_c, delta = 3 * GAMMA, -2 * GAMMA
    nu0, nup, num = eigenfrequencies(delta_c, delta, KAPPA, GAMMA, 100, 0.0)
    assert nu0 == pytest.approx(delta - 0.5j * GAMMA)
    assert sorted((nup, num), key=lambda z: z.real) == pytest.approx(
        sorted((delta_c - 1j * KAPPA, delta - 0.5j * GAMMA), key=lambda z: z.real)
    )


def test_eigenfrequencies_resonant_rabi_splitting(effective_g):
    mr = 100 * effective_g**2
    assert mr > 1e4 * KAPPA * GAMMA   # strong coupling
    _, nup, num = eigenfrequencies(0.0, 0.0, KAPPA, GAMMA, 100, effective_g**2)
    splitting = nup.real - num.real
    # 2 sqrt(MR) up to the damping correction -(kappa - gamma/2)^2/4, ~1e-4 here
    assert splitting == pytest.approx(2 * math.sqrt(mr), rel=1e-3)
    assert splitting == pytest.approx(
        2 * math.sqrt(mr - (KAPPA - GAMMA / 2) ** 2 / 4), rel=1e-12
    )


def test_eigenfrequencies_against_root_oracle(effective_g):
    delta_c, delta = 1.5 * GAMMA, -0.7 * GAMMA
    r = effective_g**2
    _, nup, num = eigenfrequencies(delta_c, delta, KAPPA, GAMMA, 100, r)
    trace = (delta_c - 1j * KAPPA) + (delta - 0.5j * GAMMA)
    det = (delta_c - 1j * KAPPA) * (delta - 0.5j * GAMMA) - 100 * r
    roots = np.roots([1.0, -trace, det])
    got = sorted((nup, num), key=lambda z: z.real)
    want = sorted(roots, key=lambda z: z.real)
    assert got[0] == pytest.approx(want[0], rel=1e-12)
    assert got[1] == pytest.approx(want[1], rel=1e-12)


# ---------------------------------------------------------------------------
# steady state


def test_zero_pump_zero_amplitudes(omega0, lattice):
    cav = make_cavity(omega0, pump=0.0)
    ss = steady_state(cav, lattice.species_even, lattice.species_odd, omega0, 0.0, 0.4)
    assert ss.cavity_amplitude == 0
    assert ss.spin_even_plus == 0 and ss.spin_odd_minus == 0


def test_uncoupled_atoms_give_bare_lorentzian(omega0, lattice):
    dark = with_strength(lattice.species_even, 0.0)
    cav = make_cavity(omega0)
    omega_p = omega0 + 4 * GAMMA
    ss = steady_state(cav, dark, dark, omega_p, 0.0, 0.0)
    delta_c = omega0 - omega_p
    assert ss.cavity_amplitude == pytest.approx(
        cav.pump / (cav.linewidth + 1j * delta_c), rel=1e-12
    )
    assert ss.spin_even_plus == 0


def test_amplitudes_linear_in_pump(omega0, lattice):
    omega_p = omega0 - 11 * GAMMA
    rho = 0.2 * lattice.cell_size
    weak = make_cavity(omega0, pump=1.0)
    strong = make_cavity(omega0, pump=250.0)
    ss_w = steady_state(weak, lattice.species_even, lattice.species_odd, omega_p, rho, 0.4)
    ss_s = steady_state(strong, lattice.species_even, lattice.species_odd, omega_p, rho, 0.4)
    for field in ("cavity_amplitude", "spin_even_plus", "spin_odd_plus"):
        assert getattr(ss_s, field) == pytest.approx(250.0 * getattr(ss_w, field), rel=1e-12)


def test_commensurate_duplicates_spin_amplitudes(omega0, lattice):
    cav = make_cavity(omega0)
    ss = steady_state(
        cav, lattice.species_even, lattice.species_odd, omega0 + GAMMA, 0.1 * lattice.cell_size,
        0.3,
    )
    assert ss.spin_even_plus == ss.spin_even_minus
    assert ss.spin_odd_plus == ss.spin_odd_minus


def test_steady_state_matches_closed_form(omega0, lattice, effective_g):
    # symmetric case: general 3x3 solve against the printed single-pole form
    cav = make_cavity(omega0)
    sp = lattice.species_even
    rho = 0.2 * lattice.cell_size
    r_eff = collective_coupling_squared(
        effective_g, effective_g, cav.wavevector, rho, 0.0, True
    )
    for omega_p in omega0 + np.linspace(-40, 40, 201) * GAMMA:
        expected = output_intensity_closed_form(
            omega0 - omega_p,
            sp.transition_frequency - omega_p,
            cav.linewidth,
            GAMMA,
            cav.cell_count,
            r_eff,
            cav.pump,
        )
        solved = steady_state(cav, sp, sp, omega_p, rho, 0.0).cavity_amplitude
        assert 2 * cav.linewidth * abs(solved) ** 2 == pytest.approx(expected, rel=1e-12)
        got = output_intensity(cav, sp, sp, omega_p, rho, 0.0)
        assert got == pytest.approx(expected, rel=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    detunings=st.tuples(st.floats(-50.0, 50.0), st.floats(-50.0, 50.0), st.floats(-50.0, 50.0)),
    linewidths=st.tuples(st.floats(0.2, 5.0), st.floats(0.2, 5.0)),
    phi=st.floats(0.0, 2 * math.pi),
    rho_frac=st.floats(0.0, 1.0),
    commensurate=st.booleans(),
    probe=st.lists(st.floats(-60.0, 60.0), min_size=1, max_size=16),
)
def test_spin_elimination_matches_linear_solve(
    omega0, cell_size, detunings, linewidths, phi, rho_frac, commensurate, probe
):
    # unequal species detunings and linewidths, both geometries
    even = AtomSpecies(omega0 + detunings[0] * GAMMA, linewidths[0] * GAMMA)
    odd = AtomSpecies(omega0 + detunings[1] * GAMMA, linewidths[1] * GAMMA)
    cav = make_cavity(omega0 + detunings[2] * GAMMA, commensurate=commensurate)
    rho = rho_frac * cell_size
    omega_p = omega0 + np.array(probe) * GAMMA
    got = output_intensity(cav, even, odd, omega_p, rho, phi)
    solved = np.array(
        [abs(steady_state(cav, even, odd, w, rho, phi).cavity_amplitude) ** 2 for w in omega_p]
    )
    assert got == pytest.approx(2 * cav.linewidth * solved, rel=1e-10)


def test_incommensurate_spectrum_independent_of_geometry(omega0, lattice):
    omega_p = omega0 + 7 * GAMMA
    values = [
        output_intensity(
            make_cavity(omega0, commensurate=False),
            lattice.species_even,
            lattice.species_odd,
            omega_p,
            rho_frac * lattice.cell_size,
            phi,
        )
        for rho_frac, phi in ((0.0, 0.3), (0.33, 1.1), (0.77, 2.9))
    ]
    assert max(values) - min(values) <= 1e-12 * max(values)


def test_single_cell_with_rescaled_coupling_equivalent(omega0, lattice):
    # M cells at occupancy n, or one cell at occupancy M n: same M R
    omega_p = omega0 + 13 * GAMMA
    rho = 0.2 * lattice.cell_size
    many = make_cavity(omega0, cells=100, occupancy=3000.0)
    one = make_cavity(omega0, cells=1, occupancy=100 * 3000.0)
    i_many = output_intensity(many, lattice.species_even, lattice.species_odd, omega_p, rho, 0.0)
    i_one = output_intensity(one, lattice.species_even, lattice.species_odd, omega_p, rho, 0.0)
    assert i_many == pytest.approx(i_one, rel=1e-12)


def test_occupancy_rescales_coupling(omega0, lattice, effective_g):
    # quadrupled occupancy doubles the effective coupling: the squared peak
    # offset grows by exactly 4x M R on top of the detuning term
    sp = lattice.species_even
    base = make_cavity(omega0, occupancy=3000.0)
    quad = make_cavity(omega0, occupancy=12000.0)
    r1 = collective_coupling_squared(effective_g, effective_g, base.wavevector, 0.0, 0.0, True)
    lo1, hi1 = rabi_peak_frequencies(omega0, sp.transition_frequency, 100, r1)
    lo2, hi2 = rabi_peak_frequencies(omega0, sp.transition_frequency, 100, 4 * r1)
    mean = 0.5 * (omega0 + sp.transition_frequency)
    half_det_sq = (0.5 * (omega0 - sp.transition_frequency)) ** 2
    assert (hi2 - mean) ** 2 - half_det_sq == pytest.approx(
        4 * ((hi1 - mean) ** 2 - half_det_sq), rel=1e-9
    )
    # and the quadrupled-occupancy spectrum really peaks out there
    i_at_new = output_intensity(quad, sp, sp, hi2, 0.0, 0.0)
    i_at_old = output_intensity(quad, sp, sp, hi1, 0.0, 0.0)
    assert i_at_new > 10 * i_at_old


# ---------------------------------------------------------------------------
# output spectra


def test_empty_cavity_lorentzian_when_atoms_at_nodes(omega0, lattice):
    cav = make_cavity(omega0)
    sp = lattice.species_even
    for omega_p in omega0 + np.linspace(-30, 30, 101) * GAMMA:
        delta_c = omega0 - omega_p
        empty = 2 * cav.linewidth * cav.pump**2 / (delta_c**2 + cav.linewidth**2)
        got = output_intensity(cav, sp, sp, omega_p, 0.0, math.pi / 2)
        assert got == pytest.approx(empty, rel=1e-10)


def test_cavity_induced_transparency_scaling(omega0, lattice):
    # on double resonance the output falls as 1/C^2
    sp = AtomSpecies(omega0, GAMMA)   # Delta = delta_c = 0 at omega_p = omega0
    intensities, coops = [], []
    for nbar in np.logspace(1, 5, 9):
        cav = make_cavity(omega0, occupancy=float(nbar), commensurate=False)
        g = math.sqrt(nbar) * cavity_coupling(sp, cav)
        r = collective_coupling_squared(g, g, cav.wavevector, 0.0, 0.0, False)
        coops.append(cooperativity(cav.cell_count, r, cav.linewidth, GAMMA))
        intensities.append(output_intensity(cav, sp, sp, omega0, 0.0, 0.0))
    slope = np.polyfit(np.log(coops), np.log(intensities), 1)[0]
    assert slope == pytest.approx(-2.0, abs=0.05)


def test_transparency_minimum_sits_at_atomic_frequency(omega0, lattice):
    # at phi = 0 the spectrum between the Rabi peaks dips to its minimum at
    # the atomic transition, where the collective polarization cancels the
    # drive (the transparency minimum of the strong-coupling spectrum)
    cav = make_cavity(omega0)
    sp = lattice.species_even
    rho = 0.2 * lattice.cell_size
    omega_a = sp.transition_frequency
    probe = omega_a + np.linspace(-5, 5, 1001) * GAMMA
    intensity = np.array([output_intensity(cav, sp, sp, w, rho, 0.0) for w in probe])
    dip = (probe[np.argmin(intensity)] - omega_a) / GAMMA
    assert abs(dip) < 0.05   # pulled ~0.01 gamma by the cavity-detuning term
    assert intensity.min() < 0.05 * min(intensity[0], intensity[-1])


def test_marked_commensurate_but_incompatible_wavevector_warns(omega0, cell_size):
    cav = make_cavity(omega0 + 137 * GAMMA)
    with pytest.warns(UserWarning, match="not an integer"):
        cav.commensurate_order(cell_size)


def test_scan_extracts_rabi_peaks(omega0, lattice):
    cav = make_cavity(omega0)
    probe = omega0 + np.linspace(-40, 40, 4001) * GAMMA
    cells = cavity_spectrum_scan(
        cav, lattice.species_even, lattice.species_odd, probe,
        [0.2 * lattice.cell_size], [0.0],
    )
    assert len(cells) == 1
    cell = cells[0]
    lo, hi = cell.predicted_peaks
    assert any(abs(p - lo) < 50 * KAPPA for p in cell.peaks)
    assert any(abs(p - hi) < 50 * KAPPA for p in cell.peaks)


def test_scan_rejects_an_empty_grid(omega0, lattice):
    cav = make_cavity(omega0)
    grids = ([omega0], [0.0], [0.0])
    for empty in range(3):
        args = [[] if i == empty else g for i, g in enumerate(grids)]
        with pytest.raises(ValueError, match="^empty scan grid$"):
            cavity_spectrum_scan(cav, lattice.species_even, lattice.species_odd, *args)


def test_scan_grid_order(omega0, lattice):
    cav = make_cavity(omega0)
    probe = omega0 + np.linspace(-30, 30, 201) * GAMMA
    rhos = [0.0, 0.2 * lattice.cell_size]
    phis = [0.0, math.pi / 2]
    cells = cavity_spectrum_scan(
        cav, lattice.species_even, lattice.species_odd, probe, rhos, phis
    )
    grid = [(r, p) for r in rhos for p in phis]
    assert len(cells) == len(grid)
    for cell, (rho, phi) in zip(cells, grid):
        expected = output_intensity(
            cav, lattice.species_even, lattice.species_odd, probe, rho, phi
        )
        assert np.array_equal(cell.intensities, expected)
    # the four spectra differ, so no other order passes
    assert len({c.intensities.tobytes() for c in cells}) == len(grid)


def test_quadratic_peak_refinement():
    x = np.linspace(-1.0, 1.0, 21)
    y = 5.0 - (x - 0.137) ** 2
    peaks = extract_peaks(x, y)
    assert len(peaks) == 1
    assert peaks[0] == pytest.approx(0.137, abs=1e-12)


def test_peak_on_a_flat_top_stays_at_its_grid_point():
    # y0 - 2 y1 + y2 rounds to 0 here: the parabola has no vertex, and the
    # peak is the grid point itself, not a division by zero
    x = np.array([0.0, 0.5, 1.0])
    y = np.array([1.0 - 2.0**-53, 1.0, 1.0])
    with np.errstate(all="raise"):
        assert extract_peaks(x, y) == [0.5]
