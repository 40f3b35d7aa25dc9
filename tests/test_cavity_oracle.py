"""The cavity engine against the same atoms in a Fabry-Perot resonator.

Every other cavity check shares the engine's single-mode model:
``steady_state`` solves the same linear equations with the same coupling g.
``oracles.fabry_perot_transmission`` instead scatters the probe off the
lattice's planes between two mirror sheets, with transfer matrices and no
cavity coupling at all.  So a wrong factor in g^2, another kappa convention
or a flipped sign of phi moves the engine's Rabi peaks away from the
resonator's.

The two models are not the same physics: the resonator keeps every
longitudinal mode (the next ones are pi c / L ~ 290 gamma away), where the
engine keeps one.  Their Rabi peaks differ by up to 0.105 gamma in position
and 3.2% in height on the bundled cells (fig10 at rho = 0), growing with the
collective coupling; with every atom at a node (fig9, rho = 0) only the empty
resonance is left, and it agrees to 1e-6.  The bounds below are those
measured worst cases, rounded up.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from bilattice.cavity import cavity_spectrum_scan, extract_peaks
from bilattice.cli_io import bundled_config_text, parse_config

from oracles import fabry_perot_transmission

POSITION_TOL = 0.11    # gamma
HEIGHT_TOL = 0.035     # relative
EMPTY_TOL = 2e-6       # relative height of the empty resonance, atoms at nodes


def _setup(name):
    """The bundled config's spec, cavity, lattice and its one phi."""
    spec = parse_config(bundled_config_text(name)).sweep
    (phi,) = spec.phi_values
    return spec, spec.cavity, spec.lattice, phi


def _intensity_norm(cavity, lattice, rho, phi, probe):
    """The engine's ``intensity_norm``: output flux over the empty-cavity peak
    2 pump^2 / kappa, with its extracted peaks."""
    cell = cavity_spectrum_scan(
        cavity, lattice.species_even, lattice.species_odd, probe, [rho], [phi]
    )[0]
    return cell.intensities * cavity.linewidth / (2.0 * cavity.pump**2), cell.peaks


def _vertex(x, y):
    """Position and height of the sampled maximum, refined by a parabola."""
    i = int(np.argmax(y))
    assert 0 < i < len(y) - 1, "maximum at the edge of its window"
    y0, y1, y2 = y[i - 1 : i + 2]
    shift = 0.5 * (y0 - y2) / (y0 - 2.0 * y1 + y2)
    return x[i] + shift * (x[1] - x[0]), y1 - 0.25 * (y0 - y2) * shift


def _compare_peaks(cavity, lattice, rho, phi, probe):
    """Per Rabi peak of the engine: the resonator's peak offset [gamma] and
    relative height difference, each peak refined on a 0.0025 gamma grid."""
    gamma = lattice.species_even.linewidth
    lattice = lattice.replace(intracell_distance=rho)
    engine, peaks = _intensity_norm(cavity, lattice, rho, phi, probe)
    resonator = fabry_perot_transmission(cavity, lattice, probe, phi)
    assert len(extract_peaks(probe, resonator)) == len(peaks)
    offsets, heights = [], []
    for peak in peaks:
        fine = peak + np.linspace(-0.6, 0.6, 481) * gamma
        x_e, h_e = _vertex(fine, _intensity_norm(cavity, lattice, rho, phi, fine)[0])
        x_r, h_r = _vertex(fine, fabry_perot_transmission(cavity, lattice, fine, phi))
        offsets.append((x_r - x_e) / gamma)
        heights.append(h_r / h_e - 1.0)
    return offsets, heights


@pytest.mark.parametrize("name", ["fig9", "fig10"])
@pytest.mark.parametrize("rho_frac", [0.0, 0.2, 0.4])
def test_bundled_cells_match_the_resonator(name, rho_frac):
    spec, cavity, lattice, phi = _setup(name)
    offsets, heights = _compare_peaks(
        cavity, lattice, rho_frac * lattice.cell_size, phi, spec.probe_grid
    )
    if name == "fig9" and rho_frac == 0.0:
        # phi = pi/2 and rho = 0: every atom at a node, one empty resonance
        assert len(offsets) == 1
        assert abs(offsets[0]) < 1e-4 and abs(heights[0]) < EMPTY_TOL
    else:
        assert len(offsets) == 2
        assert max(map(abs, offsets)) < POSITION_TOL
        assert max(map(abs, heights)) < HEIGHT_TOL


@pytest.mark.parametrize(
    "rho_frac, phi, occupancy", [(0.2, 0.3 * math.pi, 3000.0), (0.35, 0.85 * math.pi, 1500.0)]
)
def test_drawn_geometries_match_the_resonator(rho_frac, phi, occupancy):
    # generic phases, where the odd sites' cos^2(k rho + phi) differs from
    # cos^2(k rho - phi): a flipped sign of phi shows here
    spec, cavity, lattice, _ = _setup("fig9")
    cavity = dataclasses.replace(cavity, occupancy=occupancy)
    offsets, heights = _compare_peaks(
        cavity, lattice, rho_frac * lattice.cell_size, phi, spec.probe_grid
    )
    assert len(offsets) == 2
    assert max(map(abs, offsets)) < POSITION_TOL
    assert max(map(abs, heights)) < HEIGHT_TOL


def test_quarter_turn_of_phi_moves_the_sites_from_antinodes_to_nodes():
    # rho = 0 puts both species on the even sites.  At phi = 0 they sit at
    # antinodes and split the resonance, at phi + pi/2 at nodes, where the
    # probe at omega_c sees the empty cavity, in both models
    spec, cavity, lattice, _ = _setup("fig10")
    lattice = lattice.replace(intracell_distance=0.0)
    at_mode = np.array([cavity.mode_frequency])
    for phi, empty in ((0.0, False), (0.5 * math.pi, True)):
        engine = _intensity_norm(cavity, lattice, 0.0, phi, at_mode)[0][0]
        resonator = fabry_perot_transmission(cavity, lattice, at_mode, phi)[0]
        for value in (engine, resonator):
            assert (abs(value - 1.0) < EMPTY_TOL) if empty else (value < 1e-3)
