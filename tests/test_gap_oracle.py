"""Bloch gap inventory against the transfer-matrix dispersion of the same lattice.

For a lossless lattice of planes the cell transfer matrix gives the
dispersion exactly, cos(q a) = Tr M(omega) / 2 (Deutsch et al., PRA 52, 1394
(1995)): frequencies with |Tr M / 2| > 1 admit no real q and form the gaps.
This route needs no q-grid and no Brillouin-zone truncation, and it reads the
lattice's one density n_s through the sheet response xi = 2 pi k_p n_s alpha,
while the Bloch coupled-mode matrix reads it through V = M a / n_s.  The
paper's central claim, none, two or several gaps depending on rho/a, is
checked here without testing the Bloch engine against itself.

The residual of the wide-gap edges, ~1e-3 gamma, is a difference of the two
models (the rotating-wave coupled-mode matrix against the exact plane
response), not a truncation error: it does not shrink with n_bz.
"""

from __future__ import annotations

import numpy as np
import pytest

from bilattice.bandstructure import gap_widths_vs_rho
from bilattice.cli_io import bundled_config_text, parse_config
from bilattice.constants import C
from bilattice.core import xi_parameter
from bilattice.transfer_matrix import period_matrix

EDGE_TOL = 5e-3      # [gamma] allowed edge difference between the two routes
GRID_STEP = 0.01     # [gamma] scan step; far below the 2 cover_tol a gap must exceed
BISECTIONS = 60


def half_trace(cfg, omega):
    """Tr M / 2 of the cell with the real part of each plane's xi (no loss)."""
    k_p = omega / C
    xi1 = xi_parameter(omega, cfg.species_even, cfg.areal_density).real
    xi2 = xi_parameter(omega, cfg.species_odd, cfg.areal_density).real
    rho = cfg.intracell_distance
    cell = period_matrix(xi1, rho, k_p) @ period_matrix(xi2, cfg.cell_size - rho, k_p)
    return cell.trace.real / 2.0


def transfer_matrix_gaps(cfg, window, cover_tol):
    """Intervals of ``window`` where |Tr M / 2| > 1, edges bisected, each
    shrunk by ``cover_tol`` on both sides as ``find_gaps`` pads the bands;
    gaps that vanish are dropped."""
    lo, hi = window
    gamma = cfg.species_even.linewidth
    omega = np.linspace(lo, hi, int((hi - lo) / (GRID_STEP * gamma)) + 2)
    in_gap = np.abs(half_trace(cfg, omega)) > 1.0
    assert not in_gap[0] and not in_gap[-1], "window must start and end in a band"
    i = np.flatnonzero(in_gap[1:] != in_gap[:-1])
    left, right = omega[i], omega[i + 1]
    left_in_gap = in_gap[i]
    for _ in range(BISECTIONS):
        mid = 0.5 * (left + right)
        same = (np.abs(half_trace(cfg, mid)) > 1.0) == left_in_gap
        left = np.where(same, mid, left)
        right = np.where(same, right, mid)
    edges = 0.5 * (left + right)
    gaps = [(a + cover_tol, b - cover_tol) for a, b in zip(edges[0::2], edges[1::2])]
    return [(a, b) for a, b in gaps if b > a]


CASES = [
    ("fig2b", (0.0, 0.1, 0.2, 0.25, 0.3, 0.5)),
    ("fig4", (0.0, 0.13, 0.37, 0.5, 0.8)),
    ("fig5", (0.0, 0.25, 0.6)),
]


@pytest.mark.parametrize("name,fractions", CASES, ids=[c[0] for c in CASES])
def test_gap_inventory_matches_transfer_matrix_dispersion(name, fractions):
    cfg = parse_config(bundled_config_text(name)).sweep.lattice
    sp1, sp2 = cfg.species_even, cfg.species_odd
    gamma = sp1.linewidth
    # the defaults of gap_widths_vs_rho
    anchors = (sp1.transition_frequency, sp2.transition_frequency, cfg.bragg_frequency)
    window = (min(anchors) - 800.0 * gamma, max(anchors) + 800.0 * gamma)
    cover_tol = gamma / 10.0
    rhos = [f * cfg.cell_size for f in fractions]
    counts = []
    for rho, entry in zip(rhos, gap_widths_vs_rho(cfg, rhos)):
        oracle = transfer_matrix_gaps(cfg.replace(intracell_distance=rho), window, cover_tol)
        assert len(entry.gaps) == len(oracle), (rho / cfg.cell_size, entry.gaps, oracle)
        for gap, (lower, upper) in zip(entry.gaps, oracle):
            assert abs(gap.lower_edge - lower) < EDGE_TOL * gamma
            assert abs(gap.upper_edge - upper) < EDGE_TOL * gamma
        counts.append(len(oracle))
    # none, two or several gaps depending on rho/a
    expected = {
        "fig2b": [2, 2, 2, 0, 2, 2],
        "fig4": [3, 3, 3, 3, 3],
        "fig5": [2, 3, 3],
    }[name]
    assert counts == expected
