"""Transmit spectra at 1e6 planes against a 40-digit mpmath matrix power.

The reference raises the float64 cell entries (``dimer_matrix``) to the n-th
power by binary powering at 40 significant digits, so it measures only the
error of the closed form, not the rounding of the entries themselves.
"""

from __future__ import annotations

import numpy as np
import pytest

from bilattice.cli_io import bundled_config_text, parse_config
from bilattice.transfer_matrix import (
    ScatterMatrix,
    dimer_matrix,
    period_matrix,
    spectrum_scan,
    stack_coefficients,
)

mpmath = pytest.importorskip("mpmath")

DIGITS = 40
SAMPLES = 40       # random probe points per figure
EDGE_POINTS = 10   # grid points nearest a band edge (cos Theta = +-1) per figure


def mp_power(cell: ScatterMatrix, n: int):
    """(M^n)_12, (M^n)_22 of the float entries by binary powering."""
    entries = ((cell.m11, cell.m12), (cell.m21, cell.m22))
    a = [[mpmath.mpc(complex(z)) for z in row] for row in entries]
    result = [[mpmath.mpc(1), mpmath.mpc(0)], [mpmath.mpc(0), mpmath.mpc(1)]]

    def mul(x, y):
        return [[x[i][0] * y[0][j] + x[i][1] * y[1][j] for j in (0, 1)] for i in (0, 1)]

    while n:
        if n & 1:
            result = mul(result, a)
        a = mul(a, a)
        n >>= 1
    return result[0][1], result[1][1]


@pytest.mark.parametrize("name", ["fig6", "fig7", "fig8"])
def test_transmit_matches_mpmath_power(name):
    spec = parse_config(bundled_config_text(name)).sweep
    cfg, grid = spec.lattice, np.asarray(spec.probe_grid)
    cells = dimer_matrix(cfg, grid)
    edge_distance = np.abs(cells.trace**2 / 4 - 1)
    rng = np.random.default_rng(sum(map(ord, name)))
    picks = set(np.argsort(edge_distance)[:EDGE_POINTS].tolist())
    picks |= set(rng.choice(len(grid), SAMPLES, replace=False).tolist())
    result = spectrum_scan(cfg, grid)
    assert np.isfinite(np.array(result)).all()
    with mpmath.workdps(DIGITS):
        for i in sorted(picks):
            m12, m22 = mp_power(dimer_matrix(cfg, float(grid[i])), cfg.cell_count)
            t_ref = float(1 / abs(m22) ** 2)
            r_ref = float(abs(m12 / m22) ** 2)
            assert abs(result.transmitted[i] - t_ref) <= 1e-8, (i, result.transmitted[i], t_ref)
            assert abs(result.reflected[i] - r_ref) <= 1e-8, (i, result.reflected[i], r_ref)


def test_exact_bragg_point_matches_mpmath_power(probe_lattice, omega0):
    # rho = 0, omega_p = omega_0: cos Theta = 1 up to rounding at n = 5e5
    cell = dimer_matrix(probe_lattice, omega0)
    n = probe_lattice.cell_count
    r, t = stack_coefficients(cell, n)
    with mpmath.workdps(DIGITS):
        m12, m22 = mp_power(cell, n)
        t_ref, r_ref = complex(1 / m22), complex(m12 / m22)
    assert abs(t - t_ref) <= 1e-8 * abs(t_ref)
    assert abs(r - r_ref) <= 1e-8 * abs(r_ref)


@pytest.mark.parametrize("n", [30, 100, 1000])
def test_closed_form_just_above_the_parabolic_cutover(n):
    # |sin Theta| ~ 4.5e-10, so n |sin Theta| runs from 1.3e-8 to 4.5e-7:
    # e^{2 i n Theta} - 1 must come from expm1 to stay relatively exact
    cell = period_matrix(1e-3, 1e-16, 1.0)
    r, t = stack_coefficients(cell, n)
    with mpmath.workdps(DIGITS):
        m12, m22 = mp_power(cell, n)
        t_ref, r_ref = complex(1 / m22), complex(m12 / m22)
    assert abs(t - t_ref) <= 1e-13 * abs(t_ref)
    assert abs(r - r_ref) <= 1e-13 * abs(r_ref)


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_parabolic_limit_on_a_nilpotent_cell(sign):
    # M = s (I + N) with N^2 = 0: sin Theta = 0 exactly, M^n = s^n (I + n N)
    x = 3e-3
    cell = ScatterMatrix(sign * (1 + 1j * x), sign * 1j * x, -sign * 1j * x, sign * (1 - 1j * x))
    for n in (1, 2, 7, 500_000, 1_000_001):
        r, t = stack_coefficients(cell, n)
        m22 = sign**n * (1 - 1j * n * x)
        assert t == pytest.approx(1 / m22, rel=1e-14)
        assert r == pytest.approx(sign**n * 1j * n * x / m22, rel=1e-14)
