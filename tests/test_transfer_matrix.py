"""Transfer-matrix engine: plane/period/dimer algebra, closed form, spectra."""

from __future__ import annotations

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bilattice.cli_io import bundled_config_text, parse_config
from bilattice.constants import C, TWO_PI
from bilattice.core import xi_parameter
from bilattice.transfer_matrix import (
    _DEGENERATE_NSIN,
    ScatterMatrix,
    _cos_sin,
    cell_dephasing,
    dimer_matrix,
    period_matrix,
    plane_coefficients,
    spectrum_scan,
    stack_coefficients,
    transmission_asymptotic,
    transmission_closed_form,
)

from conftest import GAMMA, make_lattice


def random_xi(rng, lossless=False):
    """Physically-signed sheet response: Im(xi) >= 0."""
    mag = 10 ** rng.uniform(-4, -0.7)
    phase = rng.uniform(0, math.pi) if not lossless else 0.0
    return mag * cmath.exp(1j * phase) if not lossless else mag * rng.choice([-1, 1])


def random_cell(rng, lossless=False):
    """A random two-plane unit cell built only from period matrices."""
    k_p = rng.uniform(0.5, 2.0) * TWO_PI / 780e-9
    a = rng.uniform(0.2, 2.0) * 780e-9
    rho = rng.uniform(0, 1) * a
    m1 = period_matrix(random_xi(rng, lossless), rho, k_p)
    m2 = period_matrix(random_xi(rng, lossless), a - rho, k_p)
    return m1 @ m2


# ---------------------------------------------------------------------------
# plane and period


def test_empty_plane():
    r, t = plane_coefficients(0.0)
    assert r == 0 and t == 1


def test_real_xi_conserves_energy():
    rng = np.random.default_rng(3)
    for _ in range(100):
        xi = rng.uniform(-5, 5)
        r, t = plane_coefficients(xi)
        assert abs(r) ** 2 + abs(t) ** 2 == pytest.approx(1.0, rel=1e-12)


def test_resonant_absorbing_plane():
    r, t = plane_coefficients(1j)
    assert r == pytest.approx(-0.5)
    assert t == pytest.approx(0.5)
    assert abs(r) ** 2 + abs(t) ** 2 == pytest.approx(0.5)


def test_thin_sheet_relation_t_minus_r():
    rng = np.random.default_rng(5)
    for _ in range(200):
        xi = complex(rng.normal(), abs(rng.normal()))
        r, t = plane_coefficients(xi)
        assert t - r == pytest.approx(1.0, rel=1e-12)


def test_gain_like_pole_rejected():
    with pytest.raises(ValueError, match="gain"):
        plane_coefficients(-1j)


def test_period_matrix_free_propagation():
    k_p, d = TWO_PI / 780e-9, 123e-9
    m = period_matrix(0.0, d, k_p)
    assert m.m11 == pytest.approx(cmath.exp(1j * k_p * d))
    assert m.m22 == pytest.approx(cmath.exp(-1j * k_p * d))
    assert m.m12 == 0 and m.m21 == 0


def test_period_matrix_rejects_negative_distance():
    with pytest.raises(ValueError, match="^propagation distance must be non-negative$"):
        period_matrix(0.1j, -1e-9, TWO_PI / 780e-9)


def test_period_matrix_unimodular():
    rng = np.random.default_rng(17)
    for _ in range(500):
        m = period_matrix(random_xi(rng), rng.uniform(0, 1e-6), rng.uniform(1e6, 1e7))
        assert m.determinant == pytest.approx(1.0, abs=1e-12)


def test_period_matrix_recovers_plane_coefficients():
    # r = M12/M22 is the bare plane reflection; t = 1/M22 adds the phase of d
    rng = np.random.default_rng(23)
    for _ in range(50):
        xi = random_xi(rng)
        d, k_p = rng.uniform(0, 1e-6), rng.uniform(1e6, 1e7)
        m = period_matrix(xi, d, k_p)
        r, t = plane_coefficients(xi)
        assert m.reflection == pytest.approx(r, rel=1e-12)
        assert m.transmission == pytest.approx(t * cmath.exp(1j * k_p * d), rel=1e-12)


# ---------------------------------------------------------------------------
# dimer


def test_dimer_half_cell_is_squared_period(omega0):
    cfg = make_lattice(omega0, rho_frac=0.5)
    omega_p = omega0 + 37 * GAMMA
    k_p = omega_p / C
    xi = xi_parameter(omega_p, cfg.species_even, cfg.areal_density)
    half = period_matrix(xi, cfg.cell_size / 2, k_p)
    expected = (half @ half).as_array()
    got = dimer_matrix(cfg, omega_p).as_array()
    assert np.allclose(got, expected, rtol=1e-12, atol=0)


def test_dimer_against_bruteforce_product(omega0):
    cfg = make_lattice(omega0, rho_frac=0.2, detuning_odd=530.0)
    omega_p = omega0 - 210 * GAMMA
    k_p = omega_p / C
    xi1 = xi_parameter(omega_p, cfg.species_even, cfg.areal_density)
    xi2 = xi_parameter(omega_p, cfg.species_odd, cfg.areal_density)

    def plane(xi):
        return np.array([[1 + 1j * xi, 1j * xi], [-1j * xi, 1 - 1j * xi]])

    def prop(d):
        return np.diag([np.exp(1j * k_p * d), np.exp(-1j * k_p * d)])

    d1 = cfg.intracell_distance
    expected = plane(xi1) @ prop(d1) @ plane(xi2) @ prop(cfg.cell_size - d1)
    assert np.allclose(dimer_matrix(cfg, omega_p).as_array(), expected, rtol=1e-12)


def test_dimer_quarter_cell_periods_nearly_invert(omega0):
    # with equal real responses the two half-matrices undo each other
    cfg = make_lattice(omega0, rho_frac=0.25)
    omega_p = cfg.species_even.transition_frequency + 200 * GAMMA
    k_p = omega_p / C
    xi = xi_parameter(omega_p, cfg.species_even, cfg.areal_density).real
    m1 = period_matrix(xi, 0.25 * cfg.cell_size, k_p)
    m2 = period_matrix(xi, 0.75 * cfg.cell_size, k_p)
    assert np.max(np.abs((m2 @ m1).as_array() - np.eye(2))) < 1e-4


def test_dimer_unimodular_production_draws(omega0):
    rng = np.random.default_rng(29)
    for _ in range(100):
        cfg = make_lattice(omega0, rho_frac=rng.uniform(0, 1))
        m = dimer_matrix(cfg, omega0 + rng.uniform(-500, 500) * GAMMA)
        assert m.determinant == pytest.approx(1.0, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    rho_frac=st.floats(0.0, 1.0),
    detuning_odd=st.floats(-600.0, 600.0),
    detunings=st.lists(st.floats(-800.0, 800.0), min_size=1, max_size=32),
)
def test_vectorised_dimer_is_unimodular(omega0, rho_frac, detuning_odd, detunings):
    cfg = make_lattice(omega0, rho_frac=rho_frac, detuning_odd=detuning_odd)
    cells = dimer_matrix(cfg, omega0 + np.array(detunings) * GAMMA)
    assert np.max(np.abs(cells.determinant - 1.0)) < 1e-12


# ---------------------------------------------------------------------------
# cell dephasing


def test_dephasing_empty_lattice(omega0):
    cfg = make_lattice(omega0, rho_frac=0.3)
    empty = cfg.replace(areal_density=1e-30)   # xi -> 0
    omega_p = omega0 + 55 * GAMMA
    theta, _, _ = cell_dephasing(empty, omega_p)
    assert theta.imag == pytest.approx(0.0, abs=1e-10)
    assert cmath.cos(theta) == pytest.approx(cmath.cos(omega_p / C * cfg.cell_size), rel=1e-9)


def test_dephasing_adds_when_intracell_phase_vanishes(omega0):
    # rho = a/2 at the Bragg frequency: sin(k_p rho) = 0 and the cell is the
    # square of one slice, so Theta = Theta1 + Theta2 exactly
    cfg = make_lattice(omega0, rho_frac=0.5)
    theta, th1, th2 = cell_dephasing(cfg, omega0)
    assert cmath.cos(th1 + th2) == pytest.approx(cmath.cos(theta), abs=1e-12)


def test_dephasing_trace_oracle(omega0):
    rng = np.random.default_rng(31)
    for _ in range(50):
        cfg = make_lattice(
            omega0, rho_frac=rng.uniform(0, 1), detuning_odd=rng.uniform(-600, 600)
        )
        omega_p = omega0 + rng.uniform(-600, 600) * GAMMA
        theta, _, _ = cell_dephasing(cfg, omega_p)
        trace = dimer_matrix(cfg, omega_p).trace
        assert cmath.cos(theta) == pytest.approx(trace / 2, rel=1e-12)
        assert theta.imag >= 0


def test_slice_dephasings_match_their_own_traces(omega0):
    cfg = make_lattice(omega0, rho_frac=0.37)
    omega_p = omega0 - 140 * GAMMA
    k_p = omega_p / C
    _, th1, th2 = cell_dephasing(cfg, omega_p)
    for th, xi, d in (
        (th1, xi_parameter(omega_p, cfg.species_even, cfg.areal_density), cfg.intracell_distance),
        (th2, xi_parameter(omega_p, cfg.species_odd, cfg.areal_density), cfg.cell_size - cfg.intracell_distance),
    ):
        single = period_matrix(xi, d, k_p)
        assert cmath.cos(th) == pytest.approx(single.trace / 2, rel=1e-12)


# ---------------------------------------------------------------------------
# closed-form stack response


def test_empty_lattice_transmits_everything(omega0):
    # |t| picks up ~n * eps / sin(Theta) of float noise, ~3e-7 at n = 1e6
    cfg = make_lattice(omega0, rho_frac=0.3, areal_density=1e-30)
    for n in (1, 7, 1000, 1_000_000):
        t = transmission_closed_form(cfg, omega0 + 3 * GAMMA, n)
        assert abs(t) == pytest.approx(1.0, rel=1e-5)


def test_single_cell_equals_dimer_entry(omega0):
    cfg = make_lattice(omega0, rho_frac=0.2)
    omega_p = omega0 - 77 * GAMMA
    expected = 1.0 / dimer_matrix(cfg, omega_p).m22
    assert transmission_closed_form(cfg, omega_p, 1) == pytest.approx(expected, rel=1e-12)


def test_closed_form_against_matrix_power(omega0):
    rng = np.random.default_rng(41)
    worst = 0.0
    for _ in range(40):
        cfg = make_lattice(omega0, rho_frac=rng.uniform(0, 1))
        omega_p = omega0 + rng.uniform(-550, 550) * GAMMA
        n = int(rng.integers(1, 2001))
        m = dimer_matrix(cfg, omega_p)
        power = np.linalg.matrix_power(m.as_array(), n)
        r_ref, t_ref = power[0, 1] / power[1, 1], 1.0 / power[1, 1]
        if abs(t_ref) < 1e-120:   # keep the oracle itself in range
            continue
        r, t = stack_coefficients(m, n)
        worst = max(worst, abs(t - t_ref) / abs(t_ref))
        if abs(r_ref) > 1e-12:
            worst = max(worst, abs(r - r_ref) / abs(r_ref))
    assert worst < 1e-8


@pytest.mark.parametrize("name", ["fig6", "fig7", "fig8"])
def test_scalar_closed_form_is_the_table_value(name):
    # the scalar API returns the t the spectrum table is printed from, bit
    # for bit, and so its |t|^2 is the table's T
    spec = parse_config(bundled_config_text(name)).sweep
    grid = np.asarray(spec.probe_grid)
    rng = np.random.default_rng(17)
    for rho in spec.resolved_rhos():
        cfg = spec.lattice.replace(intracell_distance=float(rho))
        n = cfg.cell_count
        _, t_grid = stack_coefficients(dimer_matrix(cfg, grid), n)
        assert np.array_equal(np.abs(t_grid) ** 2, spectrum_scan(cfg, grid).transmitted)
        for i in rng.choice(grid.size, 70, replace=False):
            assert transmission_closed_form(cfg, float(grid[i]), n) == complex(t_grid[i])


def test_deep_gap_attenuation_at_million_planes(probe_lattice):
    w1 = probe_lattice.species_even.transition_frequency
    t = transmission_closed_form(probe_lattice, w1 + 100 * GAMMA, probe_lattice.cell_count)
    assert abs(t) ** 2 < 1e-6


def test_degenerate_bragg_point_is_finite(probe_lattice, omega0):
    # omega_p = omega_0 hits cos Theta = 1 to machine precision (rho = 0)
    n = 1000
    t = transmission_closed_form(probe_lattice, omega0, n)
    assert cmath.isfinite(t)
    power = np.linalg.matrix_power(dimer_matrix(probe_lattice, omega0).as_array(), n)
    assert t == pytest.approx(1.0 / power[1, 1], rel=1e-9)


def both_branch_coefficients(cell: ScatterMatrix, n: int):
    """stack_coefficients as written with np.where over both branches, each
    evaluated at every point."""
    cos, sin = _cos_sin(cell)
    sign = np.where(cos.real >= 0, 1.0, -1.0)
    b = cell.m22 - cos
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        phi = np.where(
            np.abs(sin) < np.abs(cos), np.arctan(sin / cos), -1j * np.log(sign * (cos + 1j * sin))
        )
        w = sign ** (n % 2) * np.exp(1j * n * phi)
        w2m1 = np.expm1(2j * n * phi)
        den = w2m1 * (sin - 1j * b) + 2.0 * sin
        r = -1j * cell.m12 * w2m1 / den
        t = 2.0 * w * sin / den
        parabolic = n * np.abs(sin) < _DEGENERATE_NSIN
        limit = n * cell.m22 - (n - 1) * sign
        r = np.where(parabolic, n * cell.m12 / limit, r)
        t = np.where(parabolic, sign ** ((n - 1) % 2) / limit, t)
    return r[()], t[()]


def test_branches_taken_pointwise_keep_every_bit(probe_lattice, omega0):
    # a fig6 lattice from 0.3 to 1.8 omega_0 takes the arctan form at about
    # half of the points and the log form at the rest; an empty cell one
    # wavelength long (sin Theta ~ 2e-16) takes the parabolic limit
    grid = np.linspace(0.3 * omega0, 1.8 * omega0, 201)
    dimers = dimer_matrix(probe_lattice, grid)
    empty = period_matrix(0.0, probe_lattice.cell_size, omega0 / C)
    cells = ScatterMatrix(*(
        np.append(getattr(dimers, k), getattr(empty, k)) for k in ("m11", "m12", "m21", "m22")
    ))
    cos, sin = _cos_sin(cells)
    n = probe_lattice.cell_count
    assert 50 < np.count_nonzero(~(np.abs(sin) < np.abs(cos))) < 150
    assert np.count_nonzero(n * np.abs(sin) < _DEGENERATE_NSIN) == 1

    def bits(values):
        return np.asarray(values).tobytes()

    for count in (n, n + 1, 1):
        got = stack_coefficients(cells, count)
        assert list(map(bits, got)) == list(map(bits, both_branch_coefficients(cells, count)))
        # one point at a time, as one-element arrays (arithmetic on numpy
        # scalars may round complex products differently from the array loops)
        for i in range(len(grid) + 1):
            point = ScatterMatrix(*(
                getattr(cells, k)[i:i + 1] for k in ("m11", "m12", "m21", "m22")
            ))
            assert list(map(bits, stack_coefficients(point, count))) == [
                bits(got[0][i:i + 1]), bits(got[1][i:i + 1])
            ]
    # 0-d input: a scalar cell on the arctan, the log and the parabolic branch
    for point in (dimer_matrix(probe_lattice, 1.5 * omega0),
                  dimer_matrix(probe_lattice, 1.2 * omega0), empty):
        got = stack_coefficients(point, n)
        assert all(np.ndim(v) == 0 for v in got)
        assert list(map(bits, got)) == list(map(bits, both_branch_coefficients(point, n)))


def test_lossless_stack_conserves_energy():
    rng = np.random.default_rng(43)
    for _ in range(60):
        cell = random_cell(rng, lossless=True)
        n = int(rng.integers(1, 1001))
        r, t = stack_coefficients(cell, n)
        assert abs(r) ** 2 + abs(t) ** 2 == pytest.approx(1.0, abs=1e-10)


@settings(max_examples=60, deadline=None)
@given(
    xis=st.lists(
        st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0), st.floats(0.5, 2.0)),
        min_size=1,
        max_size=32,
    ),
    rho_frac=st.floats(0.0, 1.0),
    n=st.integers(1, 1_000_000),
)
def test_real_xi_stack_conserves_energy(xis, rho_frac, n):
    # the float entries are lossless and unimodular only to ~eps, which shifts
    # Im Theta by ~eps/|sin Theta| and |r|^2 + |t|^2 of the exact n-th power
    # by ~n eps/|sin Theta|; a wrong branch or formula is off by O(1)
    xi1, xi2, k_scale = np.array(xis).T
    k_p = k_scale * TWO_PI / 780e-9
    a = 780e-9
    cells = period_matrix(xi1, rho_frac * a, k_p) @ period_matrix(xi2, (1 - rho_frac) * a, k_p)
    r, t = stack_coefficients(cells, n)
    with np.errstate(divide="ignore"):
        sin_theta = np.sqrt(np.abs(1.0 - (cells.trace / 2) ** 2))
        tolerance = 1e-12 + 1e-14 * n / sin_theta
    assert np.all(np.abs(np.abs(r) ** 2 + np.abs(t) ** 2 - 1.0) <= tolerance)


def matrix_power(cell: ScatterMatrix, n: int) -> ScatterMatrix:
    """cell^n by repeated squaring with ``ScatterMatrix.__matmul__``."""
    power, square = None, cell
    while True:
        if n & 1:
            power = square if power is None else power @ square
        n >>= 1
        if not n:
            return power
        square = square @ square


@settings(max_examples=60, deadline=None)
@given(
    xis=st.lists(
        st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0), st.floats(0.5, 2.0)),
        min_size=1,
        max_size=32,
    ),
    rho_frac=st.floats(0.0, 1.0),
    sizes=st.integers(1, 1_000_000).flatmap(
        lambda n1: st.tuples(st.just(n1), st.integers(1, 1_000_000 // n1))
    ),
)
def test_stack_of_blocks_equals_stack_of_cells(xis, rho_frac, sizes):
    # n1 n2 cells are n2 blocks of n1 cells; the block is composed by matrix
    # products, so both sides carry the ~n eps/|sin Theta| error of the
    # energy property above, here with a factor 10 of room
    n1, n2 = sizes
    xi1, xi2, k_scale = np.array(xis).T
    k_p = k_scale * TWO_PI / 780e-9
    a = 780e-9
    cells = period_matrix(xi1, rho_frac * a, k_p) @ period_matrix(xi2, (1 - rho_frac) * a, k_p)
    r, t = stack_coefficients(cells, n1 * n2)
    with np.errstate(over="ignore", invalid="ignore"):
        # deep in a stop band the block's entries grow as e^(n1 Im Theta)
        block = matrix_power(cells, n1)
        r_block, t_block = stack_coefficients(block, n2)
        # the closed form's relative error in t grows as n eps |Tr/2|^2 (and
        # is NaN from |Tr/2| ~ 1e8), so a block deeper in a stop band than
        # |Tr| = 2e3 is no oracle
        kept = np.abs(block.trace) <= 2e3
    sin_theta = np.sqrt(np.abs(1.0 - (cells.trace / 2) ** 2))
    with np.errstate(divide="ignore"):
        tolerance = 1e-12 + 1e-13 * n1 * n2 / sin_theta
    assert kept[np.abs(cells.trace) <= 2.0].all()   # every pass-band lane is compared
    for got, want in ((r_block, r), (t_block, t)):
        assert np.all((np.abs(got - want) <= tolerance)[kept])


def test_stack_coefficient_determinant_form():
    rng = np.random.default_rng(47)
    for _ in range(200):
        cell = random_cell(rng)
        assert cell.determinant == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("n", [0, -1])
def test_stack_and_asymptotic_reject_fewer_than_one_cell(probe_lattice, n):
    cell = random_cell(np.random.default_rng(5))
    with pytest.raises(ValueError, match="^need at least one cell$"):
        stack_coefficients(cell, n)
    omega_p = probe_lattice.species_even.transition_frequency + 200 * GAMMA
    with pytest.raises(ValueError, match="^need at least one cell$"):
        transmission_asymptotic(probe_lattice, omega_p, n)


# ---------------------------------------------------------------------------
# asymptotic form


def test_asymptotic_matches_exact_deep_stack(probe_lattice):
    w1 = probe_lattice.species_even.transition_frequency
    omega_p = w1 + 200 * GAMMA
    n = 300_000
    exact = transmission_closed_form(probe_lattice, omega_p, n)
    approx = transmission_asymptotic(probe_lattice, omega_p, n)
    assert approx.valid
    assert abs(approx.value - exact) / abs(exact) < 1e-6


def test_asymptotic_improves_with_depth(probe_lattice):
    w1 = probe_lattice.species_even.transition_frequency
    omega_p = w1 + 200 * GAMMA
    devs = []
    for n in (10_000, 100_000, 300_000):
        exact = transmission_closed_form(probe_lattice, omega_p, n)
        devs.append(abs(transmission_asymptotic(probe_lattice, omega_p, n).value - exact) / abs(exact))
    assert devs[0] > devs[1] > devs[2]


def test_asymptotic_log_slope_is_im_theta(probe_lattice):
    w1 = probe_lattice.species_even.transition_frequency
    omega_p = w1 + 200 * GAMMA
    theta, _, _ = cell_dephasing(probe_lattice, omega_p)
    a1 = transmission_asymptotic(probe_lattice, omega_p, 200_000).value
    a2 = transmission_asymptotic(probe_lattice, omega_p, 400_000).value
    slope = (math.log(abs(a2)) - math.log(abs(a1))) / 200_000
    assert slope == pytest.approx(-theta.imag, rel=1e-9)


def test_asymptotic_flag_false_outside_gap(probe_lattice):
    w1 = probe_lattice.species_even.transition_frequency
    result = transmission_asymptotic(probe_lattice, w1 + 5000 * GAMMA, 1000)
    assert not result.valid


# ---------------------------------------------------------------------------
# spectra


def test_spectrum_point_invariants(probe_lattice):
    w1 = probe_lattice.species_even.transition_frequency
    grid = w1 + np.linspace(-550, 550, 241) * GAMMA
    spec = spectrum_scan(probe_lattice, grid)
    assert not spec.errors
    assert np.array_equal(spec.omega_p, grid)
    assert np.allclose(spec.detuning, np.linspace(-550, 550, 241), rtol=0, atol=1e-6)
    assert np.all((spec.transmitted >= 0.0) & (spec.transmitted <= 1.0 + 1e-12))
    assert np.all((spec.reflected >= 0.0) & (spec.reflected <= 1.0 + 1e-12))
    assert np.all((spec.absorbed >= -1e-9) & (spec.absorbed <= 1.0))


def test_monoperiodic_scattering_loss_peak(probe_lattice):
    # rho = 0: a weak transmission peak and a reflection dip sit in the
    # conducting strip between the atomic and the lattice-light frequency,
    # on top of an otherwise opaque gap
    w1 = probe_lattice.species_even.transition_frequency
    strip = w1 + np.linspace(0.5, 9.9, 48) * GAMMA
    strip_spec = spectrum_scan(probe_lattice, strip)
    t_peak = strip_spec.transmitted.max()
    r_dip = strip_spec.reflected.min()
    gap = spectrum_scan(probe_lattice, [w1 - 50 * GAMMA, w1 + 50 * GAMMA])
    assert 1e-4 < t_peak < 1e-2            # small, loss-limited
    assert np.all(t_peak > 1e6 * gap.transmitted)
    assert r_dip < 0.97
    assert np.all(gap.reflected > 0.99)


def test_spectra_symmetric_under_cell_reversal(omega0):
    # rho <-> a - rho is the mirrored stack: identical Theta, spectra equal
    # up to a boundary-plane term well below 1e-4
    base = make_lattice(omega0, cells=1000)
    w1 = base.species_even.transition_frequency
    grid = w1 + np.array([-300.0, -37.0, 37.0, 150.0, 300.0]) * GAMMA
    for rho_frac in (0.2, 0.35):
        cfg_a = base.replace(intracell_distance=rho_frac * base.cell_size)
        cfg_b = base.replace(intracell_distance=(1 - rho_frac) * base.cell_size)
        for omega_p in grid:
            th_a, _, _ = cell_dephasing(cfg_a, omega_p)
            th_b, _, _ = cell_dephasing(cfg_b, omega_p)
            assert cmath.cos(th_a) == pytest.approx(cmath.cos(th_b), rel=1e-12)
        spec_a = spectrum_scan(cfg_a, grid)
        spec_b = spectrum_scan(cfg_b, grid)
        assert np.allclose(spec_a.transmitted, spec_b.transmitted, rtol=0, atol=1e-4)
        assert np.allclose(spec_a.reflected, spec_b.reflected, rtol=0, atol=1e-4)


def test_spectrum_scan_rejects_empty_grid(probe_lattice):
    with pytest.raises(ValueError, match="empty"):
        spectrum_scan(probe_lattice, [])
