"""Bloch matrix assembly, eigensolve, analytic band edges, gap detection."""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from bilattice.bandstructure import (
    _arrowhead,
    _count_below,
    _coupling_weights,
    _default_ir_cutoff,
    analytic_band_edges,
    build_bloch_matrix,
    compute_bands,
    find_gaps,
    gap_widths_vs_rho,
)
from bilattice.cli_io import bundled_config_text, parse_config
from bilattice.constants import C, TWO_PI
from bilattice.core import AtomSpecies, LatticeConfig

from conftest import GAMMA, make_lattice


def decoupled_lattice(omega0, rho_frac=0.2):
    """Identical geometry but zero dipole moment: light and spins decouple."""
    a = TWO_PI * C / omega0
    dark = AtomSpecies.from_frequency(omega0 - 10 * GAMMA, GAMMA, dipole_moment=0.0)
    return LatticeConfig(
        cell_size=a,
        intracell_distance=rho_frac * a,
        cell_count=100,
        areal_density=5.7e10,
        species_even=dark,
        species_odd=dark,
        mode_area=math.pi * (5e-6) ** 2 / 4,
    )


# ---------------------------------------------------------------------------
# matrix assembly


def test_matrix_dimension_at_forty_zones(fiber_lattice):
    bm = build_bloch_matrix(0.0, fiber_lattice, n_bz=40)
    assert bm.dimension == 83


def test_matrix_is_hermitian_with_real_nonneg_diagonal(omega0):
    rng = np.random.default_rng(13)
    for _ in range(20):
        cfg = make_lattice(
            omega0, cells=100, rho_frac=rng.uniform(0, 1), detuning_odd=rng.uniform(-600, 600)
        )
        q = rng.uniform(-0.5, 0.5) * cfg.reciprocal_vector
        h = build_bloch_matrix(q, cfg, n_bz=8).matrix
        assert np.max(np.abs(h - h.conj().T)) <= 1e-12 * np.max(np.abs(h))
        assert np.all(h.diagonal().imag == 0)
        assert np.all(h.diagonal().real >= 0)


def test_quasimomentum_folded_with_warning(fiber_lattice):
    g0 = fiber_lattice.reciprocal_vector
    with pytest.warns(UserWarning, match="folded"):
        bm = build_bloch_matrix(0.75 * g0, fiber_lattice, n_bz=4)
    assert bm.quasi_momentum == pytest.approx(-0.25 * g0)


def test_subnormal_quasimomentum_assembles_without_warning():
    # 1/omega_k of the G = 0 mode overflows here (at q = 1e-300 rad/m the
    # product underflows to 0 instead); the mode is below the infrared cutoff
    cfg = parse_config(bundled_config_text("fig4")).sweep.lattice
    q = 1.05e-273 * cfg.reciprocal_vector
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        h = build_bloch_matrix(q, cfg).matrix
    assert np.all(np.isfinite(h))
    assert np.allclose(h, build_bloch_matrix(0.0, cfg).matrix)


def test_decoupled_limit_gives_bare_frequencies(omega0):
    cfg = decoupled_lattice(omega0)
    q = 0.13 * cfg.reciprocal_vector
    bm = build_bloch_matrix(q, cfg, n_bz=6)
    evals = np.linalg.eigvalsh(bm.matrix)
    ms = np.arange(-6, 7)
    expected = np.sort(
        np.concatenate(
            [
                C * np.abs(q + ms * cfg.reciprocal_vector),
                [omega0 - 10 * GAMMA, omega0 - 10 * GAMMA],
            ]
        )
    )
    assert evals == pytest.approx(expected, rel=1e-12)


# ---------------------------------------------------------------------------
# band sweep


def test_zero_coupling_bands_fold_free_dispersion(omega0):
    cfg = decoupled_lattice(omega0)
    bs = compute_bands(cfg, n_bz=4, n_q=21)
    g0 = cfg.reciprocal_vector
    ms = np.arange(-4, 5)
    for iq, q in enumerate(bs.q_grid):
        expected = np.sort(
            np.concatenate([C * np.abs(q + ms * g0), [omega0 - 10 * GAMMA] * 2])
        )
        assert bs.bands[iq] == pytest.approx(expected, rel=1e-12)


def test_band_sweep_matches_per_q_reference(omega0):
    # the vectorized stack assembly must reproduce the single-q builder bitwise
    cfg = make_lattice(omega0, cells=100, rho_frac=0.2, detuning_odd=530.0)
    bs = compute_bands(cfg, n_bz=8, n_q=17)
    reference = np.stack(
        [
            np.linalg.eigvalsh(build_bloch_matrix(q, cfg, n_bz=8).matrix)
            for q in bs.q_grid
        ]
    )
    assert np.array_equal(bs.bands, reference)


def test_bands_sorted_and_counted(fiber_lattice):
    bs = compute_bands(fiber_lattice, n_bz=10, n_q=11)
    assert bs.band_count == 2 * 10 + 3
    assert np.all(np.diff(bs.bands, axis=1) >= 0)


def test_spectrum_symmetric_under_q_reversal(omega0):
    cfg = make_lattice(omega0, cells=100, rho_frac=0.2, detuning_odd=530.0)
    bs = compute_bands(cfg, n_bz=10, n_q=41)
    dev = np.max(np.abs(bs.bands - bs.bands[::-1]) / np.abs(bs.bands))
    assert dev < 1e-10


def test_band_sweep_rejects_tiny_grid(fiber_lattice):
    with pytest.raises(ValueError, match="three"):
        compute_bands(fiber_lattice, n_q=2)


# ---------------------------------------------------------------------------
# analytic edges


def test_analytic_requires_equal_frequencies(omega0):
    cfg = make_lattice(omega0, cells=100, detuning_odd=530.0)
    with pytest.raises(ValueError, match="omega_1 = omega_2"):
        analytic_band_edges(cfg)


def test_analytic_monoperiodic_collapse(omega0):
    # rho = 0: the inner pair collapses onto the bare frequencies, leaving
    # the single gap [nu_1-, nu_1+]
    cfg = make_lattice(omega0, cells=100, rho_frac=0.0)
    n1m, n2m, n2p, n1p = analytic_band_edges(cfg)
    w1 = cfg.species_even.transition_frequency
    assert n2m == pytest.approx(w1, abs=1e-3 * GAMMA)
    assert n2p == pytest.approx(cfg.bragg_frequency, abs=1e-3 * GAMMA)
    assert n1m < n2m < n2p < n1p


def test_analytic_quarter_cell_closure(omega0):
    # equal couplings at rho = a/4: both gaps close exactly
    cfg = make_lattice(omega0, cells=100, rho_frac=0.25)
    n1m, n2m, n2p, n1p = analytic_band_edges(cfg)
    assert n2m - n1m == pytest.approx(0.0, abs=1e-6 * GAMMA)
    assert n1p - n2p == pytest.approx(0.0, abs=1e-6 * GAMMA)


def test_analytic_edges_cell_count_invariant(omega0):
    e100 = analytic_band_edges(make_lattice(omega0, cells=100, rho_frac=0.2))
    e400 = analytic_band_edges(make_lattice(omega0, cells=400, rho_frac=0.2))
    for a, b in zip(e100, e400):
        assert a == pytest.approx(b, rel=1e-12)


def test_two_mode_truncation_reproduces_analytic(omega0):
    # keeping only the Q = +-G0 photon modes (n_bz = 1; the infrared-cut
    # G = 0 mode decouples) the eigensolve is the formula's own model
    cfg = make_lattice(omega0, cells=100, rho_frac=0.2)
    ana = np.array(analytic_band_edges(cfg))
    evals = np.linalg.eigvalsh(build_bloch_matrix(0.0, cfg, n_bz=1).matrix)
    w1 = cfg.species_even.transition_frequency
    near = np.sort(evals[np.abs(evals - w1) < 2000 * GAMMA])
    assert near.shape == (4,)
    assert np.max(np.abs(near - ana) / np.abs(ana)) < 1e-10
    # offset-scale agreement is eigensolver-roundoff limited (~1 rad/s)
    assert np.max(np.abs(near - ana)) < 5.0


def test_full_numeric_edges_match_analytic_to_1e3(omega0):
    cfg = make_lattice(omega0, cells=100, rho_frac=0.2)
    ana = np.array(analytic_band_edges(cfg))
    bs = compute_bands(cfg, n_bz=40, n_q=3)
    ev0 = bs.bands[1]   # the q = 0 row
    w1 = cfg.species_even.transition_frequency
    near = np.sort(ev0[np.abs(ev0 - w1) < 2000 * GAMMA])[:4]
    mean = 0.5 * (cfg.bragg_frequency + w1)
    rel = np.max(np.abs(near - ana) / np.abs(ana - mean))
    assert rel < 1e-3


@settings(max_examples=80, deadline=None)
@given(
    rho_frac=st.floats(0.0, 1.0),
    q_frac=st.floats(-0.5, 0.5),
    detuning=st.floats(-800.0, 800.0),
    species=st.sampled_from([(-10.0, -10.0), (-10.0, 530.0), (-530.0, 530.0)]),
)
def test_inertia_count_matches_eigvalsh(omega0, rho_frac, q_frac, detuning, species):
    n_bz = 40
    cfg = make_lattice(
        omega0, cells=100, rho_frac=rho_frac, detuning_even=species[0], detuning_odd=species[1]
    )
    q = q_frac * cfg.reciprocal_vector
    omega = cfg.bragg_frequency + detuning * GAMMA
    evals = np.linalg.eigvalsh(build_bloch_matrix(q, cfg, n_bz=n_bz).matrix)
    # both counts are exact only up to rounding (~1e-6 gamma) at an eigenvalue
    assume(np.min(np.abs(evals - omega)) > 1e-4 * GAMMA)
    omega_k, c1, c2 = _arrowhead(cfg, np.array([q]), n_bz, _default_ir_cutoff(cfg))
    atoms = (cfg.species_even.transition_frequency, cfg.species_odd.transition_frequency)
    count = _count_below(np.array([[omega]]), omega_k, _coupling_weights(c1, c2), atoms)
    assert count[0, 0] == np.count_nonzero(evals < omega)


# ---------------------------------------------------------------------------
# gap detection


WINDOW_PAD = 800.0


def window_for(cfg):
    ref = cfg.bragg_frequency
    return (ref - WINDOW_PAD * GAMMA, ref + WINDOW_PAD * GAMMA)


def test_no_gaps_without_coupling(omega0):
    cfg = decoupled_lattice(omega0)
    bs = compute_bands(cfg, n_bz=10, n_q=81)
    assert find_gaps(bs, window_for(cfg)) == []


def test_degenerate_window_gives_empty_list(fiber_lattice):
    bs = compute_bands(fiber_lattice, n_bz=4, n_q=11)
    assert find_gaps(bs, (omega_hi := fiber_lattice.bragg_frequency, omega_hi)) == []


def test_gap_count_monoperiodic(omega0):
    cfg = make_lattice(omega0, cells=100, rho_frac=0.0)
    bs = compute_bands(cfg, n_bz=10, n_q=81)
    gaps = find_gaps(bs, window_for(cfg), min_band_width=20 * GAMMA)
    assert len(gaps) == 1
    # ... of the analytic total width
    n1m, _, _, n1p = analytic_band_edges(cfg)
    assert gaps[0].lower_edge == pytest.approx(n1m, abs=GAMMA)
    assert gaps[0].upper_edge == pytest.approx(n1p, abs=GAMMA)


def test_gap_count_biperiodic_two(omega0):
    cfg = make_lattice(omega0, cells=100, rho_frac=0.2)
    bs = compute_bands(cfg, n_bz=10, n_q=81)
    gaps = find_gaps(bs, window_for(cfg), min_band_width=20 * GAMMA)
    assert len(gaps) == 2
    n1m, n2m, n2p, n1p = analytic_band_edges(cfg)
    assert gaps[0].lower_edge == pytest.approx(n1m, abs=GAMMA)
    assert gaps[0].upper_edge == pytest.approx(n2m, abs=GAMMA)
    assert gaps[1].lower_edge == pytest.approx(n2p, abs=GAMMA)
    assert gaps[1].upper_edge == pytest.approx(n1p, abs=GAMMA)


def test_gap_count_two_species_three(omega0):
    cfg = make_lattice(omega0, cells=100, rho_frac=0.2, detuning_odd=530.0)
    bs = compute_bands(cfg, n_bz=10, n_q=81)
    gaps = find_gaps(bs, window_for(cfg), min_band_width=20 * GAMMA)
    assert len(gaps) == 3


def test_gap_closure_at_quarter_cell(omega0):
    cfg = make_lattice(omega0, cells=100, rho_frac=0.25)
    bs = compute_bands(cfg, n_bz=10, n_q=81)
    cover_tol = GAMMA / 10
    gaps = find_gaps(bs, window_for(cfg), cover_tol=cover_tol)
    assert all(g.width < 2 * cover_tol for g in gaps)


def test_gaps_sorted_nonoverlapping_indexed(omega0):
    cfg = make_lattice(omega0, cells=100, rho_frac=0.2, detuning_odd=530.0)
    bs = compute_bands(cfg, n_bz=10, n_q=81)
    gaps = find_gaps(bs, window_for(cfg))
    for i, g in enumerate(gaps):
        assert g.index == i + 1
        assert g.upper_edge > g.lower_edge
        if i:
            assert g.lower_edge > gaps[i - 1].upper_edge


# ---------------------------------------------------------------------------
# gap widths versus rho


def test_rho_scan_no_miniband_at_bragg_resonant_monoperiodic(rb):
    # with the transition exactly at the Bragg frequency the inner window
    # has zero width at rho = 0: one gap, analytic mini-band width zero
    omega_bragg = rb.transition_frequency
    cfg = make_lattice(omega_bragg, cells=100, detuning_even=0.0, detuning_odd=0.0)
    # min_band_width > 2 cover_tol so the zero-width dark spin band at omega_1
    # (a covered sliver of pure tolerance padding) does not split the gap
    entry = gap_widths_vs_rho(cfg, [0.0], n_bz=10, n_q=81, min_band_width=GAMMA)[0]
    n1m, n2m, n2p, n1p = entry.analytic_edges
    assert n2p - n2m == pytest.approx(0.0, abs=1e-6 * GAMMA)
    assert len(entry.gaps) == 1


def test_rho_scan_minimum_at_quarter_cell(omega0):
    cfg = make_lattice(omega0, cells=100)
    a = cfg.cell_size
    entries = gap_widths_vs_rho(cfg, [0.15 * a, 0.25 * a, 0.35 * a], n_bz=10, n_q=81)
    widths = [sum(g.width for g in e.gaps) for e in entries]
    assert widths[1] < widths[0]
    assert widths[1] < widths[2]
    ana = [sum(e.analytic_widths) for e in entries]
    assert ana[1] < ana[0] and ana[1] < ana[2]


def test_rho_scan_symmetric_about_half_cell(omega0):
    # relabeling the two identical species maps rho -> a - rho
    cfg = make_lattice(omega0, cells=100)
    a = cfg.cell_size
    entries = gap_widths_vs_rho(cfg, [0.2 * a, 0.8 * a], n_bz=10, n_q=81)
    w_lo = [g.width for g in entries[0].gaps]
    w_hi = [g.width for g in entries[1].gaps]
    assert w_lo == pytest.approx(w_hi, rel=1e-6)
    assert entries[0].analytic_widths == pytest.approx(entries[1].analytic_widths, rel=1e-12)


def test_rho_scan_rejects_out_of_cell(omega0):
    cfg = make_lattice(omega0, cells=100)
    with pytest.raises(ValueError, match="outside"):
        gap_widths_vs_rho(cfg, [1.5 * cfg.cell_size], n_bz=4, n_q=11)


def test_rho_scan_rejects_negative_cover_tol(omega0):
    cfg = make_lattice(omega0, cells=100)
    with pytest.raises(ValueError, match="cover_tol"):
        gap_widths_vs_rho(cfg, [0.2 * cfg.cell_size], n_bz=4, n_q=11, cover_tol=-GAMMA)


@pytest.mark.parametrize("name", ["fig2b", "fig4", "fig5"])
def test_rho_scan_matches_eigvalsh_gaps_on_bundled_configs(name):
    # dark flat band (rho = 0), gap closure (a/4), a/2 and a generic rho
    spec = parse_config(bundled_config_text(name)).sweep
    lat = spec.lattice
    gamma = lat.species_even.linewidth
    window = spec.window or window_for(lat)
    rhos = [f * lat.cell_size for f in (0.0, 0.25, 0.5, 0.137)]
    entries = gap_widths_vs_rho(
        lat, rhos, window=window, n_bz=spec.n_bz, n_q=spec.n_q,
        cover_tol=spec.cover_tol, min_band_width=spec.min_band_width,
    )
    for rho, entry in zip(rhos, entries):
        bs = compute_bands(lat.replace(intracell_distance=rho), n_bz=spec.n_bz, n_q=spec.n_q)
        ref = find_gaps(bs, window, cover_tol=spec.cover_tol, min_band_width=spec.min_band_width)
        assert len(entry.gaps) == len(ref)
        for got, want in zip(entry.gaps, ref):
            assert got.lower_edge == pytest.approx(want.lower_edge, abs=1e-4 * gamma)
            assert got.upper_edge == pytest.approx(want.upper_edge, abs=1e-4 * gamma)


def test_gap_widths_cell_count_independent(omega0):
    win = None
    widths = {}
    for cells in (100, 1000):
        cfg = make_lattice(omega0, cells=cells, rho_frac=0.2)
        bs = compute_bands(cfg, n_bz=10, n_q=81)
        win = window_for(cfg)
        widths[cells] = np.array([g.width for g in find_gaps(bs, win)])
    assert widths[100] == pytest.approx(widths[1000], rel=1e-6)
