"""Bloch matrix assembly, eigensolve, analytic band edges, gap detection."""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from bilattice import bandstructure
from bilattice.bandstructure import (
    GapScan,
    _arrowhead,
    _count_below,
    _detuned,
    _q_grid,
    analytic_band_edges,
    build_bloch_matrix,
    compute_bands,
    find_gaps,
    gap_widths_vs_rho,
)
from bilattice.cli_io import bundled_config_text, parse_config
from bilattice.constants import C, TWO_PI
from bilattice.core import AtomSpecies, LatticeConfig

from conftest import GAMMA, make_lattice, with_strength


def decoupled_lattice(omega0, rho_frac=0.2):
    """Identical geometry but zero dipole moment: light and spins decouple."""
    a = TWO_PI * C / omega0
    dark = with_strength(AtomSpecies(omega0 - 10 * GAMMA, GAMMA), 0.0)
    return LatticeConfig(
        cell_size=a,
        intracell_distance=rho_frac * a,
        cell_count=100,
        areal_density=5.7e10,
        species_even=dark,
        species_odd=dark,
    )


# ---------------------------------------------------------------------------
# matrix assembly


def test_matrix_dimension_at_forty_zones(fiber_lattice):
    bm = build_bloch_matrix(0.0, fiber_lattice, n_bz=40)
    assert bm.matrix.shape[0] == 83


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
    assert bs.bands.shape[1] == 2 * 10 + 3
    assert np.all(np.diff(bs.bands, axis=1) >= 0)


def test_spectrum_symmetric_under_q_reversal(omega0):
    cfg = make_lattice(omega0, cells=100, rho_frac=0.2, detuning_odd=530.0)
    bs = compute_bands(cfg, n_bz=10, n_q=41)
    dev = np.max(np.abs(bs.bands - bs.bands[::-1]) / np.abs(bs.bands))
    assert dev < 1e-10


def test_band_sweep_rejects_tiny_grid(fiber_lattice):
    with pytest.raises(ValueError, match="three"):
        compute_bands(fiber_lattice, n_q=2)


def test_band_sweep_rejects_q_max_beyond_half_zone(fiber_lattice):
    with pytest.raises(ValueError, match=r"^q_max must lie in \(0, G0/2\]$"):
        compute_bands(fiber_lattice, n_bz=2, n_q=5, q_max=fiber_lattice.reciprocal_vector)


def test_eigensolver_failure_names_its_q_point(fiber_lattice, monkeypatch):
    """A stack that does not converge is replayed one q at a time, so that
    the error names the q-point whose matrix fails."""
    q_grid = _q_grid(fiber_lattice, 5)
    eigvalsh = np.linalg.eigvalsh

    def failing(bad_q):
        def solve(h):
            # the stack fails, and so does the one matrix of bad_q (if any)
            if h.ndim == 3 or (bad_q is not None and np.array_equal(h, stack[bad_q])):
                raise np.linalg.LinAlgError("no convergence")
            return eigvalsh(h)
        return solve

    stack = bandstructure._assemble_stack(fiber_lattice, q_grid, 2)
    monkeypatch.setattr(np.linalg, "eigvalsh", failing(3))
    with pytest.raises(RuntimeError, match="^eigensolver failed to converge at q = ") as info:
        compute_bands(fiber_lattice, n_bz=2, n_q=5)
    assert str(info.value) == f"eigensolver failed to converge at q = {q_grid[3]} rad/m"
    assert isinstance(info.value.__cause__, np.linalg.LinAlgError)
    # no single q fails: the error says so without naming one
    monkeypatch.setattr(np.linalg, "eigvalsh", failing(None))
    with pytest.raises(RuntimeError, match="^eigensolver failed to converge$"):
        compute_bands(fiber_lattice, n_bz=2, n_q=5)


@pytest.mark.parametrize("n_bz", [0, -3])
def test_engines_reject_fewer_than_one_zone(fiber_lattice, n_bz):
    with pytest.raises(ValueError, match="Brillouin zone"):
        compute_bands(fiber_lattice, n_bz=n_bz, n_q=11)
    with pytest.raises(ValueError, match="Brillouin zone"):
        gap_widths_vs_rho(fiber_lattice, [0.2 * fiber_lattice.cell_size], n_bz=n_bz, n_q=11)


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


def atoms_of(cfg):
    return cfg.species_even.transition_frequency, cfg.species_odd.transition_frequency


def arrowhead_weights(cfg, q_grid, n_bz):
    """omega_k and the (n_q, n_G, 4) count weights at cfg's rho, as fresh arrays."""
    omega_k, c1, amp2, i_g = _arrowhead(cfg, q_grid, n_bz)
    c2 = amp2 * np.exp(i_g * cfg.intracell_distance)
    cross = c1 * np.conj(c2)
    return omega_k, np.stack((np.abs(c1) ** 2, np.abs(c2) ** 2, cross.real, cross.imag), axis=-1)


def count_below(omega, omega_k, weights, atoms):
    return _count_below(omega, _detuned(omega, omega_k), weights, atoms)


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
    omega_k, weights = arrowhead_weights(cfg, np.array([q]), n_bz)
    count = count_below(np.array([[omega]]), omega_k, weights, atoms_of(cfg))
    assert count[0, 0] == np.count_nonzero(evals < omega)


@settings(max_examples=80, deadline=None)
@given(
    rho_frac=st.floats(0.0, 1.0),
    q_frac=st.floats(-0.5, 0.5),
    detuning=st.floats(-800.0, 800.0),
    species=st.sampled_from([(-10.0, -10.0), (-10.0, 530.0), (-530.0, 530.0)]),
)
def test_inertia_count_symmetric_under_q_reversal(omega0, rho_frac, q_frac, detuning, species):
    # H(-q) is conj H(q) with the photon modes m and -m swapped, so both
    # have the same spectrum and the same count below any omega
    n_bz = 40
    cfg = make_lattice(
        omega0, cells=100, rho_frac=rho_frac, detuning_even=species[0], detuning_odd=species[1]
    )
    q = q_frac * cfg.reciprocal_vector
    omega = cfg.bragg_frequency + detuning * GAMMA
    omega_k, weights = arrowhead_weights(cfg, np.array([q, -q]), n_bz)
    count = count_below(np.full((2, 1), omega), omega_k, weights, atoms_of(cfg))
    assert count[0, 0] == count[1, 0]


@settings(max_examples=40, deadline=None)
@given(
    rho_frac=st.floats(0.0, 1.0),
    species=st.sampled_from([(-10.0, -10.0), (-10.0, 530.0), (-530.0, 530.0)]),
    n_bz=st.integers(1, 6),
    n_q=st.integers(3, 25),
)
def test_window_bands_symmetric_under_q_reversal(omega0, rho_frac, species, n_bz, n_q):
    # the premise of the half-zone gap scan: each bisected band value at q
    # is the one at -q, bit for bit, on the symmetric grid itself
    cfg = make_lattice(
        omega0, cells=100, rho_frac=rho_frac, detuning_even=species[0], detuning_odd=species[1]
    )
    scan = GapScan(cfg, window_for(cfg), n_bz, q_grid=_q_grid(cfg, n_q))
    bands = scan.window_bands(cfg.intracell_distance)
    assert np.array_equal(bands, bands[::-1])


def bisect_window_bands(cfg, q_grid, n_bz, lower, upper):
    """Every window band value bisected from [lower, upper] on the count,
    from fresh arrays at cfg's rho."""
    omega_k, weights = arrowhead_weights(cfg, q_grid, n_bz)
    atoms = atoms_of(cfg)
    column = (len(q_grid), 1)
    at_lower = count_below(np.full(column, lower), omega_k, weights, atoms)
    at_upper = count_below(np.full(column, upper), omega_k, weights, atoms)
    k = np.arange(at_lower.min(), at_upper.max())
    lo = np.full((len(q_grid), k.size), lower)
    hi = np.full((len(q_grid), k.size), upper)
    mid = 0.5 * (lo + hi)
    while np.any((lo < mid) & (mid < hi)):
        below = count_below(mid, omega_k, weights, atoms) > k
        hi = np.where(below, mid, hi)
        lo = np.where(below, lo, mid)
        mid = 0.5 * (lo + hi)
    return np.where(k < at_lower, lower, np.where(k >= at_upper, upper, mid))


def bisect_scan(scan, rho):
    """``bisect_window_bands`` on the grid and padded window of a plan."""
    cfg = scan.cfg.replace(intracell_distance=rho)
    return bisect_window_bands(cfg, scan.q_grid, scan.n_bz, scan.lower, scan.upper)


@settings(max_examples=40, deadline=None)
@given(
    rho_frac=st.floats(0.0, 1.0),
    species=st.sampled_from([(-10.0, -10.0), (120.0, 120.0), (-10.0, 530.0), (-530.0, 530.0)]),
    n_bz=st.integers(1, 12),
    n_q=st.integers(3, 41),
    cells=st.sampled_from([100, 500_000]),
)
def test_seeded_window_bands_match_plain_bisection(omega0, rho_frac, species, n_bz, n_q, cells):
    # a seeded bracket only shortens the bisection: it ends at the float
    # pair a bisection from the whole window ends at
    cfg = make_lattice(
        omega0, cells=cells, rho_frac=rho_frac, detuning_even=species[0], detuning_odd=species[1]
    )
    scan = GapScan(cfg, window_for(cfg), n_bz, q_grid=_q_grid(cfg, n_q))
    got = scan.window_bands(cfg.intracell_distance)
    assert np.array_equal(got, bisect_scan(scan, cfg.intracell_distance))


@settings(max_examples=25, deadline=None)
@given(
    rho_fracs=st.lists(st.floats(0.0, 1.0), min_size=2, max_size=5),
    species=st.sampled_from([(-10.0, -10.0), (120.0, 120.0), (-10.0, 530.0), (-530.0, 530.0)]),
    n_bz=st.integers(1, 12),
    n_q=st.integers(3, 41),
    cells=st.sampled_from([100, 500_000]),
    random=st.randoms(use_true_random=False),
)
def test_one_plan_over_shuffled_rho_matches_fresh_bisection(
    omega0, rho_fracs, species, n_bz, n_q, cells, random
):
    # the plan reuses its buffers from one rho to the next; no rho may see
    # the state another left, whatever the order and with rho repeated
    cfg = make_lattice(
        omega0, cells=cells, detuning_even=species[0], detuning_odd=species[1]
    )
    rhos = [f * cfg.cell_size for f in rho_fracs + rho_fracs[:1]]
    random.shuffle(rhos)
    scan = GapScan(cfg, window_for(cfg), n_bz, n_q)
    for rho in rhos:
        assert np.array_equal(scan.window_bands(rho), bisect_scan(scan, rho))


def bundled_scan_bands(name, rho_fracs, monkeypatch):
    """(plan, rho, bands, count calls) of each ``GapScan.window_bands``
    call the gap scan of a bundled config makes."""
    spec = parse_config(bundled_config_text(name)).sweep
    lat = spec.lattice
    scans, calls = [], []
    count_below = bandstructure._count_below
    window_bands = GapScan.window_bands

    def counting(*args):
        calls.append(1)
        return count_below(*args)

    def recording(scan, rho):
        calls.clear()
        bands = window_bands(scan, rho)
        scans.append((scan, rho, bands, len(calls)))
        return bands

    rhos = [f * lat.cell_size for f in rho_fracs]
    with monkeypatch.context() as patch:
        patch.setattr(bandstructure, "_count_below", counting)
        patch.setattr(GapScan, "window_bands", recording)
        gap_widths_vs_rho(lat, rhos, window=spec.window, n_bz=spec.n_bz, n_q=spec.n_q,
                          cover_tol=spec.cover_tol, min_band_width=spec.min_band_width)
    return scans


@pytest.mark.parametrize("shift", [10.0 * GAMMA, np.nan], ids=["shifted", "nan"])
def test_window_bands_survive_wrong_seeds(shift, monkeypatch):
    # brackets that miss their band, or have no seed, restart from the window
    seeds = GapScan._seeds

    def wrong_seeds(*args):
        return seeds(*args) + shift

    monkeypatch.setattr(GapScan, "_seeds", wrong_seeds)
    for scan, rho, bands, calls in bundled_scan_bands("fig4", (0.0, 0.137), monkeypatch):
        assert np.array_equal(bands, bisect_scan(scan, rho))
        assert calls > 30


def test_certified_values_stay_inside_the_window(monkeypatch):
    # a certified pair must lie inside [lower, upper], the only pairs a
    # bisection from the window can end at: here the (n_q, n_k) counts read
    # one more than the window-edge count at exactly `lower`, as rounding
    # that depends on the batch shape could, and every pair is seeded there
    spec = parse_config(bundled_config_text("fig4")).sweep
    lat = spec.lattice
    scan = GapScan(lat, spec.window, spec.n_bz, spec.n_q)
    lower, rho = scan.lower, lat.intracell_distance
    want = bisect_scan(scan, rho)
    count_below = bandstructure._count_below

    def shifted_at_lower(omega, *args):
        return count_below(omega, *args) + ((omega == lower) & (omega.shape[1] > 1))

    monkeypatch.setattr(bandstructure, "_count_below", shifted_at_lower)
    monkeypatch.setattr(GapScan, "_seeds", lambda *args: np.full(want.shape, lower))
    assert np.array_equal(scan.window_bands(rho), want)


def test_empty_window_returns_after_the_two_edge_counts(monkeypatch):
    # a window inside a gap of fig4 at rho = 0 holds no band at any q: the
    # two window-edge counts say so, and nothing is seeded or checked
    spec = parse_config(bundled_config_text("fig4")).sweep
    lat = spec.lattice.replace(intracell_distance=0.0)
    scan = gap_widths_vs_rho(lat, [0.0], window=spec.window, n_bz=spec.n_bz, n_q=spec.n_q)
    gap = scan[0].gaps[0]
    quarter = 0.25 * (gap.upper_edge - gap.lower_edge)
    counts, seeds = [], []
    count_below, band_seeds = bandstructure._count_below, GapScan._seeds
    monkeypatch.setattr(
        bandstructure, "_count_below", lambda *a: counts.append(1) or count_below(*a)
    )
    monkeypatch.setattr(GapScan, "_seeds", lambda *a: seeds.append(1) or band_seeds(*a))
    inside = (gap.lower_edge + quarter, gap.upper_edge - quarter)
    scan = GapScan(lat, inside, spec.n_bz, q_grid=_q_grid(lat, spec.n_q), cover_tol=0.0)
    assert gap.lower_edge < scan.lower < scan.upper < gap.upper_edge
    bands = scan.window_bands(0.0)
    assert bands.shape == (spec.n_q, 0)
    assert len(counts) == 2 and not seeds


@pytest.mark.parametrize("name", ["fig2b", "fig4", "fig5"])
def test_seed_brackets_hold_the_bisected_values(name, monkeypatch):
    # every band that reaches the window is seeded within an ulp of its
    # value, so the two counts about the seed certify it and no pair falls
    # back to bisecting the whole window
    seeds = []
    band_seeds = GapScan._seeds

    def recording_seeds(*args):
        seeds.append(band_seeds(*args))
        return seeds[-1]

    monkeypatch.setattr(GapScan, "_seeds", recording_seeds)
    scans = bundled_scan_bands(name, (0.0, 0.25, 0.5, 0.137), monkeypatch)
    assert len(seeds) == len(scans) == 4
    for seed, (scan, rho, bands, calls) in zip(seeds, scans):
        want = bisect_scan(scan, rho)
        assert np.array_equal(bands, want)
        active = (scan.lower < want) & (want < scan.upper)
        assert active.any()
        assert np.all(np.abs(seed - want)[active] <= np.spacing(want[active]))
        assert calls == 4


@pytest.mark.parametrize("name", ["fig2b", "fig4", "fig5"])
def test_bundled_gap_scans_take_4_counts_per_rho(name, monkeypatch):
    # two window-edge counts, then one count at each seed and one at the
    # float next to it, which certify every band value
    spec = parse_config(bundled_config_text(name)).sweep
    fracs = spec.resolved_rhos() / spec.lattice.cell_size
    scans = bundled_scan_bands(name, fracs, monkeypatch)
    assert len(scans) == len(fracs)
    assert [calls for *_, calls in scans] == [4] * len(fracs)
    assert len({id(scan) for scan, *_ in scans}) == 1


@pytest.mark.parametrize("side", [-1, 0, 1], ids=["below", "value", "above"])
def test_seeds_at_and_next_to_the_value_give_the_bisected_values(side, monkeypatch):
    # a seed at the bisected value is certified; a seed one float off is
    # certified or falls back, and either way the value is the bisection's
    scans = bundled_scan_bands("fig4", (0.0, 0.137), monkeypatch)
    for scan, rho, _, _ in scans:
        want = bisect_scan(scan, rho)
        seed = want if side == 0 else np.nextafter(want, side * np.inf)
        monkeypatch.setattr(GapScan, "_seeds", lambda *args: seed)
        assert np.array_equal(scan.window_bands(rho), want)


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


@pytest.mark.parametrize("edges", [(2.0, 1.0), (1.0, 1.0)], ids=["inverted", "empty"])
def test_gap_refuses_edges_out_of_order(edges):
    with pytest.raises(ValueError, match="^gap upper edge must exceed lower edge$"):
        bandstructure.Gap(*edges)


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
        assert g.upper_edge > g.lower_edge
        if i:
            assert g.lower_edge > gaps[i - 1].upper_edge


def merged_interval_gaps(bands, window, cover_tol, min_band_width):
    """Reference gap inventory in four passes: each band's min and max, the
    overlapping ranges merged, the uncovered stretches between them, and the
    gaps split by thin bands fused.  Returns (lower, upper) pairs, ascending."""
    lo, hi = window
    if hi <= lo:
        return []
    intervals = []
    for b in range(bands.shape[1]):
        bmin = float(bands[:, b].min()) - cover_tol
        bmax = float(bands[:, b].max()) + cover_tol
        if bmax < lo or bmin > hi:
            continue
        intervals.append((bmin, bmax))
    intervals.sort()
    merged = []
    for start, end in intervals:
        if merged and start <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], end)
        else:
            merged.append([start, end])
    uncovered = []
    cursor = lo
    for start, end in merged:
        if start > cursor:
            uncovered.append((cursor, start))
        cursor = max(cursor, end)
    if cursor < hi:
        uncovered.append((cursor, hi))
    if min_band_width > 0.0 and len(uncovered) > 1:
        fused = [uncovered[0]]
        for start, end in uncovered[1:]:
            if start - fused[-1][1] < min_band_width:
                fused[-1] = (fused[-1][0], end)
            else:
                fused.append((start, end))
        uncovered = fused
    return [(a, b) for a, b in uncovered if b > a]


# a coarse grid, so that band values tie and padded ranges touch or nest
COARSE = st.sampled_from([-1.0, 0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 6.0])


@settings(max_examples=400, deadline=None)
@given(
    shape=st.tuples(st.integers(1, 4), st.integers(0, 7)),
    data=st.data(),
    window=st.tuples(COARSE, COARSE),
    cover_tol=st.sampled_from([0.0, 0.25, 0.5, 1.0, 3.0]),
    min_band_width=st.sampled_from([-1.0, 0.0, 0.25, 0.5, 1.0, 3.0]),
)
def test_find_gaps_matches_merged_intervals(shape, data, window, cover_tol, min_band_width):
    """``find_gaps``' one sweep gives the merged-interval inventory exactly,
    empty and inverted windows included.  Band values are finite, as both
    band paths give them (a non-finite count fails its sweep cell first)."""
    bands = np.array(data.draw(st.lists(COARSE, min_size=shape[0] * shape[1],
                                        max_size=shape[0] * shape[1]))).reshape(shape)
    bs = bandstructure.BandStructure(np.zeros(shape[0]), bands, 1, None)
    gaps = find_gaps(bs, window, cover_tol, min_band_width)
    assert [(g.lower_edge, g.upper_edge) for g in gaps] == merged_interval_gaps(
        bands, window, cover_tol, min_band_width
    )


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


def test_rho_scan_has_no_analytic_widths_for_unequal_species(omega0):
    # the band-edge formula needs omega_1 = omega_2; outside it the entry
    # holds the numeric gaps only
    unequal = make_lattice(omega0, cells=100, rho_frac=0.2, detuning_odd=530.0)
    entry = gap_widths_vs_rho(unequal, [0.2 * unequal.cell_size], n_bz=4, n_q=11)[0]
    assert entry.analytic_edges is None and entry.analytic_widths is None
    equal = make_lattice(omega0, cells=100, rho_frac=0.2)
    widths = gap_widths_vs_rho(equal, [0.2 * equal.cell_size], n_bz=4, n_q=11)[0].analytic_widths
    assert len(widths) == 2 and all(w > 0.0 for w in widths)


def test_rho_scan_rejects_out_of_cell(omega0):
    cfg = make_lattice(omega0, cells=100)
    with pytest.raises(ValueError, match="0 <= rho <= a"):
        gap_widths_vs_rho(cfg, [1.5 * cfg.cell_size], n_bz=4, n_q=11)


@pytest.mark.parametrize("edges", [(1.0, 0.0), (0.0, 0.0), (math.nan, 1.0)],
                         ids=["reversed", "empty", "nan"])
def test_rho_scan_rejects_bad_window(omega0, edges):
    cfg = make_lattice(omega0, cells=100)
    w_min, w_max = window_for(cfg)
    window = tuple(w_min + (w_max - w_min) * e for e in edges)
    with pytest.raises(ValueError, match="finite and increasing"):
        gap_widths_vs_rho(cfg, [0.2 * cfg.cell_size], window=window, n_bz=4, n_q=11)


def test_rho_scan_rejects_negative_cover_tol(omega0):
    cfg = make_lattice(omega0, cells=100)
    with pytest.raises(ValueError, match="cover_tol"):
        gap_widths_vs_rho(cfg, [0.2 * cfg.cell_size], n_bz=4, n_q=11, cover_tol=-GAMMA)
    # a negative cover_tol inverts narrow band ranges; find_gaps refuses it too
    bs = bandstructure.BandStructure(np.zeros(1), np.zeros((1, 1)), 1, cfg)
    with pytest.raises(ValueError, match="cover_tol must be >= 0"):
        find_gaps(bs, (0.0, 1.0), cover_tol=-1.0)


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


@pytest.mark.parametrize("n_q", [201, 200], ids=["odd", "even"])
@pytest.mark.parametrize("name", ["fig2b", "fig4", "fig5"])
def test_half_zone_gap_scan_matches_full_zone(name, n_q):
    # a gap scan bisects only the q >= 0 half of the grid; each band's min
    # and max over it must be those over the full zone, bit for bit
    spec = parse_config(bundled_config_text(name)).sweep
    lat = spec.lattice
    half = GapScan(lat, spec.window, spec.n_bz, n_q)
    full = GapScan(lat, spec.window, spec.n_bz, q_grid=_q_grid(lat, n_q))
    assert np.array_equal(half.q_grid, full.q_grid[n_q // 2:]) and half.q_grid[0] >= 0
    for rho in (f * lat.cell_size for f in (0.0, 0.25, 0.5, 0.137)):
        half_bands, full_bands = half.window_bands(rho), full.window_bands(rho)
        assert np.array_equal(half_bands.min(axis=0), full_bands.min(axis=0))
        assert np.array_equal(half_bands.max(axis=0), full_bands.max(axis=0))


def test_gap_widths_cell_count_independent(omega0):
    win = None
    widths = {}
    for cells in (100, 1000):
        cfg = make_lattice(omega0, cells=cells, rho_frac=0.2)
        bs = compute_bands(cfg, n_bz=10, n_q=81)
        win = window_for(cfg)
        widths[cells] = np.array([g.width for g in find_gaps(bs, win)])
    assert widths[100] == pytest.approx(widths[1000], rel=1e-6)
