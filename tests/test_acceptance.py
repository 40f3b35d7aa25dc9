"""Acceptance suite: one test per numbered criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.

Criterion 3 is asserted exactly as specified and is expected to FAIL: with the
areal density pinned by criterion 1, a million planes retain an absorptive
optical depth OD(delta) = N n_s sigma_0 / (1 + 4 delta^2/gamma^2) ~ 41 at
+-11 gamma, so |t|^2 > 0.99 is unreachable anywhere inside the former gap
(see the supplementary transparency test for the honest contrast numbers).
"""

from __future__ import annotations

import math
import time

import numpy as np
import pytest

from bilattice.bandstructure import analytic_band_edges, compute_bands, find_gaps
from bilattice.cavity import (
    collective_coupling_squared,
    cooperativity,
    extract_peaks,
    output_intensity,
    output_intensity_closed_form,
    rabi_peak_frequencies,
    steady_state,
)
from bilattice.core import AtomSpecies, cavity_coupling
from bilattice.transfer_matrix import (
    dimer_matrix,
    period_matrix,
    plane_coefficients,
    spectrum_scan,
    stack_coefficients,
)

from conftest import GAMMA, make_cavity, make_lattice

KAPPA = 2 * math.pi * 21e3


def report(num, ok, text, started):
    elapsed = time.perf_counter() - started
    print(f"[criterion {num:>2}] {'PASS' if ok else 'FAIL'} ({elapsed:6.2f}s): {text}")
    return ok


def opaque_window(cfg, step_gamma=0.25, span_gamma=600.0):
    """Edges (units of gamma vs the even transition) of the |t|^2 < 0.5 run
    containing the gap center."""
    w1 = cfg.species_even.transition_frequency
    dets = np.arange(-span_gamma, span_gamma + step_gamma / 2, step_gamma)
    opaque = spectrum_scan(cfg, w1 + dets * GAMMA).transmitted < 0.5
    center = int(np.argmin(np.abs(dets)))
    if not opaque[center]:
        return None
    lo = center
    while lo > 0 and opaque[lo - 1]:
        lo -= 1
    hi = center
    while hi < len(dets) - 1 and opaque[hi + 1]:
        hi += 1
    return dets[lo], dets[hi]


def test_criterion_01_gap_edges_420gamma(probe_lattice):
    t0 = time.perf_counter()
    edges = opaque_window(probe_lattice)
    assert edges is not None
    lo, hi = edges
    ok = abs(-lo - 420.0) <= 0.05 * 420.0 and abs(hi - 420.0) <= 0.05 * 420.0
    runtime_ok = time.perf_counter() - t0 < 60.0
    report(1, ok and runtime_ok, f"rho=0 opaque window edges ({lo:+.2f}, {hi:+.2f}) gamma "
           f"vs +-420 within 5%", t0)
    assert ok and runtime_ok


def test_criterion_02_miniband_with_absorption_line(probe_lattice, omega0):
    t0 = time.perf_counter()
    cfg = probe_lattice.replace(intracell_distance=0.2 * probe_lattice.cell_size)
    w1 = cfg.species_even.transition_frequency
    dets = np.arange(-419.0, 419.0, 0.5)
    t_max = spectrum_scan(cfg, w1 + dets * GAMMA).transmitted.max()
    t_at_omega0, t_at_atom = spectrum_scan(cfg, [omega0, w1]).transmitted
    ok = t_max > 0.5 and t_at_omega0 < 0.1 and t_at_atom < 0.1
    runtime_ok = time.perf_counter() - t0 < 60.0
    report(2, ok and runtime_ok, f"rho=0.2a miniband max|t|^2={t_max:.3f} inside former gap, "
           f"|t|^2(omega_0)={t_at_omega0:.2e}", t0)
    assert ok and runtime_ok


def test_criterion_03_transparency_as_specified(probe_lattice):
    # Asserted exactly as stated; physically unattainable at N = 1e6 because
    # of residual per-plane absorption (see module docstring and the ledger).
    t0 = time.perf_counter()
    cfg = probe_lattice.replace(intracell_distance=0.25 * probe_lattice.cell_size)
    w1 = cfg.species_even.transition_frequency
    dets = np.arange(-419.0, 419.0, 0.5)
    keep = np.abs(dets) > 10.0
    t_min = spectrum_scan(cfg, w1 + dets[keep] * GAMMA).transmitted.min()
    ok = t_min > 0.99
    runtime_ok = time.perf_counter() - t0 < 60.0
    report(3, ok and runtime_ok, f"rho=0.25a min|t|^2={t_min:.4f} over former gap "
           f"excluding +-10 gamma (spec demands > 0.99)", t0)
    assert ok and runtime_ok


def test_criterion_03_supplementary_transparency_contrast(probe_lattice):
    # Honest derived thresholds for the same physics: the gap closes at
    # rho = a/4 and transmission is limited only by the absorption envelope
    # exp(-OD(delta)), in stark contrast to the rho = 0 gap.
    t0 = time.perf_counter()
    quarter = probe_lattice.replace(intracell_distance=0.25 * probe_lattice.cell_size)
    w1 = quarter.species_even.transition_frequency
    n_planes = 2 * quarter.cell_count
    checks = []
    for det in (-300.0, -200.0, 200.0, 300.0):
        omega_p = w1 + det * GAMMA
        (t_quarter,) = spectrum_scan(quarter, [omega_p]).transmitted
        (t_mono,) = spectrum_scan(probe_lattice, [omega_p]).transmitted
        od = n_planes * quarter.areal_density * quarter.species_even.cross_section / (
            1.0 + 4.0 * det**2
        )
        checks.append(t_quarter > 0.75)                      # broadly transparent
        checks.append(t_mono < 1e-10)                        # was deep in the gap
        checks.append(t_quarter <= math.exp(-od) * 1.001)    # bounded by Beer envelope
        checks.append(t_quarter >= math.exp(-od) * 0.5)      # and close to it
    (t_core,) = spectrum_scan(quarter, [w1 + 5 * GAMMA]).transmitted
    checks.append(t_core < 0.1)                              # absorption core remains
    ok = all(checks)
    report("3s", ok, "rho=a/4 transparency contrast vs rho=0 with Beer-envelope bound", t0)
    assert ok


def test_criterion_04_analytic_numeric_band_edges(omega0):
    t0 = time.perf_counter()
    cfg = make_lattice(omega0, cells=100, rho_frac=0.2)
    ana = np.array(analytic_band_edges(cfg))
    w1 = cfg.species_even.transition_frequency
    mean = 0.5 * (cfg.bragg_frequency + w1)
    bs = compute_bands(cfg, n_bz=40, n_q=3)
    ev0 = bs.bands[1]
    near = np.sort(ev0[np.abs(ev0 - w1) < 2000 * GAMMA])[:4]
    rel = float(np.max(np.abs(near - ana) / np.abs(ana - mean)))
    widths = {}
    for cells in (100, 1000):
        local = make_lattice(omega0, cells=cells, rho_frac=0.2)
        sweep = compute_bands(local, n_bz=40, n_q=101)
        window = (omega0 - 800 * GAMMA, omega0 + 800 * GAMMA)
        widths[cells] = np.array([g.width for g in find_gaps(sweep, window)])
    m_dev = float(np.max(np.abs(widths[100] - widths[1000]) / widths[100]))
    ok = rel < 1e-3 and widths[100].shape == widths[1000].shape and m_dev < 1e-6
    runtime_ok = time.perf_counter() - t0 < 30.0
    report(4, ok and runtime_ok, f"edge agreement rel={rel:.2e} (<1e-3), "
           f"M-independence dev={m_dev:.2e} (<1e-6)", t0)
    assert ok and runtime_ok


def test_criterion_05_gap_closure_quarter_cell(omega0):
    t0 = time.perf_counter()
    cfg = make_lattice(omega0, cells=100, rho_frac=0.25)
    bs = compute_bands(cfg, n_bz=40, n_q=401)
    window = (omega0 - 800 * GAMMA, omega0 + 800 * GAMMA)
    gaps = find_gaps(bs, window)
    widest = max((g.width for g in gaps), default=0.0)
    ok = widest < 0.2 * GAMMA
    runtime_ok = time.perf_counter() - t0 < 30.0
    report(5, ok and runtime_ok, f"rho=a/4 with equal couplings: widest detected gap "
           f"{widest / GAMMA:.3f} gamma (< 0.2)", t0)
    assert ok and runtime_ok


def test_criterion_06_gap_multiplicity(omega0):
    t0 = time.perf_counter()
    window = (omega0 - 800 * GAMMA, omega0 + 800 * GAMMA)
    counts = {}
    cases = {
        "three": make_lattice(omega0, cells=100, rho_frac=0.2, detuning_odd=530.0),
        "two": make_lattice(omega0, cells=100, rho_frac=0.2),
        "one": make_lattice(omega0, cells=100, rho_frac=0.0),
    }
    for label, cfg in cases.items():
        bs = compute_bands(cfg, n_bz=40, n_q=401)
        counts[label] = len(find_gaps(bs, window, min_band_width=20 * GAMMA))
    ok = counts == {"three": 3, "two": 2, "one": 1}
    report(6, ok, f"gap counts {counts} (expected three=3, two=2, one=1; "
           "counted at a 20 gamma band floor)", t0)
    assert ok


def test_criterion_07_empty_cavity_equivalence(omega0):
    t0 = time.perf_counter()
    cav = make_cavity(omega0, phase=math.pi / 2)
    sp = AtomSpecies(omega0 - 10 * GAMMA, GAMMA)
    worst = 0.0
    for omega_p in omega0 + np.linspace(-50, 50, 1000) * GAMMA:
        delta_c = omega0 - omega_p
        empty = 2 * cav.linewidth * cav.pump**2 / (delta_c**2 + cav.linewidth**2)
        got = output_intensity(cav, sp, sp, omega_p, 0.0)
        worst = max(worst, abs(got - empty) / empty)
    ok = worst < 1e-10
    report(7, ok, f"phi=pi/2, rho=0 output equals empty-cavity Lorentzian "
           f"(worst rel dev {worst:.2e} < 1e-10)", t0)
    assert ok


def test_criterion_08_rabi_splitting(omega0, cell_size):
    t0 = time.perf_counter()
    sp = AtomSpecies(omega0 - 10 * GAMMA, GAMMA)
    cav = make_cavity(omega0, phase=0.0)
    g_eff = math.sqrt(cav.occupancy) * cavity_coupling(sp, cav)
    checks, details = [], []
    for rho_frac in (0.0, 0.2):
        rho = rho_frac * cell_size
        r_eff = collective_coupling_squared(g_eff, g_eff, cav.wavevector, rho, 0.0, True)
        predicted = rabi_peak_frequencies(omega0, sp.transition_frequency, cav.cell_count, r_eff)
        for pred in predicted:
            grid = np.linspace(pred - 20 * KAPPA, pred + 20 * KAPPA, 201)  # step = kappa/5
            intensity = np.array([output_intensity(cav, sp, sp, w, rho) for w in grid])
            peaks = extract_peaks(grid, intensity)
            assert peaks, "no local maximum near the predicted peak"
            dev = min(abs(p - pred) for p in peaks) / KAPPA
            details.append(f"{dev:.2f}")
            checks.append(dev <= 1.0)
    # phi contrast at rho = 0.2a
    probe = omega0 + np.linspace(-40, 40, 2001) * GAMMA
    rho = 0.2 * cell_size
    i_phi0 = np.array([output_intensity(cav, sp, sp, w, rho) for w in probe])
    cav_quarter = make_cavity(omega0, phase=math.pi / 2)
    i_phi1 = np.array([output_intensity(cav_quarter, sp, sp, w, rho) for w in probe])
    contrast = float(np.max(np.abs(i_phi0 - i_phi1) / np.maximum(i_phi0, i_phi1)))
    checks.append(contrast > 0.10)
    ok = all(checks)
    report(8, ok, f"peak deviations {details} kappa (<= 1 each); "
           f"phi=0 vs pi/2 contrast {contrast:.2f} (> 0.10)", t0)
    assert ok


def test_criterion_09_transparency_scaling(omega0):
    t0 = time.perf_counter()
    sp = AtomSpecies(omega0, GAMMA)   # Delta = 0 at omega_p = omega0
    coops, intensities = [], []
    for scale in np.logspace(0, 3, 120):
        cav = make_cavity(omega0, phase=0.0, commensurate=False, occupancy=0.343 * scale)
        g = math.sqrt(cav.occupancy) * cavity_coupling(sp, cav)
        r = collective_coupling_squared(g, g, cav.wavevector, 0.0, 0.0, False)
        c = cooperativity(cav.cell_count, r, cav.linewidth, GAMMA)
        if not 10.0 <= c <= 1e4:
            continue
        ss = steady_state(cav, sp, sp, omega0, 0.0)
        coops.append(c)
        intensities.append(2 * cav.linewidth * abs(ss.cavity_amplitude) ** 2)
    assert len(coops) > 60
    slope = float(np.polyfit(np.log(coops), np.log(intensities), 1)[0])
    ok = abs(slope + 2.0) <= 0.01
    report(9, ok, f"log-log slope of I vs cooperativity on [10, 1e4]: {slope:.4f} "
           "(-2.00 +/- 0.01)", t0)
    assert ok


def test_criterion_10_oracle_suites(omega0):
    t0 = time.perf_counter()
    rng = np.random.default_rng(2026)
    # (a) closed form vs direct matrix power
    worst_power = 0.0
    kept = 0
    while kept < 100:
        cfg = make_lattice(
            omega0,
            cells=100,
            rho_frac=rng.uniform(0, 1),
            detuning_odd=float(rng.uniform(-400, 400)),
        )
        omega_p = omega0 + rng.uniform(-550, 550) * GAMMA
        n = int(rng.integers(1, 2001))
        m = dimer_matrix(cfg, omega_p)
        power = np.linalg.matrix_power(m.as_array(), n)
        t_ref = 1.0 / power[1, 1]
        if abs(t_ref) < 1e-120:
            continue
        kept += 1
        r, t = stack_coefficients(m, n)
        worst_power = max(worst_power, abs(t - t_ref) / abs(t_ref))
        r_ref = power[0, 1] / power[1, 1]
        if abs(r_ref) > 1e-10:
            worst_power = max(worst_power, abs(r - r_ref) / abs(r_ref))
    ok_power = worst_power < 1e-8

    # (b) steady state vs printed output-intensity form
    sp = AtomSpecies(omega0 - 10 * GAMMA, GAMMA)
    cav = make_cavity(omega0, phase=0.4)
    rho = 0.17 * (2 * math.pi * 299792458.0 / omega0)
    g_eff = math.sqrt(cav.occupancy) * cavity_coupling(sp, cav)
    r_eff = collective_coupling_squared(g_eff, g_eff, cav.wavevector, rho, 0.4, True)
    worst_ss = 0.0
    for omega_p in omega0 + np.linspace(-45, 45, 1000) * GAMMA:
        expected = output_intensity_closed_form(
            omega0 - omega_p, sp.transition_frequency - omega_p,
            cav.linewidth, GAMMA, cav.cell_count, r_eff, cav.pump,
        )
        solved = steady_state(cav, sp, sp, omega_p, rho).cavity_amplitude
        for got in (output_intensity(cav, sp, sp, omega_p, rho),
                    2 * cav.linewidth * abs(solved) ** 2):
            worst_ss = max(worst_ss, abs(got - expected) / expected)
    ok_ss = worst_ss < 1e-12

    # (c) unimodularity and lossless conservation over 1e4 draws
    worst_det, worst_cons = 0.0, 0.0
    k_ref = omega0 / 299792458.0
    for _ in range(10_000):
        xi_abs = 10 ** rng.uniform(-4, -0.5)
        xi = xi_abs * np.exp(1j * rng.uniform(0, math.pi))
        m = period_matrix(xi, rng.uniform(0, 800e-9), k_ref * rng.uniform(0.9, 1.1))
        worst_det = max(worst_det, abs(m.determinant - 1.0))
        r, t = plane_coefficients(rng.uniform(-3, 3))
        worst_cons = max(worst_cons, abs(abs(r) ** 2 + abs(t) ** 2 - 1.0))
    # lossless stacks (real xi), n up to 1e3
    for _ in range(300):
        m1 = period_matrix(rng.uniform(-0.2, 0.2), rng.uniform(0, 800e-9), k_ref)
        m2 = period_matrix(rng.uniform(-0.2, 0.2), rng.uniform(0, 800e-9), k_ref)
        r, t = stack_coefficients(m1 @ m2, int(rng.integers(1, 1001)))
        worst_cons = max(worst_cons, abs(abs(r) ** 2 + abs(t) ** 2 - 1.0))
    ok_inv = worst_det < 1e-12 and worst_cons < 1e-10

    ok = ok_power and ok_ss and ok_inv
    report(10, ok, f"closed-form vs power {worst_power:.2e} (<1e-8); steady state vs "
           f"printed form {worst_ss:.2e} (<1e-12); det dev {worst_det:.2e}, "
           f"conservation dev {worst_cons:.2e}", t0)
    assert ok
