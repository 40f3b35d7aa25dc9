"""Independent reference checks of the tables the program wrote.

Each check re-derives sampled table values by another route than the
program's and reports the largest deviation.  They run after the timed
region.

* transmit: T and R of the n-cell stack from a 40-digit mpmath binary power
  of the ``dimer_matrix`` entries.  Tolerance 1e-3 in T and R, the
  resolution of a transmission figure; the float64 Chebyshev closed form is
  known to be off by a few 1e-5 at 1e6 planes where |sin Theta| is tiny, and
  ``transfer_matrix.ref_err`` reports that error as it is.
* cavity: every output intensity against ``output_intensity_closed_form``
  with ``collective_coupling_squared`` (equal detunings and linewidths, as
  in fig9/fig10).  Relative tolerance 1e-6.
* bands: sampled rows against ``eigvalsh`` of ``build_bloch_matrix`` at that
  q.  Tolerance 1e-3 gamma plus the 12-digit rounding of the table;
  ``bandstructure.ref_err`` is taken over the bands within 1000 gamma of
  omega_0, the range the dispersion figure shows.
* gaps: one sampled rho per config; bands from ``eigvalsh`` of
  ``build_bloch_matrix`` at every q, then ``find_gaps`` on them.  Gap count
  must match and every edge must agree to within ``cover_tol``.

Every check also rejects NaN rows, the mark of a failed sweep cell.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

import mpmath
import numpy as np

from bilattice.bandstructure import BandStructure, build_bloch_matrix, find_gaps
from bilattice.cavity import collective_coupling_squared, output_intensity_closed_form
from bilattice.cli_io import parse_config
from bilattice.core import cavity_coupling
from bilattice.transfer_matrix import dimer_matrix

TRANSMIT_SAMPLES = 48
BANDS_SAMPLES = 12
TRANSMIT_TOL = 1e-3
CAVITY_RTOL = 1e-6
BANDS_TOL_GAMMA = 1e-3
BANDS_ROUNDING = 1e-11     # relative rounding of a 12-significant-digit value
BANDS_WINDOW_GAMMA = 1000.0
GAP_SLOTS = 4              # indexed-gap column groups in a gaps table
MP_DIGITS = 40


@dataclass
class Verdict:
    layer: str           # module whose output was checked
    ok: bool
    ref_err: float       # largest deviation, in the layer's unit
    detail: str = ""


def read_table(path: Path, fmt: str) -> tuple[list[str], np.ndarray]:
    """(columns, rows as floats, NaN for null) of a CSV or JSON table; read
    here rather than by ``cli_io.read_table`` so the check does not trust it."""
    text = path.read_text(encoding="utf-8")
    if fmt == "json":
        doc = json.loads(text)
        rows = [[math.nan if v is None else v for v in row] for row in doc["rows"]]
        return doc["columns"], np.array(rows, dtype=float).reshape(len(rows), -1)
    lines = [ln for ln in text.splitlines() if ln]
    rows = [[float(v) for v in ln.split(",")] for ln in lines[1:]]
    return lines[0].split(","), np.array(rows, dtype=float).reshape(len(rows), -1)


def check(config_text: str, path: Path, fmt: str, rng: random.Random) -> Verdict:
    """Verdict on the table at ``path`` written for ``config_text``."""
    spec = parse_config(config_text).sweep
    columns, rows = read_table(path, fmt)
    checker = {
        "transmit": _check_transmit,
        "cavity": _check_cavity,
        "bands": _check_bands,
        "gaps": _check_gaps,
    }[spec.engine]
    return checker(spec, columns, rows, rng)


def _fail(layer: str, detail: str) -> Verdict:
    return Verdict(layer, False, math.inf, detail)


def _mp_cell_power(cell, n: int):
    """Entries (m12, m22) of cell**n by binary powering at MP_DIGITS digits."""
    a = [[mpmath.mpc(z.real, z.imag) for z in row]
         for row in ((cell.m11, cell.m12), (cell.m21, cell.m22))]
    result = [[mpmath.mpc(1), mpmath.mpc(0)], [mpmath.mpc(0), mpmath.mpc(1)]]

    def mul(x, y):
        return [[x[i][0] * y[0][j] + x[i][1] * y[1][j] for j in (0, 1)] for i in (0, 1)]

    while n:
        if n & 1:
            result = mul(result, a)
        a = mul(a, a)
        n >>= 1
    return result[0][1], result[1][1]


def _check_transmit(spec, columns, rows, rng) -> Verdict:
    layer = "transfer_matrix"
    grid = np.asarray(spec.probe_grid)
    if columns != ["omega_p_rad_s", "detuning_gamma", "T", "R", "A"]:
        return _fail(layer, f"unexpected columns {columns}")
    if rows.shape[0] != len(grid) or np.isnan(rows).any():
        return _fail(layer, "missing or NaN rows")
    if np.max(np.abs(rows[:, 0] / grid - 1.0)) > 1e-11:
        return _fail(layer, "probe frequencies differ from the config grid")
    if np.max(np.abs(rows[:, 4] - (1.0 - rows[:, 2] - rows[:, 3]))) > 1e-9:
        return _fail(layer, "A != 1 - T - R")
    cells = spec.lattice.cell_count
    err_t = err_r = 0.0
    with mpmath.workdps(MP_DIGITS):
        for i in rng.sample(range(len(grid)), TRANSMIT_SAMPLES):
            m12, m22 = _mp_cell_power(dimer_matrix(spec.lattice, float(grid[i])), cells)
            t_ref = float(1 / abs(m22) ** 2)
            r_ref = float(abs(m12 / m22) ** 2)
            err_t = max(err_t, abs(rows[i, 2] - t_ref))
            err_r = max(err_r, abs(rows[i, 3] - r_ref))
    ok = max(err_t, err_r) <= TRANSMIT_TOL
    return Verdict(layer, ok, err_t, "" if ok else f"|dT| {err_t:.3g}, |dR| {err_r:.3g}")


def _check_cavity(spec, columns, rows, rng) -> Verdict:
    layer = "cavity"
    cav, lat = spec.cavity, spec.lattice
    even, odd = lat.species_even, lat.species_odd
    if (even.transition_frequency, even.linewidth) != (odd.transition_frequency, odd.linewidth):
        return _fail(layer, "closed form needs equal detunings and linewidths")
    grid = np.asarray(spec.probe_grid)
    cells = [(rho, phi) for rho in spec.resolved_rhos() for phi in spec.resolved_phis()]
    if columns[:2] != ["rho_over_a", "phi_rad"] or len(columns) != 6:
        return _fail(layer, f"unexpected columns {columns}")
    if rows.shape[0] != len(cells) * len(grid) or np.isnan(rows).any():
        return _fail(layer, "missing or NaN rows")
    scale = math.sqrt(cav.occupancy)
    g1 = scale * cavity_coupling(even, cav)
    g2 = scale * cavity_coupling(odd, cav)
    peak = 2.0 * cav.pump**2 / cav.linewidth
    err = 0.0
    for k, (rho, phi) in enumerate(cells):
        block = rows[k * len(grid):(k + 1) * len(grid)]
        r_eff = collective_coupling_squared(g1, g2, cav.wavevector, rho, phi, cav.commensurate)
        ref = output_intensity_closed_form(
            cav.mode_frequency - grid, even.transition_frequency - grid,
            cav.linewidth, even.linewidth, cav.cell_count, r_eff, cav.pump,
        )
        err = max(
            err,
            float(np.max(np.abs(block[:, 4] / ref - 1.0))),
            float(np.max(np.abs(block[:, 5] * peak / ref - 1.0))),
        )
    ok = err <= CAVITY_RTOL
    return Verdict(layer, ok, err, "" if ok else f"relative dI {err:.3g}")


def _reference_bands(cfg, q_values, n_bz) -> np.ndarray:
    return np.array([np.linalg.eigvalsh(build_bloch_matrix(q, cfg, n_bz).matrix) for q in q_values])


def _check_bands(spec, columns, rows, rng) -> Verdict:
    layer = "bandstructure"
    lat = spec.lattice
    rhos = spec.resolved_rhos()
    n_modes = 2 * spec.n_bz + 3
    if len(columns) != 2 + n_modes:
        return _fail(layer, f"expected {2 + n_modes} columns, got {len(columns)}")
    if rows.shape[0] != len(rhos) * spec.n_q or np.isnan(rows).any():
        return _fail(layer, "missing or NaN rows")
    g0 = lat.reciprocal_vector
    q_max = spec.q_max if spec.q_max is not None else g0 / 2
    q_grid = np.linspace(-q_max, q_max, spec.n_q)
    gamma, omega0 = spec.reference_linewidth, spec.reference_frequency
    err = 0.0
    ok = True
    for index in rng.sample(range(rows.shape[0]), BANDS_SAMPLES):
        rho, q = rhos[index // spec.n_q], q_grid[index % spec.n_q]
        row = rows[index]
        if abs(row[0] - rho / lat.cell_size) > 1e-11 or abs(row[1] - q / g0) > 1e-11 * q_max / g0:
            return _fail(layer, f"row {index}: rho or q differs from the config grid")
        cfg = lat.replace(intracell_distance=float(rho))
        ref = (_reference_bands(cfg, [q], spec.n_bz)[0] - omega0) / gamma
        diff = np.abs(row[2:] - ref)
        ok &= bool(np.all(diff <= BANDS_TOL_GAMMA + BANDS_ROUNDING * np.abs(ref)))
        near = np.abs(ref) <= BANDS_WINDOW_GAMMA
        if near.any():
            err = max(err, float(diff[near].max()))
    return Verdict(layer, ok, err, "" if ok else "band frequencies differ")


def _check_gaps(spec, columns, rows, rng) -> Verdict:
    layer = "bandstructure"
    lat = spec.lattice
    rhos = spec.resolved_rhos()
    col = {name: i for i, name in enumerate(columns)}
    if rows.shape[0] != len(rhos) or spec.window is None:
        return _fail(layer, "missing rows or no explicit window")
    counts = rows[:, col["gap_count"]]
    if np.isnan(counts).any():
        return _fail(layer, "NaN rows")
    if np.max(np.abs(rows[:, 0] - rhos / lat.cell_size)) > 1e-11:
        return _fail(layer, "rho column differs from the config grid")
    gamma, omega0 = spec.reference_linewidth, spec.reference_frequency
    cover_tol = spec.cover_tol if spec.cover_tol is not None else lat.species_even.linewidth / 10.0
    index = rng.randrange(len(rhos))
    cfg = lat.replace(intracell_distance=float(rhos[index]))
    g0 = cfg.reciprocal_vector
    q_grid = np.linspace(-g0 / 2, g0 / 2, spec.n_q)
    bands = BandStructure(q_grid, _reference_bands(cfg, q_grid, spec.n_bz), spec.n_bz, cfg)
    gaps = find_gaps(bands, spec.window, cover_tol=spec.cover_tol,
                     min_band_width=spec.min_band_width)
    row = rows[index]
    if int(row[col["gap_count"]]) != len(gaps):
        return _fail(layer, f"rho index {index}: {int(row[col['gap_count']])} gaps, reference {len(gaps)}")
    err = 0.0
    for k, gap in enumerate(gaps[:GAP_SLOTS], start=1):
        for edge, value in (("lower", gap.lower_edge), ("upper", gap.upper_edge)):
            err = max(err, abs(row[col[f"gap{k}_{edge}_gamma"]] - (value - omega0) / gamma))
    ok = err <= cover_tol / gamma
    return Verdict(layer, ok, err, "" if ok else f"gap edges off by {err:.3g} gamma")
