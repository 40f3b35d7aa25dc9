"""Parameter-sweep orchestration: one engine, a grid, a deterministic table.

Grid cells (one rho, or one (rho, phi) pair for the cavity) are pure-function
evaluations and run either serially or on a thread pool; the transmit and
cavity engines evaluate a cell's whole probe grid in one call.  Rows are
always assembled in lexicographic grid order, so the output is byte-identical
for any worker count.  A failing cell or probe point contributes NaN-marked
rows and an entry in the table's error list instead of aborting the sweep
(unless fail_fast is set).
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import bandstructure, cavity as cavity_mod, transfer_matrix
from .cavity import CavityConfig
from .core import LatticeConfig

ENGINES = ("bands", "gaps", "transmit", "cavity")
_GAP_SLOTS = 4   # indexed-gap columns emitted by the gaps engine

NAN = float("nan")


@dataclass
class Table:
    """Column-named rows plus run metadata (grids, errors, peak summaries).

    Every row value is a float (Python or numpy); ``cli_io.write_table``
    formats them with ``%.12g`` a block of rows at a time and relies on it.
    """

    columns: list[str]
    rows: list[tuple]
    meta: dict = field(default_factory=dict)

    @property
    def errors(self) -> list:
        return self.meta.setdefault("errors", [])


@dataclass(frozen=True)
class SweepSpec:
    """Fully resolved sweep: engine, fixed configs and absolute-unit grids.

    All frequencies are rad/s; output tables convert to linewidth units
    against (reference_frequency, reference_linewidth).
    """

    engine: str
    lattice: LatticeConfig
    reference_frequency: float
    reference_linewidth: float
    cavity: CavityConfig | None = None
    probe_grid: np.ndarray | None = None       # rad/s, transmit + cavity engines
    rho_values: np.ndarray | None = None       # m; defaults to the lattice rho
    phi_values: np.ndarray | None = None       # rad; defaults to the cavity phase
    n_bz: int = bandstructure.DEFAULT_N_BZ
    n_q: int = bandstructure.DEFAULT_N_Q
    q_max: float | None = None
    window: tuple[float, float] | None = None  # rad/s, gaps engine
    cover_tol: float | None = None
    min_band_width: float = 0.0
    workers: int = 1
    fail_fast: bool = False

    def __post_init__(self):
        if self.engine not in ENGINES:
            raise ValueError(f"unknown engine {self.engine!r}; pick one of {ENGINES}")
        if self.engine in ("transmit", "cavity"):
            if self.probe_grid is None or len(self.probe_grid) == 0:
                raise ValueError(f"{self.engine} sweep needs a non-empty probe grid")
        if self.engine == "cavity" and self.cavity is None:
            raise ValueError("cavity sweep needs a cavity config")
        if self.rho_values is not None and len(self.rho_values) == 0:
            raise ValueError("rho grid must be non-empty")

    def resolved_rhos(self) -> np.ndarray:
        if self.rho_values is None:
            return np.array([self.lattice.intracell_distance])
        return np.asarray(self.rho_values, dtype=float)

    def resolved_phis(self) -> np.ndarray:
        if self.phi_values is None:
            phase = self.cavity.phase if self.cavity is not None else 0.0
            return np.array([phase])
        return np.asarray(self.phi_values, dtype=float)


def _map_cells(spec: SweepSpec, cells, worker):
    """Evaluate worker(cell) over all cells, order-preserving, error-tolerant."""
    def guarded(cell):
        try:
            return worker(cell), None
        except Exception as exc:  # noqa: BLE001 - reported per cell
            if spec.fail_fast:
                raise
            return None, f"{type(exc).__name__}: {exc}"

    if spec.workers > 1:
        with ThreadPoolExecutor(max_workers=spec.workers) as pool:
            return list(pool.map(guarded, cells))
    return [guarded(cell) for cell in cells]


def _rows(prefix: tuple, *columns) -> list[tuple]:
    """Row tuples of equal-length column arrays, each led by ``prefix``."""
    return [prefix + row for row in zip(*(np.asarray(c).tolist() for c in columns))]


def _rho_rows(spec: SweepSpec, table: Table, run) -> Table:
    """Append the rows of run(rho) for every rho; a failed rho gets one NaN row."""
    rhos = spec.resolved_rhos()
    for (rows, err), rho in zip(_map_cells(spec, rhos, run), rhos):
        if err is not None:
            table.errors.append({"rho": float(rho), "error": err})
            rows = [(rho / spec.lattice.cell_size,) + (NAN,) * (len(table.columns) - 1)]
        table.rows.extend(rows)
    return table


def _gamma_units(spec: SweepSpec, omega: float) -> float:
    return (omega - spec.reference_frequency) / spec.reference_linewidth


def _bands_table(spec: SweepSpec) -> Table:
    cfg = spec.lattice
    a = cfg.cell_size
    g0 = cfg.reciprocal_vector
    n_modes = 2 * spec.n_bz + 3
    columns = ["rho_over_a", "q_over_G0"] + [
        f"band_{i + 1:02d}_gamma" for i in range(n_modes)
    ]
    rhos = spec.resolved_rhos()
    table = Table(columns, [], {"engine": "bands", "rho_values": list(map(float, rhos))})

    def run(rho):
        bs = bandstructure.compute_bands(
            cfg.replace(intracell_distance=float(rho)),
            n_bz=spec.n_bz,
            n_q=spec.n_q,
            q_max=spec.q_max,
        )
        return _rows((rho / a,), bs.q_grid / g0, *_gamma_units(spec, bs.bands).T)

    return _rho_rows(spec, table, run)


def _gaps_table(spec: SweepSpec) -> Table:
    cfg = spec.lattice
    a = cfg.cell_size
    columns = ["rho_over_a", "gap_count"]
    for i in range(1, _GAP_SLOTS + 1):
        columns += [f"gap{i}_lower_gamma", f"gap{i}_upper_gamma", f"gap{i}_width_gamma"]
    columns += [
        "analytic_nu_1m_gamma",
        "analytic_nu_2m_gamma",
        "analytic_nu_2p_gamma",
        "analytic_nu_1p_gamma",
        "analytic_gap1_width_gamma",
        "analytic_gap2_width_gamma",
    ]
    rhos = spec.resolved_rhos()
    table = Table(columns, [], {"engine": "gaps", "rho_values": list(map(float, rhos))})

    def run(rho):
        entry = bandstructure.gap_widths_vs_rho(
            cfg,
            [float(rho)],
            window=spec.window,
            n_bz=spec.n_bz,
            n_q=spec.n_q,
            cover_tol=spec.cover_tol,
            min_band_width=spec.min_band_width,
        )[0]
        row = [rho / a, float(len(entry.gaps))]
        for i in range(_GAP_SLOTS):
            if i < len(entry.gaps):
                g = entry.gaps[i]
                row += [
                    _gamma_units(spec, g.lower_edge),
                    _gamma_units(spec, g.upper_edge),
                    g.width / spec.reference_linewidth,
                ]
            else:
                row += [NAN, NAN, NAN]
        if entry.analytic_edges is not None:
            row += [_gamma_units(spec, nu) for nu in entry.analytic_edges]
            w1, w2 = entry.analytic_widths
            row += [w1 / spec.reference_linewidth, w2 / spec.reference_linewidth]
        else:
            row += [NAN] * 6
        return [tuple(row)]

    return _rho_rows(spec, table, run)


def _transmit_table(spec: SweepSpec) -> Table:
    cfg = spec.lattice
    a = cfg.cell_size
    rhos = spec.resolved_rhos()
    single = len(rhos) == 1
    base_cols = ["omega_p_rad_s", "detuning_gamma", "T", "R", "A"]
    columns = base_cols if single else ["rho_over_a"] + base_cols
    table = Table(
        columns, [], {"engine": "transmit", "rho_values": list(map(float, rhos))}
    )
    grid = np.asarray(spec.probe_grid, dtype=float)

    def run(rho):
        local = cfg.replace(intracell_distance=float(rho))
        result = transfer_matrix.spectrum_scan(local, grid)
        if result.errors and spec.fail_fast:
            raise ValueError(next(iter(result.errors.values())))
        return result

    for (result, err), rho in zip(_map_cells(spec, rhos, run), rhos):
        prefix = () if single else (rho / a,)
        if err is not None:
            table.errors.append({"rho": float(rho), "error": err})
            nan = np.full(grid.shape, NAN)
            table.rows.extend(_rows(prefix, grid, nan, nan, nan, nan))
            continue
        for i, msg in result.errors.items():
            table.errors.append(
                {"rho": float(rho), "omega_p": float(grid[i]), "error": f"ValueError: {msg}"}
            )
        table.rows.extend(_rows(prefix, *result[:5]))   # omega_p, detuning, T, R, A
    return table


def _cavity_table(spec: SweepSpec) -> Table:
    cav = spec.cavity
    lat = spec.lattice
    a = lat.cell_size
    rhos = spec.resolved_rhos()
    phis = spec.resolved_phis()
    single = len(rhos) == 1 and len(phis) == 1
    base_cols = ["omega_p_rad_s", "detuning_gamma", "intensity_photons_per_s", "intensity_norm"]
    columns = base_cols if single else ["rho_over_a", "phi_rad"] + base_cols
    # empty-cavity resonant peak used for the normalized column
    peak_norm = 2.0 * cav.pump**2 / cav.linewidth
    table = Table(
        columns,
        [],
        {
            "engine": "cavity",
            "rho_values": list(map(float, rhos)),
            "phi_values": list(map(float, phis)),
            "commensurate_order": cav.commensurate_order(a) if cav.commensurate else None,
            "peaks": [],
        },
    )
    grid = np.asarray(spec.probe_grid, dtype=float)
    detuning = _gamma_units(spec, grid)
    cells = [(rho, phi) for rho in rhos for phi in phis]

    def run(cell):
        rho, phi = cell
        return cavity_mod.cavity_spectrum_scan(
            cav, lat.species_even, lat.species_odd, grid, [rho], [phi]
        )[0]

    for (result, err), (rho, phi) in zip(_map_cells(spec, cells, run), cells):
        if err is not None:
            table.errors.append({"rho": float(rho), "phi": float(phi), "error": err})
            intensity = np.full(grid.shape, NAN)
        else:
            intensity = result.intensities
            table.meta["peaks"].append(
                {
                    "rho_over_a": rho / a,
                    "phi_rad": float(phi),
                    "peaks_rad_s": result.peaks,
                    "predicted_rad_s": list(result.predicted_peaks),
                }
            )
        prefix = () if single else (rho / a, phi)
        table.rows.extend(_rows(prefix, grid, detuning, intensity, intensity / peak_norm))
    return table


def run_sweep(spec: SweepSpec) -> Table:
    """Run the sweep described by ``spec`` and return its table.

    Row order is the lexicographic grid order of the spec regardless of the
    worker count; failed cells yield NaN rows plus ``table.meta['errors']``
    entries unless spec.fail_fast is set.
    """
    if spec.engine == "bands":
        return _bands_table(spec)
    if spec.engine == "gaps":
        return _gaps_table(spec)
    if spec.engine == "transmit":
        return _transmit_table(spec)
    return _cavity_table(spec)
