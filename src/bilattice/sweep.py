"""Parameter-sweep orchestration: one engine, a grid, a deterministic table.

Grid cells (one rho, or one (rho, phi) pair for the cavity) are pure-function
evaluations, run one after the other in lexicographic grid order; the
transmit and cavity engines evaluate a cell's whole probe grid in one call.
Each grid cell becomes one ``Cell`` of the table, built straight from the
engine arrays: the cell's constant coordinates as a prefix, and its column
arrays, among them the axes every cell shares (the probe grid and detuning,
the q grid), passed as the same array object to every cell.  The gaps
engine, one row per rho, makes one cell of the whole scan instead, with
rho/a as its first column, and builds one ``GapScan`` plan for all its rho.
A failing cell contributes NaN rows and an entry in the table's error list;
what the cells share is built before them, and its failure ends the sweep.

Each engine's table function imports that engine's module when it runs, so
a sweep loads only the engine it uses.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .constants import DEFAULT_N_BZ, DEFAULT_N_Q
from .core import LatticeConfig

_GAP_SLOTS = 4   # indexed-gap columns emitted by the gaps engine

NAN = float("nan")


class Cell(NamedTuple):
    """One grid cell of a table: constant leading values plus the columns.

    Its rows are ``prefix + (c[i] for c in columns)``, one per index i of the
    equal-length ``columns``.  Cells may pass the same column object, such
    as a probe grid they share.
    """

    prefix: tuple
    columns: tuple


def _values(column):
    """A column as a sequence of Python floats where it is an array."""
    return column.tolist() if isinstance(column, np.ndarray) else column


class Table:
    """Named columns, their data as a list of cells, and run metadata.

    The table's rows are the rows of its cells in order.  Every value is a
    float (Python or numpy); ``tableio.write_table`` writes them at 12
    significant digits and renders each prefix and each distinct column
    object once per table.

    ``rows`` is a list-of-tuples view for callers that want rows.  Its first
    access materialises the list, and that list becomes the table's data, a
    single cell with no prefix, so reads, assignment and item assignment
    through it reach what is written.  ``Table(columns, rows, meta)`` builds
    a table from rows the same way.
    """

    def __init__(self, columns: list[str], rows: list | None = None,
                 meta: dict | None = None, cells: list[Cell] | None = None):
        self.columns = columns
        self.meta = {} if meta is None else meta
        self._cells = [] if cells is None else cells
        self._rows = rows

    @property
    def cells(self) -> list[Cell]:
        """The table's cells; once ``rows`` is in use, one cell without a
        prefix whose columns are those of the rows."""
        if self._rows is None:
            return self._cells
        return [Cell((), tuple(zip(*self._rows, strict=True)))]

    @property
    def rows(self) -> list[tuple]:
        if self._rows is None:
            self.rows = [
                prefix + row
                for prefix, columns in self._cells
                for row in zip(*map(_values, columns))
            ]
        return self._rows

    @rows.setter
    def rows(self, rows: list) -> None:
        self._rows = rows
        self._cells = []

    @property
    def errors(self) -> list:
        return self.meta.setdefault("errors", [])


# the fields only some engines read; a spec for another engine leaves them at
# their defaults
_ENGINE_FIELDS = {"bands": {"n_bz", "n_q", "q_max"},
                  "gaps": {"n_bz", "n_q", "window", "cover_tol", "min_band_width"},
                  "transmit": {"probe_grid"}, "cavity": {"cavity", "probe_grid", "phi_values"}}


@dataclass(frozen=True)
class SweepSpec:
    """Fully resolved sweep: engine, fixed configs and absolute-unit grids.

    All frequencies are rad/s; output tables convert to linewidth units
    against (reference_frequency, reference_linewidth).  A field that the
    engine does not read must keep its default.
    """

    engine: str
    lattice: LatticeConfig
    reference_frequency: float
    reference_linewidth: float
    cavity: object | None = None               # a cavity.CavityConfig, cavity engine
    probe_grid: np.ndarray | None = None       # rad/s, transmit + cavity engines
    rho_values: np.ndarray | None = None       # m; defaults to the lattice rho
    phi_values: np.ndarray | None = None       # rad, cavity engine
    n_bz: int = DEFAULT_N_BZ
    n_q: int = DEFAULT_N_Q
    q_max: float | None = None
    window: tuple[float, float] | None = None  # rad/s, gaps engine
    cover_tol: float | None = None
    min_band_width: float = 0.0

    def __post_init__(self):
        if self.engine not in ENGINES:
            raise ValueError(f"unknown engine {self.engine!r}; pick one of {ENGINES}")
        for name in sorted(set().union(*_ENGINE_FIELDS.values()) - _ENGINE_FIELDS[self.engine]):
            value, default = getattr(self, name), getattr(SweepSpec, name)
            if value is not default and (default is None or value != default):
                raise ValueError(f"a {self.engine} sweep does not read {name}")
        if self.engine in ("transmit", "cavity"):
            if self.probe_grid is None or len(self.probe_grid) == 0:
                raise ValueError(f"{self.engine} sweep needs a non-empty probe grid")
            if not np.all(np.asarray(self.probe_grid) > 0):
                raise ValueError("every probe frequency must lie above 0 rad/s")
        if self.engine == "cavity":
            if self.cavity is None:
                raise ValueError("cavity sweep needs a cavity config")
            if self.phi_values is None or len(self.phi_values) == 0:
                raise ValueError("cavity sweep needs a non-empty phi grid")
            if not np.all(np.isfinite(self.phi_values)):
                raise ValueError("every phi must be finite")
        rhos = self.resolved_rhos()
        if len(rhos) == 0:
            raise ValueError("rho grid must be non-empty")
        if not np.all((0.0 <= rhos) & (rhos <= self.lattice.cell_size)):
            raise ValueError("intracell distance must satisfy 0 <= rho <= a")
        # the engines that do not read these fields hold their valid defaults
        if self.n_q < 3:
            raise ValueError("need at least three q-points")
        if self.n_bz < 1:
            raise ValueError("need at least one Brillouin zone")
        if self.q_max is not None and not 0 < self.q_max <= self.lattice.reciprocal_vector / 2:
            raise ValueError("q_max must lie in (0, G0/2]")
        if self.window is not None and not (np.all(np.isfinite(self.window))
                                            and self.window[0] < self.window[1]):
            raise ValueError("gap window must be finite and increasing")
        if self.cover_tol is not None and self.cover_tol < 0.0:
            raise ValueError("cover_tol must be >= 0")

    def resolved_rhos(self) -> np.ndarray:
        if self.rho_values is None:
            return np.array([self.lattice.intracell_distance])
        return np.asarray(self.rho_values, dtype=float)

    def resolved_phis(self) -> np.ndarray:
        """The phi grid; [0.0] for the engines that take no phi."""
        return np.asarray([0.0] if self.phi_values is None else self.phi_values, dtype=float)


def _run_cells(table: Table, cells: list[dict], run, failed) -> list:
    """run(coords) for each coordinate dict of ``cells``, in order.

    Where run raises, or issues a ``RuntimeWarning`` (numpy's overflow,
    invalid-value and divide warnings among them), the cell gets ``failed``
    (the engine's NaN columns) instead and the table an error entry: the
    coordinates plus "<Type>: <message>".  The error list is touched only
    then, so a clean run's meta has no "errors" key.
    """
    results = []
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for coords in cells:
            try:
                results.append(run(coords))
            except Exception as exc:  # noqa: BLE001 - reported per cell
                table.errors.append({**coords, "error": f"{type(exc).__name__}: {exc}"})
                results.append(failed)
    return results


def _rho_grid(rhos: np.ndarray) -> list[dict]:
    return [{"rho": float(rho)} for rho in rhos]


def _gamma_units(spec: SweepSpec, omega: float) -> float:
    return (omega - spec.reference_frequency) / spec.reference_linewidth


def _bands_table(spec: SweepSpec) -> Table:
    from . import bandstructure
    cfg = spec.lattice
    n_modes = 2 * spec.n_bz + 3
    columns = ["rho_over_a", "q_over_G0"] + [
        f"band_{i + 1:02d}_gamma" for i in range(n_modes)
    ]
    rhos = spec.resolved_rhos()
    table = Table(columns, meta={"engine": "bands", "rho_values": list(map(float, rhos))})
    # the q grid of compute_bands, which does not depend on rho: one column for every cell
    q_axis = bandstructure._q_grid(cfg, spec.n_q, spec.q_max) / cfg.reciprocal_vector

    def run(coords):
        bs = bandstructure.compute_bands(
            cfg.replace(intracell_distance=coords["rho"]),
            n_bz=spec.n_bz,
            n_q=spec.n_q,
            q_max=spec.q_max,
        )
        return (q_axis, *_gamma_units(spec, bs.bands).T)

    cells = _rho_grid(rhos)
    failed = ((NAN,),) * (len(columns) - 1)   # one NaN row after rho/a
    for coords, cell_columns in zip(cells, _run_cells(table, cells, run, failed)):
        table.cells.append(Cell((coords["rho"] / cfg.cell_size,), cell_columns))
    return table


def _gaps_table(spec: SweepSpec) -> Table:
    from . import bandstructure
    cfg = spec.lattice
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
    table = Table(columns, meta={"engine": "gaps", "rho_values": list(map(float, rhos))})
    scan = bandstructure.GapScan(cfg, spec.window, spec.n_bz, spec.n_q, spec.cover_tol,
                                 spec.min_band_width)

    def run(coords):
        entry = scan.entry(coords["rho"])
        row = [float(len(entry.gaps))]
        for g in entry.gaps[:_GAP_SLOTS]:
            row += [_gamma_units(spec, g.lower_edge), _gamma_units(spec, g.upper_edge),
                    g.width / spec.reference_linewidth]
        row += [NAN] * (1 + 3 * _GAP_SLOTS - len(row))
        if entry.analytic_edges is not None:
            row += [_gamma_units(spec, nu) for nu in entry.analytic_edges]
            w1, w2 = entry.analytic_widths
            row += [w1 / spec.reference_linewidth, w2 / spec.reference_linewidth]
        else:
            row += [NAN] * 6
        return row

    rows = _run_cells(table, _rho_grid(rhos), run, [NAN] * (len(columns) - 1))
    # one cell for the whole scan, so that each column is rendered and laid
    # out once, not once per rho
    table.cells.append(Cell((), (rhos / cfg.cell_size, *np.array(rows).T)))
    return table


def _transmit_table(spec: SweepSpec) -> Table:
    from . import transfer_matrix
    cfg = spec.lattice
    a = cfg.cell_size
    rhos = spec.resolved_rhos()
    single = len(rhos) == 1
    base_cols = ["omega_p_rad_s", "detuning_gamma", "T", "R", "A"]
    columns = base_cols if single else ["rho_over_a"] + base_cols
    table = Table(columns, meta={"engine": "transmit", "rho_values": list(map(float, rhos))})
    grid = np.asarray(spec.probe_grid, dtype=float)
    # the omega_p and detuning axes (from the even line, in gamma), shared by every cell
    detuning = (grid - cfg.species_even.transition_frequency) / spec.reference_linewidth

    def run(coords):
        result = transfer_matrix.spectrum_scan(cfg.replace(intracell_distance=coords["rho"]), grid)
        return (grid, detuning, *result)

    nan = np.full(grid.shape, NAN)
    cells = _rho_grid(rhos)
    failed = (grid, detuning, nan, nan, nan)
    for coords, cell_columns in zip(cells, _run_cells(table, cells, run, failed)):
        prefix = () if single else (coords["rho"] / a,)
        table.cells.append(Cell(prefix, cell_columns))
    return table


def _cavity_table(spec: SweepSpec) -> Table:
    from . import cavity as cavity_mod
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
        meta={
            "engine": "cavity",
            "rho_values": list(map(float, rhos)),
            "phi_values": list(map(float, phis)),
            "commensurate_order": cav.commensurate_order(a) if cav.commensurate else None,
            "peaks": [],
        },
    )
    grid = np.asarray(spec.probe_grid, dtype=float)
    detuning = _gamma_units(spec, grid)
    cells = [{"rho": float(rho), "phi": float(phi)} for rho in rhos for phi in phis]

    def run(coords):
        rho, phi = coords["rho"], coords["phi"]
        result = cavity_mod.cavity_spectrum_scan(
            cav, lat.species_even, lat.species_odd, grid, [rho], [phi]
        )[0]
        table.meta["peaks"].append(
            {
                "rho_over_a": rho / a,
                "phi_rad": phi,
                "peaks_rad_s": result.peaks,
                "predicted_rad_s": list(result.predicted_peaks),
            }
        )
        return result.intensities

    failed = np.full(grid.shape, NAN)
    for coords, intensity in zip(cells, _run_cells(table, cells, run, failed)):
        prefix = () if single else (coords["rho"] / a, coords["phi"])
        table.cells.append(Cell(prefix, (grid, detuning, intensity, intensity / peak_norm)))
    return table


def run_sweep(spec: SweepSpec) -> Table:
    """Run the sweep described by ``spec`` and return its table.

    Cells, and so rows, come in the lexicographic grid order of the spec;
    failed cells yield NaN rows plus ``table.meta['errors']`` entries.
    """
    return _TABLES[spec.engine](spec)


# the engines by name; each table function imports its engine's module
_TABLES = {"bands": _bands_table, "gaps": _gaps_table,
           "transmit": _transmit_table, "cavity": _cavity_table}
ENGINES = tuple(_TABLES)
