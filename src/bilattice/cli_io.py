"""Config parsing, tabular output and the command-line entry point.

Config files are plain ``key = value`` text ('#' starts a comment).  Every
physical quantity carries an explicit unit suffix:

* frequency offsets: ``gamma`` (multiples of the species linewidth),
  resolved against the named reference transition;
* rates/linewidths: ``rad/s`` taken literally, or ``Hz``/``kHz``/``MHz``/
  ``GHz`` meaning an ordinary frequency nu with the rate being 2 pi nu
  (so ``kappa = 21 kHz`` is kappa = 2 pi x 21e3 rad/s);
* lengths: ``m``, ``mm``, ``um``, ``nm``, or ``a``/``lambda`` (multiples of
  the cell size, which is the lattice-light wavelength);
* angles: ``rad``, ``pi`` or ``deg``;
* areal densities: ``m^-2`` or ``um^-2``;
* quasi-momenta: ``G0`` (multiples of the reciprocal vector) or ``rad/m``.

``*_values`` keys accept comma-separated lists sharing one trailing unit.
Every number must be finite.  A config holds only the keys its engine reads:
an unknown key is rejected before any value is read, and a known key that
the engine does not read is rejected after parsing.  Every rho lies in
[0, a], and q_max in (0, G0/2].  The reference chain: the named species fixes
(omega_atom, gamma); the lattice light sits at omega_0 = omega_atom +
lattice_detuning x gamma; the cell size is a = 2 pi c / omega_0; both
lattice species are placed relative to omega_0 via omega_even / omega_odd.

The lattice has one density, n_s atoms per unit area of each plane.  The
``bands``, ``gaps`` and ``transmit`` engines take exactly one of
``areal_density`` and ``waist`` (one atom per site over the mode area
pi w^2 / 4, so n_s = 4 / (pi w^2)); the ``cavity`` engine takes neither, and
its lattice carries the density its coupling implies, n_s = occupancy /
(pi w_c^2 / 4).

Output tables are CSV (header row with units in the column names, numbers at
12 significant digits) or JSON mirroring the same schema (indent 1, NaN as
null), written by ``tableio.write_table`` (see there for how).  Cell errors
go to a ``<out>.errors.log`` sidecar, or to stderr when the table goes to
stdout.  Transmit and cavity tables use exactly the columns (omega_p_rad_s,
detuning_gamma, T, R, A) resp. (omega_p_rad_s, detuning_gamma,
intensity_photons_per_s, intensity_norm) for single-geometry runs; grid
sweeps prepend the varied coordinates.

Exit codes: 0 success, 1 configuration error, 2 numeric failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from .constants import C, TWO_PI
from .core import AtomSpecies, LatticeConfig
from .sweep import ENGINES, SweepSpec, Table, run_sweep
from .tableio import write_table

BUNDLED_CONFIGS = (
    "fig2a", "fig2b", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10",
)


class ConfigError(Exception):
    """Malformed, incomplete or out-of-range run configuration."""


# ---------------------------------------------------------------------------
# low-level parsing

_RATE_UNITS = {"rad/s": 1.0, "Hz": TWO_PI, "kHz": TWO_PI * 1e3,
               "MHz": TWO_PI * 1e6, "GHz": TWO_PI * 1e9}
_LENGTH_UNITS = {"m": 1.0, "mm": 1e-3, "um": 1e-6, "nm": 1e-9}
_AREAL_UNITS = {"m^-2": 1.0, "um^-2": 1e12}
_ANGLE_UNITS = {"rad": 1.0, "pi": math.pi, "deg": math.pi / 180.0}


def _tokenize(text: str):
    """Yield (line_number, key, value) for every assignment line."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        key, value = key.strip(), value.strip()
        if not key or not value:
            raise ConfigError(f"line {lineno}: empty key or value")
        yield lineno, key, value


def _split_unit(value: str) -> tuple[list[str], str | None]:
    """Split '0, 0.2, 0.4 a' into (['0', '0.2', '0.4 a'...]) -> numbers/unit."""
    parts = [p.strip() for p in value.split(",")]
    tail = parts[-1].split()
    unit = None
    if len(tail) == 2:
        parts[-1] = tail[0]
        unit = tail[1]
    elif len(tail) != 1:
        raise ConfigError(f"cannot parse quantity {value!r}")
    return parts, unit


class _Entry:
    def __init__(self, lineno: int, key: str, value: str):
        self.lineno = lineno
        self.key = key
        self.value = value
        self.used = False

    def fail(self, message: str):
        raise ConfigError(f"line {self.lineno}: key {self.key!r}: {message}")

    def floats(self, unit_map: dict[str, float] | None, kind: str) -> list[float]:
        parts, unit = _split_unit(self.value)
        try:
            numbers = [float(p) for p in parts]
        except ValueError:
            self.fail(f"expected number(s), got {self.value!r}")
        if unit_map is None:
            if unit is not None:
                self.fail(f"{kind} takes no unit, got {unit!r}")
        elif unit is None:
            self.fail(f"missing {kind} unit (one of {', '.join(unit_map)})")
        elif unit not in unit_map:
            self.fail(f"unknown {kind} unit {unit!r} (one of {', '.join(unit_map)})")
        else:
            numbers = [x * unit_map[unit] for x in numbers]
        if not all(map(math.isfinite, numbers)):
            self.fail(f"expected finite number(s), got {self.value!r}")
        return numbers

    def scalar(self, unit_map, kind) -> float:
        values = self.floats(unit_map, kind)
        if len(values) != 1:
            self.fail("expected a single value, got a list")
        return values[0]

    def integer(self, least: int | None = None) -> int:
        value = self.scalar(None, "count")
        if value != int(value):
            self.fail(f"expected an integer, got {self.value!r}")
        if least is not None and value < least:
            self.fail(f"must be >= {least}")
        return int(value)

    def boolean(self) -> bool:
        low = self.value.lower()
        if low in ("true", "yes", "on", "1"):
            return True
        if low in ("false", "no", "off", "0"):
            return False
        self.fail(f"expected a boolean, got {self.value!r}")

    def token(self) -> str:
        return self.value


# every key any engine reads; which of them a config may hold is decided by
# what parse_config takes for its engine (the ``used`` marks)
_KEYS = frozenset({
    "engine", "species", "wavelength", "linewidth", "lattice_detuning",
    "omega_even", "omega_odd", "gamma_even", "gamma_odd", "rho", "rho_values",
    "rho_min", "rho_max", "rho_points", "cells", "planes", "areal_density",
    "waist", "n_bz", "n_q", "q_max", "window_min", "window_max", "cover_tol",
    "min_band_width", "probe_min", "probe_max", "probe_points", "cavity_length",
    "kappa", "finesse", "cavity_waist", "occupancy", "pump", "phase",
    "phase_values", "commensurate", "cavity_detuning",
})


@dataclass(frozen=True)
class RunConfig:
    """Validated configuration: a fully resolved sweep spec."""

    sweep: SweepSpec


def parse_config(text: str) -> RunConfig:
    """Parse and validate key-value config text into a RunConfig.

    Errors carry the offending line number (parse), key (units), or the
    violated invariant (ranges).
    """
    entries: dict[str, _Entry] = {}
    for lineno, key, value in _tokenize(text):
        if key in entries:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        entries[key] = _Entry(lineno, key, value)

    def take(key: str) -> _Entry | None:
        entry = entries.get(key)
        if entry is not None:
            entry.used = True
        return entry

    def require(key: str) -> _Entry:
        entry = take(key)
        if entry is None:
            raise ConfigError(f"missing required key {key!r}")
        return entry

    unknown = [k for k in entries if k not in _KEYS]
    if unknown:   # a typo is reported before any value is read
        raise ConfigError(f"unknown key(s): {', '.join(sorted(unknown))}")
    engine = require("engine").token()
    if engine not in ENGINES:
        raise ConfigError(f"unknown engine {engine!r}")

    # --- species and reference frequencies ---
    species_name = require("species").token()

    def species(make, frequency_entry: _Entry, gamma_entry: _Entry | None, gamma: float):
        """make(), its ValueError naming the linewidth's key where the
        linewidth is not positive, else the key that sets the frequency."""
        try:
            return make()
        except ZeroDivisionError:
            frequency_entry.fail("puts the transition at zero frequency or wavelength")
        except ValueError as exc:
            culprit = gamma_entry if gamma_entry is not None and gamma <= 0 else frequency_entry
            culprit.fail(str(exc))

    if species_name == "custom":
        wavelength_entry, linewidth_entry = require("wavelength"), require("linewidth")
        wavelength = wavelength_entry.scalar(_LENGTH_UNITS, "length")
        gamma = linewidth_entry.scalar(_RATE_UNITS, "rate")
        base = species(lambda: AtomSpecies.from_wavelength(wavelength, gamma),
                       wavelength_entry, linewidth_entry, gamma)
    else:
        try:
            base = AtomSpecies.named(species_name)
        except KeyError as exc:
            raise ConfigError(str(exc)) from None
    gamma_ref = base.linewidth
    lattice_entry = require("lattice_detuning")
    omega0 = base.transition_frequency + lattice_entry.scalar({"gamma": gamma_ref}, "detuning")
    if omega0 <= 0:
        lattice_entry.fail(
            f"puts the lattice light at omega_0 = {omega0:.6g} rad/s; it must be positive"
        )
    cell_size = TWO_PI * C / omega0

    def species_at(offset_key: str, gamma_key: str) -> AtomSpecies:
        offset_entry = require(offset_key)
        omega = omega0 + offset_entry.scalar({"gamma": gamma_ref}, "detuning")
        entry = take(gamma_key)
        gamma_j = entry.scalar(_RATE_UNITS, "rate") if entry else gamma_ref
        return species(
            lambda: AtomSpecies.from_frequency(omega, gamma_j), offset_entry, entry, gamma_j
        )

    species_even = species_at("omega_even", "gamma_even")
    species_odd = species_at("omega_odd", "gamma_odd")

    length_units = dict(_LENGTH_UNITS, a=cell_size)
    length_units["lambda"] = cell_size

    # --- geometry ---
    def rhos(entry: _Entry, single: bool = False) -> list[float]:
        """The entry's lengths, each of which must lie in the cell."""
        if single:
            values = [entry.scalar(length_units, "length")]
        else:
            values = entry.floats(length_units, "length")
        if not all(0.0 <= v <= cell_size for v in values):
            entry.fail("must satisfy 0 <= rho <= a")
        return values

    rho_entry, rho_values_entry = take("rho"), take("rho_values")
    range_entries = tuple(take(k) for k in ("rho_min", "rho_max", "rho_points"))
    if any(range_entries) and not all(range_entries):
        raise ConfigError("give all three of rho_min/rho_max/rho_points or none")
    if sum(x is not None for x in (rho_entry, rho_values_entry, range_entries[0])) > 1:
        raise ConfigError("give only one of rho, rho_values, rho_min/rho_max/rho_points")
    rho_values = None
    if rho_values_entry is not None:
        rho_values = np.array(rhos(rho_values_entry))
    elif range_entries[0] is not None:
        rho_min, rho_max, rho_points = range_entries
        rho_values = np.linspace(
            *rhos(rho_min, single=True), *rhos(rho_max, single=True),
            rho_points.integer(least=1),
        )
    if rho_entry is None and rho_values is None:
        raise ConfigError("missing required key 'rho' (or 'rho_values', or a rho range)")
    rho = rhos(rho_entry, single=True)[0] if rho_entry else float(rho_values[0])

    cells_entry, planes_entry = take("cells"), take("planes")
    if cells_entry is not None and planes_entry is not None:
        raise ConfigError("give exactly one of 'cells' and 'planes'")
    if cells_entry is not None:
        cell_count = cells_entry.integer()
    elif planes_entry is not None:
        planes = planes_entry.integer()
        if planes % 2:
            raise ConfigError("'planes' must be even (two planes per cell)")
        cell_count = planes // 2
    elif engine in ("bands", "gaps"):
        cell_count = 100   # spectra are M-independent; any positive M works
    else:
        raise ConfigError("missing required key 'cells' (or 'planes')")

    spec_kwargs = dict(
        engine=engine,
        reference_frequency=omega0,
        reference_linewidth=gamma_ref,
        rho_values=rho_values,
    )

    if engine in ("transmit", "cavity"):
        gamma_units = {"gamma": gamma_ref}
        pmin = require("probe_min").scalar(gamma_units, "detuning")
        pmax = require("probe_max").scalar(gamma_units, "detuning")
        npts = require("probe_points").integer()
        if npts < 2 or pmax <= pmin:
            raise ConfigError("probe grid needs probe_min < probe_max and >= 2 points")
        # transmit detunes against the even-species transition (paper-figure
        # axis); the cavity engine against the lattice reference omega_0
        anchor = species_even.transition_frequency if engine == "transmit" else omega0
        spec_kwargs["probe_grid"] = anchor + np.linspace(pmin, pmax, npts)

    if engine == "cavity":
        from .cavity import CavityConfig
        det_entry = take("cavity_detuning")
        cavity_det = det_entry.scalar({"gamma": gamma_ref}, "detuning") if det_entry else 0.0
        phase_entry, phases_entry = take("phase"), take("phase_values")
        if (phase_entry is None) == (phases_entry is None):
            raise ConfigError("give exactly one of 'phase' and 'phase_values'")
        phi_values = None
        if phases_entry is not None:
            phi_values = np.array(phases_entry.floats(_ANGLE_UNITS, "angle"))
        phase = phase_entry.scalar(_ANGLE_UNITS, "angle") if phase_entry else float(phi_values[0])
        finesse_entry = take("finesse")
        occupancy_entry = take("occupancy")
        pump_entry = take("pump")
        pump = pump_entry.scalar(_RATE_UNITS, "rate") if pump_entry else 1.0
        if pump <= 0:   # intensity_norm divides by the empty-cavity peak 2 pump^2 / kappa
            pump_entry.fail("must be positive")
        commensurate_entry = take("commensurate")
        try:
            cavity = CavityConfig(
                mode_frequency=omega0 + cavity_det,
                linewidth=require("kappa").scalar(_RATE_UNITS, "rate"),
                length=require("cavity_length").scalar(length_units, "length"),
                waist=require("cavity_waist").scalar(length_units, "length"),
                phase=phase,
                pump=pump,
                plane_count=2 * cell_count,
                commensurate=commensurate_entry.boolean() if commensurate_entry else True,
                occupancy=occupancy_entry.scalar(None, "count") if occupancy_entry else 1.0,
                finesse=finesse_entry.scalar(None, "count") if finesse_entry else None,
            )
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        spec_kwargs["cavity"] = cavity
        spec_kwargs["phi_values"] = phi_values

    # --- the one lattice density n_s [m^-2] ---
    if engine == "cavity":
        # the density the cavity coupling implies: n-bar atoms per site over
        # the mode area pi w_c^2 / 4
        areal_density = cavity.occupancy / (math.pi * cavity.waist**2 / 4.0)
    else:
        areal_entry, waist_entry = take("areal_density"), take("waist")
        if (areal_entry is None) == (waist_entry is None):
            raise ConfigError(
                f"give exactly one of 'areal_density' and 'waist' for engine {engine!r}"
            )
        if areal_entry is not None:
            areal_density = areal_entry.scalar(_AREAL_UNITS, "areal density")
        else:
            # one atom per site over the mode area pi w^2 / 4
            waist = waist_entry.scalar(length_units, "length")
            if waist <= 0:
                waist_entry.fail("must be positive")
            areal_density = 4.0 / (math.pi * waist**2)

    try:
        lattice = LatticeConfig(
            cell_size=cell_size,
            intracell_distance=rho,
            cell_count=cell_count,
            areal_density=areal_density,
            species_even=species_even,
            species_odd=species_odd,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    spec_kwargs["lattice"] = lattice

    if engine in ("bands", "gaps"):
        for key, least in (("n_bz", 1), ("n_q", 3)):
            entry = take(key)
            if entry is not None:
                spec_kwargs[key] = entry.integer(least)
        if engine == "bands":
            entry = take("q_max")
            if entry is not None:
                g0 = lattice.reciprocal_vector
                q_max = entry.scalar({"G0": g0, "rad/m": 1.0}, "quasi-momentum")
                if not 0 < q_max <= g0 / 2:
                    entry.fail("must lie in (0, G0/2]")
                spec_kwargs["q_max"] = q_max
        else:
            gamma_units = {"gamma": gamma_ref}
            wmin, wmax = take("window_min"), take("window_max")
            if (wmin is None) != (wmax is None):
                raise ConfigError("give both or neither of window_min/window_max")
            if wmin is not None:
                low = wmin.scalar(gamma_units, "detuning")
                high = wmax.scalar(gamma_units, "detuning")
                if high <= low:
                    wmax.fail("must exceed window_min")
                spec_kwargs["window"] = (omega0 + low, omega0 + high)
            for key in ("cover_tol", "min_band_width"):
                entry = take(key)
                if entry is not None:
                    value = entry.scalar(gamma_units, "detuning")
                    if value < 0:
                        entry.fail("must be >= 0")
                    spec_kwargs[key] = value

    unused = [e.key for e in entries.values() if not e.used]
    if unused:
        raise ConfigError(
            f"unknown key(s) for this {engine!r} config: {', '.join(sorted(unused))}"
        )
    try:
        spec = SweepSpec(**spec_kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return RunConfig(spec)


# ---------------------------------------------------------------------------
# tables (written by ``tableio.write_table``)


def read_table(path) -> Table:
    """Read back a table written by write_table (either format)."""
    text = Path(path).read_text(encoding="utf-8")
    if text.lstrip().startswith("{"):
        doc = json.loads(text)
        rows = [
            tuple(float("nan") if v is None else v for v in row) for row in doc["rows"]
        ]
        return Table(doc["columns"], rows, doc.get("meta", {}))
    lines = [ln for ln in text.splitlines() if ln]
    columns = lines[0].split(",")
    rows = [tuple(float(v) for v in ln.split(",")) for ln in lines[1:]]
    return Table(columns, rows)


# ---------------------------------------------------------------------------
# CLI


def bundled_config_text(name: str) -> str:
    """Text of a bundled reference config (fig2a ... fig10)."""
    stem = name[:-4] if name.endswith(".cfg") else name
    if stem not in BUNDLED_CONFIGS:
        raise ConfigError(
            f"unknown bundled config {name!r} (have: {', '.join(BUNDLED_CONFIGS)})"
        )
    return (resources.files("bilattice") / "configs" / f"{stem}.cfg").read_text(
        encoding="utf-8"
    )


def _load_config(arg: str) -> str:
    path = Path(arg)
    if path.exists():
        return path.read_text(encoding="utf-8")
    if arg.replace(".cfg", "") in BUNDLED_CONFIGS:
        return bundled_config_text(arg)
    raise ConfigError(f"config file {arg!r} not found")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process (parsing leaves it unchanged)."""
    parser = argparse.ArgumentParser(
        prog="bilattice",
        description="Photonic spectra of one-dimensional biperiodic atomic lattices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, doc in (
        ("bands", "polariton dispersion on a q-grid"),
        ("gaps", "bandgap inventory versus intracell distance"),
        ("transmit", "probe transmission/reflection spectra"),
        ("cavity", "intracavity output spectra"),
        ("scan", "run whatever engine the config selects"),
    ):
        p = sub.add_parser(name, help=doc)
        p.add_argument("--config", required=True,
                       help="config file path or bundled name (fig2a ... fig10)")
        p.add_argument("--out", default="-", help="output file ('-' = stdout)")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = parse_config(_load_config(args.config))
        if args.command not in ("scan", cfg.sweep.engine):
            raise ConfigError(
                f"subcommand {args.command!r} does not match config engine "
                f"{cfg.sweep.engine!r}; use 'scan' to defer to the config"
            )
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    try:
        table = run_sweep(cfg.sweep)
        write_table(table, args.out, args.format)
    except (RuntimeError, FloatingPointError, np.linalg.LinAlgError, OSError) as exc:
        print(f"numeric/runtime failure: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
