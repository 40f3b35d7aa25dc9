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
Unknown keys are rejected; each engine has its own required-key set.  The
reference chain: the named species fixes (omega_atom, gamma); the lattice
light sits at omega_0 = omega_atom + lattice_detuning x gamma; the cell size
is a = 2 pi c / omega_0; both lattice species are placed relative to omega_0
via omega_even / omega_odd.

Output tables are CSV (header row with units in the column names, numbers at
12 significant digits) or JSON mirroring the same schema (indent 1, NaN as
null).  Table values are floats; ``write_table`` formats them a block of rows
at a time with one ``%.12g`` template and derives each JSON number from the
same string, byte-identical to per-value ``f"{v:.12g}"`` and to
``json.dumps(indent=1)`` over the rounded floats.  Transmit and
cavity tables use exactly the columns (omega_p_rad_s, detuning_gamma, T, R,
A) resp. (omega_p_rad_s, detuning_gamma, intensity_photons_per_s,
intensity_norm) for single-geometry runs; grid sweeps prepend the varied
coordinates.

Exit codes: 0 success, 1 configuration error, 2 numeric failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from importlib import resources
from itertools import chain
from pathlib import Path

import numpy as np

from .cavity import CavityConfig
from .constants import C, TWO_PI
from .core import AtomSpecies, LatticeConfig
from .sweep import SweepSpec, Table, run_sweep

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
            return numbers
        if unit is None:
            self.fail(f"missing {kind} unit (one of {', '.join(unit_map)})")
        if unit not in unit_map:
            self.fail(f"unknown {kind} unit {unit!r} (one of {', '.join(unit_map)})")
        return [x * unit_map[unit] for x in numbers]

    def scalar(self, unit_map, kind) -> float:
        values = self.floats(unit_map, kind)
        if len(values) != 1:
            self.fail("expected a single value, got a list")
        return values[0]

    def integer(self) -> int:
        value = self.scalar(None, "count")
        if value != int(value):
            self.fail(f"expected an integer, got {self.value!r}")
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


_ENGINE_KEYS = {
    "common": {
        "engine", "species", "wavelength", "linewidth", "lattice_detuning",
        "omega_even", "omega_odd", "gamma_even", "gamma_odd", "rho",
        "rho_values", "rho_min", "rho_max", "rho_points", "cells", "planes",
        "areal_density", "workers",
    },
    "bands": {"waist", "n_bz", "n_q", "q_max"},
    "gaps": {
        "waist", "n_bz", "n_q", "window_min", "window_max", "cover_tol",
        "min_band_width",
    },
    "transmit": {"probe_min", "probe_max", "probe_points"},
    "cavity": {
        "probe_min", "probe_max", "probe_points", "cavity_length", "kappa",
        "finesse", "cavity_waist", "occupancy", "pump", "phase",
        "phase_values", "commensurate", "cavity_detuning",
    },
}


@dataclass(frozen=True)
class RunConfig:
    """Validated configuration: the engine plus a fully resolved sweep spec."""

    engine: str
    sweep: SweepSpec
    source: dict


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

    engine = require("engine").token()
    if engine not in ("bands", "gaps", "transmit", "cavity"):
        raise ConfigError(f"unknown engine {engine!r}")
    allowed = _ENGINE_KEYS["common"] | _ENGINE_KEYS[engine]
    unknown = [k for k in entries if k not in allowed]
    if unknown:
        raise ConfigError(
            f"unknown key(s) for engine {engine!r}: {', '.join(sorted(unknown))}"
        )

    # --- species and reference frequencies ---
    species_name = require("species").token()
    if species_name == "custom":
        wavelength = require("wavelength").scalar(_LENGTH_UNITS, "length")
        gamma = require("linewidth").scalar(_RATE_UNITS, "rate")
        base = AtomSpecies.from_wavelength(wavelength, gamma)
    else:
        try:
            base = AtomSpecies.named(species_name)
        except KeyError as exc:
            raise ConfigError(str(exc)) from None
    gamma_ref = base.linewidth
    lattice_det = require("lattice_detuning").scalar({"gamma": gamma_ref}, "detuning")
    omega0 = base.transition_frequency + lattice_det
    cell_size = TWO_PI * C / omega0

    def species_at(offset_key: str, gamma_key: str) -> AtomSpecies:
        offset = require(offset_key).scalar({"gamma": gamma_ref}, "detuning")
        entry = take(gamma_key)
        gamma_j = entry.scalar(_RATE_UNITS, "rate") if entry else gamma_ref
        return AtomSpecies.from_frequency(omega0 + offset, gamma_j)

    species_even = species_at("omega_even", "gamma_even")
    species_odd = species_at("omega_odd", "gamma_odd")

    length_units = dict(_LENGTH_UNITS, a=cell_size)
    length_units["lambda"] = cell_size

    # --- geometry ---
    rho_entry, rho_values_entry = take("rho"), take("rho_values")
    range_entries = tuple(take(k) for k in ("rho_min", "rho_max", "rho_points"))
    if any(range_entries) and not all(range_entries):
        raise ConfigError("give all three of rho_min/rho_max/rho_points or none")
    if sum(x is not None for x in (rho_entry, rho_values_entry, range_entries[0])) > 1:
        raise ConfigError("give only one of rho, rho_values, rho_min/rho_max/rho_points")
    rho_values = None
    if rho_values_entry is not None:
        rho_values = np.array(rho_values_entry.floats(length_units, "length"))
    elif range_entries[0] is not None:
        rho_values = np.linspace(
            range_entries[0].scalar(length_units, "length"),
            range_entries[1].scalar(length_units, "length"),
            range_entries[2].integer(),
        )
    if rho_entry is None and rho_values is None:
        raise ConfigError("missing required key 'rho' (or 'rho_values', or a rho range)")
    rho = rho_entry.scalar(length_units, "length") if rho_entry else float(rho_values[0])

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

    areal_entry = take("areal_density")
    if areal_entry is not None:
        areal_density = areal_entry.scalar(_AREAL_UNITS, "areal density")
    elif engine == "transmit":
        raise ConfigError("missing required key 'areal_density'")
    else:
        areal_density = 1.0   # inert: bands/gaps/cavity engines never consume n_s

    waist_entry = take("waist")
    if waist_entry is not None:
        waist = waist_entry.scalar(length_units, "length")
        mode_area = math.pi * waist**2 / 4.0
    elif engine in ("bands", "gaps"):
        raise ConfigError(f"missing required key 'waist' for engine {engine!r}")
    else:
        mode_area = 1.0       # inert: transfer-matrix/cavity engines never quantize

    try:
        lattice = LatticeConfig(
            cell_size=cell_size,
            intracell_distance=rho,
            cell_count=cell_count,
            areal_density=areal_density,
            species_even=species_even,
            species_odd=species_odd,
            mode_area=mode_area,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None

    workers_entry = take("workers")
    workers = workers_entry.integer() if workers_entry else 1
    if workers < 1:
        raise ConfigError("'workers' must be >= 1")

    spec_kwargs = dict(
        engine=engine,
        lattice=lattice,
        reference_frequency=omega0,
        reference_linewidth=gamma_ref,
        rho_values=rho_values,
        workers=workers,
    )

    if engine in ("bands", "gaps"):
        for key, attr in (("n_bz", "n_bz"), ("n_q", "n_q")):
            entry = take(key)
            if entry is not None:
                spec_kwargs[attr] = entry.integer()
        if engine == "bands":
            entry = take("q_max")
            if entry is not None:
                g0 = lattice.reciprocal_vector
                spec_kwargs["q_max"] = entry.scalar(
                    {"G0": g0, "rad/m": 1.0}, "quasi-momentum"
                )
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
        det_entry = take("cavity_detuning")
        cavity_det = det_entry.scalar({"gamma": gamma_ref}, "detuning") if det_entry else 0.0
        phase_entry, phases_entry = take("phase"), take("phase_values")
        if phase_entry is None and phases_entry is None:
            raise ConfigError("missing required key 'phase' (or 'phase_values')")
        phi_values = None
        if phases_entry is not None:
            phi_values = np.array(phases_entry.floats(_ANGLE_UNITS, "angle"))
        phase = phase_entry.scalar(_ANGLE_UNITS, "angle") if phase_entry else float(phi_values[0])
        finesse_entry = take("finesse")
        occupancy_entry = take("occupancy")
        pump_entry = take("pump")
        commensurate_entry = take("commensurate")
        try:
            cavity = CavityConfig(
                mode_frequency=omega0 + cavity_det,
                linewidth=require("kappa").scalar(_RATE_UNITS, "rate"),
                length=require("cavity_length").scalar(length_units, "length"),
                waist=require("cavity_waist").scalar(length_units, "length"),
                phase=phase,
                pump=pump_entry.scalar(_RATE_UNITS, "rate") if pump_entry else 1.0,
                plane_count=2 * cell_count,
                commensurate=commensurate_entry.boolean() if commensurate_entry else True,
                occupancy=occupancy_entry.scalar(None, "count") if occupancy_entry else 1.0,
                finesse=finesse_entry.scalar(None, "count") if finesse_entry else None,
            )
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        spec_kwargs["cavity"] = cavity
        spec_kwargs["phi_values"] = phi_values

    unused = [e.key for e in entries.values() if not e.used]
    if unused:
        raise ConfigError(
            f"key(s) not applicable to engine {engine!r}: {', '.join(sorted(unused))}"
        )
    try:
        spec = SweepSpec(**spec_kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return RunConfig(engine, spec, {k: e.value for k, e in entries.items()})


# ---------------------------------------------------------------------------
# table output


_BLOCK_ROWS = 512   # rows formatted per '%' call; bounds the transient strings
_NON_FINITE = {"nan": "null", "inf": "Infinity", "-inf": "-Infinity"}
_POSITIONAL_EXPONENTS = ("e+12", "e+13", "e+14", "e+15")


def _json_number(s: str) -> str:
    """JSON token of a ``%.12g`` string: json.dumps(float(s)), NaN as null.

    Most strings are their own token.  These are not: exponents 12 to 15,
    which repr writes positionally ('2.4149e+15' -> '2414900000000000.0');
    exponents -308 and below, where the subnormals are and repr can be
    shorter ('4.1000000002e-314' -> '4.1e-314'; every exponent starting
    with -3 takes that path); NaN and the infinities; and integer values
    ('3' -> '3.0').
    """
    if s[-4:] in _POSITIONAL_EXPONENTS:
        # an integer of at most 12 significant digits, exact as a double,
        # so its fixed-point form is its repr (and faster to produce)
        return "%.1f" % float(s)
    if "e-3" in s:
        return repr(float(s))
    if "n" in s:
        return _NON_FINITE[s]
    if "e" not in s and "." not in s:
        return s + ".0"
    return s


def _row_blocks(rows: list, ncol: int, sep: str):
    """Each block of rows as one string of its %.12g values, joined by ``sep``
    within a row and by newlines between rows."""
    row = sep.join(["%.12g"] * ncol)
    for start in range(0, len(rows), _BLOCK_ROWS):
        block = rows[start:start + _BLOCK_ROWS]
        yield "\n".join([row] * len(block)) % tuple(chain.from_iterable(block))


def _csv_payload(table: Table) -> str:
    blocks = [",".join(table.columns)]
    blocks += _row_blocks(table.rows, len(table.columns), ",")
    return "\n".join(blocks) + "\n"


def _json_payload(table: Table) -> str:
    """The bytes of json.dumps(indent=1) over the table with its values
    rounded to 12 digits, with the rows laid out here, a block at a time."""
    ncol = len(table.columns)
    row = "  [\n   " + ",\n   ".join(["%s"] * ncol) + "\n  ]"
    blocks = []
    for text in _row_blocks(table.rows, ncol, "\n"):
        # a fraction without exponent, or a negative exponent that does
        # not start with 3, is its own token
        tokens = [
            s if "." in s and "e" not in s or "e-" in s and "e-3" not in s
            else _json_number(s)
            for s in text.split("\n")
        ]
        blocks.append(",\n".join([row] * (len(tokens) // ncol)) % tuple(tokens))
    rows = "[\n" + ",\n".join(blocks) + "\n ]" if blocks else "[]"
    head = json.dumps({"columns": table.columns}, indent=1)[:-2]
    meta = json.dumps({"meta": _jsonable(table.meta)}, indent=1)[2:]
    return f'{head},\n "rows": {rows},\n{meta}\n'


def write_table(table: Table, destination, fmt: str = "csv") -> None:
    """Serialize a sweep table as CSV or JSON (12 significant digits).

    Rows are floats (see ``Table``) and are formatted a block of
    ``_BLOCK_ROWS`` rows at a time with one ``%.12g`` template; JSON tokens
    are derived from the same strings.  The bytes are those of formatting
    every value as ``f"{v:.12g}"`` (CSV) or of ``json.dumps(indent=1)`` over
    ``float(f"{v:.12g}")`` with NaN as null (JSON).

    ``destination`` is a path or '-' for stdout.  If the sweep recorded cell
    errors and the destination is a file, a sidecar ``<dest>.errors.log`` is
    written alongside.
    """
    if fmt not in ("csv", "json"):
        raise ValueError(f"unknown format {fmt!r}")
    payload = _csv_payload(table) if fmt == "csv" else _json_payload(table)
    errors = table.meta.get("errors") or []
    if destination in (None, "-"):
        sys.stdout.write(payload)
    else:
        path = Path(destination)
        try:
            path.write_text(payload, encoding="utf-8")
        except OSError as exc:
            raise OSError(f"cannot write table to {path}: {exc}") from exc
        if errors:
            log = "\n".join(json.dumps(_jsonable(e)) for e in errors) + "\n"
            Path(str(path) + ".errors.log").write_text(log, encoding="utf-8")


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, np.integer)):
        obj = obj.item()
    if isinstance(obj, float):
        if math.isnan(obj):
            return None   # JSON has no NaN; mirror CSV's 'nan' as null
        return float(f"{obj:.12g}")
    return obj


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


def _build_parser() -> argparse.ArgumentParser:
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
        p.add_argument("--workers", type=int, default=None,
                       help="override the config's worker count")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = parse_config(_load_config(args.config))
        if args.command != "scan" and args.command != cfg.engine:
            raise ConfigError(
                f"subcommand {args.command!r} does not match config engine "
                f"{cfg.engine!r}; use 'scan' to defer to the config"
            )
        spec = cfg.sweep
        if args.workers is not None:
            if args.workers < 1:
                raise ConfigError("'--workers' must be >= 1")
            import dataclasses

            spec = dataclasses.replace(spec, workers=args.workers)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    try:
        table = run_sweep(spec)
        write_table(table, args.out, args.format)
    except (RuntimeError, FloatingPointError, np.linalg.LinAlgError, OSError) as exc:
        print(f"numeric/runtime failure: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
