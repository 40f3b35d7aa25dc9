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
Every number must be finite.  ``_KEYS`` gives each key's unit kind and the
rule its value alone must meet; ``_parse`` checks the rules that tie keys
together.  A config holds only the keys its engine reads: an unknown key is
rejected before any value is read, and a known key that the engine does not
read is rejected after parsing.  An error names its key and line where one
key is at fault.  The reference chain: the named species fixes
(omega_atom, gamma); the lattice light sits at omega_0 = omega_atom +
lattice_detuning x gamma; the cell size is a = 2 pi c / omega_0; both
lattice species are placed relative to omega_0 via omega_even / omega_odd.

The lattice has one density, n_s atoms per unit area of each plane.  The
``bands``, ``gaps`` and ``transmit`` engines take exactly one of
``areal_density`` and ``waist`` (one atom per site over the mode area
pi w^2 / 4, so n_s = 4 / (pi w^2)); the ``cavity`` engine takes neither, and
its lattice carries the density its coupling implies, n_s = occupancy /
(pi w_c^2 / 4).  Its size, ``planes`` = 2M, is a key of the ``transmit``
and ``cavity`` engines only: the bands and gaps do not depend on M.

The command line has one subcommand, ``scan``; the config's ``engine`` key
alone names the engine it runs.

Output tables are CSV (header row with units in the column names, numbers at
12 significant digits) or JSON mirroring the same schema (indent 1, NaN as
null), written by ``tableio.write_table`` (see there for how).  Cell errors
go to a ``<out>.errors.log`` sidecar, or to stderr when the table goes to
stdout.  Transmit and cavity tables use exactly the columns (omega_p_rad_s,
detuning_gamma, T, R, A) resp. (omega_p_rad_s, detuning_gamma,
intensity_photons_per_s, intensity_norm) for single-geometry runs; grid
sweeps prepend the varied coordinates.

Exit codes: 0 success, 1 configuration or usage error, 2 numeric failure.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import math
import sys
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from .constants import C, TWO_PI
from .core import AtomSpecies, LatticeConfig, cavity_coupling
from .sweep import ENGINES, SweepSpec, run_sweep
from .tableio import write_table

BUNDLED_CONFIGS = (
    "fig2a", "fig2b", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10",
)


class ConfigError(Exception):
    """Malformed, incomplete or out-of-range run configuration."""


# ---------------------------------------------------------------------------
# low-level parsing

# the units of each unit kind, in SI; _parse adds gamma to the detunings,
# a and lambda to the lengths, and the quasi-momenta once it knows them
_UNITS = {
    "rate": {"rad/s": 1.0, "Hz": TWO_PI, "kHz": TWO_PI * 1e3,
             "MHz": TWO_PI * 1e6, "GHz": TWO_PI * 1e9},
    "length": {"m": 1.0, "mm": 1e-3, "um": 1e-6, "nm": 1e-9},
    "areal density": {"m^-2": 1.0, "um^-2": 1e12},
    "angle": {"rad": 1.0, "pi": math.pi, "deg": math.pi / 180.0},
}

# every key any engine reads: its unit kind, and the rule its value alone
# must meet.  A rule is "positive", ">= N", "in cell" (0 <= rho <= a) or
# "half zone" (0 < q <= G0/2).  Which keys a config may hold is decided by
# what _parse reads for its engine (the ``used`` marks); rules that tie keys
# together are checked there.
_KEYS = {
    "engine": ("token", None),
    "species": ("token", None),
    "wavelength": ("length", "positive"),
    "linewidth": ("rate", "positive"),
    "lattice_detuning": ("detuning", None),
    "omega_even": ("detuning", None),
    "omega_odd": ("detuning", None),
    "gamma_even": ("rate", "positive"),
    "gamma_odd": ("rate", "positive"),
    "rho": ("length", "in cell"),
    "rho_values": ("length", "in cell"),
    "rho_min": ("length", "in cell"),
    "rho_max": ("length", "in cell"),
    "rho_points": ("count", ">= 1"),
    "planes": ("count", ">= 2"),
    "areal_density": ("areal density", "positive"),
    "waist": ("length", "positive"),
    "n_bz": ("count", ">= 1"),
    "n_q": ("count", ">= 3"),
    "q_max": ("quasi-momentum", "half zone"),
    "window_min": ("detuning", None),
    "window_max": ("detuning", None),
    "cover_tol": ("detuning", ">= 0"),
    "min_band_width": ("detuning", ">= 0"),
    "probe_min": ("detuning", None),
    "probe_max": ("detuning", None),
    "probe_points": ("count", ">= 2"),
    "cavity_length": ("length", "positive"),
    "kappa": ("rate", "positive"),
    "cavity_waist": ("length", "positive"),
    "occupancy": ("number", "positive"),
    "pump": ("rate", "positive"),
    "phase": ("angle", None),
    "phase_values": ("angle", None),
    "commensurate": ("boolean", None),
    "cavity_detuning": ("detuning", None),
}


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


class _Entry:
    def __init__(self, lineno: int, key: str, value: str):
        self.lineno = lineno
        self.key = key
        self.value = value
        self.used = False

    def fail(self, message: str):
        raise ConfigError(f"line {self.lineno}: key {self.key!r}: {message}")

    def floats(self, unit_map: dict[str, float] | None, kind: str) -> list[float]:
        """'0, 0.2, 0.4 a' as numbers in SI: one trailing unit for them all."""
        parts = self.value.split(",")
        tail = parts[-1].split()
        if len(tail) not in (1, 2):
            self.fail(f"cannot parse quantity {self.value!r}")
        parts[-1] = tail[0]
        unit = tail[1] if len(tail) == 2 else None
        try:
            numbers = [float(p) for p in parts]
        except ValueError:
            self.fail(f"expected number(s), got {self.value!r}")
        if unit_map is None:   # a count or a plain number
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

    def read(self, units: dict[str, dict[str, float]]):
        """This entry's value, of its key's kind and meeting its key's rule
        (``_KEYS``), with ``units`` the unit map of each kind."""
        kind, rule = _KEYS[self.key]
        if kind == "token":
            return self.value
        if kind == "boolean":
            low = self.value.lower()
            if low not in ("true", "yes", "on", "1", "false", "no", "off", "0"):
                self.fail(f"expected a boolean, got {self.value!r}")
            return low in ("true", "yes", "on", "1")
        values = self.floats(units.get(kind), kind)
        many = self.key.endswith("_values")
        if not many and len(values) != 1:
            self.fail("expected a single value, got a list")
        if kind == "count" and values[0] != int(values[0]):
            self.fail(f"expected an integer, got {self.value!r}")
        ok, message = True, f"must be {rule}"   # "positive" and ">= N" say so
        if rule == "positive":
            ok = min(values) > 0
        elif rule == "in cell":
            ok = 0.0 <= min(values) and max(values) <= units["length"]["a"]
            message = "must satisfy 0 <= rho <= a"
        elif rule == "half zone":
            ok = 0 < values[0] <= units["quasi-momentum"]["G0"] / 2
            message = "must lie in (0, G0/2]"
        elif rule is not None:
            ok = min(values) >= float(rule.removeprefix(">= "))
        if not ok:
            self.fail(message)
        if many:
            return np.array(values)
        return int(values[0]) if kind == "count" else values[0]

    @contextlib.contextmanager
    def blamed(self):
        """Report a ValueError, ArithmeticError or MemoryError of the block
        as this key's."""
        try:
            yield
        except (ValueError, ArithmeticError, MemoryError) as exc:
            self.fail(f"{type(exc).__name__}: {exc}")

    def finite(self, value: float, what: str) -> float:
        """``value``, which this key's value gives, if it is finite."""
        if not math.isfinite(value):
            self.fail(f"gives {what} = {value}; it must be finite")
        return value


@dataclass(frozen=True)
class RunConfig:
    """Validated configuration: a fully resolved sweep spec."""

    sweep: SweepSpec


def parse_config(text: str) -> RunConfig:
    """Parse and validate key-value config text into a RunConfig.

    Errors carry the offending line number and key where one key is at
    fault, else the violated invariant.  A ValueError or ArithmeticError
    that no key's check caught is a ConfigError as well.
    """
    try:
        return _parse(text)
    except (ValueError, ArithmeticError) as exc:
        raise ConfigError(f"{type(exc).__name__}: {exc}") from None


def _parse(text: str) -> RunConfig:
    entries: dict[str, _Entry] = {}
    for lineno, key, value in _tokenize(text):
        if key in entries:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        entries[key] = _Entry(lineno, key, value)
    unknown = [k for k in entries if k not in _KEYS]
    if unknown:   # a typo is reported before any value is read
        raise ConfigError(f"unknown key(s): {', '.join(sorted(unknown))}")
    units = dict(_UNITS)

    def get(key: str, default=...):
        """The value of ``key`` (see ``_Entry.read``), or ``default`` if the
        config does not give it; a key without a default is required."""
        entry = entries.get(key)
        if entry is None:
            if default is ...:
                raise ConfigError(f"missing required key {key!r}")
            return default
        entry.used = True
        return entry.read(units)

    engine = get("engine")
    if engine not in ENGINES:
        raise ConfigError(f"unknown engine {engine!r}")

    # --- species and reference frequencies ---
    species = get("species")
    if species == "custom":
        wavelength, gamma = get("wavelength"), get("linewidth")
        with entries["wavelength"].blamed():
            base = AtomSpecies.from_wavelength(wavelength, gamma)
    else:
        try:
            base = AtomSpecies.named(species)
        except KeyError as exc:
            entries["species"].fail(exc.args[0])
    gamma_ref = base.linewidth
    units["detuning"] = {"gamma": gamma_ref}
    omega0 = base.transition_frequency + get("lattice_detuning")
    if omega0 <= 0:
        entries["lattice_detuning"].fail(
            f"puts the lattice light at omega_0 = {omega0:.6g} rad/s; it must be positive"
        )
    cell_size = TWO_PI * C / omega0
    units["length"] = {**units["length"], "a": cell_size, "lambda": cell_size}
    units["quasi-momentum"] = {"G0": TWO_PI / cell_size, "rad/m": 1.0}

    def species_at(offset_key: str, gamma_key: str) -> AtomSpecies:
        omega = omega0 + get(offset_key)
        gamma_j = get(gamma_key, gamma_ref)
        with entries[offset_key].blamed():
            return AtomSpecies(omega, gamma_j)

    species_even = species_at("omega_even", "gamma_even")
    species_odd = species_at("omega_odd", "gamma_odd")

    # --- geometry ---
    ranged = [k for k in ("rho_min", "rho_max", "rho_points") if k in entries]
    if 0 < len(ranged) < 3:
        raise ConfigError("give all three of rho_min/rho_max/rho_points or none")
    if sum(k in entries for k in ("rho", "rho_values", "rho_min")) > 1:
        raise ConfigError("give only one of rho, rho_values, rho_min/rho_max/rho_points")
    rho_values = get("rho_values", None)
    if ranged:
        with entries["rho_points"].blamed():
            rho_values = np.linspace(get("rho_min"), get("rho_max"), get("rho_points"))
    if rho_values is None and "rho" not in entries:
        raise ConfigError("missing required key 'rho' (or 'rho_values', or a rho range)")
    rho = get("rho") if rho_values is None else float(rho_values[0])

    # M shapes only the transmit and cavity spectra; the bands and gaps do
    # not depend on it, so their configs take no planes and any M serves
    cell_count = 100
    if engine in ("transmit", "cavity"):
        cell_count, odd = divmod(get("planes"), 2)
        if odd:
            entries["planes"].fail("must be even (two planes per cell)")

    spec_kwargs = dict(
        engine=engine,
        reference_frequency=omega0,
        reference_linewidth=gamma_ref,
        rho_values=rho_values,
    )

    if engine in ("transmit", "cavity"):
        pmin, pmax = get("probe_min"), get("probe_max")
        if pmax <= pmin:
            entries["probe_max"].fail("must exceed probe_min")
        npts = get("probe_points")
        # the line each engine detunes from; transmit's is the paper-figure axis
        anchor, line = ((species_even.transition_frequency, "the even-species transition")
                        if engine == "transmit" else (omega0, "the lattice light omega_0"))
        if not pmax < anchor:
            entries["probe_max"].fail(f"must keep every probe frequency below "
                                      f"{2 * anchor:.6g} rad/s (twice the line it detunes from)")
        if not anchor + pmin > 0:
            entries["probe_min"].fail(f"must keep every probe frequency above 0 rad/s "
                                      f"(probe_min > {-anchor:.6g} rad/s, minus {line})")
        with entries["probe_points"].blamed():
            grid = anchor + np.linspace(pmin, pmax, npts)
        if not np.all(grid[1:] > grid[:-1]):
            entries["probe_max"].fail(f"must give {npts} distinct probe frequencies "
                                      f"at float resolution around {anchor:.6g} rad/s")
        spec_kwargs["probe_grid"] = grid

    if engine == "cavity":
        from .cavity import CavityConfig
        cavity_det = get("cavity_detuning", 0.0)
        if not abs(cavity_det) < omega0:
            entries["cavity_detuning"].fail(
                f"must satisfy |cavity_detuning| < omega_0 = {omega0:.6g} rad/s")
        if ("phase" in entries) == ("phase_values" in entries):
            raise ConfigError("give exactly one of 'phase' and 'phase_values'")
        phi_values = np.array([get("phase")]) if "phase" in entries else get("phase_values")
        cavity = CavityConfig(
            mode_frequency=omega0 + cavity_det,
            linewidth=get("kappa"),
            length=get("cavity_length"),
            waist=get("cavity_waist"),
            # intensity_norm divides by the empty-cavity peak 2 pump^2 / kappa
            pump=get("pump", 1.0),
            cell_count=cell_count,
            commensurate=get("commensurate", True),
            occupancy=get("occupancy", 1.0),
        )
        spec_kwargs.update(cavity=cavity, phi_values=phi_values)

    # --- the one lattice density n_s [m^-2] ---
    if engine == "cavity":
        # the density the cavity coupling implies: n-bar atoms per site over
        # the mode area pi w_c^2 / 4; the waist is at fault if one atom per
        # mode area is not finite, else the occupancy
        density_entry = entries["cavity_waist"]
        with density_entry.blamed():
            mode_area = math.pi * cavity.waist**2 / 4.0
            density_entry.finite(1.0 / mode_area, "one atom per mode area")
        density_entry = entries.get("occupancy") or density_entry
        areal_density = cavity.occupancy / mode_area
    else:
        if ("areal_density" in entries) == ("waist" in entries):
            raise ConfigError(
                f"give exactly one of 'areal_density' and 'waist' for engine {engine!r}"
            )
        density_entry = entries.get("areal_density") or entries["waist"]
        areal_density = get("areal_density", None)
        if areal_density is None:
            waist = get("waist")
            with density_entry.blamed():
                # one atom per site over the mode area pi w^2 / 4
                areal_density = 4.0 / (math.pi * waist**2)

    with density_entry.blamed():   # a waist far below 1 nm gives n_s = inf
        lattice = LatticeConfig(
            cell_size=cell_size,
            intracell_distance=rho,
            cell_count=cell_count,
            areal_density=areal_density,
            species_even=species_even,
            species_odd=species_odd,
        )
    spec_kwargs["lattice"] = lattice

    if engine == "cavity":
        # every intensity takes each species' collective rate M n-bar g^2
        g = max(cavity_coupling(sp, cavity) for sp in (species_even, species_odd))
        entries["cavity_length"].finite(g * g, "a squared single-atom coupling g^2")
        (entries.get("occupancy") or entries["planes"]).finite(
            cavity.cell_count * cavity.occupancy * g * g, "a collective rate M n g^2"
        )

    if engine in ("bands", "gaps"):
        n_bz = get("n_bz", SweepSpec.n_bz)
        spec_kwargs.update(n_bz=n_bz, n_q=get("n_q", SweepSpec.n_q))
        if engine == "bands":
            spec_kwargs["q_max"] = get("q_max", None)
        else:
            if ("window_min" in entries) != ("window_max" in entries):
                raise ConfigError("give both or neither of window_min/window_max")
            if "window_min" in entries:
                low, high = get("window_min"), get("window_max")
                if not omega0 + low < omega0 + high:
                    entries["window_max"].fail("must exceed window_min at float "
                                               f"resolution around omega_0 = {omega0:.6g} rad/s")
                # the photon basis holds modes up to about (n_bz + 1/2) omega_0
                if not omega0 + low > 0:
                    entries["window_min"].fail("must put the window above 0 rad/s")
                if not omega0 + high <= n_bz * omega0:
                    entries["window_max"].fail("must keep the window at or below "
                                               f"n_bz omega_0 = {n_bz * omega0:.6g} rad/s")
                spec_kwargs["window"] = (omega0 + low, omega0 + high)
            spec_kwargs.update(cover_tol=get("cover_tol", SweepSpec.cover_tol),
                               min_band_width=get("min_band_width", SweepSpec.min_band_width))

    unused = [e.key for e in entries.values() if not e.used]
    if unused:
        raise ConfigError(
            f"unknown key(s) for this {engine!r} config: {', '.join(sorted(unused))}"
        )
    return RunConfig(SweepSpec(**spec_kwargs))


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
        try:
            return path.read_text(encoding="utf-8-sig")
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config file {arg!r}: {exc}") from None
    if arg.replace(".cfg", "") in BUNDLED_CONFIGS:
        return bundled_config_text(arg)
    raise ConfigError(f"config file {arg!r} not found")


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1, a configuration error's code (subparsers inherit the class)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process (parsing leaves it unchanged)."""
    parser = _Parser(
        prog="bilattice",
        description="Photonic spectra of one-dimensional biperiodic atomic lattices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("scan", help="run the engine the config selects")
    p.add_argument("--config", required=True,
                   help="config file path or bundled name (fig2a ... fig10)")
    p.add_argument("--out", default="-", help="output file ('-' = stdout)")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = parse_config(_load_config(args.config))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    try:
        table = run_sweep(cfg.sweep)
        write_table(table, args.out, args.format)
    except (RuntimeError, FloatingPointError, np.linalg.LinAlgError, OSError, MemoryError,
            Warning) as exc:
        print(f"numeric/runtime failure: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
