"""Config parsing, table serialization, CLI surface."""

from __future__ import annotations

import json
import math
import os
import stat
import struct
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from bilattice import cli_io, sweep, tableio, transfer_matrix
from bilattice.cli_io import (
    BUNDLED_CONFIGS,
    ConfigError,
    RunConfig,
    bundled_config_text,
    main,
    parse_config,
    write_table,
)
from bilattice.constants import C, TWO_PI
from bilattice.core import cavity_coupling
from bilattice.sweep import Cell, Table, run_sweep
from bilattice.tableio import _jsonable

from conftest import GAMMA
from oracles import read_table

MINIMAL_TRANSMIT = """\
engine = transmit
species = rb85_d2
lattice_detuning = 10 gamma
omega_even = -10 gamma
omega_odd = -10 gamma
rho = 0 a
planes = 1000
areal_density = 5.7e-2 um^-2
probe_min = -50 gamma
probe_max = 50 gamma
probe_points = 11
"""


def test_minimal_monoperiodic_config_valid():
    cfg = parse_config(MINIMAL_TRANSMIT)
    assert cfg.sweep.engine == "transmit"
    lat = cfg.sweep.lattice
    assert lat.intracell_distance == 0.0
    assert lat.cell_count == 500
    assert lat.areal_density == pytest.approx(5.7e10)
    # a = 2 pi c / (omega_atom + 10 gamma)
    omega_atom = TWO_PI * C / 780e-9
    assert lat.cell_size == pytest.approx(TWO_PI * C / (omega_atom + 10 * GAMMA))
    # probe grid anchored at the even-species transition
    w1 = lat.species_even.transition_frequency
    assert cfg.sweep.probe_grid[0] == pytest.approx(w1 - 50 * GAMMA)
    assert cfg.sweep.probe_grid[-1] == pytest.approx(w1 + 50 * GAMMA)


def test_rho_resolves_in_cell_units():
    text = MINIMAL_TRANSMIT.replace("rho = 0 a", "rho = 0.2 a")
    cfg = parse_config(text)
    lat = cfg.sweep.lattice
    assert lat.intracell_distance == pytest.approx(0.2 * lat.cell_size)


def test_unknown_key_rejected():
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config(MINIMAL_TRANSMIT + "frobnicate = 7\n")


def test_key_from_other_engine_rejected():
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config(MINIMAL_TRANSMIT + "kappa = 21 kHz\n")


def test_missing_key_reported_by_name():
    text = MINIMAL_TRANSMIT.replace("areal_density = 5.7e-2 um^-2\n", "")
    with pytest.raises(ConfigError, match="areal_density"):
        parse_config(text)


def test_unit_error_names_key_and_line():
    text = MINIMAL_TRANSMIT.replace("rho = 0 a", "rho = 3 parsec")
    with pytest.raises(ConfigError, match=r"line 6.*rho.*unknown length unit"):
        parse_config(text)


def test_missing_unit_rejected():
    text = MINIMAL_TRANSMIT.replace("probe_min = -50 gamma", "probe_min = -50")
    with pytest.raises(ConfigError, match="missing detuning unit"):
        parse_config(text)


def test_parse_error_carries_line_number():
    with pytest.raises(ConfigError, match="line 2"):
        parse_config("engine = transmit\nwat\n")


def test_range_violation_names_invariant():
    text = MINIMAL_TRANSMIT.replace("rho = 0 a", "rho = 1.5 a")
    with pytest.raises(ConfigError, match="0 <= rho <= a"):
        parse_config(text)


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config(MINIMAL_TRANSMIT + "rho = 0.1 a\n")


def test_rate_units_carry_two_pi():
    text = MINIMAL_TRANSMIT.replace(
        "species = rb85_d2",
        "species = custom\nwavelength = 780 nm\nlinewidth = 6 MHz",
    )
    cfg = parse_config(text)
    assert cfg.sweep.reference_linewidth == pytest.approx(TWO_PI * 6e6)


def test_every_bundled_config_parses():
    for name in BUNDLED_CONFIGS:
        cfg = parse_config(bundled_config_text(name))
        assert cfg.sweep.engine in ("bands", "gaps", "transmit", "cavity")


def test_unknown_bundled_config_lists_the_bundled_names():
    with pytest.raises(ConfigError, match="unknown bundled config 'fig11'") as info:
        bundled_config_text("fig11")
    assert f"(have: {', '.join(BUNDLED_CONFIGS)})" in str(info.value)


def test_readme_key_table_is_the_parser_table():
    # README "Config files": one row per key, | `key` | unit kind | rule |
    lines = (Path(__file__).resolve().parents[1] / "README.md").read_text().splitlines()
    start = lines.index("| key | unit kind | rule |") + 2
    rows = []
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        rows.append([cell.strip() for cell in line.strip("|").split("|")])
    table = [(key.strip("`"), (kind, rule.strip("`") or None)) for key, kind, rule in rows]
    assert table == list(cli_io._KEYS.items())


def test_bundled_fig6_reproduces_published_setup():
    cfg = parse_config(bundled_config_text("fig6"))
    lat = cfg.sweep.lattice
    assert cfg.sweep.engine == "transmit"
    assert lat.cell_count == 500_000
    assert lat.intracell_distance == 0.0
    assert lat.areal_density == pytest.approx(5.7e10)


# ---------------------------------------------------------------------------
# the one lattice density n_s


def test_waist_maps_to_one_atom_per_mode_area():
    lat = parse_config(bundled_config_text("fig2b")).sweep.lattice
    mode_area = math.pi * (5e-6) ** 2 / 4.0
    assert lat.areal_density == pytest.approx(1.0 / mode_area, rel=1e-12)
    assert lat.quantization_volume == pytest.approx(
        mode_area * lat.cell_count * lat.cell_size, rel=1e-12
    )
    text = MINIMAL_TRANSMIT.replace("areal_density = 5.7e-2 um^-2", "waist = 5 um")
    assert parse_config(text).sweep.lattice.areal_density == lat.areal_density


@pytest.mark.parametrize(
    "text",
    [
        MINIMAL_TRANSMIT + "waist = 5 um\n",
        bundled_config_text("fig2a") + "areal_density = 5.7e-2 um^-2\n",
        bundled_config_text("fig4").replace("waist = 5 um\n", ""),
    ],
    ids=["transmit_both", "bands_both", "gaps_neither"],
)
def test_density_needs_exactly_one_of_areal_density_and_waist(text):
    with pytest.raises(ConfigError, match="exactly one of 'areal_density' and 'waist'"):
        parse_config(text)


@pytest.mark.parametrize("waist", ["0 um", "-5 um"])
def test_waist_must_be_positive(waist):
    text = bundled_config_text("fig2b").replace("waist = 5 um", f"waist = {waist}")
    with pytest.raises(ConfigError, match="line 8: key 'waist': must be positive"):
        parse_config(text)


def test_cavity_lattice_carries_the_density_of_its_coupling():
    # n-bar g^2 = sigma gamma FSR n_s / (4 pi) with FSR = 2 pi c / L
    spec = parse_config(bundled_config_text("fig9")).sweep
    cav, lat = spec.cavity, spec.lattice
    sp = lat.species_even
    fsr = TWO_PI * C / cav.length
    assert cav.occupancy * cavity_coupling(sp, cav) ** 2 == pytest.approx(
        sp.cross_section * sp.linewidth * fsr * lat.areal_density / (4.0 * math.pi),
        rel=1e-12,
    )


def test_bundled_fig9_cavity_setup():
    cfg = parse_config(bundled_config_text("fig9"))
    cav = cfg.sweep.cavity
    assert cav.length == pytest.approx(85e-3)
    assert cav.linewidth == pytest.approx(TWO_PI * 21e3)
    assert cav.waist == pytest.approx(130e-6)
    assert cav.occupancy == 3000
    assert list(cfg.sweep.phi_values) == pytest.approx([math.pi / 2])
    assert cav.cell_count == 100


# ---------------------------------------------------------------------------
# tables


def test_empty_table_writes_header_only(tmp_path):
    out = tmp_path / "t.csv"
    write_table(Table(["a", "b"], []), out)
    assert out.read_text() == "a,b\n"


def test_spectrum_schema_contract(tmp_path):
    cfg = parse_config(MINIMAL_TRANSMIT)
    table = run_sweep(cfg.sweep)
    assert table.columns == ["omega_p_rad_s", "detuning_gamma", "T", "R", "A"]


def test_csv_round_trip_12_digits(tmp_path):
    rows = [(1.0 / 3.0, 2.4149e15, -1.23456789012e-7), (math.pi, 1e-300, 0.0)]
    table = Table(["x", "y", "z"], rows)
    path = tmp_path / "t.csv"
    write_table(table, path, "csv")
    back = read_table(path)
    for row, ref in zip(back.rows, rows):
        for v, r in zip(row, ref):
            assert v == pytest.approx(r, rel=1e-11, abs=1e-305)


def test_json_mirrors_csv_schema(tmp_path):
    cfg = parse_config(MINIMAL_TRANSMIT)
    table = run_sweep(cfg.sweep)
    p_csv, p_json = tmp_path / "t.csv", tmp_path / "t.json"
    write_table(table, p_csv, "csv")
    write_table(table, p_json, "json")
    csv_back = read_table(p_csv)
    json_back = read_table(p_json)
    assert csv_back.columns == json_back.columns == table.columns
    for a, b in zip(csv_back.rows, json_back.rows):
        assert a == pytest.approx(b, rel=1e-11)


def test_nan_rows_round_trip_and_sidecar_log(tmp_path):
    table = Table(["x", "y"], [(1.0, float("nan"))], {"errors": [{"x": 1.0, "error": "boom"}]})
    path = tmp_path / "bad.json"
    write_table(table, path, "json")
    back = read_table(path)
    assert math.isnan(back.rows[0][1])
    log = tmp_path / "bad.json.errors.log"
    assert log.exists() and "boom" in log.read_text()


def test_numpy_meta_values_are_written_as_json(tmp_path):
    # an array becomes a list of rounded floats, a numpy scalar its Python value
    meta = {"grid": np.array([1.0, 2.0]), "count": np.int64(3), "third": np.float64(1.0 / 3.0)}
    path = tmp_path / "t.json"
    write_table(Table(["x"], [(1.0,)], meta), path, "json")
    back = read_table(path).meta
    assert back == {"grid": [1.0, 2.0], "count": 3, "third": 0.333333333333}
    assert type(back["count"]) is int


def test_clean_rewrite_removes_stale_sidecar(tmp_path):
    path = tmp_path / "t.csv"
    log = tmp_path / "t.csv.errors.log"
    write_table(Table(["x"], [(math.nan,)], {"errors": [{"error": "boom"}]}), path)
    assert log.exists()
    write_table(Table(["x"], [(1.0,)]), path)
    assert path.read_text() == "x\n1\n"
    assert not log.exists()



# Destinations.  Every path lies under tmp_path: the writer truncates
# whatever file it is pointed at.

OLD_TABLE, NEW_TABLE = Table(["x"], [(1.0,)]), Table(["x"], [(2.0,)])
OLD_BYTES, NEW_BYTES = b"x\n1\n", b"x\n2\n"
AS_ROOT = hasattr(os, "geteuid") and os.geteuid() == 0


def replaced(handle) -> bool:
    """Whether the file under an open handle has lost its last name."""
    return os.fstat(handle.fileno()).st_nlink == 0


def failed(value, msg) -> Table:
    """A one-row table whose run logged one error, so it has a sidecar."""
    return Table(["x"], [(value,)], {"errors": [{"error": msg}]})


def test_existing_output_is_rewritten_in_place(tmp_path):
    path = tmp_path / "t.csv"
    write_table(OLD_TABLE, path)
    with path.open("rb") as before:
        write_table(NEW_TABLE, path)
        assert before.read() == NEW_BYTES
        assert not replaced(before)
    assert path.stat().st_nlink == 1


@pytest.mark.parametrize("mode", [0o640, 0o604, 0o755], ids=oct)
def test_replaced_output_keeps_its_permission_bits(tmp_path, mode):
    path = tmp_path / "t.csv"
    log = tmp_path / "t.csv.errors.log"
    write_table(failed(1.0, "boom"), path)
    for output in (path, log):
        output.chmod(mode)
    write_table(failed(2.0, "bang"), path)
    for output in (path, log):
        assert stat.S_IMODE(output.stat().st_mode) == mode
    assert path.read_bytes() == NEW_BYTES


def test_stale_sidecar_follows_the_same_rule(tmp_path):
    path = tmp_path / "t.csv"
    log = tmp_path / "t.csv.errors.log"
    write_table(failed(1.0, "boom"), path)
    with log.open("rb") as before:
        write_table(failed(2.0, "bang"), path)
        assert json.loads(before.read()) == {"error": "bang"}
        assert not replaced(before)
    assert log.stat().st_nlink == 1
    # a symlinked sidecar is rewritten through the link
    target = tmp_path / "kept.log"
    log.rename(target)
    log.symlink_to(target)
    write_table(failed(2.0, "crash"), path)
    assert log.is_symlink() and json.loads(target.read_text()) == {"error": "crash"}


def foreign_gid() -> int:
    """A group id that this process is not a member of."""
    mine = {os.getegid(), *os.getgroups()}
    return next(g for g in range(1, 65535) if g not in mine)


@pytest.mark.skipif(not AS_ROOT, reason="only root can give a file away")
@pytest.mark.parametrize("foreign", ["user", "group"])
def test_foreign_output_is_rewritten_in_place(tmp_path, foreign):
    path = tmp_path / "t.csv"
    write_table(OLD_TABLE, path)
    if foreign == "user":
        os.chown(path, 65534, -1)
    else:
        os.chown(path, -1, foreign_gid())
    owner = path.stat().st_uid, path.stat().st_gid
    with path.open("rb") as before:
        write_table(NEW_TABLE, path)
        assert not replaced(before)
        assert before.read() == NEW_BYTES
    assert (path.stat().st_uid, path.stat().st_gid) == owner


def test_symlinked_output_stays_a_symlink(tmp_path):
    target, link = tmp_path / "target.csv", tmp_path / "link.csv"
    write_table(OLD_TABLE, target)
    link.symlink_to(target)
    write_table(NEW_TABLE, link)
    assert link.is_symlink() and os.readlink(link) == str(target)
    assert target.read_bytes() == NEW_BYTES


def test_hard_linked_output_is_rewritten_under_both_names(tmp_path):
    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    write_table(OLD_TABLE, first)
    os.link(first, second)
    write_table(NEW_TABLE, first)
    assert first.read_bytes() == second.read_bytes() == NEW_BYTES
    assert first.stat().st_nlink == 2


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no FIFOs")
def test_fifo_output_stays_a_fifo(tmp_path):
    fifo = tmp_path / "t.fifo"
    os.mkfifo(fifo)
    got = []
    reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()), daemon=True)
    reader.start()
    write_table(NEW_TABLE, fifo)
    reader.join(timeout=30)
    assert not reader.is_alive()
    assert got == [NEW_BYTES]
    assert stat.S_ISFIFO(os.lstat(fifo).st_mode)


@pytest.mark.skipif(AS_ROOT, reason="root writes past the mode bits")
def test_read_only_output_still_fails_with_exit_2(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(MINIMAL_TRANSMIT)
    out = tmp_path / "out.csv"
    out.write_bytes(OLD_BYTES)
    out.chmod(0o444)
    assert run_cli(["scan", "--config", str(cfg), "--out", str(out)]) == 2
    assert "cannot write table" in capsys.readouterr().err
    assert out.read_bytes() == OLD_BYTES


@pytest.mark.skipif(AS_ROOT, reason="root removes past the mode bits")
def test_output_in_a_directory_that_refuses_removal_is_overwritten(tmp_path):
    folder = tmp_path / "locked"
    folder.mkdir()
    path = folder / "t.csv"
    write_table(OLD_TABLE, path)
    folder.chmod(0o555)
    try:
        with path.open("rb") as before:
            write_table(NEW_TABLE, path)
            assert not replaced(before)
            assert before.read() == NEW_BYTES
    finally:
        folder.chmod(0o755)


def test_cli_errors_go_to_stderr_with_stdout_output(tmp_path, capsys, monkeypatch):
    # the second of two rho cells fails (injected): its 11 rows are NaN on
    # stdout, its one error entry goes to stderr, and the run still exits 0
    original = transfer_matrix.spectrum_scan

    def failing_above_rho_0(cfg, probe_grid):
        if cfg.intracell_distance > 0.0:
            raise RuntimeError("injected")
        return original(cfg, probe_grid)

    monkeypatch.setattr(transfer_matrix, "spectrum_scan", failing_above_rho_0)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(MINIMAL_TRANSMIT.replace("rho = 0 a", "rho_values = 0, 0.2 a"))
    assert run_cli(["scan", "--config", str(cfg)]) == 0
    captured = capsys.readouterr()
    rows = captured.out.splitlines()[1:]
    assert [ln.endswith(",nan,nan,nan") for ln in rows] == [False] * 11 + [True] * 11
    errors = [json.loads(ln) for ln in captured.err.splitlines()]
    assert [e["error"] for e in errors] == ["RuntimeError: injected"]
    assert not list(tmp_path.glob("*.errors.log"))


# The per-value rules the block writer must reproduce byte for byte.


def oracle_csv(table: Table) -> str:
    lines = [",".join(table.columns)]
    lines += [",".join(f"{v:.12g}" for v in row) for row in table.rows]
    return "\n".join(lines) + "\n"


def oracle_json(table: Table) -> str:
    def round12(v):
        return None if math.isnan(v) else float(f"{v:.12g}")

    doc = {
        "columns": table.columns,
        "rows": [[round12(v) for v in row] for row in table.rows],
        "meta": _jsonable(table.meta),
    }
    return json.dumps(doc, indent=1) + "\n"


EDGE_VALUES = [
    math.nan, math.inf, -math.inf, -0.0, 0.0, 3.0, -7.0,
    # exponents 11 to 16; 999999999999.6 rounds up to 1e+12
    1e11, 123456789012.0, 999999999999.6, 1.5e12, 3.3e13, 4.4e14, 2.4149e15,
    1.23456789012345e15, -9.87654321098765e15, 1e16, 7.25e16,
    1e300, 1.7976931348623157e308, 1e-05, -1.23e-5, 0.1, 1 / 3, -1.5e-7, -2.5e-35,
    # exponent -300, the smallest normal double, two subnormals
    1e-300, 2.2250738585072014e-308, 4.1e-314, 5e-324,
    np.float64(1 / 3), np.float64(2.4149e15), np.float64(-0.0), np.float64(4.1e-314),
]


def edge_table(n_rows: int = 1100) -> Table:
    # every value in every column, over more than one 1024-row block
    n = len(EDGE_VALUES)
    rows = [tuple(EDGE_VALUES[(i + j) % n] for j in range(3)) for i in range(n_rows)]
    return Table(["x", "y", "z"], rows, {"engine": "test", "grid": [0.5, math.nan]})


def zero_row_cell_table() -> Table:
    axis = np.array([1.5, -2.0, 3e-7])
    cells = [Cell((0.25,), (axis, axis[::-1])), Cell((0.5,), (axis[:0], axis[:0])),
             Cell((0.75,), (axis, -axis))]
    return Table(["p", "x", "y"], meta={"engine": "test"}, cells=cells)


def chunk_edge_tables() -> list[Table]:
    # the writer renders the distinct parts as one vector, 4096 values per
    # call; here parts end one before, on and one after a chunk edge (4095,
    # 8192, 12289), start on one, span one, and a column is shared by two
    # cells; then 4100 one-value prefixes run across the edge at 4096
    rng = np.random.default_rng(15)
    spread = rng.choice([-1.0, 1.0], 500) * 10.0 ** rng.uniform(-40, 40, 500)
    pool = np.concatenate([EDGE_VALUES, spread])

    def column(n):
        return np.roll(np.resize(pool, n), int(rng.integers(len(pool))))

    shared = column(4095)
    pairs = [(shared, column(4095)), (column(1), column(1)), (column(4097), column(4097)),
             (column(0), column(0)), (column(4096), column(4096)), (column(4095), shared)]
    cells = [Cell((), pair) for pair in pairs]
    one = column(1)
    prefixes = [Cell((v,), (one,)) for v in column(4100).tolist()]
    return [Table(["x", "y"], meta={"engine": "test"}, cells=cells),
            Table(["p", "x"], meta={"engine": "test"}, cells=prefixes)]


@pytest.mark.parametrize("fmt, oracle", [("csv", oracle_csv), ("json", oracle_json)])
def test_block_writer_matches_per_value_rules_on_edge_values(tmp_path, fmt, oracle):
    for table in (
        edge_table(), edge_table(5), edge_table(1), Table(["x", "y"], []),
        Table(["x", "y"], meta={"engine": "test"}, cells=[]), zero_row_cell_table(),
        *chunk_edge_tables(),
    ):
        path = tmp_path / f"t.{fmt}"
        write_table(table, path, fmt)
        assert path.read_bytes() == oracle(table).encode("utf-8")


@pytest.mark.parametrize("fmt, oracle", [("csv", oracle_csv), ("json", oracle_json)])
def test_block_writer_matches_per_value_rules_at_block_edges(tmp_path, fmt, oracle):
    # rows one before, on and one after the edges of the 1024-row blocks (the
    # JSON layout drops the lead of the first block's first row only), and a
    # cell shorter than one block after a cell longer than one
    assert tableio._BLOCK_ROWS == 1024
    axis = np.resize(np.array(EDGE_VALUES), 1500)
    cells = [Cell((0.5,), (axis, axis[::-1])), Cell((-0.0,), (axis[:7], axis[7:14]))]
    for table in (
        *(edge_table(n) for n in (1023, 1024, 1025, 2048, 2049)),
        Table(["p", "x", "y"], meta={"engine": "test"}, cells=cells),
    ):
        path = tmp_path / f"t.{fmt}"
        write_table(table, path, fmt)   # before .rows turns the cells into rows
        assert path.read_bytes() == oracle(table).encode("utf-8")


def edge_cell_table() -> Table:
    # edge values in the prefixes, two axes every cell shares (an array and
    # a list of mixed float types), an empty cell and a failed (NaN-body) cell
    axis = np.array(EDGE_VALUES)
    listed = EDGE_VALUES[::-1]
    prefixes = [
        (math.nan, -0.0), (2.4149e15, 4.1e-314), (np.float64(1 / 3), 5e-324),
        (-math.inf, 999999999999.6), (3.0, np.float64(-0.0)),
    ]
    cells = [
        Cell(prefix, (axis, np.roll(axis, k + 1), listed))
        for k, prefix in enumerate(prefixes)
    ]
    cells.insert(2, Cell((0.5, 0.5), (axis[:0], axis[:0], axis[:0])))
    nan = np.full(axis.shape, math.nan)
    cells.append(Cell((1e-300, 1.23456789012345e15), (axis, nan, nan)))
    meta = {"engine": "test", "errors": [{"x": 1e-300, "error": "boom"}]}
    return Table(["p", "q", "x", "y", "z"], meta=meta, cells=cells)


@pytest.mark.parametrize("fmt, oracle", [("csv", oracle_csv), ("json", oracle_json)])
def test_block_writer_matches_per_value_rules_on_cells(tmp_path, fmt, oracle):
    table = edge_cell_table()
    path = tmp_path / f"t.{fmt}"
    write_table(table, path, fmt)   # before .rows turns the cells into rows
    assert len(table.rows) == 6 * len(EDGE_VALUES)
    assert path.read_bytes() == oracle(table).encode("utf-8")


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_misshapen_tables_are_refused(tmp_path, fmt):
    axis = np.arange(3.0)
    for table in (
        Table(["x", "y"], [(1.0, 2.0), (3.0,)]),                # ragged rows
        Table(["x", "y"], [(1.0, 2.0, 3.0)]),                   # a row too wide
        Table(["x", "y"], cells=[Cell((1.0,), (axis, axis))]),  # a cell too wide
        Table(["x", "y"], cells=[Cell((), (axis, axis[:2]))]),  # unequal columns
    ):
        with pytest.raises(ValueError):
            write_table(table, tmp_path / f"t.{fmt}", fmt)


def test_unknown_format_is_refused(tmp_path):
    path = tmp_path / "t.xml"
    with pytest.raises(ValueError, match="^unknown format 'xml'$"):
        write_table(Table(["x"], [(1.0,)]), path, "xml")
    assert not path.exists()


@pytest.mark.parametrize(
    "name, fmt, oracle",
    [
        ("fig2b", "csv", oracle_csv),
        ("fig2b", "json", oracle_json),
        ("fig8", "csv", oracle_csv),
        ("fig9", "json", oracle_json),
        ("fig10", "csv", oracle_csv),
        ("fig7", "json", oracle_json),
    ],
)
def test_block_writer_matches_per_value_rules_on_bundled_tables(tmp_path, name, fmt, oracle):
    table = run_sweep(parse_config(bundled_config_text(name)).sweep)
    path = tmp_path / f"{name}.{fmt}"
    write_table(table, path, fmt)
    assert path.read_bytes() == oracle(table).encode("utf-8")


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_each_distinct_column_is_formatted_once(tmp_path, monkeypatch, fmt):
    # fig9: 3 rho cells of 4801 rows; omega_p and detuning are shared, and
    # the prefixes (rho/a, phi) are formatted value by value
    table = run_sweep(parse_config(bundled_config_text("fig9")).sweep)
    formatted = []
    original = tableio._token_slots
    monkeypatch.setattr(
        tableio, "_token_slots", lambda v, kind: formatted.append(len(v)) or original(v, kind)
    )
    write_table(table, tmp_path / f"t.{fmt}", fmt)
    assert sum(formatted) == 2 * 4801 + 3 * 2 * 4801 < len(table.rows) * 6
    # a few thousand values per numpy pass
    assert max(formatted) <= 4096 and len(formatted) <= 10


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_edits_through_rows_reach_the_written_bytes(tmp_path, fmt):
    table = run_sweep(parse_config(bundled_config_text("fig9")).sweep)
    path = tmp_path / f"t.{fmt}"
    write_table(table, path, fmt)
    written = path.read_bytes()
    # reading rows keeps the bytes
    rows = table.rows
    write_table(table, path, fmt)
    assert path.read_bytes() == written
    # item assignment
    rows[1] = rows[1][:-1] + (0.125,)
    write_table(table, path, fmt)
    edited = path.read_bytes()
    assert edited != written
    assert edited == (oracle_csv if fmt == "csv" else oracle_json)(table).encode("utf-8")
    # assignment
    table.rows = [row[:2] + (-1.0,) * 4 for row in table.rows[:3]]
    write_table(table, path, fmt)
    back = read_table(path)
    assert len(back.rows) == 3 and all(row[2:] == (-1.0,) * 4 for row in back.rows)


doubles = st.one_of(st.floats(), st.floats(-1e-300, 1e-300), st.floats(-1e17, 1e17))


@settings(max_examples=60, deadline=None)
@given(
    rows=st.lists(st.tuples(doubles, doubles), min_size=1, max_size=30),
    fmt=st.sampled_from(["csv", "json"]),
)
def test_round_trip_returns_12_digit_values(tmp_path_factory, rows, fmt):
    path = tmp_path_factory.mktemp("round_trip") / f"t.{fmt}"
    write_table(Table(["a", "b"], rows), path, fmt)
    back = read_table(path)
    # repr tells -0.0 from 0.0 and compares NaN equal to itself
    expected = [[repr(float(f"{v:.12g}")) for v in row] for row in rows]
    assert [[repr(v) for v in row] for row in back.rows] == expected


# The renderer against the per-value rules, token by token.


def oracle_token(v: float, json_tokens: bool) -> str:
    if not json_tokens:
        return f"{v:.12g}"
    return "null" if math.isnan(v) else json.dumps(float(f"{v:.12g}"))


def tokens(values, json_tokens: bool) -> list[str]:
    slots = tableio._token_slots(np.array(values, dtype=float), json_tokens)
    return [column[column != 0].tobytes().decode("ascii") for column in slots.T]


def nudged(v: float, ulps: int) -> float:
    for _ in range(abs(ulps)):
        v = math.nextafter(v, math.copysign(math.inf, ulps))
    return v


signs = st.sampled_from([1.0, -1.0])
raw_doubles = st.integers(0, 2**64 - 1).map(lambda b: struct.unpack("<d", struct.pack("<Q", b))[0])
# k 10^e a few ulps either side, where the decimal exponent changes
decade_edges = st.builds(
    lambda k, e, ulps, sign: sign * nudged(float(f"{k}e{e}"), ulps),
    st.sampled_from(["1", "2", "5", "9.99999999999", "9.999999999995", "9.9999999999995"]),
    st.integers(-45, 60),
    st.integers(-3, 3),
    signs,
)
# significands (m + 1/2 + j 1e-4) 10^(X - 11): within 1e-3 of a rounding tie
near_ties = st.builds(
    lambda m, j, x, ulps, sign: sign * nudged(float(f"{m * 10000 + 5000 + j}e{x - 15}"), ulps),
    st.integers(10**11, 10**12 - 1),
    st.integers(-10, 10),
    st.integers(-40, 60),
    st.integers(-2, 2),
    signs,
)
# decimal exponents where a notation starts or ends, short and long digits
switch_points = st.builds(
    lambda m, x, sign: sign * float(f"{m}e{x - len(str(m)) + 1}"),
    st.one_of(st.integers(1, 999), st.integers(1, 10**12 - 1), st.integers(10**15, 10**17)),
    st.sampled_from([-5, -4, 11, 12, 15, 16]),
    signs,
)
specials = st.one_of(
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 1e-33, 1e55, -1e55]),
    st.floats(-2.2250738585072014e-308, 2.2250738585072014e-308),   # subnormals
)
token_doubles = st.one_of(raw_doubles, decade_edges, near_ties, switch_points, specials)


@settings(max_examples=600, deadline=None)
@given(values=st.lists(token_doubles, min_size=1, max_size=24))
def test_token_slots_match_per_value_formatting(values):
    for json_tokens in (False, True):
        assert tokens(values, json_tokens) == [oracle_token(v, json_tokens) for v in values]


@settings(max_examples=2000, deadline=None)
@given(v=st.one_of(
    st.floats(),
    specials,
    st.integers(-2**53, 2**53).map(float),
    st.builds(lambda x, sign: sign * x, st.floats(1e12, 1e16, exclude_max=True), signs),
))
def test_json_number_is_json_dumps_of_the_rounded_float(v):
    # the token of each value the renderer leaves to '%.12g'
    s = "%.12g" % v
    assert tableio._json_number(s) == ("null" if math.isnan(v) else json.dumps(float(s)))


def test_fallback_renders_only_near_ties_of_certified_range(monkeypatch):
    # log-uniform over the range the renderer certifies: only values within
    # 1e-3 of a rounding tie (0.2%) leave the numpy path for '%.12g'
    rng = np.random.default_rng(2024)
    values = rng.choice([-1.0, 1.0], 20000) * 10.0 ** rng.uniform(-33, 55, 20000)
    values = values[(np.abs(values) >= 1e-33) & (np.abs(values) < 1e55)]
    for json_tokens in (False, True):
        tableio._glyphs(json_tokens)   # the tables are built on first use
        fallback = []
        original = tableio._slots
        monkeypatch.setattr(
            tableio, "_slots", lambda s, w: fallback.append(len(s)) or original(s, w)
        )
        got = tokens(values, json_tokens)
        monkeypatch.undo()
        assert got == [oracle_token(v, json_tokens) for v in values.tolist()]
        assert 0 < sum(fallback) < 0.005 * len(values)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_stdout_gets_the_bytes_of_the_file(tmp_path, capsysbinary, fmt):
    # fig10: three cells with a (rho, phi) prefix, of five row blocks each
    out = tmp_path / f"fig10.{fmt}"
    assert main(["scan", "--config", "fig10", "--format", fmt, "--out", str(out)]) == 0
    capsysbinary.readouterr()
    assert main(["scan", "--config", "fig10", "--format", fmt, "--out", "-"]) == 0
    assert capsysbinary.readouterr().out == out.read_bytes()


# ---------------------------------------------------------------------------
# CLI


def run_cli(args):
    return main(args)


def test_cli_transmit_to_file(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(MINIMAL_TRANSMIT)
    out = tmp_path / "spectrum.csv"
    assert run_cli(["scan", "--config", str(cfg), "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "omega_p_rad_s,detuning_gamma,T,R,A"
    assert len(lines) == 12


def test_cli_scan_defers_to_config(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(MINIMAL_TRANSMIT)
    out = tmp_path / "o.json"
    assert run_cli(["scan", "--config", str(cfg), "--out", str(out), "--format", "json"]) == 0
    doc = json.loads(out.read_text())
    assert doc["columns"][0] == "omega_p_rad_s"


# Each rule of cli_io._KEYS at its boundary: (base config, key, values that
# parse, the nearest values past the rule, other keys set so that they admit
# the value; None drops a key).  A positive key has no boundary value that
# parses, so it gets a plain one and 0.
BOUNDARY_CASES = [
    ("fig4", "rho_points", ["1"], ["0"], {}),
    ("fig6", "planes", ["2"], ["1"], {}),
    ("fig2a", "n_bz", ["1"], ["0"], {}),   # a bands config has no window to keep below n_bz omega_0
    ("fig2a", "n_q", ["3"], ["2"], {}),
    ("fig6", "probe_points", ["2"], ["1"], {}),
    ("fig6", "rho", ["0 a", "1 a"], ["-1e-12 a", "1.000000000001 a"], {}),
    ("fig2a", "rho_values", ["0, 1 a"], ["-1e-12, 0.2 a", "0.2, 1.000000000001 a"], {}),
    ("fig4", "rho_min", ["0 a", "1 a"], ["-1e-12 a", "1.000000000001 a"], {}),
    ("fig4", "rho_max", ["0 a", "1 a"], ["-1e-12 a", "1.000000000001 a"], {}),
    ("fig2a", "q_max", ["0.5 G0"], ["0 G0", "0.500000000001 G0"], {}),
    ("fig4", "cover_tol", ["0 gamma"], ["-1e-12 gamma"], {}),
    ("fig4", "min_band_width", ["0 gamma"], ["-1e-12 gamma"], {}),
    ("fig6", "wavelength", ["780 nm"], ["0 nm"], {"species": "custom", "linewidth": "6 MHz"}),
    ("fig6", "linewidth", ["6 MHz"], ["0 MHz"], {"species": "custom", "wavelength": "780 nm"}),
    ("fig6", "gamma_even", ["6 MHz"], ["0 MHz"], {}),
    ("fig6", "gamma_odd", ["6 MHz"], ["0 MHz"], {}),
    ("fig6", "areal_density", ["5.7e-2 um^-2"], ["0 um^-2"], {}),
    ("fig4", "waist", ["5 um"], ["0 um"], {}),
    ("fig9", "cavity_length", ["85 mm"], ["0 mm"], {}),
    ("fig9", "kappa", ["21 kHz"], ["0 kHz"], {}),
    ("fig9", "cavity_waist", ["130 um"], ["0 um"], {}),
    ("fig9", "occupancy", ["3000"], ["0"], {}),
    ("fig9", "pump", ["1 rad/s"], ["0 rad/s"], {}),
]
RULE_MESSAGES = {"in cell": "must satisfy 0 <= rho <= a", "half zone": "must lie in (0, G0/2]"}


def config_with(name: str, values: dict) -> tuple[str, dict]:
    """A cut bundled config with each key of ``values`` set (in its line, or
    appended) or dropped (None), and the line number of every key."""
    lines = [ln for ln in FUZZ_CONFIGS[name]
             if values.get(ln.split("=")[0].strip(), "") is not None]
    keys = [ln.split("=")[0].strip() for ln in lines]
    for key, value in values.items():
        if value is not None:
            if key in keys:
                lines[keys.index(key)] = f"{key} = {value}"
            else:
                lines.append(f"{key} = {value}")
                keys.append(key)
    return "\n".join(lines) + "\n", {key: i + 1 for i, key in enumerate(keys)}


def test_boundary_cases_cover_every_rule():
    assert sorted(case[1] for case in BOUNDARY_CASES) == sorted(
        key for key, (_, rule) in cli_io._KEYS.items() if rule is not None
    )


@pytest.mark.parametrize("name, key, inside, past, others", BOUNDARY_CASES,
                         ids=[case[1] for case in BOUNDARY_CASES])
def test_key_rule_holds_at_its_boundary(name, key, inside, past, others):
    # parsing only: no case runs an engine
    for value in inside:
        parse_config(config_with(name, {**others, key: value})[0])
    rule = cli_io._KEYS[key][1]
    message = RULE_MESSAGES.get(rule, f"must be {rule}")
    for value in past:
        text, line_of = config_with(name, {**others, key: value})
        with pytest.raises(ConfigError) as info:
            parse_config(text)
        assert str(info.value) == f"line {line_of[key]}: key {key!r}: {message}", value


def test_cli_bad_config_exit_code(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    out = tmp_path / "out.csv"
    for text, named in (
        (MINIMAL_TRANSMIT + "mystery = 1\n", "unknown key"),
        # a typo is reported before any value is read, even a bad one
        (MINIMAL_TRANSMIT.replace("probe_points", "probe_pts"),
         "unknown key(s): probe_pts"),
        (MINIMAL_TRANSMIT.replace("probe_points", "probe_pts")
         .replace("rho = 0 a", "rho = 3 parsec"), "unknown key(s): probe_pts"),
        # a known key that this engine, or this species, does not read
        (bundled_config_text("fig4") + "q_max = 2.5e-5 G0\n",
         "unknown key(s) for this 'gaps' config: q_max"),
        (bundled_config_text("fig9") + "n_q = 11\n", "'cavity' config: n_q"),
        (MINIMAL_TRANSMIT + "wavelength = 780 nm\n", "config: wavelength"),
        # no longer a key: it was metadata that no formula read
        (
            bundled_config_text("fig9") + "mirror_reflectivity = 0.999982\n",
            "unknown key",
        ),
        # no longer a key: sweeps run their cells one after the other
        (MINIMAL_TRANSMIT + "workers = 2\n", "unknown key"),
        # the cavity lattice takes its density from the cavity coupling
        (
            bundled_config_text("fig9") + "areal_density = 5.7e-2 um^-2\n",
            "unknown key",
        ),
        (bundled_config_text("fig9") + "waist = 5 um\n", "unknown key"),
        # truncations the band engines cannot use: a q-grid needs three
        # points, the photon basis at least one zone on each side
        (bundled_config_text("fig4").replace("n_q = 201", "n_q = 2"), "key 'n_q'"),
        (bundled_config_text("fig4").replace("n_bz = 40", "n_bz = -3"), "key 'n_bz'"),
        (bundled_config_text("fig2a").replace("n_bz = 40", "n_bz = 0"), "key 'n_bz'"),
        (bundled_config_text("fig2a").replace("n_q = 401", "n_q = 2"), "key 'n_q'"),
        # detunings that put the lattice light or a transition at or below 0
        (
            bundled_config_text("fig6").replace(
                "lattice_detuning = 10 gamma", "lattice_detuning = -1e9 gamma"
            ),
            "line 5: key 'lattice_detuning'",
        ),
        (
            bundled_config_text("fig4").replace(
                "omega_odd = 530 gamma", "omega_odd = -6.6e7 gamma"
            ),
            "line 7: key 'omega_odd'",
        ),
        # a rho range needs at least one point
        (bundled_config_text("fig4").replace("rho_points = 51", "rho_points = 0"),
         "line 11: key 'rho_points'"),
        (bundled_config_text("fig4").replace("rho_points = 51", "rho_points = -1"),
         "line 11: key 'rho_points'"),
        # the phase grid is given once, as rho is
        (bundled_config_text("fig9") + "phase_values = 0, 0.25 pi\n", "phase_values"),
        # intensity_norm divides by the empty-cavity peak, which needs a pump
        (bundled_config_text("fig9") + "pump = 0 rad/s\n", "key 'pump'"),
        (bundled_config_text("fig9") + "pump = -2 rad/s\n", "key 'pump'"),
        # every rho lies in the cell and q_max in the half zone; these ran
        # as all-NaN tables with one error entry per rho and exited 0
        (bundled_config_text("fig2a").replace("q_max = 2.5e-5 G0", "q_max = 2 G0"),
         "line 12: key 'q_max': must lie in (0, G0/2]"),
        (bundled_config_text("fig2a").replace("q_max = 2.5e-5 G0", "q_max = 0 G0"),
         "line 12: key 'q_max'"),
        (bundled_config_text("fig2a").replace("q_max = 2.5e-5 G0", "q_max = -1 rad/m"),
         "line 12: key 'q_max'"),
        (bundled_config_text("fig4").replace("rho_max = 1 a", "rho_max = -1 a"),
         "line 10: key 'rho_max': must satisfy 0 <= rho <= a"),
        (bundled_config_text("fig4").replace("rho_min = 0 a", "rho_min = -0.1 a"),
         "line 9: key 'rho_min'"),
        (bundled_config_text("fig4").replace("rho_max = 1 a", "rho_max = 1.01 a"),
         "line 10: key 'rho_max'"),
        (bundled_config_text("fig2a").replace("0, 0.2, 0.4 a", "0, 1.5, 0.4 a"),
         "line 9: key 'rho_values'"),
        (bundled_config_text("fig9").replace("0, 0.2, 0.4 a", "0, 0.2, -0.4 a"),
         "line 8: key 'rho_values'"),
        (MINIMAL_TRANSMIT.replace("rho = 0 a", "rho = 1.5 a"), "line 6: key 'rho'"),
        # a malformed quantity; this error named no key or line
        (MINIMAL_TRANSMIT.replace("rho = 0 a", "rho = 0 a b"), "line 6: key 'rho'"),
        # finite values whose arithmetic overflows or divides by zero; these
        # ended in a traceback (omega^3 of the dipole, 4 / (pi w^2))
        (bundled_config_text("fig4").replace("omega_odd = 530 gamma",
                                             "omega_odd = 1e300 gamma"),
         "line 7: key 'omega_odd'"),
        # the first species the lattice light's frequency overflows
        (bundled_config_text("fig6").replace("lattice_detuning = 10 gamma",
                                             "lattice_detuning = 1e300 gamma"),
         "line 6: key 'omega_even'"),
        (bundled_config_text("fig2a").replace("waist = 5 um", "waist = 1e-300 um"),
         "line 8: key 'waist'"),
        (bundled_config_text("fig2a").replace("waist = 5 um", "waist = 1e300 um"),
         "line 8: key 'waist'"),
        (bundled_config_text("fig9").replace("cavity_waist = 130 um",
                                             "cavity_waist = 1e-300 um"),
         "line 12: key 'cavity_waist'"),
        (bundled_config_text("fig9").replace("cavity_waist = 130 um",
                                             "cavity_waist = 1e300 um"),
         "line 12: key 'cavity_waist'"),
        # values checked where they are read; these errors named no key or line
        (bundled_config_text("fig9").replace("kappa = 21 kHz", "kappa = -21 kHz"),
         "line 11: key 'kappa': must be positive"),
        (bundled_config_text("fig9").replace("85 mm", "0 mm"),
         "line 10: key 'cavity_length': must be positive"),
        (bundled_config_text("fig9").replace("130 um", "0 um"),
         "line 12: key 'cavity_waist': must be positive"),
        (bundled_config_text("fig9").replace("occupancy = 3000", "occupancy = 0"),
         "line 13: key 'occupancy': must be positive"),
        # no longer a key: no formula read it, and kappa sets the linewidth
        (bundled_config_text("fig9") + "finesse = 170000\n",
         "unknown key(s): finesse"),
        # a plain number's unit error names its kind
        (bundled_config_text("fig9").replace("occupancy = 3000", "occupancy = 3000 kHz"),
         "line 13: key 'occupancy': number takes no unit, got 'kHz'"),
        # malformed lines and values, and rules that tie keys together
        (bundled_config_text("fig6").replace("rho = 0 a", "rho ="),
         "line 8: empty key or value"),
        (bundled_config_text("fig4").replace("n_q = 201", "n_q = abc"),
         "line 13: key 'n_q': expected number(s)"),
        (bundled_config_text("fig6").replace("rho = 0 a", "rho = 0.1, 0.2 a"),
         "expected a single value, got a list"),
        (bundled_config_text("fig6") + "rho_values = 0, 0.2 a\n",
         "give only one of rho, rho_values, rho_min/rho_max/rho_points"),
        # planes is the one lattice-size key, and only the engines whose
        # spectra depend on M read it
        (bundled_config_text("fig6") + "cells = 10\n", "unknown key(s): cells"),
        (bundled_config_text("fig2b") + "planes = 200\n",
         "unknown key(s) for this 'gaps' config: planes"),
        (bundled_config_text("fig6").replace("planes = 1000000", ""),
         "missing required key 'planes'"),
        (bundled_config_text("fig6").replace("planes = 1000000", "planes = 0"),
         "line 9: key 'planes'"),
        (bundled_config_text("fig6").replace("planes = 1000000", "planes = 3"),
         "line 9: key 'planes': must be even"),
        (bundled_config_text("fig6").replace("5.7e-2 um^-2", "0 um^-2"),
         "line 10: key 'areal_density': must be positive"),
        (bundled_config_text("fig6").replace("probe_points = 4801",
                                             "probe_points = 1"),
         "line 13: key 'probe_points'"),
        # counts a float cannot hold exactly: 2^53 + 1 read as 2^53, and
        # 1e19 ended in numpy's ValueError traceback at the first array
        (bundled_config_text("fig4").replace("n_q = 201", "n_q = 1e19"),
         "line 13: key 'n_q': must be below 2^53 = 9007199254740992"),
        (bundled_config_text("fig4").replace("n_bz = 40", "n_bz = 1e19"),
         "line 12: key 'n_bz': must be below 2^53"),
        (bundled_config_text("fig2a").replace("n_q = 401", "n_q = 1e19"),
         "line 11: key 'n_q': must be below 2^53"),
        (bundled_config_text("fig6").replace("probe_points = 4801",
                                             "probe_points = 9007199254740993"),
         "line 13: key 'probe_points': must be below 2^53"),
        (bundled_config_text("fig6").replace("rb85_d2", "rb87"),
         "line 4: key 'species': unknown transition 'rb87'"),
        # values outside what the engines compute; these wrote a table of NaN
        # or mostly NaN rows and exited 0
        (bundled_config_text("fig4").replace("window_max = 800 gamma",
                                             "window_max = 1e300 gamma"),
         "line 15: key 'window_max': must keep the window at or below n_bz omega_0"),
        (bundled_config_text("fig5").replace("window_max = 800 gamma",
                                             "window_max = 1e300 gamma"),
         "line 14: key 'window_max'"),
        *(
            (bundled_config_text(name).replace("probe_max = 600 gamma",
                                               "probe_max = 1e300 gamma"),
             "line 12: key 'probe_max': must keep every probe frequency below")
            for name in ("fig6", "fig7", "fig8")
        ),
        *(
            edit
            for name in ("fig9", "fig10")
            for edit in (
                (bundled_config_text(name).replace("cavity_detuning = 0 gamma",
                                                   "cavity_detuning = 1e300 gamma"),
                 "line 16: key 'cavity_detuning': must satisfy |cavity_detuning| < omega_0"),
                (bundled_config_text(name).replace("occupancy = 3000",
                                                   "occupancy = 1e300"),
                 "line 13: key 'occupancy': gives a collective rate"),
                (bundled_config_text(name).replace("cavity_length = 85 mm",
                                                   "cavity_length = 1e-300 mm"),
                 "line 10: key 'cavity_length': gives a squared single-atom coupling"),
            )
        ),
        (bundled_config_text("fig4").replace("window_min = -800 gamma",
                                             "window_min = -1e300 gamma"),
         "line 14: key 'window_min': must put the window above 0"),
        (bundled_config_text("fig9").replace("probe_min = -60 gamma",
                                             "probe_min = -7e7 gamma")
                                    .replace("probe_max = 60 gamma", "probe_max = -6e7 gamma"),
         "line 17: key 'probe_min': must keep every probe frequency above 0 rad/s"),
        # offsets that differ but vanish in the sum with omega_0: the window
        # stopped only at SweepSpec, naming no key, and the probe grid ran as
        # five identical rows
        (bundled_config_text("fig4").replace("window_min = -800 gamma", "window_min = 0 gamma")
                                    .replace("window_max = 800 gamma", "window_max = 1e-9 gamma"),
         "line 15: key 'window_max': must exceed window_min at float resolution"),
        *(
            (bundled_config_text(name).replace(f"probe_min = -{span} gamma",
                                               "probe_min = 0 gamma")
                                      .replace(f"probe_max = {span} gamma",
                                               "probe_max = 1e-9 gamma")
                                      .replace("probe_points = 4801", "probe_points = 5"),
             f"line {line}: key 'probe_max': must give 5 distinct probe frequencies")
            for name, span, line in (("fig6", 600, 12), ("fig9", 60, 18))
        ),
        # n-bar atoms per mode area overflow: the occupancy is at fault, not the waist
        (bundled_config_text("fig9").replace("occupancy = 3000", "occupancy = 1e305"),
         "line 13: key 'occupancy': ValueError: areal density must be positive and finite"),
    ):
        cfg.write_text(text)
        assert run_cli(["scan", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "config error" in err and named in err and "Traceback" not in err
        assert not out.exists()


def test_count_just_below_2_to_the_53_reads_exactly():
    # parsing only: the engine would allocate n_q rows
    text = bundled_config_text("fig4").replace("n_q = 201", f"n_q = {2**53 - 1}")
    assert parse_config(text).sweep.n_q == 2**53 - 1


@pytest.mark.parametrize(
    "edit",
    [
        ("planes = 1000", "planes = inf"),
        ("planes = 1000", "planes = nan"),
        ("probe_min = -50 gamma", "probe_min = nan gamma"),
        ("areal_density = 5.7e-2 um^-2", "areal_density = inf um^-2"),
        ("lattice_detuning = 10 gamma", "lattice_detuning = inf gamma"),
    ],
    ids=[
        "planes_inf", "planes_nan", "probe_min_nan", "areal_density_inf",
        "lattice_detuning_inf",
    ],
)
def test_cli_non_finite_number_exit_code(tmp_path, capsys, edit):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(MINIMAL_TRANSMIT.replace(*edit))
    out = tmp_path / "out.csv"
    assert run_cli(["scan", "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and "finite" in err and "Traceback" not in err
    key = edit[1].split(" =")[0]
    assert f"key {key!r}" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "edit",
    [
        ("window_max = 800 gamma", "window_max = -800 gamma"),
        ("n_q = 201", "n_q = 201\ncover_tol = -0.1 gamma"),
        ("n_q = 201", "n_q = 201\nmin_band_width = -1 gamma"),
    ],
    ids=["empty_window", "negative_cover_tol", "negative_min_band_width"],
)
def test_cli_bad_gap_input_exit_code(tmp_path, capsys, edit):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(bundled_config_text("fig4").replace(*edit))
    assert run_cli(["scan", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and "must" in err


# One key of a bundled config changed, through main: the exit code is 0, 1
# or 2 and never a traceback.  The sizes are cut so that a run takes
# milliseconds, and no count is drawn above 64.

FUZZ_SIZES = {"n_q": "11", "n_bz": "4", "rho_points": "3", "probe_points": "41"}


def fuzz_base(name: str) -> list[str]:
    """The assignment lines of a bundled config, its sizes cut."""
    lines = []
    for line in bundled_config_text(name).splitlines():
        key = line.split("=")[0].strip()
        if not line.startswith("#"):
            lines.append(f"{key} = {FUZZ_SIZES[key]}" if key in FUZZ_SIZES else line)
    return lines


FUZZ_CONFIGS = {name: fuzz_base(name) for name in BUNDLED_CONFIGS}
FUZZ_VALUES = ["0", "-1", "1e-300", "1e300", "nan", "inf", "2", "3", "64", "0.5"]
COUNT_KEYS = {key for key, (kind, _) in cli_io._KEYS.items() if kind == "count"}


@st.composite
def one_key_edits(draw) -> str:
    lines = list(FUZZ_CONFIGS[draw(st.sampled_from(BUNDLED_CONFIGS))])
    i = draw(st.integers(0, len(lines) - 1))
    key, value = (part.strip() for part in lines[i].split("=", 1))
    words = value.rsplit(None, 1)
    unit = words[1] if len(words) == 2 else None
    edit = draw(st.sampled_from(["value", "unit", "drop", "duplicate"]))
    if edit == "value":
        counts = [v for v in FUZZ_VALUES if v not in ("1e300", "inf")]
        number = draw(st.sampled_from(counts if key in COUNT_KEYS else FUZZ_VALUES))
        lines[i] = f"{key} = {number}" + (f" {unit}" if unit else "")
    elif edit == "unit":
        wrong = draw(st.sampled_from([u for u in ("parsec", "gamma", "um", "kHz") if u != unit]))
        lines[i] = f"{key} = {words[0]} {wrong}"
    elif edit == "drop":
        del lines[i]
    else:
        lines.append(lines[i])
    return "\n".join(lines) + "\n"


def is_engine_value(column: str) -> bool:
    # the gap edge columns are NaN where a row has fewer gaps than columns
    return column in ("T", "R", "A") or column.startswith(("intensity_", "gap_count", "band_"))


# probe points at or below 0 rad/s: refused at parsing, exit 1 and no table
BELOW_ZERO_PROBE = "\n".join(FUZZ_CONFIGS["fig6"]).replace(
    "probe_min = -600 gamma", "probe_min = -1e16 gamma") + "\n"


@settings(max_examples=300, deadline=None)
@given(text=one_key_edits())
@example(text=BELOW_ZERO_PROBE)
def test_config_fuzz_exits_with_a_code(tmp_path_factory, text):
    here = tmp_path_factory.getbasetemp()
    cfg, out = here / "fuzz.cfg", here / "fuzz.csv"
    log = here / "fuzz.csv.errors.log"
    cfg.write_text(text)
    out.unlink(missing_ok=True)
    log.unlink(missing_ok=True)
    code = main(["scan", "--config", str(cfg), "--out", str(out)])
    assert code in (0, 1, 2)
    assert code != 1 or not out.exists()
    if code == 0:
        # a non-finite engine value is a failed cell, which has its error
        # entry, and a clean table has none: the sidecar exists exactly then
        table = read_table(out)
        engine = [j for j, c in enumerate(table.columns) if is_engine_value(c)]
        assert log.exists() == (not np.isfinite(np.array(table.rows)[:, engine]).all())


def one_value_edits():
    """(label, key, number, unit, text) of every cut bundled config with one
    assignment's number replaced by each of FUZZ_VALUES, its unit kept
    (counts never 1e300/inf)."""
    for name, lines in FUZZ_CONFIGS.items():
        for i, line in enumerate(lines):
            key, value = (part.strip() for part in line.split("=", 1))
            words = value.rsplit(None, 1)
            unit = f" {words[1]}" if len(words) == 2 else ""
            for number in FUZZ_VALUES:
                if key in COUNT_KEYS and number in ("1e300", "inf"):
                    continue
                edited = f"{key} = {number}{unit}"
                text = "\n".join([*lines[:i], edited, *lines[i + 1:]]) + "\n"
                yield f"{name}: {edited}", key, number, unit, text


def breaks_rule(key: str, number: str, unit: str) -> bool:
    """Whether ``number``, finite and given in ``unit``, breaks the rule of
    ``key`` in ``cli_io._KEYS`` (the bundled configs give rho in a and q in G0)."""
    x, rule = float(number), cli_io._KEYS[key][1]
    if rule == "in cell":
        assert unit == " a"
        return not 0 <= x <= 1
    if rule == "half zone":
        assert unit == " G0"
        return not 0 < x <= 0.5
    if rule == "positive":   # every unit is a positive factor
        return not x > 0
    return rule is not None and x < float(rule.removeprefix(">= "))


def test_every_one_value_edit_writes_finite_engine_values(tmp_path, capsys):
    # an accepted value must not end in a table of NaN or infinite engine
    # values with exit 0: a value outside an engine's range exits 1 instead,
    # and so does a value that breaks its key's rule, naming the key
    cfg, out = tmp_path / "edit.cfg", tmp_path / "edit.csv"
    runs, silent, broken = 0, [], 0
    for label, key, number, unit, text in one_value_edits():
        cfg.write_text(text)
        out.unlink(missing_ok=True)
        code = main(["scan", "--config", str(cfg), "--out", str(out)])
        assert code in (0, 1, 2), label
        runs += 1
        err = capsys.readouterr().err
        if math.isfinite(float(number)) and breaks_rule(key, number, unit):
            broken += 1
            assert code == 1 and f"key {key!r}" in err, label
        if code == 0:
            table = read_table(out)
            engine = [j for j, c in enumerate(table.columns) if is_engine_value(c)]
            if not np.isfinite(np.array(table.rows)[:, engine]).all():
                silent.append(label)
    assert runs == 1098
    assert broken == 184
    assert silent == []


def test_cli_missing_config_file(capsys):
    assert run_cli(["scan", "--config", "/nonexistent.cfg"]) == 1
    assert "not found" in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["directory", "not_utf8"])
def test_cli_unreadable_config_file(tmp_path, capsys, kind):
    # these ended in an IsADirectoryError or UnicodeDecodeError traceback
    path = tmp_path / "run.cfg"
    if kind == "directory":
        path.mkdir()
    else:
        path.write_bytes(b"engine = transmit\nspecies = \xff\xfe\n")
    assert run_cli(["scan", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and str(path) in err and "Traceback" not in err


def test_config_with_byte_order_mark_reads_as_without(tmp_path):
    # a BOM-prefixed copy exited 1 with "unknown key(s): \ufeffengine"
    plain, marked = tmp_path / "fig6.cfg", tmp_path / "fig6_bom.cfg"
    plain.write_text(bundled_config_text("fig6"), encoding="utf-8")
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    for cfg in (plain, marked):
        assert run_cli(["scan", "--config", str(cfg), "--out", f"{cfg}.csv"]) == 0
    assert Path(f"{marked}.csv").read_bytes() == Path(f"{plain}.csv").read_bytes()


def test_cli_unwritable_output_is_numeric_failure_code(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(MINIMAL_TRANSMIT)
    missing_dir = tmp_path / "no" / "such" / "dir" / "out.csv"
    assert run_cli(["scan", "--config", str(cfg), "--out", str(missing_dir)]) == 2


def test_every_bundled_config_runs_end_to_end(tmp_path):
    import time

    for name in BUNDLED_CONFIGS:
        out = tmp_path / f"{name}.csv"
        started = time.perf_counter()
        assert run_cli(["scan", "--config", name, "--out", str(out)]) == 0
        assert time.perf_counter() - started < 60.0
        lines = out.read_text().splitlines()
        assert len(lines) > 1   # header plus data


def test_repeated_main_calls_match_fresh_processes(tmp_path, capsys):
    # the parser is built once per process; later calls must not see
    # anything an earlier call left behind
    bad = tmp_path / "bad.cfg"
    bad.write_text(MINIMAL_TRANSMIT + "mystery = 1\n")
    runs = [("fig2b", "csv"), ("fig6", "json"), (str(bad), "csv")]
    src = Path(cli_io.__file__).resolve().parents[1]
    path = os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])
    env = {**os.environ, "PYTHONPATH": path}
    for i, (config, fmt) in enumerate(runs):
        args = ["scan", "--config", config, "--format", fmt]
        here = tmp_path / f"here{i}.{fmt}"
        fresh = tmp_path / f"fresh{i}.{fmt}"
        code = main(args + ["--out", str(here)])
        proc = subprocess.run(
            [sys.executable, "-m", "bilattice", *args, "--out", str(fresh)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert code == proc.returncode == (1 if config == str(bad) else 0)
        if code == 0:
            assert here.read_bytes() == fresh.read_bytes()
        else:
            assert not here.exists() and not fresh.exists()
            assert capsys.readouterr().err == proc.stderr
            assert "unknown key" in proc.stderr
    assert cli_io._build_parser() is cli_io._build_parser()


def test_package_runs_as_a_module(tmp_path):
    # python -m bilattice runs the CLI from a checkout and passes its exit code on
    src = Path(cli_io.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
    out = tmp_path / "fig2b.csv"
    for config, code in (("fig2b", 0), ("no_such_config", 1)):
        proc = subprocess.run(
            [sys.executable, "-m", "bilattice", "scan", "--config", config, "--out", str(out)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == code, proc.stderr
    assert out.read_text().startswith("rho_over_a,gap_count,")


def test_warning_raised_as_error_exits_2_without_traceback(tmp_path):
    # at 137 gamma the cavity is marked commensurate but k a / pi is not an
    # integer; under -W error that warning is raised outside the cell loop
    src = Path(cli_io.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
    cfg = tmp_path / "fig9_137.cfg"
    cfg.write_text(bundled_config_text("fig9").replace(
        "cavity_detuning = 0 gamma", "cavity_detuning = 137 gamma"))
    proc = subprocess.run(
        [sys.executable, "-W", "error::UserWarning", "-m", "bilattice", "scan",
         "--config", str(cfg), "--out", str(tmp_path / "fig9_137.csv")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("numeric/runtime failure: cavity marked commensurate")


NO_MEMORY = "Unable to allocate 7.11 PiB for an array with shape (1000000000000000,)"


def refuse_huge_linspace(monkeypatch):
    """numpy raises MemoryError for a grid of 10^15 points; injected, so
    that nothing of that size is ever asked for."""
    original = np.linspace

    def linspace(start, stop, num, *args, **kwargs):
        if num > 10**6:
            raise MemoryError(NO_MEMORY)
        return original(start, stop, num, *args, **kwargs)

    monkeypatch.setattr(np, "linspace", linspace)


@pytest.mark.parametrize("name, key", [("fig4", "rho_points"), ("fig6", "probe_points")])
def test_grid_that_cannot_be_allocated_exits_1_naming_its_key(
    tmp_path, capsys, monkeypatch, name, key
):
    refuse_huge_linspace(monkeypatch)
    text = bundled_config_text(name)
    size = next(line for line in text.splitlines() if line.startswith(key))
    cfg = tmp_path / "huge.cfg"
    cfg.write_text(text.replace(size, f"{key} = 1000000000000000"))
    out = tmp_path / "out.csv"
    assert run_cli(["scan", "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: line ")
    assert err.endswith(f"key {key!r}: MemoryError: {NO_MEMORY}\n")
    assert not out.exists()


@pytest.mark.parametrize("module, name", [(sweep, "_rho_grid"), (tableio, "_rendered")])
def test_allocation_that_fails_outside_the_cells_exits_2(
    tmp_path, capsys, monkeypatch, module, name
):
    # a table's set-up arrays, and the writer's slot matrix
    def failing(*args):
        raise MemoryError(NO_MEMORY)

    monkeypatch.setattr(module, name, failing)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(MINIMAL_TRANSMIT)
    out = tmp_path / "out.csv"
    assert run_cli(["scan", "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"numeric/runtime failure: {NO_MEMORY}\n"
    assert not out.exists()


def test_gap_plan_that_cannot_be_allocated_exits_2_once(tmp_path, capsys, monkeypatch):
    # the gap plan's q grid is built once, before the cells: it fails the
    # run with one line, not each of the 51 rho with a NaN row and an entry
    refuse_huge_linspace(monkeypatch)
    cfg = tmp_path / "huge.cfg"
    cfg.write_text(bundled_config_text("fig4").replace("n_q = 201", "n_q = 1000000000000001"))
    out = tmp_path / "out.csv"
    assert run_cli(["scan", "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"numeric/runtime failure: {NO_MEMORY}\n"
    assert not out.exists() and not list(tmp_path.glob("*.errors.log"))


@pytest.mark.parametrize("name, line, anchor", [
    ("fig6", 11, "the even-species transition"), ("fig9", 17, "the lattice light omega_0"),
])
def test_probe_window_reaching_0_rad_s_exits_1_naming_probe_min(
    tmp_path, capsys, name, line, anchor
):
    # both spectra engines refuse it at parsing, not as a NaN row per point
    text = bundled_config_text(name)
    probe_min = next(ln for ln in text.splitlines() if ln.startswith("probe_min"))
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text.replace(probe_min, "probe_min = -1e16 gamma"))
    out = tmp_path / "out.csv"
    assert run_cli(["scan", "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: line {line}: key 'probe_min': must keep every "
                          "probe frequency above 0 rad/s (probe_min > -")
    assert err.endswith(f" rad/s, minus {anchor})\n") and err.count("\n") == 1
    assert not out.exists() and not list(tmp_path.glob("*.errors.log"))


@pytest.mark.parametrize("argv", [["scan"], ["scan", "--config", "fig2b", "--format", "xml"], [],
                                  ["transmit", "--config", "fig6"]],
                         ids=["no_config", "unknown_format", "no_subcommand",
                              "engine_subcommand"])
def test_bad_command_line_exits_1_with_its_usage(capsys, argv):
    # a usage error is a configuration error (1), not a numeric failure (2)
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: bilattice") and "error: " in err
    # the parser that refused the line, the subcommand's or the top one, answers --help
    with pytest.raises(SystemExit) as info:
        main([*(argv[:1] if argv[:1] == ["scan"] else []), "--help"])
    assert info.value.code == 0


def test_cli_accepts_bundled_name(tmp_path):
    # fig2a is the cheapest bundled run at reduced size; use it as-is
    out = tmp_path / "fig2a.csv"
    assert run_cli(["scan", "--config", "fig2a", "--out", str(out)]) == 0
    header = out.read_text().splitlines()[0]
    assert header.startswith("rho_over_a,q_over_G0,band_01_gamma")
