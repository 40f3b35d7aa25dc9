"""Config parsing, table serialization, CLI surface."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bilattice.cli_io import (
    BUNDLED_CONFIGS,
    ConfigError,
    RunConfig,
    _jsonable,
    bundled_config_text,
    main,
    parse_config,
    read_table,
    write_table,
)
from bilattice.constants import C, TWO_PI
from bilattice.sweep import Table, run_sweep

from conftest import GAMMA

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
    assert cfg.engine == "transmit"
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
        assert cfg.engine in ("bands", "gaps", "transmit", "cavity")


def test_bundled_fig6_reproduces_published_setup():
    cfg = parse_config(bundled_config_text("fig6"))
    lat = cfg.sweep.lattice
    assert cfg.engine == "transmit"
    assert lat.cell_count == 500_000
    assert lat.intracell_distance == 0.0
    assert lat.areal_density == pytest.approx(5.7e10)


def test_bundled_fig9_cavity_setup():
    cfg = parse_config(bundled_config_text("fig9"))
    cav = cfg.sweep.cavity
    assert cav.length == pytest.approx(85e-3)
    assert cav.linewidth == pytest.approx(TWO_PI * 21e3)
    assert cav.waist == pytest.approx(130e-6)
    assert cav.occupancy == 3000
    assert cav.phase == pytest.approx(math.pi / 2)
    assert cav.plane_count == 200


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
    # every value in every column, over more than two 512-row blocks
    n = len(EDGE_VALUES)
    rows = [tuple(EDGE_VALUES[(i + j) % n] for j in range(3)) for i in range(n_rows)]
    return Table(["x", "y", "z"], rows, {"engine": "test", "grid": [0.5, math.nan]})


@pytest.mark.parametrize("fmt, oracle", [("csv", oracle_csv), ("json", oracle_json)])
def test_block_writer_matches_per_value_rules_on_edge_values(tmp_path, fmt, oracle):
    for table in (edge_table(), edge_table(5), Table(["x", "y"], [])):
        path = tmp_path / f"t.{fmt}"
        write_table(table, path, fmt)
        assert path.read_bytes() == oracle(table).encode("utf-8")


@pytest.mark.parametrize("name, fmt, oracle", [("fig8", "csv", oracle_csv), ("fig9", "json", oracle_json)])
def test_block_writer_matches_per_value_rules_on_bundled_tables(tmp_path, name, fmt, oracle):
    table = run_sweep(parse_config(bundled_config_text(name)).sweep)
    path = tmp_path / f"{name}.{fmt}"
    write_table(table, path, fmt)
    assert path.read_bytes() == oracle(table).encode("utf-8")


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


# ---------------------------------------------------------------------------
# CLI


def run_cli(args):
    return main(args)


def test_cli_transmit_to_file(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(MINIMAL_TRANSMIT)
    out = tmp_path / "spectrum.csv"
    assert run_cli(["transmit", "--config", str(cfg), "--out", str(out)]) == 0
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


def test_cli_engine_mismatch_is_config_error(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(MINIMAL_TRANSMIT)
    assert run_cli(["cavity", "--config", str(cfg)]) == 1
    assert "does not match" in capsys.readouterr().err


def test_cli_bad_config_exit_code(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    for command, text in (
        ("transmit", MINIMAL_TRANSMIT + "mystery = 1\n"),
        # no longer a key: it was metadata that no formula read
        ("cavity", bundled_config_text("fig9") + "mirror_reflectivity = 0.999982\n"),
    ):
        cfg.write_text(text)
        assert run_cli([command, "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert "config error" in err and "unknown key" in err


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
    assert run_cli(["gaps", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and "must" in err


def test_cli_missing_config_file(capsys):
    assert run_cli(["transmit", "--config", "/nonexistent.cfg"]) == 1
    assert "not found" in capsys.readouterr().err


def test_cli_unwritable_output_is_numeric_failure_code(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(MINIMAL_TRANSMIT)
    missing_dir = tmp_path / "no" / "such" / "dir" / "out.csv"
    assert run_cli(["transmit", "--config", str(cfg), "--out", str(missing_dir)]) == 2


def test_cli_workers_override_keeps_output_identical(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(MINIMAL_TRANSMIT)
    out1, out8 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_cli(["transmit", "--config", str(cfg), "--out", str(out1)]) == 0
    assert run_cli(["transmit", "--config", str(cfg), "--out", str(out8), "--workers", "8"]) == 0
    assert out1.read_bytes() == out8.read_bytes()


def test_every_bundled_config_runs_end_to_end(tmp_path):
    import time

    for name in BUNDLED_CONFIGS:
        out = tmp_path / f"{name}.csv"
        started = time.perf_counter()
        assert run_cli(["scan", "--config", name, "--out", str(out)]) == 0
        assert time.perf_counter() - started < 60.0
        lines = out.read_text().splitlines()
        assert len(lines) > 1   # header plus data


def test_cli_accepts_bundled_name(tmp_path):
    # fig2a is the cheapest bundled run at reduced size; use it as-is but
    # through the scan subcommand with JSON to stdout suppressed to a file
    out = tmp_path / "fig2a.csv"
    assert run_cli(["bands", "--config", "fig2a", "--out", str(out)]) == 0
    header = out.read_text().splitlines()[0]
    assert header.startswith("rho_over_a,q_over_G0,band_01_gamma")
