"""Sweep orchestration: engines, determinism, failure isolation."""

from __future__ import annotations

import json
import math
import warnings

import numpy as np
import pytest

from bilattice import bandstructure, cavity as cavity_mod, transfer_matrix
from bilattice.cli_io import bundled_config_text, parse_config
from bilattice.sweep import SweepSpec, run_sweep
from bilattice.tableio import write_table

from conftest import GAMMA, make_cavity, make_lattice


def transmit_spec(omega0, rhos=None, probe=None, **kw):
    lat = make_lattice(omega0, cells=2000)
    w1 = lat.species_even.transition_frequency
    if probe is None:
        probe = w1 + np.linspace(-450, 450, 41) * GAMMA
    return SweepSpec(
        engine="transmit",
        lattice=lat,
        reference_frequency=omega0,
        reference_linewidth=GAMMA,
        probe_grid=np.asarray(probe),
        rho_values=None if rhos is None else np.asarray(rhos),
        **kw,
    )


def test_spec_validation(omega0):
    lat = make_lattice(omega0)
    with pytest.raises(ValueError, match="unknown engine"):
        SweepSpec("morph", lat, omega0, GAMMA)
    with pytest.raises(ValueError, match="probe grid"):
        SweepSpec("transmit", lat, omega0, GAMMA)
    with pytest.raises(ValueError, match="cavity config"):
        SweepSpec("cavity", lat, omega0, GAMMA, probe_grid=np.array([omega0]))
    # band truncations, q_max, gap windows and cover_tol are refused up front,
    # not turned into one NaN row and one error entry per rho by run_sweep
    for engine in ("bands", "gaps"):
        with pytest.raises(ValueError, match="three q-points"):
            SweepSpec(engine, lat, omega0, GAMMA, n_q=2)
        with pytest.raises(ValueError, match="one Brillouin zone"):
            SweepSpec(engine, lat, omega0, GAMMA, n_bz=0)
    for window in ((omega0 + GAMMA, omega0), (omega0, omega0), (math.nan, omega0)):
        with pytest.raises(ValueError, match="finite and increasing"):
            SweepSpec("gaps", lat, omega0, GAMMA, window=window)
    for q_max in (2.0 * lat.reciprocal_vector, 0.0, -1.0):
        with pytest.raises(ValueError, match=r"q_max must lie in \(0, G0/2\]"):
            SweepSpec("bands", lat, omega0, GAMMA, q_max=q_max)
    with pytest.raises(ValueError, match="cover_tol must be >= 0"):
        SweepSpec("gaps", lat, omega0, GAMMA, cover_tol=-1.0)
    with pytest.raises(ValueError, match="^rho grid must be non-empty$"):
        SweepSpec("gaps", lat, omega0, GAMMA, rho_values=np.array([]))


def test_transmit_single_rho_schema(omega0):
    table = run_sweep(transmit_spec(omega0))
    assert table.columns == ["omega_p_rad_s", "detuning_gamma", "T", "R", "A"]
    assert len(table.rows) == 41
    assert not table.errors


def test_transmit_rho_grid_prepends_coordinate(omega0):
    lat = make_lattice(omega0, cells=2000)
    a = lat.cell_size
    table = run_sweep(transmit_spec(omega0, rhos=[0.0, 0.2 * a, 0.24 * a]))
    assert table.columns[0] == "rho_over_a"
    assert len(table.rows) == 3 * 41
    assert sorted(set(r[0] for r in table.rows)) == pytest.approx([0.0, 0.2, 0.24])


def test_failed_cells_marked_nan_and_logged(omega0):
    lat = make_lattice(omega0, cells=100)
    w1 = lat.species_even.transition_frequency
    probe = np.array([w1, -5.0, w1 + GAMMA])   # middle point is unphysical
    table = run_sweep(transmit_spec(omega0, probe=probe))
    assert len(table.rows) == 3
    assert math.isnan(table.rows[1][2])
    assert len(table.errors) == 1
    assert "positive" in table.errors[0]["error"]
    good = table.rows[0]
    assert not math.isnan(good[2])


def test_failed_point_lands_at_its_rho_and_frequency(omega0):
    lat = make_lattice(omega0, cells=100)
    a = lat.cell_size
    w1 = lat.species_even.transition_frequency
    probe = np.array([w1 - GAMMA, w1, 0.0, w1 + GAMMA])   # omega_p = 0 is unphysical
    rhos = [0.0, 0.2 * a, 0.4 * a]
    table = run_sweep(transmit_spec(omega0, rhos=rhos, probe=probe))
    assert len(table.rows) == 3 * 4
    for k, rho in enumerate(rhos):
        for j, wp in enumerate(probe):
            row = table.rows[4 * k + j]
            assert row[0] == pytest.approx(rho / a)
            assert row[1] == wp and math.isfinite(row[2])
            assert all(math.isnan(v) == (j == 2) for v in row[3:])
    assert [(e["rho"], e["omega_p"]) for e in table.errors] == [(rho, 0.0) for rho in rhos]
    assert all("positive" in e["error"] for e in table.errors)


def test_failed_transmit_cell_keeps_its_detuning_column(omega0, monkeypatch):
    def failing(cfg, probe_grid):
        raise RuntimeError("injected")

    good = run_sweep(transmit_spec(omega0))
    monkeypatch.setattr(transfer_matrix, "spectrum_scan", failing)
    table = run_sweep(transmit_spec(omega0))
    assert table.columns == ["omega_p_rad_s", "detuning_gamma", "T", "R", "A"]
    assert len(table.rows) == 41
    assert table.errors == [{"rho": 0.0, "error": "RuntimeError: injected"}]
    assert [r[:2] for r in table.rows] == [r[:2] for r in good.rows]   # bit-identical
    assert all(math.isnan(v) for r in table.rows for v in r[2:])


def test_failed_cavity_cell_keeps_one_row_per_probe_point(omega0, monkeypatch):
    lat = make_lattice(omega0, cells=100)
    a = lat.cell_size
    probe = omega0 + np.linspace(-40, 40, 81) * GAMMA
    original = cavity_mod.cavity_spectrum_scan

    def failing_at_second_rho(cavity, even, odd, grid, rho_values, phi_values):
        if rho_values[0] == 0.2 * a:
            raise RuntimeError("injected")
        return original(cavity, even, odd, grid, rho_values, phi_values)

    monkeypatch.setattr(cavity_mod, "cavity_spectrum_scan", failing_at_second_rho)
    spec = SweepSpec(
        engine="cavity",
        lattice=lat,
        cavity=make_cavity(omega0, phase=0.0),
        reference_frequency=omega0,
        reference_linewidth=GAMMA,
        probe_grid=probe,
        rho_values=np.array([0.0, 0.2 * a]),
        phi_values=np.array([0.0, math.pi / 2]),
    )
    table = run_sweep(spec)
    assert len(table.rows) == 4 * 81
    assert [(e["rho"], e["phi"]) for e in table.errors] == [
        (0.2 * a, 0.0), (0.2 * a, math.pi / 2)
    ]
    assert len(table.meta["peaks"]) == 2
    failed = table.rows[2 * 81:]
    assert [r[:2] for r in failed] == pytest.approx([(0.2, 0.0)] * 81 + [(0.2, math.pi / 2)] * 81)
    assert [r[2] for r in failed] == list(probe) * 2
    assert [r[3] for r in failed] == pytest.approx(list(np.linspace(-40, 40, 81)) * 2)
    assert all(math.isnan(r[4]) and math.isnan(r[5]) for r in failed)
    assert not any(math.isnan(v) for r in table.rows[: 2 * 81] for v in r)


def test_bands_engine_table(omega0):
    lat = make_lattice(omega0, cells=100)
    spec = SweepSpec(
        engine="bands",
        lattice=lat,
        reference_frequency=omega0,
        reference_linewidth=GAMMA,
        rho_values=np.array([0.0, 0.2 * lat.cell_size]),
        n_bz=8,
        n_q=11,
    )
    table = run_sweep(spec)
    n_modes = 2 * 8 + 3
    assert len(table.columns) == 2 + n_modes
    assert len(table.rows) == 2 * 11
    # q column spans the BZ symmetrically in G0 units
    qs = sorted(set(r[1] for r in table.rows))
    assert qs[0] == pytest.approx(-0.5) and qs[-1] == pytest.approx(0.5)


def test_gaps_engine_numeric_matches_analytic_columns(omega0):
    lat = make_lattice(omega0, cells=100)
    a = lat.cell_size
    spec = SweepSpec(
        engine="gaps",
        lattice=lat,
        reference_frequency=omega0,
        reference_linewidth=GAMMA,
        rho_values=np.array([0.1 * a, 0.2 * a, 0.4 * a]),
        n_bz=10,
        n_q=81,
    )
    table = run_sweep(spec)
    cols = {name: i for i, name in enumerate(table.columns)}
    for row in table.rows:
        assert row[cols["gap_count"]] == 2
        for k in (1, 2):
            num = row[cols[f"gap{k}_width_gamma"]]
            ana = row[cols[f"analytic_gap{k}_width_gamma"]]
            assert num == pytest.approx(ana, abs=0.5)   # cover_tol-limited edges


def fig4_gap_scan(rho_values):
    text = bundled_config_text("fig4").replace(
        "rho_min = 0 a\nrho_max = 1 a\nrho_points = 51", f"rho_values = {rho_values} a"
    )
    return run_sweep(parse_config(text).sweep)


def test_failed_gap_rho_keeps_its_nan_row_in_place(monkeypatch):
    # the gap scan is one cell; a rho whose scan fails stays alone, as a NaN
    # row where it stands and one error entry
    clean = fig4_gap_scan("0.2, 0.4")
    original = bandstructure.GapScan.entry

    def failing_at_middle_rho(scan, rho):
        if rho == pytest.approx(0.3 * scan.cfg.cell_size):
            raise RuntimeError("injected")
        return original(scan, rho)

    monkeypatch.setattr(bandstructure.GapScan, "entry", failing_at_middle_rho)
    table = fig4_gap_scan("0.2, 0.3, 0.4")
    assert len(table.cells) == 1
    rows, clean_rows = np.array(table.rows), np.array(clean.rows)
    assert np.array_equal(rows[[0, 2]], clean_rows, equal_nan=True)
    assert rows[1, 0] == pytest.approx(0.3) and np.isnan(rows[1, 1:]).all()
    assert not clean.errors
    assert table.errors == [
        {"rho": table.meta["rho_values"][1], "error": "RuntimeError: injected"}
    ]


def test_runtime_warning_in_a_cell_becomes_its_error_entry(monkeypatch):
    # under the default warning filters, as a CLI run has them, a numeric
    # warning inside a cell makes that cell a NaN row and one error entry
    clean = fig4_gap_scan("0.2, 0.4")
    original = bandstructure.GapScan.entry

    def warning_at_middle_rho(scan, rho):
        if rho == pytest.approx(0.3 * scan.cfg.cell_size):
            np.log(np.zeros(1))
        return original(scan, rho)

    monkeypatch.setattr(bandstructure.GapScan, "entry", warning_at_middle_rho)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("default")
        table = fig4_gap_scan("0.2, 0.3, 0.4")
    assert not caught
    rows, clean_rows = np.array(table.rows), np.array(clean.rows)
    assert np.array_equal(rows[[0, 2]], clean_rows, equal_nan=True)
    assert np.isnan(rows[1, 1:]).all()
    assert table.errors == [{
        "rho": table.meta["rho_values"][1],
        "error": "RuntimeWarning: divide by zero encountered in log",
    }]


def test_gap_table_builds_one_plan(monkeypatch):
    # the rho-independent plan is built once per table, not once per rho
    built = []
    init = bandstructure.GapScan.__init__

    def counting_init(scan, *args, **kw):
        built.append(scan)
        init(scan, *args, **kw)

    monkeypatch.setattr(bandstructure.GapScan, "__init__", counting_init)
    table = fig4_gap_scan("0.1, 0.2, 0.3")
    assert len(table.rows) == 3 and not table.errors
    assert len(built) == 1


def test_failed_bands_rho_keeps_its_nan_row_in_place(monkeypatch):
    # a bands cell is one rho; a failed rho becomes one NaN row after its
    # rho/a, between the cells of the other two
    text = bundled_config_text("fig2a").replace("n_q = 401", "n_q = 5")
    clean = run_sweep(parse_config(text).sweep)
    original = bandstructure.compute_bands

    def failing_at_middle_rho(cfg, **kw):
        if cfg.intracell_distance == pytest.approx(0.2 * cfg.cell_size):
            raise ValueError("injected")
        return original(cfg, **kw)

    monkeypatch.setattr(bandstructure, "compute_bands", failing_at_middle_rho)
    table = run_sweep(parse_config(text).sweep)
    assert len(table.cells) == 3
    rows, clean_rows = np.array(table.rows), np.array(clean.rows)
    assert len(rows) == 5 + 1 + 5
    assert np.array_equal(rows[:5], clean_rows[:5])
    assert np.array_equal(rows[6:], clean_rows[10:])
    assert rows[5, 0] == pytest.approx(0.2) and np.isnan(rows[5, 1:]).all()
    assert not clean.errors
    assert table.errors == [{"rho": table.meta["rho_values"][1], "error": "ValueError: injected"}]


def test_clean_run_meta_has_no_errors_key(tmp_path):
    # the error list is created only when a cell or a probe point fails
    text = bundled_config_text("fig9").replace("probe_points = 4801", "probe_points = 41")
    table = run_sweep(parse_config(text).sweep)
    assert list(table.meta) == [
        "engine", "rho_values", "phi_values", "commensurate_order", "peaks"
    ]
    out = tmp_path / "fig9.json"
    write_table(table, out, "json")
    assert "errors" not in json.loads(out.read_text())["meta"]
    assert not (tmp_path / "fig9.json.errors.log").exists()


def test_cavity_engine_table_and_peak_meta(omega0):
    lat = make_lattice(omega0, cells=100)
    cav = make_cavity(omega0, phase=0.0)
    spec = SweepSpec(
        engine="cavity",
        lattice=lat,
        cavity=cav,
        reference_frequency=omega0,
        reference_linewidth=GAMMA,
        probe_grid=omega0 + np.linspace(-40, 40, 801) * GAMMA,
        rho_values=np.array([0.0, 0.2 * lat.cell_size]),
        phi_values=np.array([0.0, math.pi / 2]),
    )
    table = run_sweep(spec)
    assert table.columns[:2] == ["rho_over_a", "phi_rad"]
    assert len(table.rows) == 4 * 801
    assert len(table.meta["peaks"]) == 4
    assert table.meta["commensurate_order"] == 2
    # normalized column peaks at <= 1 (empty-cavity resonant height)
    norm = [r[-1] for r in table.rows]
    assert max(norm) <= 1.0 + 1e-9
