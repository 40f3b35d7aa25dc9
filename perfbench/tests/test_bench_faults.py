"""Injected faults raise the error rate; a healthy run has none."""

import pytest

import configgen
import run
from bilattice import cli_io, transfer_matrix
from conftest import ROOT

CONFIG_DIR = ROOT / "src" / "bilattice" / "configs"


def _fig7_job(tmp_path):
    spec = next(s for s in configgen.generate("spectra", 1, CONFIG_DIR) if s.name == "fig7")
    config = tmp_path / "fig7.cfg"
    config.write_text(spec.text)
    return run.Job(spec.name, spec.text, spec.fmt, config, tmp_path / "fig7.csv")


def _error_rate(job, batches=2):
    for _ in range(batches):
        run.run_batch([job], cli_io)
    run.verify([job], seed=1, workload="spectra")
    return job.failures / job.attempts


def test_healthy_run_has_no_errors(tmp_path):
    job = _fig7_job(tmp_path)
    assert _error_rate(job) == 0.0, job.reasons


def test_engine_that_raises_on_one_point(tmp_path, monkeypatch):
    job = _fig7_job(tmp_path)
    original = transfer_matrix.spectrum_scan
    bad = float(cli_io.parse_config(job.text).sweep.probe_grid[100])

    def faulty(cfg, probe_grid, workers=1):
        if bad in probe_grid:
            raise RuntimeError("injected")
        return original(cfg, probe_grid, workers)

    monkeypatch.setattr(transfer_matrix, "spectrum_scan", faulty)
    assert _error_rate(job) == 1.0
    assert "errors sidecar" in job.reasons


def test_engine_exception_escaping_main(tmp_path, monkeypatch):
    job = _fig7_job(tmp_path)

    def broken(spec):
        raise ValueError("injected")

    monkeypatch.setattr(cli_io, "run_sweep", broken)
    assert _error_rate(job) == 1.0
    assert "raised ValueError: injected" in job.reasons


@pytest.mark.parametrize("shift", [0.01, -2e-3])
def test_perturbed_table_values(tmp_path, monkeypatch, shift):
    job = _fig7_job(tmp_path)
    original = cli_io.write_table

    def perturbed(table, destination, fmt="csv"):
        # T and A moved together so that A = 1 - T - R still holds
        table.rows = [(w, d, t + shift, r, a - shift) for w, d, t, r, a in table.rows]
        return original(table, destination, fmt)

    monkeypatch.setattr(cli_io, "write_table", perturbed)
    assert _error_rate(job) == 1.0
    assert any(r.startswith("reference mismatch") for r in job.reasons)


def test_nondeterministic_output_fails_the_differing_runs(tmp_path, monkeypatch):
    job = _fig7_job(tmp_path)
    original = cli_io.write_table
    calls = []

    def drifting(table, destination, fmt="csv"):
        calls.append(None)
        if len(calls) == 2:
            table.rows[0] = table.rows[0][:2] + (table.rows[0][2] + 1e-9,) + table.rows[0][3:]
        return original(table, destination, fmt)

    monkeypatch.setattr(cli_io, "write_table", drifting)
    for _ in range(3):
        run.run_batch([job], cli_io)
    assert (job.failures, job.attempts) == (1, 3)
