"""Span wrappers restore the program and their self times add up."""

import pytest

import configgen
import run
import tracing
from bilattice import cli_io
from conftest import ROOT

CONFIG_DIR = ROOT / "src" / "bilattice" / "configs"


def _attributes():
    return [getattr(module, attr) for _, module, attr, _ in tracing.TARGETS]


def test_wrappers_leave_module_attributes_unchanged():
    before = _attributes()
    with tracing.Tracer().installed():
        during = _attributes()
        assert all(a is not b for a, b in zip(before, during))
        assert [f.__name__ for f in during] == [f.__name__ for f in before]
    assert all(a is b for a, b in zip(before, _attributes()))


def test_wrappers_restored_after_an_exception():
    before = _attributes()
    with pytest.raises(KeyError):
        with tracing.Tracer().installed():
            raise KeyError("boom")
    assert all(a is b for a, b in zip(before, _attributes()))


def test_self_times_subtract_direct_children():
    spans = [
        tracing.Span("cli_io.main", 0.0, 10.0, -1, 1),
        tracing.Span("sweep.run_sweep", 1.0, 9.0, 0, 1),
        tracing.Span("transfer_matrix.spectrum_scan", 2.0, 4.0, 1, 1),
        tracing.Span("transfer_matrix.spectrum_scan", 5.0, 8.0, 1, 1),
    ]
    assert tracing.self_times(spans) == [2.0, 3.0, 2.0, 3.0]
    assert tracing.self_times(spans, first=1) == [3.0, 2.0, 3.0]


def test_traced_transmit_run_counts_and_coverage(tmp_path):
    spec = next(s for s in configgen.generate("spectra", 3, CONFIG_DIR) if s.name == "fig6")
    config = tmp_path / "fig6.cfg"
    config.write_text(spec.text)
    job = run.Job(spec.name, spec.text, spec.fmt, config, tmp_path / "fig6.csv")
    tracer = tracing.Tracer()
    with tracer.installed():
        wall, caught = run.run_batch([job], cli_io)
    metrics = tracer.layer_metrics(0, wall, caught)
    assert job.failures == 0
    assert metrics["transfer_matrix.points"] == metrics["transfer_matrix.scan_calls"] == 4801
    assert metrics["sweep.engine_calls"] == 4801
    assert metrics["bandstructure.eigvalsh_matrices"] == 0
    assert metrics["cli_io.write_bytes"] == job.out.stat().st_size
    assert {s.run for s in tracer.spans} == {1}
    assert abs(metrics["trace.coverage"] - 1.0) < run.COVERAGE_TOL
