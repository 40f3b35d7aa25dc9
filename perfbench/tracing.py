"""Spans around the public entry points of each bilattice module.

The wrappers live here, in the benchmark, and are installed on the module
attributes the program looks up at call time; nothing inside ``src`` is
changed.  Spans are kept in memory as (name, start, end, parent, run id,
count) and written out when the benchmark ends.  A span's self time is its
duration minus the durations of its direct children.  Runs are
single-threaded (the config key ``workers`` is left unset), so one stack
gives every span its parent.

Layers are the module names.  ``core`` has no span: its cost is inside the
engines' self time.  ``np.linalg.eigvalsh`` is only called by
``bandstructure`` and is counted in that layer.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from bilattice import bandstructure, cavity, cli_io, transfer_matrix


def _matrices(args, kwargs, result):
    stack = np.asarray(args[0])
    return int(np.prod(stack.shape[:-2], dtype=int))


def _probe_points(args, kwargs, result):
    return len(args[1])


def _cavity_points(args, kwargs, result):
    return sum(len(cell.intensities) for cell in result)


def _cell_errors(args, kwargs, result):
    return len(result.meta.get("errors") or [])


def _bytes_written(args, kwargs, result):
    destination = args[1] if len(args) > 1 else kwargs.get("destination")
    if destination in (None, "-"):
        return 0
    return Path(destination).stat().st_size


# (span name, module, attribute, count of work done read from the call)
TARGETS = (
    ("cli_io.main", cli_io, "main", None),
    ("cli_io.parse_config", cli_io, "parse_config", None),
    ("cli_io.write_table", cli_io, "write_table", _bytes_written),
    ("sweep.run_sweep", cli_io, "run_sweep", _cell_errors),
    ("bandstructure.gap_widths_vs_rho", bandstructure, "gap_widths_vs_rho", None),
    ("bandstructure.compute_bands", bandstructure, "compute_bands", None),
    ("bandstructure.find_gaps", bandstructure, "find_gaps", None),
    ("bandstructure.eigvalsh", np.linalg, "eigvalsh", _matrices),
    ("transfer_matrix.spectrum_scan", transfer_matrix, "spectrum_scan", _probe_points),
    ("cavity.cavity_spectrum_scan", cavity, "cavity_spectrum_scan", _cavity_points),
    ("cavity.steady_state", cavity, "steady_state", None),
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int          # index into Tracer.spans, -1 for a root
    run: int             # config run id, shared by the spans of one run
    count: int = 0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans while installed; see ``installed``."""

    def __init__(self):
        self.spans: list[Span] = []
        self.run = 0
        self._stack: list[int] = []

    def _wrap(self, name, fn, counter):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not stack:
                self.run += 1        # a root span starts a new config run
            index = len(spans)
            span = Span(name, time.perf_counter(), 0.0, stack[-1] if stack else -1, self.run)
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if counter is not None:
                span.count = counter(args, kwargs, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Replace every target attribute by its traced wrapper; restore on exit."""
        originals = [(module, attr, getattr(module, attr)) for _, module, attr, _ in TARGETS]
        try:
            for (name, module, attr, counter), (_, _, fn) in zip(TARGETS, originals):
                setattr(module, attr, self._wrap(name, fn, counter))
            yield self
        finally:
            for module, attr, fn in originals:
                setattr(module, attr, fn)

    def layer_metrics(self, first: int, wall: float, warnings: int) -> dict[str, float]:
        """Per-layer metrics of one traced batch: the spans from index ``first``
        on, which took ``wall`` seconds and raised ``warnings`` warnings."""
        spans = self.spans
        batch = spans[first:]
        own = self_times(spans, first)
        total: dict[str, float] = {}
        self_s: dict[str, float] = {}
        calls: dict[str, int] = {}
        counts: dict[str, int] = {}
        layer_self: dict[str, float] = {}
        sweep_children = 0
        for span, own_s in zip(batch, own):
            name = span.name
            total[name] = total.get(name, 0.0) + span.duration
            self_s[name] = self_s.get(name, 0.0) + own_s
            calls[name] = calls.get(name, 0) + 1
            counts[name] = counts.get(name, 0) + span.count
            layer = name.split(".", 1)[0]
            layer_self[layer] = layer_self.get(layer, 0.0) + own_s
            if span.parent >= first and spans[span.parent].name == "sweep.run_sweep":
                sweep_children += 1
        return {
            "bandstructure.eigvalsh_s": total.get("bandstructure.eigvalsh", 0.0),
            "bandstructure.eigvalsh_matrices": counts.get("bandstructure.eigvalsh", 0),
            "bandstructure.assembly_s": self_s.get("bandstructure.compute_bands", 0.0),
            "bandstructure.find_gaps_s": total.get("bandstructure.find_gaps", 0.0),
            "bandstructure.gap_scan_s": self_s.get("bandstructure.gap_widths_vs_rho", 0.0),
            "transfer_matrix.scan_s": total.get("transfer_matrix.spectrum_scan", 0.0),
            "transfer_matrix.scan_calls": calls.get("transfer_matrix.spectrum_scan", 0),
            "transfer_matrix.points": counts.get("transfer_matrix.spectrum_scan", 0),
            "cavity.scan_s": self_s.get("cavity.cavity_spectrum_scan", 0.0),
            "cavity.steady_state_s": total.get("cavity.steady_state", 0.0),
            "cavity.steady_state_calls": calls.get("cavity.steady_state", 0),
            "cavity.points": counts.get("cavity.cavity_spectrum_scan", 0),
            "sweep.self_s": self_s.get("sweep.run_sweep", 0.0),
            "sweep.engine_calls": sweep_children,
            "sweep.cell_errors": counts.get("sweep.run_sweep", 0),
            "cli_io.parse_s": total.get("cli_io.parse_config", 0.0),
            "cli_io.write_s": total.get("cli_io.write_table", 0.0),
            "cli_io.write_bytes": counts.get("cli_io.write_table", 0),
            "cli_io.warnings": warnings,
            "trace.coverage": sum(layer_self.values()) / wall,
        }

    def dump(self) -> list[list]:
        return [[s.name, s.start, s.end, s.parent, s.run, s.count] for s in self.spans]


def self_times(spans: list[Span], first: int = 0) -> list[float]:
    """Self time of spans[first:]; parents must lie in the same slice."""
    own = [s.duration for s in spans[first:]]
    for s in spans[first:]:
        if s.parent >= first:
            own[s.parent - first] -= s.duration
    return own
