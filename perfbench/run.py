"""bilattice benchmark: seeded figure workloads timed through ``cli_io.main``.

Run from the root of a checkout (defaults: seed 1, 50 seconds, no trace):

    python3 perfbench/run.py --workload gaps --seed 1 --seconds 50 --trace 0
    for w in gaps spectra; do python3 perfbench/run.py --workload $w; done

BENCHMARK.json lists gaps and spectra.  The bands workload (fig2a
dispersion, the no-change control for gap detection) runs the same way with
``--workload bands`` but is left out of BENCHMARK.json, so that two
workloads get long enough runs to be steady within the time all runs share.

Its own tests: python3 -m pytest perfbench/tests

A workload is a fixed list of config runs derived from the bundled figure
configs (see configgen.py).  One batch runs each config once through
``cli_io.main``, the path a user takes, in this one process: Python on one
thread, BLAS on one thread (OPENBLAS_NUM_THREADS=1, set before numpy is
imported; on a 2-vCPU machine two BLAS threads are 10-15% slower on gaps and
bands and make the timings drift with the other vCPU's load), ``workers``
unset.  Batches
repeat until ``--seconds`` have passed; the first is a warm-up and is not
timed.  Every output is compared with the warm-up batch's bytes and, after
the timed region, checked against an independent reference (refcheck.py).

--trace 0 reports the end-to-end metrics:
  setup_s      median over fresh interpreters of the time from
               ``import bilattice`` through the first ``parse_config``;
  wall_s       median time of one batch of config runs;
  peak_rss_mb  ru_maxrss of this process after the batches, before checks.
--trace 1 alternates untraced and traced batches and reports the per-layer
metrics from spans recorded around each module's entry points
(tracing.py); the spans are written to .bench_out/.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  A config run fails on a nonzero
exit code, an exception, an errors sidecar, output that differs from the
warm-up batch, a NaN row or a reference mismatch.  The error rate is
failed / attempted; it is printed with the other metrics.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import configgen

SETUP_REPEATS = 9
MIN_BATCHES = 3            # timed batches per run (per kind when tracing)
COVERAGE_TOL = 0.05        # layer self times must add up to the traced wall time
OUT_DIR = ".bench_out"

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "bandstructure.eigvalsh_s": "s",
    "bandstructure.eigvalsh_matrices": "count",
    "bandstructure.assembly_s": "s",
    "bandstructure.find_gaps_s": "s",
    "bandstructure.gap_scan_s": "s",
    "bandstructure.ref_err": "gamma",
    "transfer_matrix.scan_s": "s",
    "transfer_matrix.scan_calls": "count",
    "transfer_matrix.points": "count",
    "transfer_matrix.ref_err": "1",
    "cavity.scan_s": "s",
    "cavity.steady_state_s": "s",
    "cavity.steady_state_calls": "count",
    "cavity.points": "count",
    "cavity.ref_err": "1",
    "sweep.self_s": "s",
    "sweep.engine_calls": "count",
    "sweep.cell_errors": "count",
    "cli_io.parse_s": "s",
    "cli_io.write_s": "s",
    "cli_io.write_bytes": "B",
    "cli_io.warnings": "count",
    "trace.overhead_s": "s",
    "trace.coverage": "1",
}

SETUP_SCRIPT = """
import sys, time
from pathlib import Path
text = Path(sys.argv[1]).read_text(encoding="utf-8")
t0 = time.perf_counter()
import bilattice
from bilattice import cli_io
cli_io.parse_config(text)
print(repr(time.perf_counter() - t0))
"""


@dataclass
class Job:
    """One config of the workload and the outcome of each of its runs."""

    name: str
    text: str
    fmt: str
    config: Path
    out: Path
    digest: bytes | None = None
    attempts: int = 0
    failures: int = 0
    reasons: list[str] = field(default_factory=list)

    @property
    def argv(self) -> list[str]:
        return ["scan", "--config", str(self.config), "--out", str(self.out), "--format", self.fmt]

    def record(self, problems: list[str], runs: int = 1) -> None:
        """Count ``runs`` runs as failed when there are problems."""
        if problems:
            self.failures = min(self.attempts, self.failures + runs)
            self.reasons += [p for p in problems if p not in self.reasons]


def locate_program(root: Path) -> Path:
    """The checkout's ``src`` directory, first on sys.path; exit 2 without one."""
    src = root / "src"
    if not (src / "bilattice" / "__init__.py").is_file():
        print(f"no bilattice sources under {src}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(src))
    return src


def run_job(job: Job, cli_io) -> tuple[float, int]:
    """Run one config through cli_io.main; (seconds, warnings caught).

    Warnings are recorded, not printed, so that every run handles each of
    its warnings the way a fresh ``bilattice`` process would.
    """
    job.attempts += 1
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        start = time.perf_counter()
        try:
            code = cli_io.main(job.argv)
            problems = [] if code == 0 else [f"exit code {code}"]
        except Exception as exc:  # noqa: BLE001 - a crashing run is a failed run
            problems = [f"raised {type(exc).__name__}: {exc}"]
        seconds = time.perf_counter() - start
    sidecar = Path(f"{job.out}.errors.log")
    if sidecar.exists():
        problems.append("errors sidecar")
        sidecar.unlink()
    digest = hashlib.blake2b(job.out.read_bytes()).digest() if job.out.exists() else b""
    if job.digest is None:
        job.digest = digest
    elif digest != job.digest:
        problems.append("output differs from the warm-up batch")
    job.record(problems)
    return seconds, len(caught)


def run_batch(jobs: list[Job], cli_io) -> tuple[float, int]:
    """Each job once; (summed run time, warnings caught)."""
    wall = caught = 0
    for job in jobs:
        seconds, n = run_job(job, cli_io)
        wall += seconds
        caught += n
    return wall, caught


def verify(jobs: list[Job], seed: int, workload: str) -> dict[str, float]:
    """Reference-check each job's output; a mismatch fails all its runs.

    Returns the largest reference error per layer.
    """
    import refcheck

    rng = random.Random(f"verify:{workload}:{seed}")
    errors = {"bandstructure": 0.0, "transfer_matrix": 0.0, "cavity": 0.0}
    for job in jobs:
        if not job.out.exists():
            job.record(["no output"], job.attempts)
            continue
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")   # already counted during the runs
                verdict = refcheck.check(job.text, job.out, job.fmt, rng)
        except Exception as exc:  # noqa: BLE001 - an unreadable table is a failure
            job.record([f"check raised {type(exc).__name__}: {exc}"], job.attempts)
            continue
        errors[verdict.layer] = max(errors[verdict.layer], verdict.ref_err)
        if not verdict.ok:
            job.record([f"reference mismatch: {verdict.detail}"], job.attempts)
    return errors


def measure_setup(src: Path, config: Path) -> list[float]:
    """Fresh-interpreter set-up times; the first, which may compile bytecode, is dropped."""
    env = dict(os.environ, PYTHONPATH=str(src))
    times = []
    for _ in range(SETUP_REPEATS + 1):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_SCRIPT, str(config)],
            env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times[1:]


def _blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS that numpy loaded, if any."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower()})
    except OSError:
        return None
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return int(fn())
    return None


def machine_notes(seed: int, workload: str) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "workload": workload,
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": _blas_threads(),
    }


def make_jobs(workload: str, seed: int, src: Path, work: Path) -> list[Job]:
    """Write the seeded configs of ``workload`` into ``work``, one job each."""
    jobs = []
    for i, spec in enumerate(configgen.generate(workload, seed, src / "bilattice" / "configs")):
        stem = work / f"{i}_{spec.name}"
        config = stem.with_suffix(".cfg")
        config.write_text(spec.text, encoding="utf-8")
        jobs.append(Job(spec.name, spec.text, spec.fmt, config, stem.with_suffix(f".{spec.fmt}")))
    return jobs


def time_batches(jobs: list[Job], cli_io, seconds: float, tracer=None):
    """Batch wall times until ``seconds`` have passed, after an untimed warm-up.

    With a tracer, every untraced batch is followed by a traced one; returns
    (untraced walls, per-layer metrics of each traced batch).
    """
    run_batch(jobs, cli_io)
    walls, traced = [], []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(walls) < MIN_BATCHES:
        walls.append(run_batch(jobs, cli_io)[0])
        if tracer is not None:
            first = len(tracer.spans)
            with tracer.installed():
                wall, caught = run_batch(jobs, cli_io)
            traced.append(tracer.layer_metrics(first, wall, caught) | {"wall": wall})
    return walls, traced


def run(workload: str, seed: int, seconds: float, trace: bool, root: Path) -> dict:
    src = locate_program(root)
    import bilattice
    import tracing
    from bilattice import cli_io

    if not Path(bilattice.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"bilattice imported from {bilattice.__file__}, not from {src}")

    out_dir = root / OUT_DIR
    out_dir.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-{seed}-", dir=out_dir))
    tracer = tracing.Tracer() if trace else None
    metrics = {}
    try:
        jobs = make_jobs(workload, seed, src, work)
        if not trace:
            metrics["setup_s"] = statistics.median(measure_setup(src, jobs[0].config))
        walls, traced = time_batches(jobs, cli_io, seconds, tracer)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        ref_errors = verify(jobs, seed, workload)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    notes = machine_notes(seed, workload)
    attempted = sum(job.attempts for job in jobs)
    failed = sum(job.failures for job in jobs)
    correct = failed == 0
    if trace:
        for name in PER_LAYER_UNITS:
            if name in traced[0]:
                metrics[name] = statistics.median(batch[name] for batch in traced)
        metrics["trace.overhead_s"] = statistics.median(b["wall"] for b in traced) - statistics.median(walls)
        for layer, err in ref_errors.items():
            metrics[f"{layer}.ref_err"] = err
        if abs(metrics["trace.coverage"] - 1.0) > COVERAGE_TOL:
            correct = False
            print(f"layer self times cover {metrics['trace.coverage']:.3f} of the traced wall time",
                  file=sys.stderr)
        spans_path = out_dir / f"spans-{workload}-seed{seed}.json"
        spans_path.write_text(json.dumps({"machine": notes, "spans": tracer.dump()}), encoding="utf-8")
        units = PER_LAYER_UNITS
    else:
        metrics["wall_s"] = statistics.median(walls)
        metrics["peak_rss_mb"] = peak_rss_mb
        units = END_TO_END_UNITS

    for job in jobs:
        if job.failures:
            print(f"{job.name}: {job.failures} of {job.attempts} runs failed: {'; '.join(job.reasons)}",
                  file=sys.stderr)
    print(f"machine {json.dumps(notes)}")
    print(f"{workload} seed {seed}: {len(jobs)} configs x {len(walls)} timed batches"
          + (f" + {len(traced)} traced" if trace else ""))
    for name in units:
        value = metrics[name]
        print(f"  {name:34s} {value:.10g}" if isinstance(value, float) else f"  {name:34s} {value}",
              units[name])
    print(f"  {'error_rate':34s} {failed / attempted:.6g} ({failed} of {attempted} config runs)")
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=configgen.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    os.environ["OPENBLAS_NUM_THREADS"] = "1"   # before numpy loads; set-up runs inherit it
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), Path.cwd())
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
