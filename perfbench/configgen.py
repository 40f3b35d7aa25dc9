"""Seeded benchmark configs derived from the bundled figure configs.

Each workload is a fixed list of config runs.  The seed changes the values
in a config (rho, phi, q_max, window and probe-window jitter), never its
size: n_bz, n_q, planes and probe_points stay those of the source figure,
and every config of a workload has the same number of rho (or phi) points
for every seed.  The program only ever sees the config files written here.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

# Why each workload was chosen is recorded in BENCHMARK.json, which lists
# gaps and spectra; bands is run by hand (see run.py).
WORKLOADS = ("gaps", "bands", "spectra")

# rho points per gaps family and per bands config; sets the run length
GAPS_RHO_POINTS = 3
BANDS_RHO_POINTS = 3
CAVITY_RHO_POINTS = 3


@dataclass(frozen=True)
class RunSpec:
    """One config run of a workload: the file the program reads and how it writes."""

    name: str        # e.g. "fig4"
    text: str        # config file text
    fmt: str         # "csv" or "json"


def _parse_lines(text: str) -> list[tuple[str | None, str]]:
    """(key, raw line) pairs; key is None for comment and blank lines."""
    out = []
    for raw in text.splitlines():
        body = raw.split("#", 1)[0].strip()
        out.append((body.split("=", 1)[0].strip() if "=" in body else None, raw))
    return out


def derive(text: str, set_keys: dict[str, str], drop: tuple[str, ...] = ()) -> str:
    """Copy of config ``text`` with keys replaced or appended and ``drop`` removed."""
    lines = []
    pending = dict(set_keys)
    for key, raw in _parse_lines(text):
        if key in drop:
            continue
        if key in pending:
            lines.append(f"{key} = {pending.pop(key)}")
        else:
            lines.append(raw)
    lines += [f"{key} = {value}" for key, value in pending.items()]
    return "\n".join(lines) + "\n"


def _rho_list(rng: random.Random, n: int, lo: float, hi: float) -> str:
    values = sorted(rng.uniform(lo, hi) for _ in range(n))
    return ", ".join(f"{v:.6f}" for v in values) + " a"


def _jitter(rng: random.Random, centre: float, half: float) -> str:
    return f"{centre + rng.uniform(-half, half):.4f} gamma"


def generate(workload: str, seed: int, config_dir: Path) -> list[RunSpec]:
    """The seeded run list of ``workload``, built from the bundled configs in
    ``config_dir`` (``src/bilattice/configs`` of the checkout)."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r} (have: {', '.join(WORKLOADS)})")
    rng = random.Random(f"{workload}:{seed}")

    def source(name: str) -> str:
        return (config_dir / f"{name}.cfg").read_text(encoding="utf-8")

    runs = []
    if workload == "gaps":
        # (figure, rho range in a, window centre in gamma); fig2b has no window
        # key, so its centre is the program's default window for fig2b: the
        # anchors -10, -10 and 0 gamma padded by 800 gamma
        for name, rho_hi, window in (
            ("fig2b", 0.5, (-810.0, 800.0)),
            ("fig4", 1.0, (-800.0, 800.0)),
            ("fig5", 1.0, (-800.0, 800.0)),
        ):
            text = derive(
                source(name),
                {
                    "rho_values": _rho_list(rng, GAPS_RHO_POINTS, 0.0, rho_hi),
                    "window_min": _jitter(rng, window[0], 25.0),
                    "window_max": _jitter(rng, window[1], 25.0),
                },
                drop=("rho_min", "rho_max", "rho_points"),
            )
            runs.append(RunSpec(name, text, "csv"))
    elif workload == "bands":
        text = derive(
            source("fig2a"),
            {
                "rho_values": _rho_list(rng, BANDS_RHO_POINTS, 0.0, 0.5),
                "q_max": f"{rng.uniform(1.5e-5, 4.0e-5):.6e} G0",
            },
        )
        runs.append(RunSpec("fig2a", text, "csv"))
    else:
        for name in ("fig6", "fig7", "fig8"):
            text = derive(
                source(name),
                {
                    "rho": f"{rng.uniform(0.0, 0.3):.6f} a",
                    "probe_min": _jitter(rng, -600.0, 15.0),
                    "probe_max": _jitter(rng, 600.0, 15.0),
                },
            )
            runs.append(RunSpec(name, text, "csv"))
        for name in ("fig9", "fig10"):
            text = derive(
                source(name),
                {
                    "rho_values": _rho_list(rng, CAVITY_RHO_POINTS, 0.0, 0.5),
                    "phase": f"{rng.uniform(0.0, 1.0):.6f} pi",
                },
            )
            runs.append(RunSpec(name, text, "json"))
    return runs
