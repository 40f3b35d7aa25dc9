"""Reference formulas and readers that the tests check package code against.

None of these is used by the engines or the CLI, so they live here rather
than in the package:

* ``as_array`` -- a ``ScatterMatrix`` as a 2x2 numpy array, for
  ``np.linalg.matrix_power`` references;
* ``plane_coefficients`` -- the single-plane (r, t), the reference for
  ``period_matrix``;
* ``transmission_asymptotic`` -- the deep-gap limit of ``stack_coefficients``;
* ``cooperativity`` -- the collective cooperativity M R / (kappa gamma);
* ``read_table`` -- reads back what ``tableio.write_table`` wrote.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import NamedTuple

import numpy as np

from bilattice.sweep import Table
from bilattice.transfer_matrix import ScatterMatrix, _cos_sin, dimer_matrix


def as_array(m: ScatterMatrix) -> np.ndarray:
    return np.array([[m.m11, m.m12], [m.m21, m.m22]], dtype=complex)


def plane_coefficients(xi: complex) -> tuple[complex, complex]:
    """Reflection and transmission (r, t) of a single atomic plane.

    r = i xi / (1 - i xi), t = 1 / (1 - i xi); the thin-sheet relation
    t - r = 1 holds identically.  xi = -i (gain-like pole) is rejected.
    """
    denom = 1.0 - 1j * xi
    if abs(denom) < 1e-12:
        raise ValueError("xi ~ -i: singular (gain-like) sheet response")
    return 1j * xi / denom, 1.0 / denom


class AsymptoticTransmission(NamedTuple):
    value: complex
    valid: bool   # True when Im Theta > Re Theta (deep-gap regime)


def transmission_asymptotic(cfg, omega_p: float, n: int) -> AsymptoticTransmission:
    """Large-n transmission 2 e^{i n Theta} sin Theta / (sin Theta + i (M22 - cos Theta)).

    Magnitude decays as e^{-n Im Theta}.  The stated validity domain is
    Im Theta > Re Theta (around the atomic resonances); outside it the value
    is still returned but flagged invalid.
    """
    if n < 1:
        raise ValueError("need at least one cell")
    m = dimer_matrix(cfg, omega_p)
    cos, sin = _cos_sin(m)
    theta = complex(-1j * np.log(cos + 1j * sin))
    value = 2.0 * np.exp(1j * n * theta) * sin / (sin + 1j * (m.m22 - cos))
    return AsymptoticTransmission(complex(value), theta.imag > theta.real)


def cooperativity(cell_count: int, coupling_sq: float, kappa: float, gamma: float) -> float:
    """Collective cooperativity M R / (kappa gamma)."""
    return cell_count * coupling_sq / (kappa * gamma)


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
