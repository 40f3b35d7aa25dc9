"""Reference formulas and readers that the tests check package code against.

None of these is used by the engines or the CLI, so they live here rather
than in the package:

* ``as_array`` -- a ``ScatterMatrix`` as a 2x2 numpy array, for
  ``np.linalg.matrix_power`` references;
* ``plane_coefficients`` -- the single-plane (r, t), the reference for
  ``period_matrix``;
* ``transmission_asymptotic`` -- the deep-gap limit of ``stack_coefficients``;
* ``cooperativity`` -- the collective cooperativity M R / (kappa gamma);
* ``fabry_perot_transmission`` -- the lattice in a two-mirror resonator,
  built from transfer matrices: the independent route to the cavity
  engine's ``intensity_norm``;
* ``read_table`` -- reads back what ``tableio.write_table`` wrote.
"""

from __future__ import annotations

import cmath
import json
import math
from pathlib import Path
from typing import NamedTuple

import numpy as np

from bilattice.constants import C
from bilattice.sweep import Table
from bilattice.transfer_matrix import ScatterMatrix, _cos_sin, dimer_matrix, period_matrix


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


def fabry_perot_transmission(cavity, lattice, probe, phi) -> np.ndarray:
    """Transmission T of a Fabry-Perot resonator with the lattice inside.

    The resonator is two lossless mirror sheets, planes of real xi_m with
    xi_m sqrt(1 + xi_m^2) = c / (2 L kappa), which gives the resonance the
    half-width kappa.  Their separation L is set within lambda/4 of
    ``cavity.length`` so that r_m^2 e^{2 i k_c L} = 1: an empty-cavity
    resonance sits at omega_c.  Near the middle, the even sites sit where
    the empty mode's standing wave cos(k_c (x - L) - arg(r_m) / 2) has phase
    ``phi``, and the odd sites rho further on.  The lattice
    (``lattice``'s cell size, rho and species, at the density
    occupancy / (pi w_c^2 / 4) of the cavity coupling) enters as
    (cell)^M, M = ``cavity.cell_count``, by repeated squaring.  Elementwise
    over the probe frequencies.
    """
    omega = np.asarray(probe, dtype=float)
    k, k_c = omega / C, cavity.wavevector
    q = C / (2.0 * cavity.length * cavity.linewidth)
    xi_m = math.sqrt((math.sqrt(1.0 + 4.0 * q * q) - 1.0) / 2.0)
    arg_r = cmath.phase(1j * xi_m / (1.0 - 1j * xi_m))
    length = (math.pi * round((k_c * cavity.length + arg_r) / math.pi) - arg_r) / k_c
    # from the first even site to the second mirror: k_c D = -phi - arg_r/2 (mod pi)
    turns = round((k_c * length / 2.0 + phi + arg_r / 2.0) / math.pi)
    to_mirror = (math.pi * turns - phi - arg_r / 2.0) / k_c
    span = cavity.cell_count * lattice.cell_size
    density = cavity.occupancy / (math.pi * cavity.waist**2 / 4.0)
    cell = dimer_matrix(lattice.replace(areal_density=density), omega)
    stack, n = None, cavity.cell_count
    while n:   # cell^M: the factors are powers of one matrix, so they commute
        if n & 1:
            stack = cell if stack is None else stack @ cell
        n >>= 1
        cell = cell @ cell if n else cell
    total = (
        period_matrix(xi_m, length - to_mirror, k) @ stack
        @ period_matrix(0.0, to_mirror - span, k) @ period_matrix(xi_m, 0.0, k)
    )
    return np.abs(1.0 / total.m22) ** 2


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
