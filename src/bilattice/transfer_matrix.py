"""Finite-lattice probe transmission and reflection via 2x2 transfer matrices.

A lattice plane with sheet response xi acts on forward/backward field
amplitudes through the unimodular boundary matrix; one period is boundary x
free propagation, one cell is the product of the two periods (d1 = rho,
d2 = a - rho).  Every function here works elementwise on arrays of probe
frequencies, so a whole spectrum is one pass of numpy arithmetic.

The n-cell response follows from the Chebyshev identity for powers of
unimodular matrices,

    (M^n)_22 = [sin(n Theta) (M_22 - cos Theta) + cos(n Theta) sin Theta] / sin Theta,
    (M^n)_12 = M_12 sin(n Theta) / sin Theta,      cos Theta = Tr(M)/2,

written in a form that stays finite for n up to 1e6 (only e^{i n Theta} with
Im Theta >= 0 appears, never its inverse).  cos Theta is the exact dimer
trace; sin Theta comes from the entries, not from 1 - cos^2 Theta, which
cancels at the band edges cos Theta = +-1 (acos(Tr M/2) lost ~eps/|sin Theta|
there before n multiplied it):

    sin^2 Theta = -((M_11 - M_22)^2 + 4 M_12 M_21) / 4        (det M = 1).

The root kept makes the eigenvalue lambda = cos Theta + i sin Theta satisfy
|lambda| <= 1, i.e. Im Theta >= 0, and Theta = -i log lambda.  The stack
formula writes lambda = +-e^{i phi} with phi = arctan(sin Theta / cos Theta)
where |sin Theta| < |cos Theta| (else phi = -i log(+-lambda)), so that phi
and expm1(2 i n phi) = e^{2 i n Theta} - 1 keep relative accuracy at the
band edges.  Small-xi expansions of the cell dephasing (cos k_p(d1 - d2) ->
cos k_p rho) are not used; they are only accurate to O(xi1 xi2 (k_p a - 2 pi)).

Absorption enters through Im(xi) and does not break unimodularity, so
energy conservation |r|^2 + |t|^2 = 1 holds exactly only for real xi.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .constants import C
from .core import LatticeConfig, xi_parameter

# n |sin Theta| below which stack_coefficients takes the parabolic limit
_DEGENERATE_NSIN = 1e-8


@dataclass(frozen=True)
class ScatterMatrix:
    """2x2 complex transfer matrix relating right-side to left-side amplitudes.

    Entries are complex numbers or equal-shape complex arrays (one matrix
    per probe frequency); every operation acts elementwise.
    """

    m11: complex
    m12: complex
    m21: complex
    m22: complex

    def __matmul__(self, other: "ScatterMatrix") -> "ScatterMatrix":
        return ScatterMatrix(
            self.m11 * other.m11 + self.m12 * other.m21,
            self.m11 * other.m12 + self.m12 * other.m22,
            self.m21 * other.m11 + self.m22 * other.m21,
            self.m21 * other.m12 + self.m22 * other.m22,
        )

    @property
    def determinant(self) -> complex:
        return self.m11 * self.m22 - self.m12 * self.m21

    @property
    def trace(self) -> complex:
        return self.m11 + self.m22


class Spectrum(NamedTuple):
    """T, R, A of the full stack over a probe grid, one array entry per point."""

    transmitted: np.ndarray    # T = |t|^2
    reflected: np.ndarray      # R = |r|^2
    absorbed: np.ndarray       # A = 1 - T - R


def period_matrix(xi, d: float, k_p) -> ScatterMatrix:
    """Transfer matrix of one period: plane boundary then propagation over d.

    (1/t) [[t^2 - r^2, r], [-r, 1]] . diag(e^{i k d}, e^{-i k d}) with the
    plane's (r, t), which t - r = 1 reduces to
    [[1 + i xi, i xi], [-i xi, 1 - i xi]] . diag(e^{i k d}, e^{-i k d}).
    """
    if d < 0:
        raise ValueError("propagation distance must be non-negative")
    phase = np.exp(1j * k_p * d)
    return ScatterMatrix(
        (1.0 + 1j * xi) * phase, 1j * xi / phase, -1j * xi * phase, (1.0 - 1j * xi) / phase
    )


def _cell_xis(cfg: LatticeConfig, omega_p):
    ns = cfg.areal_density
    return (
        xi_parameter(omega_p, cfg.species_even, ns),
        xi_parameter(omega_p, cfg.species_odd, ns),
    )


def dimer_matrix(cfg: LatticeConfig, omega_p) -> ScatterMatrix:
    """Transfer matrix of one elementary cell, M_{d1 d2} = M_{d1} M_{d2}.

    d1 = rho carries the even-site species, d2 = a - rho the odd-site one.
    ``omega_p`` is one frequency or an array of them.
    """
    k_p = omega_p / C
    xi1, xi2 = _cell_xis(cfg, omega_p)
    d1 = cfg.intracell_distance
    d2 = cfg.cell_size - d1
    return period_matrix(xi1, d1, k_p) @ period_matrix(xi2, d2, k_p)


def _cos_sin(m: ScatterMatrix):
    """(cos Theta, sin Theta) with sin^2 Theta from the entries, on the
    branch |cos Theta + i sin Theta| <= 1 (Im Theta >= 0)."""
    cos = 0.5 * (m.m11 + m.m22)
    sin = np.sqrt(-0.25 * ((m.m11 - m.m22) ** 2 + 4.0 * m.m12 * m.m21))
    # |cos + i sin|^2 - |cos - i sin|^2 = 4 Im(cos conj(sin))
    return cos, np.where((cos * np.conj(sin)).imag > 0, -sin, sin)


def cell_dephasing(cfg: LatticeConfig, omega_p: float) -> tuple[complex, complex, complex]:
    """Cell dephasing Theta and the single-slice dephasings (Theta, Theta1, Theta2).

    Theta is the cell's Bloch phase with Im Theta >= 0; the slice values
    obey cos Theta_j = cos(k_p d_j) - xi_j sin(k_p d_j) exactly.  When
    sin(k_p rho) = 0 the cell factorizes and Theta = Theta1 + Theta2.
    """
    k_p = omega_p / C
    xi1, xi2 = _cell_xis(cfg, omega_p)
    d1 = cfg.intracell_distance
    d2 = cfg.cell_size - d1
    cells = (dimer_matrix(cfg, omega_p), period_matrix(xi1, d1, k_p), period_matrix(xi2, d2, k_p))
    # Theta = -i log(cos Theta + i sin Theta), real part in (-pi, pi]
    return tuple(complex(-1j * np.log(c + 1j * s)) for c, s in map(_cos_sin, cells))


def stack_coefficients(cell: ScatterMatrix, n: int) -> tuple[complex, complex]:
    """(r_n, t_n) of n repetitions of the unimodular cell matrix.

    r_n = (M^n)_12/(M^n)_22 and t_n = 1/(M^n)_22 through the Chebyshev
    closed form.  Where n |sin Theta| < 1e-8 (cos Theta = s = +-1 up to
    rounding) the parabolic limit M^n = s^{n-1}(n M - (n-1) s I) replaces the
    division by sin Theta; it is off by a relative (n sin Theta)^2 / 2 < 5e-17,
    below float64 rounding, and above the cutover the closed form keeps
    relative accuracy, so only sin Theta = 0 itself needs the limit.
    Elementwise for a matrix of arrays.  The log form of the phase (where
    |sin Theta| >= |cos Theta|) and the parabolic limit are each evaluated
    only at the points that take them, with the same operations a
    whole-array evaluation applies there.
    """
    if n < 1:
        raise ValueError("need at least one cell")
    cos, sin = _cos_sin(cell)
    sign = np.where(cos.real >= 0, 1.0, -1.0)
    b = cell.m22 - cos
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # cos + i sin = sign e^{i phi}; arctan keeps small phi relatively exact
        phi = np.arctan(sin / cos)
        logged = ~(np.abs(sin) < np.abs(cos))
        if logged.any():
            phi = np.array(phi)
            s, c, z = _taken(logged, sign, cos, sin)
            phi[logged] = -1j * np.log(s * (c + 1j * z))
        w = sign ** (n % 2) * np.exp(1j * n * phi)     # e^{i n Theta}, |w| <= 1
        w2m1 = np.expm1(2j * n * phi)                  # w^2 - 1
        den = w2m1 * (sin - 1j * b) + 2.0 * sin
        r = -1j * cell.m12 * w2m1 / den
        t = 2.0 * w * sin / den
        parabolic = n * np.abs(sin) < _DEGENERATE_NSIN
        if parabolic.any():
            r, t = np.array(r), np.array(t)
            m12, m22, s = _taken(parabolic, cell.m12, cell.m22, sign)
            limit = n * m22 - (n - 1) * s          # s^{n-1} (M^n)_22 at the limit
            r[parabolic] = n * m12 / limit
            t[parabolic] = s ** ((n - 1) % 2) / limit
    return r[()], t[()]


def _taken(mask, *values):
    """Each value (an array or a scalar) at the points where mask holds."""
    return [np.broadcast_to(v, np.shape(mask))[mask] for v in values]


def transmission_closed_form(cfg: LatticeConfig, omega_p: float, n: int) -> complex:
    """Transmission amplitude t_n = 1/((M_cell)^n)_22 of n cells, closed form.

    Stable up to n ~ 1e6; the degenerate band-center case sin Theta = 0 is
    evaluated through the parabolic limit rather than by division.  A
    one-element array runs the loops of ``spectrum_scan`` (numpy scalars
    round some complex products differently), so t is its table's, bit for bit.
    """
    _, t = stack_coefficients(dimer_matrix(cfg, np.array([omega_p], dtype=float)), n)
    return complex(t[0])


def spectrum_scan(cfg: LatticeConfig, probe_grid: Sequence[float]) -> Spectrum:
    """T, R, A of the full cfg.cell_count-cell stack over a probe grid.

    All points are evaluated together, and the grid fails as a whole: a
    point at or below 0 rad/s raises the ``ValueError`` of
    ``polarizability``, and an A outside [-1e-9, 1] (which catches a T or R
    that is not finite) a ``FloatingPointError`` naming the first such point.
    """
    omega = np.asarray(probe_grid, dtype=float)
    if omega.size == 0:
        raise ValueError("empty probe grid")
    r, t = stack_coefficients(dimer_matrix(cfg, omega), cfg.cell_count)
    transmitted, reflected = np.abs(t) ** 2, np.abs(r) ** 2
    absorbed = 1.0 - transmitted - reflected
    # T, R >= 0 by construction; a non-finite T or R leaves A NaN or infinite
    bad = np.flatnonzero(~((absorbed >= -1e-9) & (absorbed <= 1.0)))
    if bad.size:
        raise FloatingPointError(f"absorption {np.ravel(absorbed)[bad[0]]} outside [0, 1] "
                                 f"at omega_p = {np.ravel(omega)[bad[0]]} rad/s")
    return Spectrum(transmitted, reflected, absorbed)
