"""Polariton band structure of the biperiodic lattice and bandgap detection.

For each quasi-momentum q in the first Brillouin zone the photon modes at
wavevectors q+G (G = 2 pi m / a, |m| <= n_bz) couple to the two collective
dipole waves of the cell.  The resulting Hermitian coupled-mode matrix

    diag(omega_1, omega_2, c|q+G|, ...)  +  off-diagonal sqrt(M) couplings,
    even-site row:  sqrt(M) G_1(omega_{q+G})
    odd-site row:   sqrt(M) G_2(omega_{q+G}) e^{i G rho}

is an arrowhead: a diagonal photon block bordered by two dense atom rows.
``compute_bands`` (the dispersion engine, and the reference the tests use)
diagonalizes it densely with ``np.linalg.eigvalsh``.  Gap detection
(``gap_widths_vs_rho``) needs only the bands that reach its frequency
window and diagonalizes no Bloch matrix: the number of eigenvalues below
omega is #(omega_k < omega) plus the negative inertia of a 2x2 Schur
complement (Sylvester's law of inertia), an O(n_G) count per q, and each
band value is the adjacent float64 pair at which that count passes the
band index (Barth, Martin & Wilkinson, Numer. Math. 9, 1967; Golub, SIAM
Rev. 15, 1973).  The pair is sought at a prediction, an eigenvalue of a
small effective Hamiltonian per q: the atom rows bordered by the photon
modes in or near the window, with every other mode folded into the atom
block to first order in omega.  Two counts, at the prediction and at the
float next to it, certify it; a value they do not certify is bisected
from the whole window, as LAPACK's dstebz keeps its count as the
safeguard.  The values are those of a bisection from the whole window,
bit for bit.  The scan covers only q >= 0: time reversal makes the matrix at -q the complex
conjugate of the one at q with modes m and -m swapped, so
omega_n(-q) = omega_n(q).

The rotating-wave coupling scales as 1/sqrt(omega_k) and is therefore cut
off for photon modes below 0.25 min(omega_1, omega_2) (the G = 0 mode
reaches omega = 0 at q = 0, where the bare expression diverges); the
retained far-detuned modes shift near-resonant eigenvalues by well under
1e-2 gamma.

Atomic absorption is deliberately absent here (real spectrum); it lives in
the transfer-matrix engine.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .constants import C, DEFAULT_N_BZ, DEFAULT_N_Q, EPS0, HBAR
from .core import LatticeConfig, freespace_coupling


@dataclass(frozen=True)
class BlochMatrix:
    """Coupled-mode matrix at one quasi-momentum (basis: b_q, d_q, {a_{q+G}})."""

    quasi_momentum: float           # q [rad/m], inside the first BZ
    reciprocal_indices: np.ndarray  # m values of the retained G = 2 pi m / a
    matrix: np.ndarray              # (n_G + 2) x (n_G + 2) complex Hermitian

    @property
    def dimension(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class BandStructure:
    """Sorted real eigenfrequencies on a uniform q-grid."""

    q_grid: np.ndarray              # [rad/m]
    bands: np.ndarray               # (n_q, n_modes), ascending along axis 1
    n_bz: int
    config: LatticeConfig

    @property
    def band_count(self) -> int:
        return self.bands.shape[1]


@dataclass(frozen=True)
class Gap:
    """Frequency interval not reached by any band; index 1 = lowest frequency."""

    lower_edge: float               # [rad/s]
    upper_edge: float               # [rad/s]
    index: int

    def __post_init__(self):
        if self.upper_edge <= self.lower_edge:
            raise ValueError("gap upper edge must exceed lower edge")

    @property
    def width(self) -> float:
        return self.upper_edge - self.lower_edge


def build_bloch_matrix(q: float, cfg: LatticeConfig, n_bz: int = DEFAULT_N_BZ) -> BlochMatrix:
    """Assemble the Hermitian coupled-mode matrix at quasi-momentum q.

    q outside the first BZ is folded back (with a warning).  Couplings are
    evaluated with the 1/sqrt(omega_k) mode scaling for every photon mode at
    or above the infrared cutoff and set to zero below it.
    """
    g0 = cfg.reciprocal_vector
    if abs(q) > g0 / 2:
        folded = (q + g0 / 2) % g0 - g0 / 2
        warnings.warn(
            f"quasi-momentum {q} outside first BZ, folded to {folded}", stacklevel=2
        )
        q = folded
    h = _assemble_stack(cfg, np.array([q]), n_bz)[0]
    ms = np.arange(-n_bz, n_bz + 1)
    return BlochMatrix(q, ms, h)


def _arrowhead(cfg: LatticeConfig, q_grid: np.ndarray, n_bz: int):
    """Arrowhead data of the Bloch matrices on a q-grid.

    Returns the photon frequencies omega_k(q) and the two atom rows
    c1 = h[0, 2:] and c2 = h[1, 2:], each of shape (n_q, n_G); the atom
    diagonal is (omega_1, omega_2) at every q.  Modes below the infrared
    cutoff 0.25 min(omega_1, omega_2) are decoupled (zero atom rows).
    """
    if n_bz < 1:
        raise ValueError("need at least one Brillouin zone")
    g0 = cfg.reciprocal_vector
    sp1, sp2 = cfg.species_even, cfg.species_odd
    ms = np.arange(-n_bz, n_bz + 1)
    omega_k = C * np.abs(q_grid[:, None] + ms[None, :] * g0)    # (n_q, n_m)
    # only modes at or above the cutoff: 1/omega_k overflows near omega_k = 0
    mode_root = np.divide(
        1.0,
        2.0 * cfg.quantization_volume * EPS0 * HBAR * omega_k,
        out=np.zeros_like(omega_k),
        where=omega_k >= 0.25 * min(sp1.transition_frequency, sp2.transition_frequency),
    )
    np.sqrt(mode_root, out=mode_root)
    root_m = math.sqrt(cfg.cell_count)
    amp1 = root_m * (sp1.transition_frequency * sp1.dipole_moment * mode_root)
    amp2 = root_m * (sp2.transition_frequency * sp2.dipole_moment * mode_root)
    phase = np.exp(1j * ms * g0 * cfg.intracell_distance)       # (n_m,)
    return omega_k, amp1, amp2 * phase


def _assemble_stack(cfg: LatticeConfig, q_grid: np.ndarray, n_bz: int):
    """Stack of Bloch matrices for a q-grid (build_bloch_matrix is one q of it)."""
    omega_k, c1, c2 = _arrowhead(cfg, q_grid, n_bz)
    n_q, n_m = omega_k.shape
    n = n_m + 2
    h = np.zeros((n_q, n, n), dtype=complex)
    h[:, 0, 0] = cfg.species_even.transition_frequency
    h[:, 1, 1] = cfg.species_odd.transition_frequency
    idx = np.arange(n_m)
    h[:, idx + 2, idx + 2] = omega_k
    h[:, 0, 2:] = c1
    h[:, 1, 2:] = c2
    h[:, 2:, 0] = np.conj(h[:, 0, 2:])
    h[:, 2:, 1] = np.conj(h[:, 1, 2:])
    return h


def _eigenvalues_for(cfg, q_chunk, n_bz):
    stack = _assemble_stack(cfg, q_chunk, n_bz)
    try:
        return np.linalg.eigvalsh(stack)
    except np.linalg.LinAlgError as exc:
        # replay one by one to name the offending q-point
        for q, h in zip(q_chunk, stack):
            try:
                np.linalg.eigvalsh(h)
            except np.linalg.LinAlgError:
                raise RuntimeError(
                    f"eigensolver failed to converge at q = {q} rad/m"
                ) from exc
        raise RuntimeError("eigensolver failed to converge") from exc


def _q_grid(cfg: LatticeConfig, n_q: int, q_max: float | None = None) -> np.ndarray:
    """Uniform grid of n_q points over [-q_max, q_max] (default: the full BZ)."""
    if n_q < 3:
        raise ValueError("need at least three q-points")
    g0 = cfg.reciprocal_vector
    if q_max is None:
        q_max = g0 / 2
    if not 0 < q_max <= g0 / 2:
        raise ValueError("q_max must lie in (0, G0/2]")
    return np.linspace(-q_max, q_max, n_q)


def compute_bands(
    cfg: LatticeConfig,
    n_bz: int = DEFAULT_N_BZ,
    n_q: int = DEFAULT_N_Q,
    q_max: float | None = None,
) -> BandStructure:
    """Diagonalize the coupled-mode matrix on a uniform, symmetric q-grid.

    Parameters
    ----------
    cfg : LatticeConfig
    n_bz : number of Brillouin zones summed on each side (n_G = 2 n_bz + 1).
    n_q : grid points over [-q_max, q_max]; odd values sample q = 0.
    q_max : half-width of the scanned q-interval; defaults to the BZ edge
        G0/2.  All near-resonant structure lives within |q| ~ (coupling)/c,
        so dispersion plots typically use a much smaller window.
    """
    q_grid = _q_grid(cfg, n_q, q_max)
    return BandStructure(q_grid, _eigenvalues_for(cfg, q_grid, n_bz), n_bz, cfg)


def analytic_band_edges(cfg: LatticeConfig) -> tuple[float, float, float, float]:
    """Four band-edge frequencies (nu_1-, nu_2-, nu_2+, nu_1+) at q ~ 0.

    Valid for omega_1 = omega_2, keeping only the quasi-resonant photon
    modes at Q = +-G0:

        nu_{j,+-} = (omega_Q + omega_1)/2
                    +- sqrt(((omega_Q - omega_1)/2)^2
                            + M G^2 (1 - (-1)^j sqrt(1 - u^2 sin^2 G0 rho)))

    with G^2 = G1^2 + G2^2, u = 2 G1 G2 / G^2 and the couplings evaluated at
    omega_Q.  Gap 1 is [nu_1-, nu_2-], gap 2 is [nu_2+, nu_1+]; both widths
    are independent of the cell count M and vanish at rho = a/4 when G1 = G2.
    """
    sp1, sp2 = cfg.species_even, cfg.species_odd
    w1 = sp1.transition_frequency
    if abs(w1 - sp2.transition_frequency) > 1e-9 * w1:
        raise ValueError("band-edge formula requires omega_1 = omega_2")
    omega_q = cfg.bragg_frequency
    root_m = math.sqrt(cfg.cell_count)
    volume = cfg.quantization_volume
    g1 = root_m * freespace_coupling(sp1, omega_q, volume)
    g2 = root_m * freespace_coupling(sp2, omega_q, volume)
    g_sq = g1 * g1 + g2 * g2
    u = 2.0 * g1 * g2 / g_sq
    s = math.sin(cfg.reciprocal_vector * cfg.intracell_distance)
    mean = 0.5 * (omega_q + w1)
    quarter = (0.5 * (omega_q - w1)) ** 2
    inner = math.sqrt(max(0.0, 1.0 - u * u * s * s))
    nu = {}
    for j in (1, 2):
        half = math.sqrt(quarter + g_sq * (1.0 - (-1.0) ** j * inner))
        nu[(j, -1)] = mean - half
        nu[(j, +1)] = mean + half
    return nu[(1, -1)], nu[(2, -1)], nu[(2, +1)], nu[(1, +1)]


def _covered_intervals(bs: BandStructure, window, cover_tol):
    lo, hi = window
    intervals = []
    for b in range(bs.band_count):
        bmin = float(bs.bands[:, b].min()) - cover_tol
        bmax = float(bs.bands[:, b].max()) + cover_tol
        if bmax < lo or bmin > hi:
            continue
        intervals.append((bmin, bmax))
    intervals.sort()
    merged = []
    for start, end in intervals:
        if merged and start <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], end)
        else:
            merged.append([start, end])
    return merged


def find_gaps(
    bs: BandStructure,
    window: tuple[float, float],
    cover_tol: float | None = None,
    min_band_width: float = 0.0,
) -> list[Gap]:
    """Maximal frequency intervals inside ``window`` not covered by any band.

    A frequency is covered when it lies within ``cover_tol`` (default
    gamma_even/10) of the range [min_q, max_q] of some band; band ranges are
    intervals because sorted eigenvalue bands are continuous in q.  Covered
    strips thinner than ``min_band_width`` that separate two gaps do not
    split them (coarse-grained counting; 0 disables merging).
    """
    lo, hi = window
    if hi <= lo:
        return []
    if cover_tol is None:
        cover_tol = bs.config.species_even.linewidth / 10.0
    merged = _covered_intervals(bs, window, cover_tol)
    uncovered = []
    cursor = lo
    for start, end in merged:
        if start > cursor:
            uncovered.append((cursor, start))
        cursor = max(cursor, end)
    if cursor < hi:
        uncovered.append((cursor, hi))
    if min_band_width > 0.0 and len(uncovered) > 1:
        fused = [uncovered[0]]
        for start, end in uncovered[1:]:
            if start - fused[-1][1] < min_band_width:
                fused[-1] = (fused[-1][0], end)
            else:
                fused.append((start, end))
        uncovered = fused
    return [Gap(a, b, i + 1) for i, (a, b) in enumerate(uncovered) if b > a]


def _coupling_weights(c1: np.ndarray, c2: np.ndarray) -> np.ndarray:
    """|c1|^2, |c2|^2, Re(c1 c2*) and Im(c1 c2*) stacked on a last axis of 4."""
    cross = c1 * np.conj(c2)
    return np.stack((np.abs(c1) ** 2, np.abs(c2) ** 2, cross.real, cross.imag), axis=-1)


def _count_below(omega, omega_k, weights, atoms) -> np.ndarray:
    """Number of Bloch-matrix eigenvalues below omega, by Sylvester inertia.

    ``omega`` has shape (n_q, n_w); ``omega_k`` (n_q, n_G) and ``weights``
    (n_q, n_G, 4) come from ``_arrowhead`` and ``_coupling_weights``;
    ``atoms`` is (omega_1, omega_2).  The count is #(omega_k < omega) plus the
    negative inertia of the 2x2 Schur complement

        S = diag(omega_1 - omega, omega_2 - omega) - sum_k c_k c_k^H / (omega_k - omega).
    """
    detuning = omega_k[:, None, :] - omega[:, :, None]          # (n_q, n_w, n_G)
    photons = np.count_nonzero(detuning < 0.0, axis=-1)
    # a pole hit exactly counts as lying one ulp above omega (it happens: the
    # first midpoint of a window centred on the Bragg frequency is the photon
    # frequency at q = +-G0/2)
    hit = detuning == 0.0
    if hit.any():
        detuning[hit] = np.spacing(np.broadcast_to(omega[:, :, None], hit.shape)[hit])
    # in place: a second (n_q, n_w, n_G) temporary doubles the cost of a count
    sums = np.matmul(np.reciprocal(detuning, out=detuning), weights)    # (n_q, n_w, 4)
    s11 = atoms[0] - omega - sums[..., 0]
    s22 = atoms[1] - omega - sums[..., 1]
    det = s11 * s22 - (sums[..., 2] ** 2 + sums[..., 3] ** 2)
    negative = np.where(det < 0.0, 1, (s11 + s22 < 0.0) * (1 + (det > 0.0)))
    return photons + negative


def _band_seeds(omega_k, c1, c2, weights, atoms, lower, upper, at_lower, k):
    """Predicted value of band k at each q.

    The prediction is an eigenvalue of a small effective Hamiltonian per q:
    the two atom rows bordered by the photon modes in or near the window,
    with every other mode folded into the 2x2 atom block to first order in
    omega about the window centre omega_c.  With d = omega_k - omega_c and
    delta = omega - omega_c, the folded modes' part of the Schur complement
    of ``_count_below`` is

        S(omega) ~ A - delta B,  A = diag(omega_1, omega_2) - omega_c - sum c c^H / d,
                                 B = I + sum c c^H / d^2,

    and for |delta| <= h, the window half-width, the Taylor remainder a mode
    drops is at most |c|^2 h^2 / (d^2 (|d| - h)).  A mode is folded when it
    lies outside the window and that bound is at most one ulp of omega_c;
    every other mode borders the atom block.  B = L L^H (B >= I, so
    ||L^-1|| <= 1) turns the bordered pencil into a Hermitian matrix whose
    eigenvalues are the predicted delta, one ``eigvalsh`` batch over all q;
    rows are padded to one size with decoupled modes far above the window.
    Band k at row q takes the (k - at_lower[q] + #predictions below
    lower)-th prediction.  Returns an (n_q, n_k) array, NaN where no
    prediction maps to the band.  A prediction is only a place to count:
    no band value is taken from it before the count certifies it.
    """
    centre, h = 0.5 * (lower + upper), 0.5 * (upper - lower)
    detuning = omega_k - centre
    excess = np.abs(detuning) - h
    outside = excess > 0.0
    remainder = np.divide(
        h * h * (weights[..., 0] + weights[..., 1]),
        detuning * detuning * excess,
        out=np.zeros_like(excess),
        where=outside,
    )
    far = outside & (remainder <= np.spacing(centre))
    inv = np.divide(1.0, detuning, out=np.zeros_like(detuning), where=far)
    # one matmul: sum c c^H / d and sum c c^H / d^2 over the folded modes
    f0, f1 = np.matmul(np.stack((inv, inv * inv), axis=1), weights).transpose(1, 2, 0)
    a11 = atoms[0] - centre - f0[0]
    a22 = atoms[1] - centre - f0[1]
    a12 = -(f0[2] + 1j * f0[3])
    # L^-1 = [[p11, 0], [p21, p22]] for the Cholesky factor L of B
    l11 = np.sqrt(1.0 + f1[0])
    l21 = (f1[2] - 1j * f1[3]) / l11
    p11 = 1.0 / l11
    p22 = 1.0 / np.sqrt(1.0 + f1[1] - np.abs(l21) ** 2)
    p21 = -l21 * p11 * p22
    # the j-th bordered mode of a row sits in slot 2 + j
    row, col = np.nonzero(~far)
    slot = 2 + np.arange(row.size) - np.searchsorted(row, row)
    n_q, n = omega_k.shape[0], int(slot.max(initial=1)) + 1
    m = np.zeros((n_q, n, n), dtype=complex)
    m[:, 0, 0] = p11 * p11 * a11
    m[:, 1, 0] = p11 * (p21 * a11 + p22 * np.conj(a12))
    m[:, 0, 1] = np.conj(m[:, 1, 0])
    m[:, 1, 1] = np.abs(p21) ** 2 * a11 + 2.0 * p22 * (p21 * a12).real + p22 * p22 * a22
    pad = np.arange(2, n)
    m[:, pad, pad] = 3.0 * h    # padding: decoupled, far above the window
    m[row, slot, slot] = detuning[row, col]
    m[row, 0, slot] = p11[row] * c1[row, col]
    m[row, 1, slot] = p21[row] * c1[row, col] + p22[row] * c2[row, col]
    m[row, slot, 0] = np.conj(m[row, 0, slot])
    m[row, slot, 1] = np.conj(m[row, 1, slot])
    seeds = centre + np.linalg.eigvalsh(m)                      # (n_q, n), ascending
    pick = k - at_lower + np.count_nonzero(seeds < lower, axis=1)[:, None]
    return np.where(
        (pick >= 0) & (pick < n), seeds[np.arange(n_q)[:, None], np.clip(pick, 0, n - 1)], np.nan
    )


def _window_bands(cfg: LatticeConfig, q_grid: np.ndarray, n_bz: int, lower: float, upper: float):
    """Values on ``q_grid`` of the bands that reach [lower, upper], clamped to it.

    Band k (0-based, ascending) is kept when it lies at or above ``lower`` at
    some q and below ``upper`` at some q.  Its value is the midpoint of the
    adjacent float pair where the eigenvalue count passes k, the pair a
    bisection on the count from [lower, upper] ends at; no Bloch matrix is
    assembled or diagonalized.  Two counts certify the pair at the
    prediction s of ``_band_seeds``: one at s, one at the float next to s
    on the side where that count puts band k.  The count is monotone in
    omega at float resolution, so a pair inside the window with
    count(lo) <= k < count(hi) is the bisection's, bit for bit.  A pair not
    certified (no prediction, or one more than an ulp off) is bisected from
    [lower, upper]; a pair clamped to the window gets [lower, lower].  Every
    count after the two window edges has the (n_q, n_k) shape of a
    bisection step.  Each q is computed on its own, so any subset of a
    grid, such as the q >= 0 half the gap scan passes, gives the values of
    the whole grid at those q; by time reversal the values at q and -q
    agree (the count at -q sums the same terms with modes m and -m swapped,
    and reads c2 only through |c1 c2*|^2).
    """
    omega_k, c1, c2 = _arrowhead(cfg, q_grid, n_bz)
    weights = _coupling_weights(c1, c2)
    atoms = (cfg.species_even.transition_frequency, cfg.species_odd.transition_frequency)
    column = (len(q_grid), 1)
    at_lower = _count_below(np.full(column, lower), omega_k, weights, atoms)
    at_upper = _count_below(np.full(column, upper), omega_k, weights, atoms)
    k = np.arange(at_lower.min(), at_upper.max())
    if not len(k):   # no band reaches the window
        return np.empty((len(q_grid), 0))
    active = (k >= at_lower) & (k < at_upper)
    seed = _band_seeds(omega_k, c1, c2, weights, atoms, lower, upper, at_lower, k)
    seed = np.where(np.isfinite(seed), seed, lower)
    above = _count_below(seed, omega_k, weights, atoms) > k    # band k lies below the seed
    step = np.nextafter(seed, np.where(above, -np.inf, np.inf))
    lo, hi = np.minimum(seed, step), np.maximum(seed, step)
    certified = active & ((_count_below(step, omega_k, weights, atoms) > k) != above)
    certified &= (lo >= lower) & (hi <= upper)
    lo = np.where(certified, lo, lower)
    hi = np.where(certified, hi, np.where(active, upper, lower))
    mid = 0.5 * (lo + hi)
    while np.any((lo < mid) & (mid < hi)):
        below = _count_below(mid, omega_k, weights, atoms) > k  # band k lies below mid
        hi = np.where(below, mid, hi)
        lo = np.where(below, lo, mid)
        mid = 0.5 * (lo + hi)
    return np.where(k < at_lower, lower, np.where(k >= at_upper, upper, mid))


@dataclass(frozen=True)
class RhoScanEntry:
    """Gap inventory at one intracell distance, numeric and (if valid) analytic."""

    rho: float                               # [m]
    gaps: list[Gap]
    analytic_edges: tuple[float, float, float, float] | None = field(default=None)

    @property
    def analytic_widths(self) -> tuple[float, float] | None:
        if self.analytic_edges is None:
            return None
        n1m, n2m, n2p, n1p = self.analytic_edges
        return n2m - n1m, n1p - n2p


def gap_widths_vs_rho(
    cfg: LatticeConfig,
    rho_grid: Sequence[float],
    window: tuple[float, float] | None = None,
    n_bz: int = DEFAULT_N_BZ,
    n_q: int = DEFAULT_N_Q,
    cover_tol: float | None = None,
    min_band_width: float = 0.0,
) -> list[RhoScanEntry]:
    """Numeric (full BZ sweep) and analytic gap widths on a grid of rho values.

    The numeric gaps are those ``find_gaps`` reports for the full-BZ band
    structure, with each band that reaches the window found on the inertia
    count (``_window_bands``) instead of a dense eigensolve: two counts
    certify each seeded value, and a value they do not certify is bisected
    from the whole window.  Only the q >= 0 half of the symmetric n_q grid
    is scanned: time reversal gives omega_n(-q) = omega_n(q), so it holds
    every band's min and max, the only band data ``find_gaps`` reads.  The
    analytic column is filled only when the two species share a transition
    frequency, the validity domain of the band-edge formula.  A given
    ``window`` must be finite and increasing.
    """
    sp1, sp2 = cfg.species_even, cfg.species_odd
    if window is None:
        anchors = (
            sp1.transition_frequency,
            sp2.transition_frequency,
            cfg.bragg_frequency,
        )
        pad = 800.0 * sp1.linewidth
        window = (min(anchors) - pad, max(anchors) + pad)
    elif not (math.isfinite(window[0]) and math.isfinite(window[1]) and window[0] < window[1]):
        raise ValueError(f"window {window} must be finite and increasing")
    if cover_tol is None:
        cover_tol = sp1.linewidth / 10.0
    if cover_tol < 0.0:
        raise ValueError("cover_tol must be >= 0")
    # clamped band values sit a linewidth outside the padded window, so they
    # never set a gap edge
    lower = window[0] - cover_tol - sp1.linewidth
    upper = window[1] + cover_tol + sp1.linewidth
    q_grid = _q_grid(cfg, n_q)[n_q // 2:]
    symmetric = (
        abs(sp1.transition_frequency - sp2.transition_frequency)
        <= 1e-9 * sp1.transition_frequency
    )
    entries = []
    for rho in rho_grid:
        if not 0.0 <= rho <= cfg.cell_size:
            raise ValueError(f"rho = {rho} outside [0, a]")
        local = cfg.replace(intracell_distance=float(rho))
        bands = _window_bands(local, q_grid, n_bz, lower, upper)
        bs = BandStructure(q_grid, bands, n_bz, local)
        gaps = find_gaps(bs, window, cover_tol=cover_tol, min_band_width=min_band_width)
        edges = analytic_band_edges(local) if symmetric else None
        entries.append(RhoScanEntry(float(rho), gaps, edges))
    return entries
