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
(``GapScan``, ``gap_widths_vs_rho``) needs only the bands that reach its
frequency window and diagonalizes no Bloch matrix: the number of
eigenvalues below omega is #(omega_k < omega) plus the negative inertia of
a 2x2 Schur complement (Sylvester's law of inertia), an O(n_G) count per q,
and each band value is the adjacent float64 pair at which that count passes
the band index (Barth, Martin & Wilkinson, Numer. Math. 9, 1967; Golub,
SIAM Rev. 15, 1973).  Two counts certify the pair at a predicted value; a
value they do not certify is bisected from the whole window, as LAPACK's
dstebz keeps its count as the safeguard, so the values are those of a
bisection bit for bit.  The scan covers only q >= 0: time reversal makes
the matrix at -q the complex conjugate of the one at q with modes m and -m
swapped, so omega_n(-q) = omega_n(q).  Only the odd-site phase e^{i G rho}
depends on rho, so a ``GapScan`` builds everything else once per lattice
and window, and each rho costs its phase, its weights and its counts.

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

    Returns the photon frequencies omega_k(q), the even-site row
    c1 = h[0, 2:] and the real amplitude amp2 of the odd-site row, each of
    shape (n_q, n_G), and i G of shape (n_G,): the odd-site row is
    c2 = h[1, 2:] = amp2 e^{i G rho}, the only part of the matrix that
    depends on rho.  The atom diagonal is (omega_1, omega_2) at every q.
    Modes below the infrared cutoff 0.25 min(omega_1, omega_2) are
    decoupled (zero atom rows).
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
    return omega_k, amp1, amp2, 1j * ms * g0


def _assemble_stack(cfg: LatticeConfig, q_grid: np.ndarray, n_bz: int):
    """Stack of Bloch matrices for a q-grid (build_bloch_matrix is one q of it)."""
    omega_k, c1, amp2, i_g = _arrowhead(cfg, q_grid, n_bz)
    c2 = amp2 * np.exp(i_g * cfg.intracell_distance)
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
    half1 = math.sqrt(quarter + g_sq * (1.0 + inner))
    half2 = math.sqrt(quarter + g_sq * (1.0 - inner))
    return mean - half1, mean - half2, mean + half2, mean + half1


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
    if cover_tol is None:
        cover_tol = bs.config.species_even.linewidth / 10.0
    if cover_tol < 0.0:
        raise ValueError("cover_tol must be >= 0")
    lo, hi = window
    if hi <= lo:
        return []
    starts = bs.bands.min(axis=0) - cover_tol
    ends = bs.bands.max(axis=0) + cover_tol
    keep = ~((ends < lo) | (starts > hi))
    # one sweep by start, closed by the sentinel (hi, hi): the cursor is the
    # running maximum of the range ends, so a range that starts at or below
    # it is already joined.  A gap that opens less than min_band_width above
    # the last one extends it
    gaps, cursor = [], lo
    for start, end in sorted(zip(starts[keep].tolist(), ends[keep].tolist())) + [(hi, hi)]:
        if start > cursor:
            if gaps and cursor - gaps[-1][1] < min_band_width:
                gaps[-1] = (gaps[-1][0], start)
            else:
                gaps.append((cursor, start))
        cursor = max(cursor, end)
    return [Gap(a, b, i + 1) for i, (a, b) in enumerate(gaps)]


def _detuned(omega, omega_k):
    """The reciprocal-detuning step of ``_count_below``: #(omega_k < omega)
    and 1/(omega_k - omega), of shape (n_q, n_w, n_G)."""
    detuning = omega_k[:, None, :] - omega[:, :, None]
    photons = np.count_nonzero(detuning < 0.0, axis=-1)
    # a pole hit exactly counts as lying one ulp above omega (it happens: the
    # first midpoint of a window centred on the Bragg frequency is the photon
    # frequency at q = +-G0/2)
    hit = detuning == 0.0
    if hit.any():
        detuning[hit] = np.spacing(np.broadcast_to(omega[:, :, None], hit.shape)[hit])
    # in place: a second (n_q, n_w, n_G) temporary doubles the cost of a count
    return photons, np.reciprocal(detuning, out=detuning)


def _count_below(omega, detuned, weights, atoms) -> np.ndarray:
    """Number of Bloch-matrix eigenvalues below omega, by Sylvester inertia.

    ``omega`` has shape (n_q, n_w), ``detuned`` is ``_detuned(omega,
    omega_k)``, ``weights`` (n_q, n_G, 4) holds |c1|^2, |c2|^2, Re(c1 c2*)
    and Im(c1 c2*), and ``atoms`` is (omega_1, omega_2).  The count is
    #(omega_k < omega) plus the negative inertia of the 2x2 Schur complement

        S = diag(omega_1 - omega, omega_2 - omega) - sum_k c_k c_k^H / (omega_k - omega).
    """
    photons, reciprocal = detuned
    sums = np.matmul(reciprocal, weights)                       # (n_q, n_w, 4)
    s11 = atoms[0] - omega - sums[..., 0]
    s22 = atoms[1] - omega - sums[..., 1]
    det = s11 * s22 - (sums[..., 2] ** 2 + sums[..., 3] ** 2)
    negative = np.where(det < 0.0, 1, (s11 + s22 < 0.0) * (1 + (det > 0.0)))
    return photons + negative


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


class GapScan:
    """The gap scan of one lattice and window, planned once for every rho.

    ``entry(rho)`` holds the gaps ``find_gaps`` reports for the full-BZ band
    structure, with each band that reaches the window found on the inertia
    count (``window_bands``), not by a dense eigensolve, on the q >= 0 half
    of the symmetric n_q grid (or on ``q_grid``): by time reversal it holds
    every band's min and max, all that ``find_gaps`` reads.  Its analytic
    edges are filled only when the species share a transition frequency,
    the formula's domain.  A given ``window`` must be finite and increasing;
    bands are found in it padded by cover_tol plus a linewidth (``lower``,
    ``upper``), so that clamped values never set a gap edge.

    The plan holds what does not depend on rho: the grid, omega_k, c1 and
    the amplitude of c2, both window edges' photon counts and reciprocal
    detunings, and the seed plan of ``_seeds``.  Per rho, c2 and the weights
    go into buffers the plan keeps, each a contiguous array, so that every
    count keeps the arithmetic, the batch shape and so the bits of a count
    on fresh arrays.
    """

    def __init__(self, cfg: LatticeConfig, window: tuple[float, float] | None = None,
                 n_bz: int = DEFAULT_N_BZ, n_q: int = DEFAULT_N_Q, cover_tol: float | None = None,
                 min_band_width: float = 0.0, q_grid: np.ndarray | None = None):
        sp1, sp2 = cfg.species_even, cfg.species_odd
        self.atoms = w1, w2 = sp1.transition_frequency, sp2.transition_frequency
        if window is None:
            pad, anchors = 800.0 * sp1.linewidth, (w1, w2, cfg.bragg_frequency)
            window = (min(anchors) - pad, max(anchors) + pad)
        elif not (math.isfinite(window[0]) and math.isfinite(window[1]) and window[0] < window[1]):
            raise ValueError(f"window {window} must be finite and increasing")
        cover_tol = sp1.linewidth / 10.0 if cover_tol is None else cover_tol
        if cover_tol < 0.0:
            raise ValueError("cover_tol must be >= 0")
        self.cfg, self.window, self.n_bz = cfg, window, n_bz
        self.cover_tol, self.min_band_width = cover_tol, min_band_width
        self._analytic = abs(w1 - w2) <= 1e-9 * w1
        self.lower = lower = window[0] - cover_tol - sp1.linewidth
        self.upper = upper = window[1] + cover_tol + sp1.linewidth
        self.q_grid = _q_grid(cfg, n_q)[n_q // 2:] if q_grid is None else q_grid
        self.omega_k, self._c1, self._amp2, self._i_g = _arrowhead(cfg, self.q_grid, n_bz)
        self._c2, self._cross = np.empty((2, *self._c1.shape), dtype=complex)
        self._weights = np.empty((*self._c1.shape, 4))
        self._weights[..., 0] = np.abs(self._c1) ** 2
        edges = np.full((2, len(self.q_grid), 1), [[[lower]], [[upper]]])
        self._edges = [(edge, _detuned(edge, self.omega_k)) for edge in edges]
        # the seed plan: which modes fold into the atom block, which border it
        self._centre, self._half = centre, h = 0.5 * (lower + upper), 0.5 * (upper - lower)
        detuning = self.omega_k - centre
        excess = np.abs(detuning) - h
        outside = excess > 0.0
        bound = h * h * (self._weights[..., 0] + self._amp2 ** 2)
        remainder = np.divide(bound, detuning * detuning * excess,
                              out=np.zeros_like(excess), where=outside)
        far = outside & (remainder <= np.spacing(centre))
        inv = np.divide(1.0, detuning, out=np.zeros_like(detuning), where=far)
        self._fold = np.stack((inv, inv * inv), axis=1)         # (n_q, 2, n_G)
        # the j-th bordered mode of a row sits in slot 2 + j
        row, col = np.nonzero(~far)
        slot = 2 + np.arange(row.size) - np.searchsorted(row, row)
        self._bordered = np.unique(row)
        self._border = (np.searchsorted(self._bordered, row), slot, row, col, detuning[row, col])
        self._size = int(slot.max(initial=1)) + 1

    def _count(self, omega: np.ndarray) -> np.ndarray:
        """``_count_below`` at an (n_q, n_k) omega, with this rho's weights."""
        return _count_below(omega, _detuned(omega, self.omega_k), self._weights, self.atoms)

    def _seeds(self, at_lower: np.ndarray, k: np.ndarray) -> np.ndarray:
        """Predicted value of band k at each q, from the weights at this rho.

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
        lies outside the window and that bound, taken with the rho-independent
        |c1|^2 + |amp2|^2, is at most one ulp of omega_c; every other mode
        borders the atom block.  B = L L^H (B >= I, so ||L^-1|| <= 1) turns the
        bordered pencil into a Hermitian matrix whose eigenvalues are the
        predicted delta: in closed form on a row with no bordered mode, by one
        ``eigvalsh`` batch over the bordered rows, padded to one size with
        decoupled modes far above the window.  Band k at row q takes the
        (k - at_lower[q] + #predictions below lower)-th prediction.  Returns an
        (n_q, n_k) array, NaN where no prediction maps to the band.  A
        prediction is only a place to count: no band value is taken from it
        before the count certifies it.
        """
        f0, f1 = np.matmul(self._fold, self._weights).transpose(1, 2, 0)
        a11 = self.atoms[0] - self._centre - f0[0]
        a22 = self.atoms[1] - self._centre - f0[1]
        a12 = -(f0[2] + 1j * f0[3])
        # L^-1 = [[p11, 0], [p21, p22]] for the Cholesky factor L of B
        l11 = np.sqrt(1.0 + f1[0])
        l21 = (f1[2] - 1j * f1[3]) / l11
        p11 = 1.0 / l11
        p22 = 1.0 / np.sqrt(1.0 + f1[1] - np.abs(l21) ** 2)
        p21 = -l21 * p11 * p22
        m11 = p11 * p11 * a11
        m21 = p11 * (p21 * a11 + p22 * np.conj(a12))
        m22 = np.abs(p21) ** 2 * a11 + 2.0 * p22 * (p21 * a12).real + p22 * p22 * a22
        mean, half = 0.5 * (m11 + m22), np.hypot(0.5 * (m11 - m22), np.abs(m21))
        n_q, n, rows = len(at_lower), self._size, self._bordered
        seeds = np.full((n_q, n), np.nan)
        seeds[:, 0], seeds[:, 1] = mean - half, mean + half
        if rows.size:
            b, slot, row, col, detuning = self._border
            m = np.zeros((rows.size, n, n), dtype=complex)
            m[:, 0, 0], m[:, 1, 0], m[:, 1, 1] = m11[rows], m21[rows], m22[rows]
            m[:, 0, 1] = np.conj(m21[rows])
            pad = np.arange(2, n)
            m[:, pad, pad] = 3.0 * self._half    # padding: decoupled, far above the window
            m[b, slot, slot] = detuning
            m[b, 0, slot] = p11[row] * self._c1[row, col]
            m[b, 1, slot] = p21[row] * self._c1[row, col] + p22[row] * self._c2[row, col]
            m[b, slot, 0] = np.conj(m[b, 0, slot])
            m[b, slot, 1] = np.conj(m[b, 1, slot])
            seeds[rows] = np.linalg.eigvalsh(m)                 # ascending
        seeds += self._centre
        pick = k - at_lower + np.count_nonzero(seeds < self.lower, axis=1)[:, None]
        return np.where(
            (pick >= 0) & (pick < n), seeds[np.arange(n_q)[:, None], np.clip(pick, 0, n - 1)], np.nan
        )

    def window_bands(self, rho: float) -> np.ndarray:
        """Values on ``q_grid`` at rho of the bands that reach [lower, upper], clamped to it.

        Band k (0-based, ascending) is kept when it lies at or above ``lower``
        at some q and below ``upper`` at some q.  Its value is the midpoint of
        the adjacent float pair where the eigenvalue count passes k, the pair a
        bisection on the count from [lower, upper] ends at.  Two counts certify
        the pair at the prediction s of ``_seeds``: one at s, one at the float
        next to s on the side where that count puts band k.  The count is
        monotone in omega at float resolution, so a pair inside the window
        with count(lo) <= k < count(hi) is the bisection's, bit for bit.  A
        pair not certified (no prediction, or one more than an ulp off) is
        bisected from [lower, upper]; a pair clamped to the window gets [lower,
        lower].  The window-edge counts have shape (n_q, 1), every later one
        the (n_q, n_k) of a bisection step.  Each q is computed on its own, and
        by time reversal the values at q and -q agree (the count at -q sums
        the same terms with modes m and -m swapped, and reads c2 only through
        |c1 c2*|^2).
        """
        c2 = np.multiply(self._amp2, np.exp(self._i_g * rho), out=self._c2)
        weights, lower, upper = self._weights, self.lower, self.upper
        np.square(np.abs(c2), out=weights[..., 1])
        cross = np.multiply(self._c1, np.conjugate(c2, out=self._cross), out=self._cross)
        weights[..., 2], weights[..., 3] = cross.real, cross.imag
        at_lower, at_upper = (_count_below(*edge, weights, self.atoms) for edge in self._edges)
        k = np.arange(at_lower.min(), at_upper.max())
        if not len(k):   # no band reaches the window
            return np.empty((len(self.q_grid), 0))
        active = (k >= at_lower) & (k < at_upper)
        seed = self._seeds(at_lower, k)
        seed = np.where(np.isfinite(seed), seed, lower)
        above = self._count(seed) > k    # band k lies below the seed
        step = np.nextafter(seed, np.where(above, -np.inf, np.inf))
        lo, hi = np.minimum(seed, step), np.maximum(seed, step)
        certified = active & ((self._count(step) > k) != above)
        certified &= (lo >= lower) & (hi <= upper)
        lo = np.where(certified, lo, lower)
        hi = np.where(certified, hi, np.where(active, upper, lower))
        mid = 0.5 * (lo + hi)
        while np.any((lo < mid) & (mid < hi)):
            below = self._count(mid) > k  # band k lies below mid
            hi = np.where(below, mid, hi)
            lo = np.where(below, lo, mid)
            mid = 0.5 * (lo + hi)
        return np.where(k < at_lower, lower, np.where(k >= at_upper, upper, mid))

    def entry(self, rho: float) -> RhoScanEntry:
        """Numeric and (if valid) analytic gap inventory at intracell distance rho."""
        if not 0.0 <= rho <= self.cfg.cell_size:
            raise ValueError(f"rho = {rho} outside [0, a]")
        local = self.cfg.replace(intracell_distance=float(rho))
        bands = self.window_bands(local.intracell_distance)
        bs = BandStructure(self.q_grid, bands, self.n_bz, local)
        gaps = find_gaps(bs, self.window, self.cover_tol, self.min_band_width)
        return RhoScanEntry(float(rho), gaps, analytic_band_edges(local) if self._analytic else None)


def gap_widths_vs_rho(
    cfg: LatticeConfig,
    rho_grid: Sequence[float],
    window: tuple[float, float] | None = None,
    n_bz: int = DEFAULT_N_BZ,
    n_q: int = DEFAULT_N_Q,
    cover_tol: float | None = None,
    min_band_width: float = 0.0,
) -> list[RhoScanEntry]:
    """Numeric (full BZ sweep) and analytic gap widths on a grid of rho
    values: the list form of ``GapScan``, one plan and one entry per rho."""
    scan = GapScan(cfg, window, n_bz, n_q, cover_tol, min_band_width)
    return [scan.entry(rho) for rho in rho_grid]
