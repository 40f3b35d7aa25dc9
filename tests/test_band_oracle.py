"""Gap-scan band values against a 40-digit eigenvalue count of the same matrix.

``GapScan.window_bands`` gives each band value as the float pair at which
its float64 inertia count passes the band index.  ``oracles.inertia_count``
counts the eigenvalues of the same Bloch matrix (the float rows of
``_arrowhead``, taken exactly) with 40 significant digits, so it checks the
float count's rounding as well as the search: a value v of band k must
satisfy count(v - 2 ulp) <= k < count(v + 2 ulp).
"""

from __future__ import annotations

import numpy as np

from bilattice.bandstructure import GapScan, _arrowhead
from bilattice.cli_io import bundled_config_text, parse_config

from oracles import inertia_count

RHOS_PER_CONFIG = 2
DRAWS_PER_RHO = 7     # 3 configs x 2 rho x 7 = 42 band values


def test_window_band_values_are_bracketed_by_a_40_digit_count():
    rng = np.random.default_rng(32)
    checked = 0
    for name in ("fig2b", "fig4", "fig5"):
        spec = parse_config(bundled_config_text(name)).sweep
        scan = GapScan(spec.lattice, spec.window, spec.n_bz, spec.n_q, spec.cover_tol,
                       spec.min_band_width)
        omega_k, c1, amp2, i_g = _arrowhead(spec.lattice, scan.q_grid, spec.n_bz)
        for rho in rng.choice(spec.resolved_rhos(), RHOS_PER_CONFIG, replace=False):
            bands = scan.window_bands(rho)
            c2 = amp2 * np.exp(i_g * rho)
            # column j is band k0 + j, k0 the fewest eigenvalues below ``lower`` at any q
            k0 = scan._count(np.full((len(scan.q_grid), 1), scan.lower)).min()
            active = np.argwhere((bands > scan.lower) & (bands < scan.upper))
            for iq, j in active[rng.choice(len(active), DRAWS_PER_RHO, replace=False)]:
                v = bands[iq, j]
                below, above = (
                    inertia_count(w, omega_k[iq], c1[iq], c2[iq], scan.atoms)
                    for w in (v - 2 * np.spacing(v), v + 2 * np.spacing(v))
                )
                assert below <= k0 + j < above, (name, rho, iq, j)
                checked += 1
    assert checked >= 40
