"""Physical constants (SI, CODATA 2018), built-in atomic transitions and the
default truncation of the Bloch problem."""

from __future__ import annotations

import math

C = 299792458.0                 # speed of light [m/s]
HBAR = 1.054571817e-34          # reduced Planck constant [J s]
EPS0 = 8.8541878128e-12         # vacuum permittivity [F/m]
TWO_PI = 2.0 * math.pi

# default Bloch truncation: Brillouin zones on each side, and q-points
DEFAULT_N_BZ = 40
DEFAULT_N_Q = 401

# Named transitions usable as config references.  Linewidths are angular
# (rad/s); the D2 numbers are the rounded values commonly quoted for 85Rb.
NAMED_TRANSITIONS = {
    "rb85_d2": {"wavelength": 780e-9, "gamma": TWO_PI * 6e6},
}
