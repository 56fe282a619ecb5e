"""Batched numeric kernels for large property sweeps.

Closed-form 2x2 expressions only, vectorized with numpy; no linear-algebra
calls.  The spinor triad is the expression `poincare_frame` uses on one
spinor, applied elementwise:
    r = (2 Re(conj(c1) c2), 2 Im(conj(c1) c2), |c1|^2 - |c2|^2)
    M = (c1^2 - c2^2, i (c1^2 + c2^2), -2 c1 c2)
and the frame vectors are m_re = Re M, m_im = Im M.  The coherency
entries are `partial._coherency_entries`, the one Stokes -> coherency formula.
"""

import numpy as np

from .partial import _coherency_entries
from .spinor import _sphere_point, _tangent


def triads(spinors):
    """Poincare frames (r, m_re, m_im) for an (N, 2) array of unit spinors."""
    spinors = np.asarray(spinors, dtype=complex)
    c1, c2 = spinors[:, 0], spinors[:, 1]
    m = np.stack(_tangent(c1, c2), axis=1)
    return np.stack(_sphere_point(c1, c2), axis=1), m.real.copy(), m.imag.copy()


def coherency_invariants(stokes):
    """(det C, tr C, tr C^2) from the coherency-matrix entries, batched.

    Input is an (N, 4) array of Stokes rows; the quantities are computed
    from the explicit matrix elements, not from the closed-form identities
    they are tested against.  Built from products of entries ~ s0 / 2: below
    s0 ~ 3e-154 they are subnormal and lose digits, and below about 3e-162
    det C reads 0 for any beam, which then does not mean the beam is pure.
    """
    c00, c01, c11 = _coherency_entries(*np.asarray(stokes, dtype=float).T, "circular")
    off = (c01 * np.conj(c01)).real
    return c00 * c11 - off, c00 + c11, c00 * c00 + c11 * c11 + 2.0 * off
