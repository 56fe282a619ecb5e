"""Batched numeric kernels for large property sweeps.

Closed-form 2x2 expressions only, vectorized with numpy; no linear-algebra
calls.  The spinor triad is the expression `poincare_frame` uses on one
spinor, applied elementwise:
    r = (2 Re(conj(c1) c2), 2 Im(conj(c1) c2), |c1|^2 - |c2|^2)
    M = (c1^2 - c2^2, i (c1^2 + c2^2), -2 c1 c2)
and the frame vectors are m_re = Re M, m_im = Im M.
"""

import numpy as np

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
    they are tested against.
    """
    s0, s1, s2, s3 = np.asarray(stokes, dtype=float).T
    c00, c11 = 0.5 * (s0 + s3), 0.5 * (s0 - s3)
    c01 = 0.5 * (s1 - 1j * s2)
    off = (c01 * np.conj(c01)).real
    return c00 * c11 - off, c00 + c11, c00 * c00 + c11 * c11 + 2.0 * off
