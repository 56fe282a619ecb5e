import numpy as np

from polspin import kernels
from polspin.spinor import poincare_frame

from .conftest import as_spinor, random_unit_spinors, random_valid_stokes


def test_triads_match_scalar_path(rng):
    spinors = random_unit_spinors(rng, 500)
    r, m_re, m_im = kernels.triads(spinors)
    for k in range(0, 500, 37):
        f = poincare_frame(as_spinor(spinors[k]))
        np.testing.assert_allclose(r[k], f.r, atol=1e-14)
        np.testing.assert_allclose(m_re[k], f.m_re, atol=1e-14)
        np.testing.assert_allclose(m_im[k], f.m_im, atol=1e-14)


def test_invariants_values(rng):
    stokes = random_valid_stokes(rng, 1000)
    det_c, tr_c, tr_c2 = kernels.coherency_invariants(stokes)
    s0 = stokes[:, 0]
    big_s = s0**2 - np.sum(stokes[:, 1:] ** 2, axis=1)
    np.testing.assert_allclose(det_c, big_s / 4, atol=1e-13)
    np.testing.assert_allclose(tr_c, s0, atol=1e-13)
    np.testing.assert_allclose(tr_c2, s0**2 - big_s / 2, atol=1e-13)
