"""Pauli matrices, the symplectic matrix and the circular/linear basis change.

The basis-change matrix U maps the circular-component spinor to the spinor
whose components are (up to a common prefactor) the Jones components in the
linear x/y basis.  Conjugation by U cyclically permutes the Pauli matrices:
U s1 U^-1 = s3,  U s2 U^-1 = s1,  U s3 U^-1 = s2.
"""

import numpy as np

SIGMA0 = np.eye(2, dtype=complex)
SIGMA1 = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA3 = np.array([[1, 0], [0, -1]], dtype=complex)

# (sigma0, sigma1, sigma2, sigma3) stacked for indexed access
SIGMA = np.stack([SIGMA0, SIGMA1, SIGMA2, SIGMA3])

EPSILON = np.array([[0, 1], [-1, 0]], dtype=complex)

# U = e^{i pi/4}/sqrt(2) [[1, 1], [i, -i]]  (an SU(2) element)
U_BASIS = 0.5 * np.array([[1 + 1j, 1 + 1j], [-1 + 1j, 1 - 1j]])
U_BASIS_INV = U_BASIS.conj().T


def sigma_set(basis):
    """Pauli set (sigma_0..sigma_3) appropriate for a basis tag.

    In the linear basis the Stokes parameters are read off with the
    cyclically permuted matrices U sigma_a U^-1.
    """
    if basis == "circular":
        return SIGMA
    if basis == "linear":
        return np.stack([U_BASIS @ s @ U_BASIS_INV for s in SIGMA])
    raise ValueError(f"unknown basis tag: {basis!r}")


# Pauli coefficients (q1, q2, q3) of q . sigma -> those of U (q . sigma) U^-1, and back
def circular_to_linear(q1, q2, q3):
    return q2, q3, q1


def linear_to_circular(t1, t2, t3):
    return t3, t1, t2
