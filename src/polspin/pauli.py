"""Pauli matrices, the symplectic matrix and the circular/linear basis change.

The basis-change matrix U maps the circular-component spinor to the spinor
whose components are (up to a common prefactor) the Jones components in the
linear x/y basis.  Conjugation by U cyclically permutes the Pauli matrices:
U s1 U^-1 = s3,  U s2 U^-1 = s1,  U s3 U^-1 = s2.

U, U^-1 and the Pauli set are Python complex tuples, every entry exact, the one source
that the scalar paths read.  The ndarrays SIGMA0 .. SIGMA3, SIGMA (the four stacked), EPSILON,
U_BASIS and U_BASIS_INV are built from them on first access: importing NumPy waits till then.
"""

# U = e^{i pi/4}/sqrt(2) [[1, 1], [i, -i]] (an SU(2) element) and U^-1 = U^dag
U_ROWS = ((0.5 + 0.5j, 0.5 + 0.5j), (-0.5 + 0.5j, 0.5 - 0.5j))
U_INV_ROWS = ((0.5 - 0.5j, -0.5 - 0.5j), (0.5 - 0.5j, 0.5 + 0.5j))
SIGMA_ROWS = (((1, 0), (0, 1)), ((0, 1), (1, 0)), ((0, -1j), (1j, 0)), ((1, 0), (0, -1)))

_ARRAYS = {"SIGMA": SIGMA_ROWS, "EPSILON": ((0, 1), (-1, 0)), "U_BASIS": U_ROWS,
           "U_BASIS_INV": U_INV_ROWS, **{f"SIGMA{i}": s for i, s in enumerate(SIGMA_ROWS)}}


def __getattr__(name):
    """The ndarray constants, each made once from its tuple (PEP 562)."""
    if name not in _ARRAYS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import numpy as np
    globals()[name] = value = np.array(_ARRAYS[name], dtype=complex)
    return value


def _check_basis(tag):  # the one check of a basis tag
    if tag not in ("circular", "linear"):
        raise ValueError(f"unknown basis tag: {tag!r}")


# Pauli coefficients (q1, q2, q3) of q . sigma -> those of U (q . sigma) U^-1, and back
def circular_to_linear(q1, q2, q3):
    return q2, q3, q1


def linear_to_circular(t1, t2, t3):
    return t3, t1, t2
