"""Exception types shared across the package."""


class PolspinError(Exception):
    """Base class for all polspin errors; exit_code is the CLI's exit status for the class."""

    exit_code = 2


class NonUnitaryError(PolspinError):
    """Matrix expected to be unitary is not."""


class NonUnimodularError(PolspinError):
    """Matrix expected to have determinant 1 does not."""


class OrthogonalStatesError(PolspinError):
    """Relative phase requested between orthogonal (antipodal) states."""

    exit_code = 4


class ZeroFieldError(PolspinError):
    """Jones amplitudes are both zero; no wave to construct."""


class ExtinctionError(PolspinError):
    """A train drove the beam's flux below the smallest normal float."""

    exit_code = 3


class EmptyTrainError(PolspinError):
    """Operation requires at least one optical element."""


class NotPositiveSemidefiniteError(PolspinError, ValueError):
    """Coherency matrix has an eigenvalue below -PSD_TOL times its trace."""


class InvalidStokesError(PolspinError):
    """Stokes vector violates s0 >= 0 or s0^2 >= s1^2 + s2^2 + s3^2."""


class ZeroFluxError(PolspinError):
    """Zero total flux where a positive one is required (DoP, a pure beam)."""


class FloatRangeError(PolspinError):
    """A factor of a result lies past the float range, though the result does not."""
