"""polspin: SU(2)-spinor toolkit for plane-wave polarization.

Lossless conversions among ellipse-angle, spinor, Jones and Stokes
representations; Poincare-sphere point-plus-tangent geometry carrying
both polarization state and phase; optical elements as 2x2 matrix
actions; coherency matrices for partially polarized beams; a small
`.pol` train language and CLI on top.
"""

from .errors import (
    EmptyTrainError,
    ExtinctionError,
    FloatRangeError,
    InvalidStokesError,
    NonUnimodularError,
    NonUnitaryError,
    NotPositiveSemidefiniteError,
    OrthogonalStatesError,
    PolspinError,
    ZeroFieldError,
    ZeroFluxError,
)
from .filters import (
    Attenuator,
    ConformalMap,
    ElementMatrix,
    Gyrotropic,
    HalfWave,
    PhaseShifter,
    PoincareRotation,
    QuarterWave,
    Rotator,
    apply,
    classify,
    compose,
    matrix_circular,
    matrix_linear,
)
from .partial import (
    CoherencyMatrix,
    PolarizationDecomposition,
    apply_filter_to_coherency,
    apply_train_to_coherency,
    coherency_from_stokes,
    degree_of_polarization,
    eig_decompose,
    mueller_of_train,
    purity_invariant,
    stokes_from_coherency,
)
from .spinor import (
    AngleSet,
    EllipseParams,
    JonesAmpPhase,
    PoincareFrame,
    Spinor2,
    StokesVector,
    WaveState,
    angles_from_spinor,
    basis_permutation_check,
    ellipse_from_wave,
    field_sample,
    jones_from_wave,
    mate,
    pancharatnam_phase,
    poincare_frame,
    spinor_from_angles,
    stokes_from_wave,
    su2_to_so3,
    wave_from_jones,
    wave_from_stokes,
)

__version__ = "0.1.0"
