"""The closed-form scalar core against matrix references built independently.

Each reference is written from the module docstrings with the Pauli
matrices and scipy's matrix exponential, never from polspin's own formulas.
The tolerance is fixed at 1e-14 absolute; every input is unit scale
(s0 = 1, |o| = 1, attenuation exponents at most 1).
"""

import cmath
import math

import numpy as np
import pytest
from scipy.linalg import expm

from polspin import (
    Attenuator,
    PoincareRotation,
    Gyrotropic,
    HalfWave,
    PhaseShifter,
    QuarterWave,
    Rotator,
    WaveState,
    apply,
    apply_filter_to_coherency,
    apply_train_to_coherency,
    classify,
    coherency_from_stokes,
    compose,
    mueller_of_train,
    poincare_frame,
    stokes_from_coherency,
    su2_to_so3,
)
from polspin.filters import element_matrix
from polspin.pauli import EPSILON, SIGMA, SIGMA0, SIGMA1, SIGMA2, SIGMA3, U_BASIS, U_BASIS_INV

from .conftest import (
    as_spinor,
    random_su2,
    random_unit_spinors,
    random_valid_stokes,
    stokes_vec,
)

TOL = 1e-14
TRIALS = 40
BASES = ("circular", "linear")


def random_element(rng, kind):
    if kind is Attenuator:
        return Attenuator(rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0))
    if kind in (QuarterWave, HalfWave):
        return kind(rng.uniform(0.0, math.pi))
    angles = rng.uniform(0.0, 2.0 * math.pi, 1 if kind is Rotator else 2)
    return kind(*map(float, angles))


KINDS = (PhaseShifter, Rotator, Gyrotropic, QuarterWave, HalfWave, Attenuator)


def random_elements(rng):
    return [random_element(rng, kind) for _ in range(TRIALS) for kind in KINDS]


def reference_full(e, basis="circular"):
    """scale * m from the filters docstring, via expm of the generator."""
    if isinstance(e, PhaseShifter):
        d = e.delta2 - e.delta1
        f = cmath.exp(-0.5j * (e.delta1 + e.delta2)) * expm(0.5j * d * SIGMA1)
    elif isinstance(e, Rotator):
        f = expm(1j * e.alpha * SIGMA3)
    elif isinstance(e, Gyrotropic):
        d = e.delta2 - e.delta1
        f = cmath.exp(-0.5j * (e.delta1 + e.delta2)) * expm(0.5j * d * SIGMA3)
    elif isinstance(e, (QuarterWave, HalfWave)):
        # retarder of pi/2 (quarter) or pi (half) about the axis at 2a
        a = 2.0 * e.axis_angle
        axis = math.cos(a) * SIGMA1 + math.sin(a) * SIGMA2
        retardance = 0.5 * math.pi if isinstance(e, QuarterWave) else math.pi
        f = expm(-0.5j * retardance * axis)
    else:
        f = math.exp(-0.5 * (e.eta1 + e.eta2)) * expm(0.5 * (e.eta2 - e.eta1) * SIGMA1)
    if basis == "linear":
        f = U_BASIS @ f @ U_BASIS_INV
    return f


def test_quarter_wave_reference_matches_docstring():
    # the expm form used above equals (1/sqrt 2)[1 - i cos2a s1 - i sin2a s2]
    a = 0.37
    c, s = math.cos(2 * a), math.sin(2 * a)
    doc = (SIGMA0 - 1j * c * SIGMA1 - 1j * s * SIGMA2) / math.sqrt(2.0)
    np.testing.assert_allclose(reference_full(QuarterWave(a)), doc, rtol=0, atol=TOL)


@pytest.mark.parametrize("basis", BASES)
def test_element_matrices_match_expm(rng, basis):
    for e in random_elements(rng):
        em = element_matrix(e, basis)
        assert isinstance(em.m, np.ndarray) and em.basis == basis
        np.testing.assert_allclose(em.full(), reference_full(e, basis), rtol=0, atol=TOL)


def test_apply_matches_matrix_product(rng):
    spinors = random_unit_spinors(rng, TRIALS * len(KINDS))
    for e, o in zip(random_elements(rng), spinors):
        amp = rng.uniform(0.5, 1.0)
        out = apply(e, WaveState(amp, as_spinor(o)))
        v = reference_full(e) @ o
        n = np.linalg.norm(v)
        assert out.amplitude == pytest.approx(amp * n, rel=TOL, abs=0)
        np.testing.assert_allclose(
            [out.spinor.c1, out.spinor.c2], v / n, rtol=0, atol=TOL
        )


def test_poincare_frame_matches_pauli_products(rng):
    for o in random_unit_spinors(rng, 200):
        frame = poincare_frame(as_spinor(o))
        r = [(o.conj() @ SIGMA[i] @ o).real for i in (1, 2, 3)]
        m = np.array([o @ (EPSILON @ SIGMA[i]) @ o for i in (1, 2, 3)])
        np.testing.assert_allclose(frame.r, r, rtol=0, atol=TOL)
        np.testing.assert_allclose(frame.m_re, m.real, rtol=0, atol=TOL)
        np.testing.assert_allclose(frame.m_im, m.imag, rtol=0, atol=TOL)


def unit_flux_stokes(rng, n):
    rows = random_valid_stokes(rng, n)
    return rows / rows[:, :1]


@pytest.mark.parametrize("basis", BASES)
def test_coherency_filter_matches_conjugation(rng, basis):
    rows = unit_flux_stokes(rng, TRIALS * len(KINDS))
    for e, row in zip(random_elements(rng), rows):
        c = coherency_from_stokes(stokes_vec(row), basis)
        f = reference_full(e, basis)
        out = apply_filter_to_coherency(e, c)
        assert out.basis == basis and isinstance(out.matrix, np.ndarray)
        np.testing.assert_allclose(out.matrix, f @ c.matrix @ f.conj().T, rtol=0, atol=TOL)


# Near-ideal polarizers: cosh((e2 - e1)/2)^2 overflows a double once the
# dichroism passes about 710 nepers, while scale * m stays of order one.
# expm loses digits at such norms, so the attenuator reference here is its
# spectral form e^{-e1} P+ + e^{-e2} P-, with P+- = (1 +- sigma1)/2.
STRONG_TRAINS = (
    [Attenuator(0.0, 750.0)],
    [Attenuator(0.0, 400.0), Rotator(0.3), Attenuator(400.0, 0.0)],
    [Attenuator(0.0, 400.0), Attenuator(0.0, 400.0)],
)


@pytest.mark.parametrize("basis", BASES)
@pytest.mark.parametrize("train", STRONG_TRAINS)
def test_coherency_conjugation_finite_under_strong_dichroism(rng, basis, train):
    f = np.eye(2)
    for e in train:
        if isinstance(e, Attenuator):
            g = 0.5 * math.exp(-e.eta1) * (SIGMA0 + SIGMA1)
            g += 0.5 * math.exp(-e.eta2) * (SIGMA0 - SIGMA1)
            g = U_BASIS @ g @ U_BASIS_INV if basis == "linear" else g
        else:
            g = reference_full(e, basis)
        f = g @ f
    for row in unit_flux_stokes(rng, 20):
        c = coherency_from_stokes(stokes_vec(row), basis)
        expected = f @ c.matrix @ f.conj().T
        out = apply_train_to_coherency(train, c)
        np.testing.assert_allclose(out.matrix, expected, rtol=0, atol=TOL)
        if len(train) == 1:
            out = apply_filter_to_coherency(train[0], c)
            np.testing.assert_allclose(out.matrix, expected, rtol=0, atol=TOL)


@pytest.mark.parametrize("basis", BASES)
def test_stokes_reading_matches_pauli_traces(rng, basis):
    sig = SIGMA if basis == "circular" else [U_BASIS @ s @ U_BASIS_INV for s in SIGMA]
    for row in unit_flux_stokes(rng, 200):
        c = coherency_from_stokes(stokes_vec(row), basis)
        expected = [np.trace(c.matrix @ s).real for s in sig]
        got = stokes_from_coherency(c)
        np.testing.assert_allclose([got.s0, got.s1, got.s2, got.s3], expected, rtol=0, atol=TOL)
        np.testing.assert_allclose(expected, row, rtol=0, atol=TOL)


def pauli_set(basis):
    return SIGMA if basis == "circular" else [U_BASIS @ s @ U_BASIS_INV for s in SIGMA]


def reference_so3(q):
    """a_ij = (1/2) tr(sigma_j Q^dag sigma_i Q), the nine trace products."""
    qdag = q.conj().T
    return np.array(
        [[0.5 * np.trace(SIGMA[j] @ qdag @ SIGMA[i] @ q).real for j in (1, 2, 3)] for i in (1, 2, 3)]
    )


def test_su2_to_so3_matches_trace_products(rng):
    for _ in range(200):
        q = random_su2(rng)
        np.testing.assert_allclose(su2_to_so3(q), reference_so3(q), rtol=0, atol=TOL)


def test_classify_matches_trace_reading(rng):
    # m = c 1 + i v.sigma with c = (1/2) tr m and v_i = (1/2) Im tr(sigma_i m)
    for e in random_elements(rng):
        if isinstance(e, Attenuator):
            continue
        m = element_matrix(e).m
        c = 0.5 * np.trace(m).real
        v = np.array([0.5 * np.trace(SIGMA[i] @ m).imag for i in (1, 2, 3)])
        vn = np.linalg.norm(v)
        got = classify(e)
        assert isinstance(got, PoincareRotation)
        assert got.angle == pytest.approx(-2.0 * math.atan2(vn, c), rel=0, abs=TOL)
        if vn > 1e-6:
            np.testing.assert_allclose(got.axis, v / vn, rtol=0, atol=TOL)


def random_train(rng, n):
    """n random elements; attenuation exponents in [0, 0.01] keep a long
    train's scale and unimodular factor far from under- and overflow."""
    train = []
    for kind in rng.choice(len(KINDS), n):
        e = random_element(rng, KINDS[kind])
        if isinstance(e, Attenuator):
            e = Attenuator(0.01 * e.eta1, 0.01 * e.eta2)
        train.append(e)
    return train


def sequential_product(train, basis):
    f = np.eye(2, dtype=complex)
    for e in train:
        f = np.matmul(element_matrix(e, basis).full(), f)
    return f


COMPOSE_TOL = 1e-12


@pytest.mark.parametrize("basis", BASES)
@pytest.mark.parametrize("n", [1, 6, 6000])
def test_compose_matches_sequential_matmul(rng, basis, n):
    for _ in range(3 if n == 6000 else 50):
        train = random_train(rng, n)
        em = compose(train, basis)
        assert isinstance(em.m, np.ndarray) and em.basis == basis
        ref = sequential_product(train, basis)
        scale = np.max(np.abs(ref))
        np.testing.assert_allclose(em.full(), ref, rtol=0, atol=COMPOSE_TOL * scale)


def reference_mueller(f, basis):
    """The loop M_ij = (1/2) tr(sigma_i F sigma_j F^dag) on explicit matrices."""
    sig = pauli_set(basis)
    fdag = f.conj().T
    return np.array(
        [[0.5 * np.trace(sig[i] @ f @ sig[j] @ fdag).real for j in range(4)] for i in range(4)]
    )


@pytest.mark.parametrize("basis", BASES)
@pytest.mark.parametrize("n", [1, 6, 6000])
def test_mueller_matches_trace_loop(rng, basis, n):
    for _ in range(3 if n == 6000 else 50):
        train = random_train(rng, n)
        mm = mueller_of_train(train, basis)
        assert mm.shape == (4, 4) and mm.dtype == float
        ref = reference_mueller(sequential_product(train, basis), basis)
        np.testing.assert_allclose(mm, ref, rtol=0, atol=COMPOSE_TOL * ref[0, 0])
