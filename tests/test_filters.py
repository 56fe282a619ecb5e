import cmath
import math

import numpy as np
import pytest

from polspin import (
    AngleSet,
    Attenuator,
    ConformalMap,
    EmptyTrainError,
    ExtinctionError,
    Gyrotropic,
    HalfWave,
    PhaseShifter,
    PoincareRotation,
    QuarterWave,
    Rotator,
    WaveState,
    apply,
    classify,
    compose,
    matrix_circular,
    matrix_linear,
    pancharatnam_phase,
    poincare_frame,
    spinor_from_angles,
    su2_to_so3,
    wave_from_jones,
    JonesAmpPhase,
)
from polspin.pauli import SIGMA1, U_BASIS, U_BASIS_INV

ALL_UNITARY = [
    PhaseShifter(0.3, 1.1),
    Rotator(0.7),
    Gyrotropic(-0.4, 0.9),
    QuarterWave(0.35),
    HalfWave(1.2),
]
ALL_ELEMENTS = ALL_UNITARY + [Attenuator(0.2, 1.4)]


def linear_x_wave():
    return wave_from_jones(JonesAmpPhase(1.0, 0.0, 0.0, 0.0))


def linear_y_wave():
    return wave_from_jones(JonesAmpPhase(0.0, 1.0, 0.0, 0.0))


class TestMatrixCircular:
    def test_half_turn_shifter_is_i_sigma1(self):
        em = matrix_circular(PhaseShifter(0.0, math.pi))
        np.testing.assert_allclose(em.m, 1j * SIGMA1, atol=1e-15)

    def test_zero_rotator_is_identity(self):
        em = matrix_circular(Rotator(0.0))
        np.testing.assert_allclose(em.m, np.eye(2), atol=1e-15)
        assert em.scale == 1.0

    def test_isotropic_attenuator(self):
        em = matrix_circular(Attenuator(0.7, 0.7))
        np.testing.assert_allclose(em.m, np.eye(2), atol=1e-15)
        assert em.scale == pytest.approx(math.exp(-0.7))

    def test_unimodular(self):
        for e in ALL_ELEMENTS:
            assert np.linalg.det(matrix_circular(e).m) == pytest.approx(
                1.0, abs=1e-12
            )
            assert np.linalg.det(matrix_linear(e).m) == pytest.approx(
                1.0, abs=1e-12
            )

    def test_unitarity_split(self):
        for e in ALL_UNITARY:
            m = matrix_circular(e).m
            np.testing.assert_allclose(m.conj().T @ m, np.eye(2), atol=1e-12)
        m = matrix_circular(Attenuator(0.2, 1.4)).m
        assert np.max(np.abs(m.conj().T @ m - np.eye(2))) > 0.1
        np.testing.assert_allclose(m, m.conj().T, atol=1e-15)
        assert min(np.linalg.eigvalsh(m)) > 0.0

    def test_negative_attenuation_rejected(self):
        with pytest.raises(ValueError):
            Attenuator(-0.1, 0.2)

    def test_hwp_periodicity_up_to_sign(self):
        for a in (0.0, 0.3, 1.1):
            m1 = matrix_circular(QuarterWave(a)).m
            m2 = matrix_circular(QuarterWave(a + math.pi)).m
            err = min(np.max(np.abs(m1 - m2)), np.max(np.abs(m1 + m2)))
            assert err < 1e-14


class TestMatrixLinear:
    def test_basis_covariance(self):
        for e in ALL_ELEMENTS:
            lhs = matrix_linear(e).m
            rhs = U_BASIS @ matrix_circular(e).m @ U_BASIS_INV
            np.testing.assert_allclose(lhs, rhs, atol=1e-14)

    def test_shifter_diagonal(self):
        d1, d2 = 0.4, 1.3
        em = matrix_linear(PhaseShifter(d1, d2))
        full = em.scale * em.m
        expected = np.diag([cmath.exp(-1j * d1), cmath.exp(-1j * d2)])
        np.testing.assert_allclose(full, expected, atol=1e-14)

    def test_attenuator_diagonal(self):
        e1, e2 = 0.5, 1.7
        em = matrix_linear(Attenuator(e1, e2))
        full = em.scale * em.m
        expected = np.diag([math.exp(-e1), math.exp(-e2)])
        np.testing.assert_allclose(full, expected, atol=1e-14)

    def test_gyro_rotation_block(self):
        d = 0.8
        em = matrix_linear(Gyrotropic(0.0, d))
        full = em.scale * em.m
        c, s = math.cos(0.5 * d), math.sin(0.5 * d)
        expected = cmath.exp(-0.5j * d) * np.array([[c, s], [-s, c]])
        np.testing.assert_allclose(full, expected, atol=1e-14)


class TestApply:
    def test_qwp_makes_circular_from_linear_x(self):
        w = apply(QuarterWave(math.pi / 4), linear_x_wave())
        r = poincare_frame(w.spinor).r
        assert abs(r[2]) == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(r, [0, 0, -1], atol=1e-12)

    def test_quarter_turn_rotator_moves_x_to_minus_y(self):
        # exp(i alpha sigma3) rotates the sphere by -2 alpha about Z
        w = apply(Rotator(math.pi / 4), linear_x_wave())
        np.testing.assert_allclose(
            poincare_frame(w.spinor).r, [0, -1, 0], atol=1e-12
        )

    def test_half_turn_rotator_moves_x_to_y(self):
        w = apply(Rotator(math.pi / 2), linear_x_wave())
        np.testing.assert_allclose(
            poincare_frame(w.spinor).r, [-1, 0, 0], atol=1e-12
        )
        np.testing.assert_allclose(
            poincare_frame(linear_y_wave().spinor).r, [-1, 0, 0], atol=1e-12
        )

    def test_shifter_fixed_points(self):
        for w in (linear_x_wave(), linear_y_wave()):
            out = apply(PhaseShifter(0.3, 1.4), w)
            np.testing.assert_allclose(
                poincare_frame(out.spinor).r,
                poincare_frame(w.spinor).r,
                atol=1e-12,
            )

    def test_gyro_fixed_points(self):
        from polspin import Spinor2

        for s in (Spinor2(1.0, 0.0), Spinor2(0.0, 1.0)):
            out = apply(Gyrotropic(0.2, 1.0), WaveState(1.0, s))
            np.testing.assert_allclose(
                poincare_frame(out.spinor).r, poincare_frame(s).r, atol=1e-12
            )

    def test_unitary_preserves_amplitude(self, rng):
        w = linear_x_wave()
        for e in ALL_UNITARY:
            assert apply(e, w).amplitude == pytest.approx(w.amplitude, rel=1e-12)

    def test_attenuator_eigendirection_losses(self):
        wx, wy = linear_x_wave(), linear_y_wave()
        e = Attenuator(0.3, 1.1)
        assert apply(e, wx).amplitude == pytest.approx(
            wx.amplitude * math.exp(-0.3)
        )
        assert apply(e, wy).amplitude == pytest.approx(
            wy.amplitude * math.exp(-1.1)
        )

    def test_extinction(self):
        with pytest.raises(ExtinctionError):
            apply(Attenuator(1500.0, 1500.0), linear_x_wave())

    def test_extinction_is_a_subnormal_flux(self):
        # ||v|| = e^-20 is far from zero, but the flux A'^2 ~ 4e-318 is subnormal
        w = WaveState(1e-150, linear_x_wave().spinor)
        with pytest.raises(ExtinctionError, match="underflows below the smallest normal float"):
            apply(Attenuator(20.0, 20.0), w)
        # A'^2 = e^-40 * 1e-260 is still a normal float
        assert apply(Attenuator(20.0, 20.0), WaveState(1e-130, w.spinor)).amplitude > 0.0

    def test_scale_only_shifts_pancharatnam_phase(self):
        w = WaveState(1.0, spinor_from_angles(AngleSet(0.4, 1.0, 0.2)))
        d1 = d2 = 0.9  # delta = 0: pure scale e^{-i(d1+d2)/2}
        out = apply(PhaseShifter(d1, d2), w)
        phase = pancharatnam_phase(w.spinor, out.spinor)
        expected = -(d1 + d2) / 2
        assert (phase - expected) % (2 * math.pi) == pytest.approx(
            0.0, abs=1e-12
        ) or (phase - expected) % (2 * math.pi) == pytest.approx(
            2 * math.pi, abs=1e-12
        )


class TestClassify:
    def test_phase_shifter(self):
        delta = 1.1
        c = classify(PhaseShifter(0.0, delta))
        assert isinstance(c, PoincareRotation)
        np.testing.assert_allclose(c.axis, [1, 0, 0], atol=1e-12)
        assert c.angle == pytest.approx(-delta, abs=1e-12)

    def test_rotator(self):
        alpha = 0.6
        c = classify(Rotator(alpha))
        np.testing.assert_allclose(c.axis, [0, 0, 1], atol=1e-12)
        assert c.angle == pytest.approx(-2 * alpha, abs=1e-12)

    def test_gyrotropic(self):
        delta = 0.9
        c = classify(Gyrotropic(0.0, delta))
        np.testing.assert_allclose(c.axis, [0, 0, 1], atol=1e-12)
        assert c.angle == pytest.approx(-delta, abs=1e-12)

    def test_attenuator(self):
        c = classify(Attenuator(0.0, 1.3))
        assert isinstance(c, ConformalMap)
        np.testing.assert_allclose(c.boost_axis, [1, 0, 0])
        assert c.rapidity == pytest.approx(1.3)

    def test_matches_so3_image(self):
        # axis-angle read back through the rotation matrix
        for e in ALL_UNITARY:
            c = classify(e)
            a = su2_to_so3(matrix_circular(e).m)
            angle = c.angle
            n = c.axis
            # Rodrigues formula for rotation by `angle` about `n`
            k = np.array(
                [[0, -n[2], n[1]], [n[2], 0, -n[0]], [-n[1], n[0], 0]]
            )
            expected = (
                np.eye(3)
                + math.sin(angle) * k
                + (1 - math.cos(angle)) * (k @ k)
            )
            np.testing.assert_allclose(a, expected, atol=1e-12)


class TestCompose:
    def test_two_qwp_equal_hwp(self):
        a = 0.7
        train = compose([QuarterWave(a), QuarterWave(a)])
        hwp = matrix_circular(HalfWave(a))
        np.testing.assert_allclose(train.m, hwp.m, atol=1e-14)
        assert train.scale == pytest.approx(1.0)

    def test_inverse_rotators(self):
        train = compose([Rotator(0.4), Rotator(-0.4)])
        np.testing.assert_allclose(train.m, np.eye(2), atol=1e-14)

    def test_order_matches_explicit_product(self):
        e1 = PhaseShifter(0.0, math.pi / 2)
        e2 = Attenuator(0.0, 1.0)
        train = compose([e1, e2])
        m1, m2 = matrix_circular(e1), matrix_circular(e2)
        np.testing.assert_allclose(train.m, m2.m @ m1.m, atol=1e-14)
        assert train.scale == pytest.approx(m1.scale * m2.scale)

    def test_empty_train_rejected(self):
        with pytest.raises(EmptyTrainError):
            compose([])

    def test_det_stays_one(self, rng):
        train = [
            PhaseShifter(rng.uniform(0, 2), rng.uniform(0, 2))
            for _ in range(8)
        ] + [Attenuator(rng.uniform(0, 1), rng.uniform(0, 1)) for _ in range(4)]
        em = compose(train)
        assert np.linalg.det(em.m) == pytest.approx(1.0, abs=1e-10 * len(train))
