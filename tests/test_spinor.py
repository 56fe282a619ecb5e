import cmath
import copy
import dataclasses
import math
import pickle

import numpy as np
import pytest

from polspin import (
    AngleSet,
    JonesAmpPhase,
    NonUnimodularError,
    NonUnitaryError,
    OrthogonalStatesError,
    Spinor2,
    StokesVector,
    WaveState,
    ZeroFieldError,
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
from polspin.beamio import parse_beam_json
from polspin.filters import Rotator, apply
from polspin.pauli import SIGMA1, SIGMA3, U_BASIS, U_INV_ROWS, U_ROWS
from polspin.spinor import _check_wave, _times

from .conftest import as_spinor, random_su2, random_unit_spinors, slots


# `pickle.dumps(w, 4)` of WaveState(0.5, Spinor2(1, 0)) stepped through Rotator(0.5) and of the
# wave itself, as polspin wrote them when a wave held only the spinor it was built or stepped in
ONE_SPINOR_PICKLE_STEPPED = (
    b"\x80\x04\x95\xb0\x00\x00\x00\x00\x00\x00\x00\x8c\x08builtins\x94\x8c\x07getattr\x94\x93\x94"
    b"\x8c\x0epolspin.spinor\x94\x8c\tWaveState\x94\x93\x94\x8c\x05_held\x94\x86\x94R\x94}\x94(\x8c"
    b"\tamplitude\x94G?\xe0\x00\x00\x00\x00\x00\x00\x8c\x06_jones\x94\x8c\x08builtins\x94\x8c\x07"
    b"complex\x94\x93\x94G?\xc9{g\x98k\xf4\xb0G?\xe5\xb6N @\x80$\x86\x94R\x94h\x0eG\xbf\xe5\xb6N @"
    b"\x80$G?\xc9{g\x98k\xf4\xb0\x86\x94R\x94\x86\x94u\x85\x94R\x94.")
ONE_SPINOR_PICKLE_BUILT = (
    b"\x80\x04\x95\xc0\x00\x00\x00\x00\x00\x00\x00\x8c\x08builtins\x94\x8c\x07getattr\x94\x93\x94"
    b"\x8c\x0epolspin.spinor\x94\x8c\tWaveState\x94\x93\x94\x8c\x05_held\x94\x86\x94R\x94}\x94(\x8c"
    b"\tamplitude\x94G?\xe0\x00\x00\x00\x00\x00\x00\x8c\x06spinor\x94h\x03\x8c\x07Spinor2\x94\x93"
    b"\x94\x8c\x08builtins\x94\x8c\x07complex\x94\x93\x94G?\xf0\x00\x00\x00\x00\x00\x00G\x00\x00"
    b"\x00\x00\x00\x00\x00\x00\x86\x94R\x94h\x10G\x00\x00\x00\x00\x00\x00\x00\x00G\x00\x00\x00"
    b"\x00\x00\x00\x00\x00\x86\x94R\x94\x86\x94R\x94u\x85\x94R\x94.")


def wave(theta, phi=0.0, chi=0.0, amp=1.0):
    return WaveState(amp, spinor_from_angles(AngleSet(theta, phi, chi)))


def field_trig(amp, theta, phi, chi, tau):
    """Four-term trigonometric field form; independent oracle for field_sample."""
    ct, st = math.cos(0.5 * theta), math.sin(0.5 * theta)
    plus = tau + 0.5 * chi + 0.5 * phi
    minus = tau + 0.5 * chi - 0.5 * phi
    ex = amp * (ct * math.cos(plus) + st * math.cos(minus))
    ey = amp * (ct * math.sin(plus) - st * math.sin(minus))
    return ex, ey


class TestSpinorFromAngles:
    def test_north_pole(self):
        s = spinor_from_angles(AngleSet(0.0, 0.0, 0.0))
        assert s.c1 == pytest.approx(1.0) and s.c2 == pytest.approx(0.0)

    def test_south_pole(self):
        s = spinor_from_angles(AngleSet(math.pi, 0.0, 0.0))
        assert abs(s.c1) < 1e-15 and s.c2 == pytest.approx(1.0)

    def test_equator(self):
        s = spinor_from_angles(AngleSet(math.pi / 2, math.pi / 2, 0.0))
        root = 1.0 / math.sqrt(2.0)
        assert s.c1 == pytest.approx(cmath.exp(-0.25j * math.pi) * root, abs=1e-15)
        assert s.c2 == pytest.approx(cmath.exp(0.25j * math.pi) * root, abs=1e-15)

    def test_unit_norm_random(self, rng):
        for _ in range(200):
            ang = AngleSet(
                rng.uniform(0, math.pi),
                rng.uniform(0, 2 * math.pi),
                rng.uniform(0, 2 * math.pi),
            )
            assert spinor_from_angles(ang).norm() == pytest.approx(1.0, abs=1e-12)


class TestAnglesFromSpinor:
    def test_pole_canonicalization(self):
        ang = angles_from_spinor(Spinor2(1.0, 0.0))
        assert (ang.theta, ang.phi, ang.chi) == (0.0, 0.0, 0.0)

    def test_circular_with_phase(self):
        ang = angles_from_spinor(Spinor2(0.0, 1j))
        assert ang.theta == pytest.approx(math.pi)
        assert ang.phi == 0.0
        assert ang.chi == pytest.approx(math.pi)

    def test_round_trip_up_to_sign(self, rng):
        for row in random_unit_spinors(rng, 1000):
            s = as_spinor(row)
            back = spinor_from_angles(angles_from_spinor(s)).as_array()
            err = min(
                np.max(np.abs(back - row)), np.max(np.abs(back + row))
            )
            assert err < 1e-12


class TestEllipse:
    def test_linear(self):
        e = ellipse_from_wave(wave(math.pi / 2))
        assert e.a == pytest.approx(math.sqrt(2.0))
        assert e.b == pytest.approx(0.0, abs=1e-15)

    def test_circular(self):
        e = ellipse_from_wave(wave(0.0))
        assert (e.a, e.b) == (pytest.approx(1.0), pytest.approx(1.0))

    def test_left_circular(self):
        e = ellipse_from_wave(wave(math.pi, amp=2.0))
        assert e.a == pytest.approx(2.0)
        assert e.b == pytest.approx(-2.0)

    def test_axes_flux(self, rng):
        for row in random_unit_spinors(rng, 100):
            w = WaveState(rng.uniform(0.5, 2.0), as_spinor(row))
            e = ellipse_from_wave(w)
            assert abs(e.b) <= e.a + 1e-12
            assert e.a**2 + e.b**2 == pytest.approx(
                2.0 * w.amplitude**2, rel=1e-12
            )


class TestPoincareFrame:
    def test_north_pole_frame(self):
        f = poincare_frame(Spinor2(1.0, 0.0))
        np.testing.assert_allclose(f.r, [0, 0, 1], atol=1e-15)
        np.testing.assert_allclose(f.m_re, [1, 0, 0], atol=1e-15)
        np.testing.assert_allclose(f.m_im, [0, 1, 0], atol=1e-15)

    def test_antipodal_pole(self):
        f = poincare_frame(Spinor2(0.0, 1.0))
        np.testing.assert_allclose(f.r, [0, 0, -1], atol=1e-15)

    def test_triad_orthonormal_right_handed(self, rng):
        for row in random_unit_spinors(rng, 1000):
            f = poincare_frame(as_spinor(row))
            assert abs(f.r @ f.m_re) < 1e-12
            assert abs(np.linalg.norm(f.m_re) - 1.0) < 1e-12
            np.testing.assert_allclose(np.cross(f.r, f.m_re), f.m_im, atol=1e-12)

    def test_r_matches_recovered_angles(self, rng):
        for row in random_unit_spinors(rng, 200):
            s = as_spinor(row)
            ang = angles_from_spinor(s)
            expected = [
                math.sin(ang.theta) * math.cos(ang.phi),
                math.sin(ang.theta) * math.sin(ang.phi),
                math.cos(ang.theta),
            ]
            np.testing.assert_allclose(poincare_frame(s).r, expected, atol=1e-12)

    def test_m_re_rotates_with_chi(self, rng):
        for _ in range(50):
            theta = rng.uniform(0.1, math.pi - 0.1)
            phi = rng.uniform(0, 2 * math.pi)
            chi = rng.uniform(0, 2 * math.pi)
            f0 = poincare_frame(spinor_from_angles(AngleSet(theta, phi, 0.0)))
            fc = poincare_frame(spinor_from_angles(AngleSet(theta, phi, chi)))
            # m_re(chi) = cos(chi) m_re(0) + sin(chi) m_im(0)
            expected = math.cos(chi) * f0.m_re + math.sin(chi) * f0.m_im
            np.testing.assert_allclose(fc.m_re, expected, atol=1e-12)


class TestStokes:
    def test_north_pole(self):
        s = stokes_from_wave(wave(0.0))
        assert s.as_array() == pytest.approx([1, 0, 0, 1])

    def test_linear_x_amp2(self, rng):
        chi = rng.uniform(0, 2 * math.pi)
        s = stokes_from_wave(wave(math.pi / 2, 0.0, chi, amp=2.0))
        np.testing.assert_allclose(s.as_array(), [4, 4, 0, 0], atol=1e-12)

    def test_equator_y(self):
        s = stokes_from_wave(wave(math.pi / 2, math.pi / 2))
        np.testing.assert_allclose(s.as_array(), [1, 0, 1, 0], atol=1e-12)

    def test_chi_independent(self, rng):
        theta, phi = rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi)
        ref = stokes_from_wave(wave(theta, phi, 0.0)).as_array()
        for chi in rng.uniform(0, 2 * math.pi, 20):
            got = stokes_from_wave(wave(theta, phi, chi)).as_array()
            np.testing.assert_allclose(got, ref, atol=1e-12)

    def test_pure(self, rng):
        for row in random_unit_spinors(rng, 100):
            s = stokes_from_wave(WaveState(1.3, as_spinor(row)))
            assert s.s0**2 == pytest.approx(
                s.s1**2 + s.s2**2 + s.s3**2, rel=1e-12
            )


class TestJones:
    def test_circular_states_give_u_columns(self):
        o_tilde, _ = jones_from_wave(WaveState(1.0, Spinor2(1.0, 0.0)))
        np.testing.assert_allclose(o_tilde, U_BASIS[:, 0], atol=1e-15)
        o_tilde, _ = jones_from_wave(WaveState(1.0, Spinor2(0.0, 1.0)))
        np.testing.assert_allclose(o_tilde, U_BASIS[:, 1], atol=1e-15)
        np.testing.assert_allclose(U_BASIS[:, 0], [(1 + 1j) / 2, (-1 + 1j) / 2])
        np.testing.assert_allclose(U_BASIS[:, 1], [(1 + 1j) / 2, (1 - 1j) / 2])

    def test_basis_round_trip(self, rng):
        for row in random_unit_spinors(rng, 100):
            back = U_BASIS.conj().T @ (U_BASIS @ row)
            np.testing.assert_allclose(back, row, atol=1e-15)

    def test_jones_real_part_is_field(self, rng):
        for row in random_unit_spinors(rng, 50):
            w = WaveState(rng.uniform(0.5, 2.0), as_spinor(row))
            o_tilde, prefactor = jones_from_wave(w)
            ex, ey = field_sample(w, 1.0, 1.0, 0.0, 0.0)
            assert (prefactor * o_tilde[0]).real == pytest.approx(ex, abs=1e-12)
            assert (prefactor * o_tilde[1]).real == pytest.approx(ey, abs=1e-12)

    def test_wave_from_jones_linear_x(self):
        w = wave_from_jones(JonesAmpPhase(1.0, 0.0, 0.0, 0.0))
        np.testing.assert_allclose(poincare_frame(w.spinor).r, [1, 0, 0], atol=1e-15)

    def test_wave_from_jones_linear_y(self):
        w = wave_from_jones(JonesAmpPhase(0.0, 1.0, 0.0, 0.0))
        np.testing.assert_allclose(poincare_frame(w.spinor).r, [-1, 0, 0], atol=1e-15)

    def test_wave_from_jones_circular(self):
        w = wave_from_jones(JonesAmpPhase(1.0, 1.0, 0.0, math.pi / 2))
        r = poincare_frame(w.spinor).r
        np.testing.assert_allclose(r, [0, 0, 1], atol=1e-15)

    def test_zero_field_rejected(self):
        with pytest.raises(ZeroFieldError):
            wave_from_jones(JonesAmpPhase(0.0, 0.0, 0.0, 0.0))

    def test_round_trip_exact(self, rng):
        for _ in range(100):
            j = JonesAmpPhase(
                rng.uniform(0.1, 2.0),
                rng.uniform(0.1, 2.0),
                rng.uniform(-math.pi, math.pi),
                rng.uniform(-math.pi, math.pi),
            )
            w = wave_from_jones(j)
            o_tilde, prefactor = jones_from_wave(w)
            comps = prefactor * o_tilde
            expected = [
                j.a1 * cmath.exp(1j * j.phi1),
                j.a2 * cmath.exp(1j * j.phi2),
            ]
            np.testing.assert_allclose(comps, expected, atol=1e-12)


def test_basis_permutation_check():
    assert basis_permutation_check() == (True, True, True)


class TestFieldSample:
    def test_linear_x_at_origin(self):
        ex, ey = field_sample(wave(math.pi / 2), 1.0, 1.0, 0.0, 0.0)
        assert ex == pytest.approx(math.sqrt(2.0))
        assert ey == pytest.approx(0.0, abs=1e-15)

    def test_circular_orbit_radius(self):
        w = wave(0.0)
        ex, ey = field_sample(w, 1.0, 0.0, math.pi / 2, 0.0)
        assert ex**2 + ey**2 == pytest.approx(1.0)

    def test_periodicity(self, rng):
        row = random_unit_spinors(rng, 1)[0]
        w = WaveState(1.7, as_spinor(row))
        omega, k = 2.3, 0.9
        for t, z in rng.uniform(-2, 2, (20, 2)):
            a = field_sample(w, omega, k, t, z)
            b = field_sample(w, omega, k, t + 2 * math.pi / omega, z)
            assert a == pytest.approx(b, abs=1e-12)

    def test_matches_trig_form(self, rng):
        taus = np.linspace(-5, 5, 100)
        for _ in range(20):
            theta = rng.uniform(0, math.pi)
            phi = rng.uniform(0, 2 * math.pi)
            chi = rng.uniform(0, 2 * math.pi)
            amp = rng.uniform(0.5, 2.0)
            w = wave(theta, phi, chi, amp)
            for tau in taus:
                got = field_sample(w, 1.0, 0.0, tau, 0.0)
                want = field_trig(amp, theta, phi, chi, tau)
                assert got == pytest.approx(want, abs=1e-12)


class TestSu2ToSo3:
    def test_identity(self):
        np.testing.assert_allclose(su2_to_so3(np.eye(2)), np.eye(3), atol=1e-15)

    def test_sigma1_exponential_rotates_about_x(self, rng):
        for delta in rng.uniform(0.1, 2 * math.pi - 0.1, 20):
            q = (
                math.cos(0.5 * delta) * np.eye(2)
                + 1j * math.sin(0.5 * delta) * SIGMA1
            )
            expected = np.array(
                [
                    [1, 0, 0],
                    [0, math.cos(delta), math.sin(delta)],
                    [0, -math.sin(delta), math.cos(delta)],
                ]
            )
            np.testing.assert_allclose(su2_to_so3(q), expected, atol=1e-12)

    def test_rotates_r_vector(self, rng):
        for _ in range(100):
            q = random_su2(rng)
            a = su2_to_so3(q)
            row = random_unit_spinors(rng, 1)[0]
            s = as_spinor(row)
            rotated = as_spinor(q @ row)
            np.testing.assert_allclose(
                poincare_frame(rotated).r, a @ poincare_frame(s).r, atol=1e-12
            )

    def test_orthogonal_det_one(self, rng):
        for _ in range(100):
            a = su2_to_so3(random_su2(rng))
            np.testing.assert_allclose(a @ a.T, np.eye(3), atol=1e-12)
            assert np.linalg.det(a) == pytest.approx(1.0, abs=1e-12)

    def test_homomorphism(self, rng):
        for _ in range(100):
            q1, q2 = random_su2(rng), random_su2(rng)
            lhs = su2_to_so3(q1 @ q2)
            rhs = su2_to_so3(q1) @ su2_to_so3(q2)
            assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_double_cover(self, rng):
        q = random_su2(rng)
        np.testing.assert_allclose(su2_to_so3(-q), su2_to_so3(q), atol=1e-14)

    def test_rejects_non_unitary(self):
        with pytest.raises(NonUnitaryError):
            su2_to_so3(np.array([[2.0, 0.0], [0.0, 0.5]]))

    def test_rejects_non_unimodular(self):
        q = np.diag([1j, 1j])  # unitary, det = -1
        with pytest.raises(NonUnimodularError):
            su2_to_so3(q)


class TestPancharatnam:
    def test_identical_states(self, rng):
        s = as_spinor(random_unit_spinors(rng, 1)[0])
        assert pancharatnam_phase(s, s) == pytest.approx(0.0, abs=1e-15)

    def test_global_phase_extraction(self, rng):
        s = as_spinor(random_unit_spinors(rng, 1)[0])
        for gamma in rng.uniform(-math.pi + 0.01, math.pi, 20):
            shifted = Spinor2(
                s.c1 * cmath.exp(1j * gamma), s.c2 * cmath.exp(1j * gamma)
            )
            assert pancharatnam_phase(s, shifted) == pytest.approx(gamma, abs=1e-12)

    def test_orthogonal_states_error(self):
        with pytest.raises(OrthogonalStatesError):
            pancharatnam_phase(Spinor2(1.0, 0.0), Spinor2(0.0, 1.0))

    def test_antisymmetry(self, rng):
        rows = random_unit_spinors(rng, 40)
        for a, b in zip(rows[::2], rows[1::2]):
            p = pancharatnam_phase(as_spinor(a), as_spinor(b))
            q = pancharatnam_phase(as_spinor(b), as_spinor(a))
            assert p == pytest.approx(-q, abs=1e-12)


class TestMate:
    def test_poles(self):
        assert mate(Spinor2(1.0, 0.0)) == Spinor2(0.0, 1.0)
        assert mate(Spinor2(0.0, 1.0)) == Spinor2(-1.0, 0.0)

    def test_orthogonal_and_antipodal(self, rng):
        for row in random_unit_spinors(rng, 100):
            s = as_spinor(row)
            m = mate(s)
            assert abs(s.as_array().conj() @ m.as_array()) < 1e-12
            np.testing.assert_allclose(
                poincare_frame(m).r, -poincare_frame(s).r, atol=1e-12
            )


class TestWaveFromStokes:
    def test_rejects_mixed(self):
        from polspin import InvalidStokesError

        with pytest.raises(InvalidStokesError):
            wave_from_stokes(StokesVector(1.0, 0.0, 0.0, 0.5))

    def test_round_trip_direction(self, rng):
        for row in random_unit_spinors(rng, 50):
            s = stokes_from_wave(WaveState(1.4, as_spinor(row)))
            back = stokes_from_wave(wave_from_stokes(s))
            np.testing.assert_allclose(back.as_array(), s.as_array(), atol=1e-10)


class TestWaveStateFluxFloor:
    def test_subnormal_flux_rejected_at_construction(self):
        # A = 1e-160 gives A^2 = 1e-320, subnormal: the constructor raises
        # with the text the beam forms report, not a later apply()
        with pytest.raises(ValueError) as exc:
            WaveState(1e-160, Spinor2(1.0, 0.0))
        assert str(exc.value) == "flux A^2 of amplitude 1e-160 underflows (below 2.225e-308)"

    def test_normal_flux_constructs(self):
        assert WaveState(1e-150, Spinor2(1.0, 0.0)).amplitude == 1e-150

    @pytest.mark.parametrize(
        "amp, c1, c2",
        [(1.0, 0.6, 0.6), (1.0, 1.0 + 1e-9, 0.0), (1e155, 1.0, 0.0), (math.inf, 1.0, 0.0),
         (0.0, 1.0, 0.0), (-1.0, 1.0, 0.0)],
    )
    def test_raw_constructor_raises_the_constructor_text(self, amp, c1, c2):
        # WaveState._of only wraps filters._step's result; the raw route's one check is
        # _check_wave, which _step runs on every result: it raises the constructor's text
        with pytest.raises(ValueError) as want:
            WaveState(amp, Spinor2(c1, c2))
        with pytest.raises(ValueError) as got:
            _check_wave(amp, c1, c2)
        assert str(got.value) == str(want.value)
        w = WaveState._of(amp, c1, c2)
        assert (w.amplitude, w._jones) == (amp, (c1, c2))

    def test_raw_constructor_equals_the_constructor(self):
        # the raw constructor takes the Jones spinor U o: here U (1, 0), whose entries and
        # whose circular view are exact
        w = WaveState._of(0.5, 0.5 + 0.5j, -0.5 + 0.5j)
        assert type(w) is WaveState and type(w.spinor) is Spinor2
        assert w == WaveState(0.5, Spinor2(1.0 + 0.0j, 0.0j))
        assert hash(w) == hash(WaveState(0.5, Spinor2(1.0 + 0.0j, 0.0j)))
        with pytest.raises(dataclasses.FrozenInstanceError):
            w.amplitude = 1.0

    @pytest.mark.parametrize("route", ["constructor", "apply", "_of", "wave_from_jones",
                                       "wave_from_stokes", "angles beam"])
    def test_every_route_holds_both_spinors(self, route):
        # a wave holds its amplitude, its spinor o and its Jones spinor U o from the moment it is
        # made, and its copies hold the same, bit for bit: a built wave's _jones is U o of the
        # spinor it was given, a stepped wave's spinor U^-1 of the Jones spinor it was given
        built = wave(1.1, 0.4, 0.3, amp=1.7)
        w = {"constructor": lambda: built,
             "apply": lambda: apply(Rotator(0.3), built),
             "_of": lambda: WaveState._of(0.5, 0.5 + 0.5j, -0.5 + 0.5j),
             "wave_from_jones": lambda: wave_from_jones(JonesAmpPhase(1.0, 0.5, 0.0, 0.7)),
             "wave_from_stokes": lambda: wave_from_stokes(StokesVector(2.0, 1.2, 0.0, 1.6)),
             "angles beam": lambda: parse_beam_json(
                 '{"angles": {"theta": 1.1, "phi": 0.4, "chi": 0.3, "amp": 1.7}}').wave}[route]()
        assert not hasattr(WaveState, "__getattr__")
        o, jones = w.spinor, w._jones
        if route in ("apply", "_of"):
            assert repr((o.c1, o.c2)) == repr(_times(U_INV_ROWS, *jones))
        else:
            assert repr(jones) == repr(_times(U_ROWS, o.c1, o.c2))
        twin = WaveState(w.amplitude, o)  # the same wave, its Jones spinor made from o
        assert w == twin and hash(w) == hash(twin)
        assert repr(w) == f"WaveState(amplitude={w.amplitude!r}, spinor={o!r})"
        for x in (w, pickle.loads(pickle.dumps(w)), copy.copy(w), copy.deepcopy(w)):
            assert type(x) is WaveState and x == w
            assert repr(slots(x)) == repr({"amplitude": w.amplitude, "spinor": o, "_jones": jones})
            for name in ("amplitude", "spinor", "_jones"):
                with pytest.raises(dataclasses.FrozenInstanceError):
                    setattr(x, name, getattr(x, name))

    @pytest.mark.parametrize("data", [ONE_SPINOR_PICKLE_STEPPED, ONE_SPINOR_PICKLE_BUILT],
                             ids=["stepped", "built"])
    def test_an_old_one_spinor_pickle_raises(self, data):
        # a wave once held one of its spinors and pickled only that one; such a pickle does not
        # load to a wave whose .spinor or == would raise later: it raises when loaded
        with pytest.raises(ValueError, match=r"^zip\(\) argument 2 is shorter than argument 1$"):
            pickle.loads(data)

    def test_pure_stokes_with_subnormal_s0_rejected(self):
        with pytest.raises(ValueError, match="underflows"):
            wave_from_stokes(StokesVector(1e-310, 0.0, 0.0, 1e-310))
