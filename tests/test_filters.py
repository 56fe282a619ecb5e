import cmath
import copy
import math
import pickle
from decimal import Decimal, localcontext
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from polspin import (
    AngleSet,
    Attenuator,
    ConformalMap,
    EmptyTrainError,
    ExtinctionError,
    FloatRangeError,
    Gyrotropic,
    HalfWave,
    PhaseShifter,
    PoincareRotation,
    QuarterWave,
    Rotator,
    StokesVector,
    WaveState,
    apply,
    classify,
    compose,
    matrix_circular,
    matrix_linear,
    pancharatnam_phase,
    poincare_frame,
    spinor_from_angles,
    stokes_from_wave,
    su2_to_so3,
    wave_from_jones,
    JonesAmpPhase,
)
from polspin.cli import cmd_mueller, cmd_trace
from polspin.dsl import ParseResult, TrainDocument, parse_train, serialize_train
from polspin.filters import (ELEMENTS, ETA_SPREAD_MAX, _entries, _fold, _prefixes, _step,
                             element_matrix)
from polspin.partial import (
    _apply,
    _read_stokes,
    apply_filter_to_coherency,
    apply_train_to_coherency,
    apply_mueller,
    coherency_from_stokes,
    mueller_of_train,
    stokes_from_coherency,
)
from polspin.pauli import SIGMA1, U_BASIS, U_BASIS_INV

from .conftest import slots
from .test_partial import README_TRAIN

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

    @pytest.mark.parametrize("eta1, eta2", [(400.0, 400.0), (370.0, 380.0)])
    def test_a_norm_whose_squares_underflow(self, eta1, eta2):
        # ||F o|| ~ e^-370 is below 1.5e-154, where the squares of F o's parts underflow,
        # while A ||F o|| is a normal amplitude: the step keeps it, and o' = F o / ||F o||
        w = wave_from_jones(JonesAmpPhase(6e74, 8e74, 0.3, 1.9))
        out = apply(Attenuator(eta1, eta2), w)
        j1, j2 = w._jones
        v1, v2 = j1 * math.exp(-eta1), j2 * math.exp(-eta2)  # F = diag(e^-eta1, e^-eta2)
        n = math.hypot(abs(v1), abs(v2))
        assert out.amplitude == pytest.approx(w.amplitude * n, rel=1e-15)
        assert abs(out._jones[0] - v1 / n) <= 1e-15 and abs(out._jones[1] - v2 / n) <= 1e-15

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

    @pytest.mark.parametrize("basis", ["circular", "linear"])
    def test_non_element_rejected(self, basis):
        train = [Rotator(0.5), (0.0, 1.0)]
        with pytest.raises(TypeError, match="not a filter element"):
            compose(train, basis)
        with pytest.raises(TypeError, match="not a filter element"):
            mueller_of_train(train, basis)

    def test_det_stays_one(self, rng):
        train = [
            PhaseShifter(rng.uniform(0, 2), rng.uniform(0, 2))
            for _ in range(8)
        ] + [Attenuator(rng.uniform(0, 1), rng.uniform(0, 1)) for _ in range(4)]
        em = compose(train)
        assert np.linalg.det(em.m) == pytest.approx(1.0, abs=1e-10 * len(train))


class TestAttenuatorBound:
    """|eta2 - eta1| <= 2 ln(float max): m's gain e^{|eta2 - eta1|/2} stays finite."""

    @pytest.mark.parametrize("eta1, eta2", [(0.0, 2000.0), (2000.0, 0.0), (0.0, math.inf),
                                            (0.0, math.nextafter(ETA_SPREAD_MAX, math.inf)),
                                            (math.inf, math.inf), (0.0, math.nan)])
    def test_spread_over_the_bound_rejected(self, eta1, eta2):
        with pytest.raises(ValueError, match=r"^attenuation spread \|e2 - e1\| = "):
            Attenuator(eta1, eta2)

    def test_message(self):
        with pytest.raises(ValueError) as exc:
            Attenuator(0.0, 2000.0)
        assert str(exc.value) == "attenuation spread |e2 - e1| = 2000.0 > 1419.565425786768"

    def test_spread_at_the_bound_passes_its_eigenwave(self):
        # the e1 = 0 axis (linear x), whose gain is e^{spread/2}, keeps the whole
        # flux; the other is extinguished
        assert math.isfinite(math.exp(0.5 * ETA_SPREAD_MAX))
        e = Attenuator(0.0, ETA_SPREAD_MAX)
        w = apply(e, linear_x_wave())
        assert w.amplitude == pytest.approx(linear_x_wave().amplitude, rel=1e-12)
        with pytest.raises(ExtinctionError):
            apply(e, linear_y_wave())

    def test_past_the_bound_the_gain_overflows_before_cosh(self):
        # the bound is where the linear form's gain e^{spread/2} overflows, a little before
        # cosh(spread/2) would: one step past it, on input the constructor rejects, the
        # closed form raises, while at the bound every entry is finite
        at_bound = ELEMENTS[Attenuator][2](SimpleNamespace(eta1=0.0, eta2=ETA_SPREAD_MAX))
        assert all(map(cmath.isfinite, at_bound))
        past = math.nextafter(ETA_SPREAD_MAX, math.inf)
        assert math.isfinite(math.cosh(0.5 * past))
        with pytest.raises(OverflowError):
            ELEMENTS[Attenuator][2](SimpleNamespace(eta1=0.0, eta2=past))


class TestOverflowingAngles:
    """The closed forms take d1 + d2, d2 - d1 and 2 axis, which overflow on some finite fields:
    the constructors reject those, where apply gave a NaN spinor or math.cos raised."""

    @pytest.mark.parametrize("kind, fields, message", [
        (Gyrotropic, (9e307, 1.7e308), "d1 + d2 or d2 - d1 overflows: d1 = 9e+307, d2 = 1.7e+308"),
        (PhaseShifter, (1e308, -1e308), "d1 + d2 or d2 - d1 overflows: d1 = 1e+308, d2 = -1e+308"),
        (PhaseShifter, (0.0, math.inf), "d1 + d2 or d2 - d1 overflows: d1 = 0.0, d2 = inf"),
        (Gyrotropic, (math.nan, 0.0), "d1 + d2 or d2 - d1 overflows: d1 = nan, d2 = 0.0"),
        (QuarterWave, (1e308,), "2 axis overflows: axis = 1e+308"),
        (HalfWave, (-9e307,), "2 axis overflows: axis = -9e+307"),
    ])
    def test_rejected(self, kind, fields, message):
        with pytest.raises(ValueError) as exc:
            kind(*fields)
        assert str(exc.value) == message

    @pytest.mark.parametrize("element", [
        PhaseShifter(8.9e307, -8.9e307), Gyrotropic(-8.9e307, -8.9e307), QuarterWave(8.9e307),
        HalfWave(-8.9e307), Rotator(1e308), Rotator(-1.7e308)])
    def test_finite_sums_give_unit_spinors(self, element):
        w = apply(element, linear_x_wave())
        assert w.amplitude == linear_x_wave().amplitude
        assert abs(w.spinor.norm() - 1.0) < 1e-15


def _kind(index, x, y):
    u, v = abs(x) % 3.0, abs(y) % 3.0
    return [PhaseShifter(x, y), Rotator(x), Gyrotropic(x, y), QuarterWave(x), HalfWave(y),
            Attenuator(u, v)][index]


ELEMENT = st.builds(_kind, st.integers(0, 5), st.floats(-7.0, 7.0), st.floats(-7.0, 7.0))
WAVE = st.builds(
    lambda amp, t, p, c: WaveState(amp, spinor_from_angles(AngleSet(t, p, c))),
    st.floats(0.1, 10.0), st.floats(0.0, math.pi),
    st.floats(0.0, 2.0 * math.pi, exclude_max=True), st.floats(0.0, 2.0 * math.pi, exclude_max=True),
)


def fresh_step(e, w):
    """The amplitude and Jones spinor of apply's result, from the element's linear closed form
    computed anew."""
    c1, c2 = w._jones
    return _step(_entries(e, scaled=True), w.amplitude, c1, c2)


def as_fields(e):
    return tuple(getattr(e, name) for name in type(e).__match_args__)


COHERENCY = st.builds(
    lambda s0, dop, t, p, basis: coherency_from_stokes(StokesVector(
        s0, s0 * dop * math.sin(t) * math.cos(p), s0 * dop * math.sin(t) * math.sin(p),
        s0 * dop * math.cos(t)), basis),
    st.floats(0.1, 10.0), st.floats(0.0, 1.0), st.floats(0.0, math.pi),
    st.floats(0.0, 2.0 * math.pi), st.sampled_from(["circular", "linear"]),
)


def fresh_coherency(f, c):
    """F C F^dag from a linear F computed anew, as a coherency call builds it."""
    return _apply(f, c)


def coherency_outcome(call):
    """repr of the result's (p, q, r) and basis, or the error it raised."""
    try:
        c = call()
    except (ExtinctionError, ValueError) as exc:
        return (type(exc), str(exc))
    return repr((c.p, c.q, c.r, c.basis))


BASES = ("circular", "linear")
MIXED = StokesVector(1.0, 0.3, -0.2, 0.4)

# every public call on elements but apply, over a train of fresh elements
NON_KEEPING_CALLS = {
    "compose": lambda t: [compose(t, b) for b in BASES],
    "element_matrix": lambda t: [element_matrix(e, b) for e in t for b in BASES],
    "classify": lambda t: [classify(e) for e in t],
    "apply_filter_to_coherency": lambda t: [
        apply_filter_to_coherency(e, coherency_from_stokes(MIXED, b)) for e in t for b in BASES],
    "apply_train_to_coherency": lambda t: [
        apply_train_to_coherency(t, coherency_from_stokes(MIXED, b)) for b in BASES],
    "mueller_of_train": lambda t: [mueller_of_train(t, b) for b in BASES],
    "cli-trace": lambda t: [cmd_trace("t.pol", beam) for beam in (  # pure, mixed
        '{"stokes": [1, 0.6, 0, 0.8]}', '{"stokes": [1, 0.3, -0.2, 0.4]}')],
    "cli-mueller": lambda t: cmd_mueller("t.pol"),
}


class TestKeptClosedForm:
    """apply keeps each element's linear closed form after its first use; nothing
    else about the element changes, and no other call keeps anything on it."""

    @settings(max_examples=200, deadline=None)
    @given(st.lists(ELEMENT, min_size=1, max_size=8), WAVE)
    def test_apply_equals_the_fresh_closed_form_on_every_use(self, train, w0):
        for _ in range(2):  # first use, then the kept closed form
            w = w0
            for e in train:
                try:
                    want = fresh_step(e, w)
                except ExtinctionError:
                    with pytest.raises(ExtinctionError):
                        apply(e, w)
                    break
                w = apply(e, w)
                assert repr((w.amplitude, *w._jones)) == repr(want)

    @settings(max_examples=100, deadline=None)
    @given(ELEMENT)
    def test_element_identity_unchanged_by_apply(self, e):
        before = (hash(e), repr(e), serialize_train(TrainDocument(elements=[e])))
        apply(e, linear_x_wave())
        assert e == type(e)(*as_fields(e))
        assert (hash(e), repr(e), serialize_train(TrainDocument(elements=[e]))) == before

    @pytest.mark.parametrize("e", ALL_ELEMENTS, ids=lambda e: type(e).__name__)
    def test_pickles_and_copies_recompute_the_closed_form(self, e):
        # the kept closed form is no part of the element's state: a copy
        # computes its own from its fields on its first apply
        w = linear_x_wave()
        first = apply(e, w)
        assert slots(e)["_linear"] == _entries(e, scaled=True)
        assert pickle.dumps(e) == pickle.dumps(type(e)(*as_fields(e)))
        for dup in (pickle.loads(pickle.dumps(e)), copy.copy(e), copy.deepcopy(e)):
            assert dup == e and "_linear" not in slots(dup)
            assert apply(dup, w) == first
        first, *rest = as_fields(e)
        other = type(e)(first + 0.25, *rest)
        assert "_linear" not in slots(other)
        got = apply(other, w)
        assert repr((got.amplitude, *got._jones)) == repr(fresh_step(other, w))
        assert got != first

    @settings(max_examples=200, deadline=None)
    @given(st.lists(ELEMENT, min_size=1, max_size=8), COHERENCY)
    def test_coherency_step_equals_the_fresh_closed_form_on_every_use(self, train, c0):
        copies = [type(e)(*as_fields(e)) for e in train]
        for _ in range(2):  # a second use computes the same
            c = c0
            for e, f in zip(train, copies):
                want = coherency_outcome(lambda: fresh_coherency(_fold([f]), c))
                assert coherency_outcome(lambda: apply_filter_to_coherency(e, c)) == want
                if not isinstance(want, str):  # extinct or not PSD: the beam stops here
                    break
                c = apply_filter_to_coherency(e, c)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(ELEMENT, min_size=1, max_size=8), COHERENCY)
    def test_coherency_train_equals_the_fresh_closed_form_on_every_use(self, train, c):
        copies = [type(e)(*as_fields(e)) for e in train]
        want = coherency_outcome(lambda: fresh_coherency(_fold(copies), c))
        for _ in range(2):  # first use, then the memo's product
            assert coherency_outcome(lambda: apply_train_to_coherency(train, c)) == want

    @pytest.mark.parametrize("call", NON_KEEPING_CALLS.values(), ids=NON_KEEPING_CALLS)
    def test_only_apply_keeps(self, call, monkeypatch):
        # the train memos keep products, the CLI's memo in a list of its own, none on an
        # element; the rest keep nothing
        train = [type(e)(*as_fields(e)) for e in ALL_ELEMENTS]
        entry = b"", ParseResult(TrainDocument(elements=train), []), lambda: list(_prefixes(train))
        monkeypatch.setattr("polspin.cli._load_train", lambda path: entry)
        call(train)
        for e in train:
            assert slots(e) == dict(zip(type(e).__match_args__, as_fields(e)))


# Exact reprs of the pure-beam library path on the README train (the
# beam-sweep trace_pure op), re-recorded when apply came to step the Jones
# spinor with each element's linear form, which moved the last digit or two of
# most values; the old and new amplitudes and spinors are all within 4e-16 of a
# 50-digit reference:
# (amp, theta, phi, chi) -> final amplitude, final spinor, poincare_frame
# (r, m_re, m_im), stokes_from_wave and pancharatnam_phase against the input.
README_PURE_OUTPUTS = {
    (1.0, 0.4, 1.0, 0.2): (
        '0.5992272976641967',
        'Spinor2(c1=(-0.9815937153664759-0.16075918155774305j), c2=(-0.07014616799732198-0.07556307704966753j))',
        '([0.162004992171403, 0.12579120197809002, 0.9787394730041549], [0.9384720013203521, -0.3262013252033188, -0.11341515848144608], [0.30499948401483656, 0.9368934138633412, -0.17089776420473574])',
        'StokesVector(s0=0.3590733542659358, s1=0.058171675946812336, s2=0.0451682688314166, s3=0.35143926552407617)',
        '-2.386126766506172',
    ),
    (2.5, 2.0, 5.5, 3.0): (
        '1.5351866490031882',
        'Spinor2(c1=(0.15626539087437022+0.17951778810604702j), c2=(-0.3106554775261904+0.9202432643879375j))',
        '([0.23331067143903297, 0.3991407151952339, -0.8867089827367854], [0.742533076072974, 0.5156523868228023, 0.4274894699306101], [0.6278620561319775, -0.7581486037957099, -0.17606797844111594])',
        'StokesVector(s0=2.356798047277638, s1=0.5498661348565476, s2=0.9406940581611273, s3=-2.089793999017597)',
        '0.4891142529466491',
    ),
    (0.7, 0.0, 0.0, 0.0): (
        '0.4564167471016968',
        'Spinor2(c1=(-0.6091176537946115-0.732247928091526j), c2=(0.03969403365338259-0.3020149654135362j))',
        '([0.393942992056206, 0.42605704208767714, 0.8144226887171694], [-0.0755252890040168, -0.8680738955082511, 0.490656338650577], [0.9160266643120515, -0.25480013505614396, -0.30979354648653834])',
        'StokesVector(s0=0.20831624703489424, s1=0.08206472565084598, s2=0.08875460403049289, s3=0.16965747801362863)',
        '-2.26465630625789',
    ),
}


@pytest.mark.parametrize("beam", list(README_PURE_OUTPUTS), ids=str)
def test_readme_train_exact_pure_outputs(beam):
    train = parse_train(README_TRAIN).document.elements
    amp, theta, phi, chi = beam
    w0 = WaveState(amp, spinor_from_angles(AngleSet(theta, phi, chi)))
    for _ in range(2):  # first use, then the kept closed forms
        w = w0
        for e in train:
            w = apply(e, w)
        f = poincare_frame(w.spinor)
        got = (
            repr(w.amplitude),
            repr(w.spinor),
            repr((f.r.tolist(), f.m_re.tolist(), f.m_im.tolist())),
            repr(stokes_from_wave(w)),
            repr(pancharatnam_phase(w0.spinor, w.spinor)),
        )
        assert got == README_PURE_OUTPUTS[beam]


# An attenuator with e1 <= 1 and a spread up to ETA_SPREAD_MAX, either way
# round: its scale e^-(e1+e2)/2 and its m are far past 2^-+300 while F is not.
STRONG = st.builds(
    lambda e, spread, swap: Attenuator(e + spread, e) if swap else Attenuator(e, e + spread),
    st.floats(0.0, 1.0), st.floats(0.0, ETA_SPREAD_MAX - 2.0), st.booleans(),
)
STRONG_TRAIN = st.lists(st.one_of(ELEMENT, STRONG), min_size=1, max_size=30)


@settings(max_examples=300, deadline=None)
@given(st.one_of(ELEMENT, STRONG))
@example(Attenuator(0.0, ETA_SPREAD_MAX))
@example(Attenuator(ETA_SPREAD_MAX, 0.0))
@example(Attenuator(0.0, 40.0))  # the circular form's det m - 1 is -1.0 here
def test_linear_det_m_is_one_at_every_spread(e):
    (a, b), (c, d) = element_matrix(e, "linear").m.tolist()
    assert abs(a * d - b * c - 1.0) <= 1e-15


def coherency_steps(train, c):
    """Stokes of F C F^dag taken one element at a time, no train product and no fold, in the
    linear basis with 250 significant digits: each element's F = element_matrix(e, "linear")
    .full() is read exactly, and a step rounds at 1e-250 of the trace.  A stepped C in floats
    carries eps of its trace, which a later strong attenuator can leave far above a true
    output that is smaller still: [atten 0/354, hwp 1, hwp 1, atten 355/1] on C = 1.5 I,
    whose flux 1.3e-308 is an extinction, reads 6.8e-18 that way."""

    def exact(z):
        return Decimal(z.real), Decimal(z.imag)

    def mul_add(a, b, g, d):  # a b + g d of complex pairs
        return (a[0] * b[0] - a[1] * b[1] + g[0] * d[0] - g[1] * d[1],
                a[0] * b[1] + a[1] * b[0] + g[0] * d[1] + g[1] * d[0])

    with localcontext() as ctx:
        ctx.prec, ctx.Emin, ctx.Emax = 250, -10**6, 10**6
        m = coherency_from_stokes(stokes_from_coherency(c), "linear").matrix.tolist()
        m = [[exact(z) for z in row] for row in m]
        for e in train:
            f = [[exact(z) for z in row] for row in element_matrix(e, "linear").full().tolist()]
            fh = [[(z[0], -z[1]) for z in col] for col in zip(*f)]  # F^dag
            fm = [[mul_add(f[i][0], m[0][j], f[i][1], m[1][j]) for j in (0, 1)] for i in (0, 1)]
            m = [[mul_add(fm[i][0], fh[0][j], fm[i][1], fh[1][j]) for j in (0, 1)] for i in (0, 1)]
        (p, _), (q_re, q_im), (r, _) = m[0][0], m[0][1], m[1][1]
        p, q, r = float(p), complex(float(q_re), float(q_im)), float(r)
    return StokesVector(*_read_stokes(p, q, r, "linear"))


class TestStrongAttenuatorTrains:
    """A product of strong attenuators: scale underflows and m overflows while
    F = scale m is fine, so the fold multiplies each element's scale into its m."""

    DOUBLE = [Attenuator(0.0, 1000.0)] * 2  # F = diag(1, e^-2000) in the linear basis
    # each passes the e1 = 0 wave whole, so M00 = 1/2 and s0 = 3/4 for (1, 1/2, 0, 0)
    TRAINS = {
        "double": DOUBLE,
        "rising": [Attenuator(0.0, 400.0), Attenuator(0.0, 1100.0)],
        "repeated": [Attenuator(0.0, 400.0)] * 4,  # no element alone is balanced
    }

    @pytest.mark.parametrize("basis", ["circular", "linear"])
    @pytest.mark.parametrize("train", list(TRAINS))
    def test_strong_train(self, train, basis):
        train = self.TRAINS[train]
        mm = mueller_of_train(train, basis)
        assert abs(mm[0, 0] - 0.5) <= 1e-15
        c = coherency_from_stokes(StokesVector(1.0, 0.5, 0.0, 0.0), basis)
        want = coherency_steps(train, c)
        assert want.s0 == pytest.approx(0.75, rel=1e-15)
        got = stokes_from_coherency(apply_train_to_coherency(train, c))
        np.testing.assert_allclose(got.as_array(), want.as_array(), rtol=0, atol=1e-15)

    @pytest.mark.parametrize("basis", ["circular", "linear"])
    def test_an_element_whose_scale_underflows(self, basis):
        # atten e1=100 e2=1519: its scale e^-809.5 is 0 in floats and m's e^709.5 is finite, so
        # scale m is 0; the fold takes F = diag(e^-100, e^-1519) itself, compose keeps raising
        e = Attenuator(100.0, 1519.0)
        assert _fold([e]) == (math.exp(-100.0), 0.0, 0.0, 0.0)
        assert mueller_of_train([e], basis)[0, 0] == pytest.approx(0.5 * math.exp(-200.0),
                                                                   rel=1e-14)
        with pytest.raises(FloatRangeError, match="scale of the train underflows"):
            compose([e], basis)
        (a, b), (c, d) = element_matrix(e, "linear").m.tolist()
        assert abs(a * d - b * c - 1.0) <= 1e-15 and a.real == math.exp(709.5)

    def test_apply_where_the_scale_underflows(self):
        # apply steps the same F: an x-polarized wave keeps e^-200 of its flux, where the
        # circular scale m stepped to flux 0.0 and raised ExtinctionError
        w = linear_x_wave()
        out = stokes_from_wave(apply(Attenuator(100.0, 1519.0), w))
        assert out.s0 == pytest.approx(math.exp(-200.0) * stokes_from_wave(w).s0, rel=1e-12)

    def test_compose_raises_where_m_overflows(self):
        with pytest.raises(FloatRangeError, match="overflows"):
            compose(self.DOUBLE)

    @pytest.mark.parametrize("basis", ["circular", "linear"])
    def test_compose_raises_where_the_scale_underflows(self, basis):
        # m = I, but the scale e^-800 of this extinguishing train is 0 in floats
        with pytest.raises(FloatRangeError, match="scale of the train underflows"):
            compose([Attenuator(400.0, 400.0)] * 2, basis)
        assert compose([Attenuator(350.0, 350.0)] * 2, basis).scale != 0.0

    @pytest.mark.parametrize("basis", ["circular", "linear"])
    def test_compose_of_one_element_gives_its_matrix(self, basis):
        # compose multiplies scales and m apart, so m keeps e^-447.5 where F's e^-900 is 0
        for e in (Attenuator(0.0, ETA_SPREAD_MAX), Attenuator(710.0, 710.0), Attenuator(5.0, 900.0)):
            got, want = compose([e], basis), element_matrix(e, basis)
            assert got.scale == want.scale and (got.m == want.m).all()

    @settings(max_examples=200, deadline=None)
    @given(STRONG_TRAIN, st.sampled_from(["circular", "linear"]))
    def test_compose_is_finite_or_raises(self, train, basis):
        try:
            em = compose(train, basis)
        except FloatRangeError:
            return
        assert np.isfinite(em.m).all() and cmath.isfinite(em.scale)

    @settings(max_examples=200, deadline=None)
    @given(STRONG_TRAIN, COHERENCY)
    # two draws on which the circular-basis core gave a false extinction
    @example([PhaseShifter(1.0, 0.0), QuarterWave(0.0), Attenuator(0.0, 160.0),
              PhaseShifter(1.0, 2.0), Attenuator(38.0, 0.0)],
             coherency_from_stokes(StokesVector(1.0, 0.0, 0.0, 0.0), "circular"))
    @example([Attenuator(40.0, 1.0), PhaseShifter(0.0, 2.25), PhaseShifter(1.0, 3.0),
              Attenuator(0.0, 39.0)],
             coherency_from_stokes(StokesVector(1.5, 0.0, 0.0, 0.0), "circular"))
    def test_mueller_and_train_equal_the_steps(self, train, c):
        want = coherency_steps(train, c)
        if want.s0 < 1e-200:  # at or near extinction
            return
        s = stokes_from_coherency(c)
        # both routes round at about n eps of the largest flux on the way,
        # which is at most s0: steps one at a time, and the train product,
        # whose factors have |scale| max |m| <= 1 however strong
        tol = 1e-13 * len(train) * s.s0
        got = stokes_from_coherency(apply_train_to_coherency(train, c))
        np.testing.assert_allclose(got.as_array(), want.as_array(), rtol=0, atol=tol)
        via_mueller = apply_mueller(mueller_of_train(train, c.basis), s)
        np.testing.assert_allclose(via_mueller.as_array(), want.as_array(), rtol=0, atol=tol)
