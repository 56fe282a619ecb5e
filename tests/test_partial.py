import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polspin import (
    Attenuator,
    CoherencyMatrix,
    EmptyTrainError,
    ExtinctionError,
    Gyrotropic,
    HalfWave,
    InvalidStokesError,
    PhaseShifter,
    QuarterWave,
    Rotator,
    StokesVector,
    WaveState,
    ZeroFluxError,
    apply_filter_to_coherency,
    apply_train_to_coherency,
    coherency_from_stokes,
    compose,
    degree_of_polarization,
    eig_decompose,
    matrix_circular,
    mueller_of_train,
    poincare_frame,
    purity_invariant,
    stokes_from_coherency,
    stokes_from_wave,
    su2_to_so3,
)
from polspin.dsl import parse_train
from polspin.partial import apply_mueller
from polspin.pauli import U_BASIS

from .conftest import as_spinor, random_unit_spinors, random_valid_stokes, stokes_vec


def random_elements(rng, n):
    out = []
    for _ in range(n):
        pick = rng.integers(0, 6)
        if pick == 0:
            out.append(PhaseShifter(rng.uniform(0, 2), rng.uniform(0, 2)))
        elif pick == 1:
            out.append(Rotator(rng.uniform(-2, 2)))
        elif pick == 2:
            out.append(Gyrotropic(rng.uniform(0, 2), rng.uniform(0, 2)))
        elif pick == 3:
            out.append(QuarterWave(rng.uniform(0, math.pi)))
        elif pick == 4:
            out.append(HalfWave(rng.uniform(0, math.pi)))
        else:
            out.append(Attenuator(rng.uniform(0, 1.5), rng.uniform(0, 1.5)))
    return out


class TestCoherencyFromStokes:
    def test_unpolarized(self):
        c = coherency_from_stokes(StokesVector(1, 0, 0, 0))
        np.testing.assert_allclose(c.matrix, 0.5 * np.eye(2), atol=1e-15)

    def test_pure_north_pole(self):
        c = coherency_from_stokes(StokesVector(1, 0, 0, 1))
        np.testing.assert_allclose(c.matrix, np.diag([1.0, 0.0]), atol=1e-15)

    def test_partial_x(self):
        c = coherency_from_stokes(StokesVector(1, 0.6, 0, 0))
        np.testing.assert_allclose(
            c.matrix, 0.5 * np.array([[1, 0.6], [0.6, 1]]), atol=1e-15
        )

    def test_rejects_over_polarized(self):
        with pytest.raises(InvalidStokesError):
            coherency_from_stokes(StokesVector(1, 2, 0, 0))

    def test_linear_basis_entries(self, rng):
        for row in random_valid_stokes(rng, 50):
            s = stokes_vec(row)
            tilde = coherency_from_stokes(s, basis="linear").matrix
            expected = 0.5 * np.array(
                [
                    [s.s0 + s.s1, s.s2 - 1j * s.s3],
                    [s.s2 + 1j * s.s3, s.s0 - s.s1],
                ]
            )
            np.testing.assert_allclose(tilde, expected, atol=1e-14)
            circ = coherency_from_stokes(s).matrix
            np.testing.assert_allclose(
                tilde, U_BASIS @ circ @ U_BASIS.conj().T, atol=1e-14
            )


class TestStokesFromCoherency:
    def test_half_identity(self):
        c = CoherencyMatrix(0.5 * np.eye(2))
        assert stokes_from_coherency(c).as_array() == pytest.approx([1, 0, 0, 0])

    def test_projector(self):
        c = CoherencyMatrix(np.diag([1.0, 0.0]))
        assert stokes_from_coherency(c).as_array() == pytest.approx([1, 0, 0, 1])

    def test_round_trip(self, rng):
        for row in random_valid_stokes(rng, 200):
            s = stokes_vec(row)
            for basis in ("circular", "linear"):
                back = stokes_from_coherency(coherency_from_stokes(s, basis))
                np.testing.assert_allclose(
                    back.as_array(), s.as_array(), atol=1e-14
                )


class TestCoherencyMatrix:
    @pytest.mark.parametrize("basis", ["bogus", "Linear", None])
    def test_unknown_basis_tag_rejected_at_construction(self, basis):
        with pytest.raises(ValueError, match="unknown basis tag"):
            CoherencyMatrix([[0.5, 0], [0, 0.5]], basis)
        with pytest.raises(ValueError, match="unknown basis tag"):
            CoherencyMatrix._of(StokesVector(1.0, 0.0, 0.0, 0.0), basis)
        with pytest.raises(ValueError, match="unknown basis tag"):
            coherency_from_stokes(StokesVector(1.0, 0.0, 0.0, 0.0), basis)
        train = [Rotator(0.3)]
        for _ in range(2):  # a memo miss, then a hit on the Mueller matrix kept for the train
            with pytest.raises(ValueError, match=f"^unknown basis tag: {basis!r}$"):
                mueller_of_train(train, basis)
            mueller_of_train(train)

    def test_holds_the_entries(self):
        c = CoherencyMatrix([[0.75, 0.25 - 0.25j], [0.25 + 0.25j, 0.25]], "linear")
        assert (c.p, c.q, c.r, c.basis) == (0.75, 0.25 - 0.25j, 0.25, "linear")
        assert type(c.p) is float and type(c.r) is float and type(c.q) is complex

    @pytest.mark.parametrize(
        "matrix",
        [
            [[1, 0.5], [0.4, 1]],  # lower-left is not conj q
            [[1, 0.5j], [0.5j, 1]],  # q, not conj q
            [[1 + 1e-6j, 0], [0, 1]],  # complex diagonal
            [[0, 1e-300], [0, 0]],  # zero trace leaves no room
        ],
    )
    def test_rejects_non_hermitian(self, matrix):
        with pytest.raises(ValueError, match="not Hermitian"):
            CoherencyMatrix(matrix)

    @pytest.mark.parametrize(
        "matrix",
        [
            [[1, 2], [2, 1]],  # eigenvalues 3 and -1
            [[-1, 0], [0, -1]],
            [[1, 0], [0, -1e-6]],
            [[0, 1e-20], [1e-20, 0]],  # eigenvalues +-1e-20
            [[1e-300, 2e-300], [2e-300, 1e-300]],
        ],
    )
    def test_rejects_non_psd(self, matrix):
        with pytest.raises(ValueError, match="not positive semidefinite"):
            CoherencyMatrix(matrix)

    def test_accepts_rounding_within_the_tolerances(self):
        CoherencyMatrix([[1, 0], [0, -0.5e-9]])  # lower eigenvalue -PSD_TOL tr / 2
        CoherencyMatrix([[1, 0.5], [0.5 + 1e-13j, 1]])  # skew 1e-13 tr / 2
        CoherencyMatrix([[0, 0], [0, 0]])

    def test_matrix_is_a_fresh_array(self):
        c = coherency_from_stokes(StokesVector(2.0, 0.5, -0.25, 1.0))
        before = stokes_from_coherency(c)
        m = c.matrix
        m[1, 1] = -5
        c.matrix[0, 1] = 7
        assert c.matrix is not c.matrix
        assert stokes_from_coherency(c) == before
        assert c.matrix.tolist() == [[1.5, 0.25 + 0.125j], [0.25 - 0.125j, 0.5]]

    def test_lower_left_is_conj_q_with_a_positive_zero(self):
        # a real q gives Im = +0.0 below the diagonal, also after a step
        c = coherency_from_stokes(StokesVector(1, 0.5, 0, 0))
        c = apply_filter_to_coherency(Rotator(0.0), c)
        assert c.q.imag == 0.0
        assert math.copysign(1.0, c.matrix[1, 0].imag) == 1.0


class TestPurity:
    def test_pure_state_vanishes(self, rng):
        for row in random_unit_spinors(rng, 50):
            s = stokes_from_wave(WaveState(1.2, as_spinor(row)))
            assert purity_invariant(s) == pytest.approx(0.0, abs=1e-12)

    def test_unpolarized(self):
        assert purity_invariant(StokesVector(1, 0, 0, 0)) == 1.0

    def test_mixed_value_and_det(self):
        s = StokesVector(2, 1, 0.5, 0.5)
        assert purity_invariant(s) == pytest.approx(2.5)
        det = np.linalg.det(coherency_from_stokes(s).matrix).real
        assert det == pytest.approx(0.625)

    def test_matrix_identities(self, rng):
        for row in random_valid_stokes(rng, 200):
            s = stokes_vec(row)
            c = coherency_from_stokes(s).matrix
            big_s = purity_invariant(s)
            assert np.linalg.det(c).real == pytest.approx(
                big_s / 4, abs=1e-12 * max(1.0, s.s0**2)
            )
            assert np.trace(c).real == pytest.approx(s.s0, rel=1e-12)
            assert np.trace(c @ c).real == pytest.approx(
                s.s0**2 - big_s / 2, rel=1e-12
            )

    def test_density_matrix_properties(self, rng):
        for row in random_valid_stokes(rng, 100):
            s = stokes_vec(row)
            rho = coherency_from_stokes(s).matrix / s.s0
            assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
            assert np.trace(rho @ rho).real <= 1.0 + 1e-12


class TestDegreeOfPolarization:
    def test_pure(self):
        assert degree_of_polarization(StokesVector(1, 0, 0, 1)) == pytest.approx(1.0)

    def test_unpolarized(self):
        assert degree_of_polarization(StokesVector(1, 0, 0, 0)) == 0.0

    def test_partial(self):
        assert degree_of_polarization(StokesVector(1, 0.6, 0, 0)) == pytest.approx(0.6)

    def test_zero_flux(self):
        with pytest.raises(ZeroFluxError):
            degree_of_polarization(StokesVector(0, 0, 0, 0))


class TestEigDecompose:
    def test_diagonal_partial(self):
        dec = eig_decompose(coherency_from_stokes(StokesVector(1, 0, 0, 0.5)))
        assert (dec.lambda_plus, dec.lambda_minus) == (
            pytest.approx(0.75),
            pytest.approx(0.25),
        )
        np.testing.assert_allclose(dec.point_plus, [0, 0, 1], atol=1e-15)
        np.testing.assert_allclose(dec.point_minus, [0, 0, -1], atol=1e-15)
        assert not dec.degenerate

    def test_unpolarized_degenerate(self):
        dec = eig_decompose(coherency_from_stokes(StokesVector(1, 0, 0, 0)))
        assert dec.degenerate
        assert dec.lambda_plus == pytest.approx(dec.lambda_minus)

    def test_pure_state_point(self, rng):
        for row in random_unit_spinors(rng, 50):
            w = WaveState(1.5, as_spinor(row))
            dec = eig_decompose(coherency_from_stokes(stokes_from_wave(w)))
            assert dec.lambda_plus == pytest.approx(w.amplitude**2, rel=1e-12)
            assert dec.lambda_minus == pytest.approx(0.0, abs=1e-12)
            np.testing.assert_allclose(
                dec.point_plus, poincare_frame(w.spinor).r, atol=1e-10
            )

    def test_antipodality(self, rng):
        for row in random_valid_stokes(rng, 200):
            dec = eig_decompose(coherency_from_stokes(stokes_vec(row)))
            if not dec.degenerate:
                assert dec.point_plus @ dec.point_minus == pytest.approx(
                    -1.0, abs=1e-10
                )

    def test_matches_numpy_eigh(self, rng):
        # independent oracle: dense Hermitian eigensolver
        for row in random_valid_stokes(rng, 50):
            c = coherency_from_stokes(stokes_vec(row))
            dec = eig_decompose(c)
            vals = np.linalg.eigvalsh(c.matrix)
            assert dec.lambda_minus == pytest.approx(vals[0], abs=1e-12)
            assert dec.lambda_plus == pytest.approx(vals[1], abs=1e-12)

    def test_unitary_covariance(self, rng):
        for _ in range(50):
            e = random_elements(rng, 1)[0]
            if isinstance(e, Attenuator):
                continue
            s = stokes_vec(random_valid_stokes(rng, 1)[0])
            c = coherency_from_stokes(s)
            dec = eig_decompose(c)
            dec2 = eig_decompose(apply_filter_to_coherency(e, c))
            if dec.degenerate:
                continue
            a = su2_to_so3(matrix_circular(e).m)
            np.testing.assert_allclose(dec2.point_plus, a @ dec.point_plus, atol=1e-10)


def _scaled(s, k):
    return StokesVector(*(math.ldexp(v, -k) for v in (s.s0, s.s1, s.s2, s.s3)))


@st.composite
def stokes_and_scales(draw):
    """A valid Stokes vector and a k for which every nonzero component of
    it and of its coherency matrix, times 2^-k, stays a normal float."""
    theta, phi = draw(st.floats(0.0, math.pi)), draw(st.floats(0.0, 2.0 * math.pi))
    direction = (math.sin(theta) * math.cos(phi), math.sin(theta) * math.sin(phi), math.cos(theta))
    s0 = draw(st.floats(1e-3, 1e3))
    stretch = draw(st.floats(0.0, 1.0)) * s0  # dop times s0
    # a component that is already subnormal becomes an exact zero
    svec = [v if abs(v) >= sys.float_info.min else 0.0 for v in (stretch * v for v in direction)]
    s = StokesVector(s0, *svec)
    entries = coherency_from_stokes(s).matrix.ravel().tolist()
    parts = [s0, *svec] + [z.real for z in entries] + [z.imag for z in entries]
    smallest = min(abs(v) for v in parts if v != 0.0)
    # smallest >= 2^(e - 1), so 2^-k smallest stays >= 2^-1022 for k <= e - 1 + 1022
    k_max = math.frexp(smallest)[1] - 1 + 1022
    return s, draw(st.integers(0, max(k_max, 0)))


class TestScaleInvariance:
    @settings(max_examples=300, deadline=None)
    @given(stokes_and_scales())
    def test_power_of_two_scaling(self, case):
        # the norm |s_vec| is taken without squares, so a beam scaled by
        # 2^-k keeps its dop and points bit for bit down to the normal floor
        s, k = case
        small = _scaled(s, k)
        dec, dec_small = (eig_decompose(coherency_from_stokes(v)) for v in (s, small))
        assert degree_of_polarization(small) == degree_of_polarization(s)
        assert dec_small.degenerate == dec.degenerate
        assert dec_small.point_plus.tolist() == dec.point_plus.tolist()
        assert dec_small.point_minus.tolist() == dec.point_minus.tolist()
        assert dec_small.lambda_plus == math.ldexp(dec.lambda_plus, -k)
        assert dec_small.lambda_minus == math.ldexp(dec.lambda_minus, -k)


# multiples of 2^-21 up to 2^29: every coherency entry stays a normal float
# for 2^k scaling with k in [-1000, 450], and no product rounds
DYADIC = st.integers(-(2**50), 2**50).map(lambda n: math.ldexp(n, -21))


def _dyadic(x):
    return math.ldexp(round(math.ldexp(x, 21)), -21)


@st.composite
def stokes_near_and_far(draw):
    """A Stokes vector whose s0 is random, or within about 1e-8 of |s_vec|."""
    svec = [draw(DYADIC) for _ in range(3)]
    if draw(st.booleans()):
        s0 = abs(draw(DYADIC))
    else:
        s0 = _dyadic(math.hypot(*svec) * (1.0 + draw(st.floats(-1e-8, 1e-8))))
    return (s0, *svec)


@st.composite
def matrices_near_and_far(draw):
    """A 2x2 matrix, random or near the PSD and Hermitian boundaries."""
    p, q_re, q_im = draw(DYADIC), draw(DYADIC), draw(DYADIC)
    if draw(st.booleans()):
        r = draw(DYADIC)
    else:  # det near 0: p r ~ |q|^2
        p = abs(p) or 1.0
        r = _dyadic((q_re * q_re + q_im * q_im) / p * (1.0 + draw(st.floats(-1e-8, 1e-8))))
    skew = draw(st.sampled_from([0.0, 0.0, math.ldexp(1, -21), _dyadic(1e-12 * abs(p + r))]))
    return [[p, complex(q_re, q_im)], [complex(q_re + skew, -q_im), r]]


def _verdict(build, *args):
    try:
        build(*args)
    except (ValueError, InvalidStokesError) as exc:
        return type(exc).__name__, str(exc).split(":")[0]
    return "accepted"


class TestScaleFreeVerdicts:
    # every test is relative and free of squares, so a beam or matrix scaled
    # by 2^k gets the verdict of the unscaled one

    @settings(max_examples=300, deadline=None)
    @given(stokes_near_and_far(), st.integers(-1000, 450), st.sampled_from(["circular", "linear"]))
    def test_coherency_from_stokes(self, s, k, basis):
        scaled = StokesVector(*(math.ldexp(v, k) for v in s))
        assert _verdict(coherency_from_stokes, scaled, basis) == _verdict(
            coherency_from_stokes, StokesVector(*s), basis
        )

    @settings(max_examples=300, deadline=None)
    @given(matrices_near_and_far(), st.integers(-1000, 450))
    def test_coherency_matrix(self, m, k):
        scaled = [[z * math.ldexp(1.0, k) for z in row] for row in m]
        assert _verdict(CoherencyMatrix, scaled) == _verdict(CoherencyMatrix, m)

    @pytest.mark.parametrize("s", [(0, 1e-300, 0, 0), (1e-300, 2e-300, 0, 0), (0, 1e-20, 0, 0)])
    def test_tiny_over_polarized_beams_are_rejected(self, s):
        with pytest.raises(InvalidStokesError, match="over-polarized"):
            coherency_from_stokes(StokesVector(*s))


class TestFilterAction:
    def test_unitary_preserves_spectrum(self, rng):
        s = stokes_vec(random_valid_stokes(rng, 1)[0])
        c = coherency_from_stokes(s)
        out = apply_filter_to_coherency(PhaseShifter(0.3, 1.7), c)
        np.testing.assert_allclose(
            np.linalg.eigvalsh(out.matrix), np.linalg.eigvalsh(c.matrix), atol=1e-12
        )

    def test_shifter_rotates_points_about_x(self, rng):
        delta = 1.2
        e = PhaseShifter(0.0, delta)
        rot_x = np.array(
            [
                [1, 0, 0],
                [0, math.cos(delta), math.sin(delta)],
                [0, -math.sin(delta), math.cos(delta)],
            ]
        )
        s = stokes_vec(random_valid_stokes(rng, 1)[0])
        dec = eig_decompose(coherency_from_stokes(s))
        dec2 = eig_decompose(
            apply_filter_to_coherency(e, coherency_from_stokes(s))
        )
        np.testing.assert_allclose(dec2.point_plus, rot_x @ dec.point_plus, atol=1e-10)

    def test_attenuator_boost_formula(self, rng):
        for _ in range(200):
            eta1, eta2 = rng.uniform(0, 3, 2)
            eta = eta2 - eta1
            s = stokes_vec(random_valid_stokes(rng, 1)[0])
            out = stokes_from_coherency(
                apply_filter_to_coherency(
                    Attenuator(eta1, eta2), coherency_from_stokes(s)
                )
            )
            factor = math.exp(-(eta1 + eta2))
            expected = factor * np.array(
                [
                    s.s0 * math.cosh(eta) + s.s1 * math.sinh(eta),
                    s.s1 * math.cosh(eta) + s.s0 * math.sinh(eta),
                    s.s2,
                    s.s3,
                ]
            )
            np.testing.assert_allclose(out.as_array(), expected, atol=1e-12 * s.s0)

    def test_attenuator_scales_purity_invariant(self, rng):
        eta1, eta2 = 0.4, 1.9
        s = stokes_vec(random_valid_stokes(rng, 1)[0])
        out = stokes_from_coherency(
            apply_filter_to_coherency(
                Attenuator(eta1, eta2), coherency_from_stokes(s)
            )
        )
        expected = purity_invariant(s) * math.exp(-2 * (eta1 + eta2))
        assert purity_invariant(out) == pytest.approx(expected, abs=1e-12)

    def test_linear_basis_steps_match_circular_rows(self, rng):
        # the per-element path of a mixed-beam trace, taken in both bases
        for _ in range(20):
            train = random_elements(rng, 12)
            s = stokes_vec(random_valid_stokes(rng, 1)[0])
            c_circ = coherency_from_stokes(s, "circular")
            c_lin = coherency_from_stokes(s, "linear")
            for e in train:
                c_circ = apply_filter_to_coherency(e, c_circ)
                c_lin = apply_filter_to_coherency(e, c_lin)
                row = stokes_from_coherency(c_circ)
                np.testing.assert_allclose(
                    stokes_from_coherency(c_lin).as_array(),
                    row.as_array(),
                    rtol=0,
                    atol=1e-12 * row.s0,
                )


class TestMueller:
    def test_identity_train(self):
        mm = mueller_of_train([Rotator(0.0)])
        np.testing.assert_allclose(mm, np.eye(4), atol=1e-14)

    def test_empty_train(self):
        with pytest.raises(EmptyTrainError):
            mueller_of_train([])

    @pytest.mark.parametrize(
        "call",
        [compose, mueller_of_train,
         lambda t: apply_train_to_coherency(t, coherency_from_stokes(StokesVector(1, 0, 0.5, 0)))],
        ids=["compose", "mueller_of_train", "apply_train_to_coherency"],
    )
    def test_iterators_read_as_lists(self, call):
        """An empty iterator is an empty train; a generator gives the list's result."""
        for empty in (iter([]), (e for e in [])):
            with pytest.raises(EmptyTrainError):
                call(empty)
        train = [Rotator(0.3), Attenuator(0.1, 0.8), QuarterWave(0.785)]
        assert repr(call(e for e in train)) == repr(call(train))

    @pytest.mark.parametrize("basis", ["circular", "linear"])
    def test_extinction_when_m00_underflows(self, basis):
        # M00 = e^-800 underflows to zero; e^-700 is still a normal float
        with pytest.raises(ExtinctionError, match="underflows"):
            mueller_of_train([Attenuator(400.0, 400.0)], basis)
        assert mueller_of_train([Attenuator(350.0, 350.0)], basis)[0, 0] > 0.0

    @pytest.mark.parametrize("basis", ["circular", "linear"])
    def test_coherency_extinction_when_s0_underflows(self, basis):
        c = coherency_from_stokes(StokesVector(1e-300, 0.0, 0.0, 0.0), basis)
        for apply_one in (
            lambda e: apply_filter_to_coherency(e, c),
            lambda e: apply_train_to_coherency([e], c),
        ):
            with pytest.raises(ExtinctionError, match="underflows"):
                apply_one(Attenuator(10.0, 10.0))  # s0 = 2e-309, subnormal
            assert stokes_from_coherency(apply_one(Attenuator(1.0, 1.0))).s0 > 0.0

    def test_attenuator_boost_block(self):
        eta = 1.1
        mm = mueller_of_train([Attenuator(0.0, eta)])
        factor = math.exp(-eta)
        expected = factor * np.array(
            [
                [math.cosh(eta), math.sinh(eta), 0, 0],
                [math.sinh(eta), math.cosh(eta), 0, 0],
                [0, 0, 1, 0],
                [0, 0, 0, 1],
            ]
        )
        np.testing.assert_allclose(mm, expected, atol=1e-12)

    def test_rotator_block(self):
        alpha = 0.45
        mm = mueller_of_train([Rotator(alpha)])
        c, s = math.cos(2 * alpha), math.sin(2 * alpha)
        # rotation by -2 alpha about Z in the (s1, s2) block
        expected = np.array(
            [[1, 0, 0, 0], [0, c, s, 0], [0, -s, c, 0], [0, 0, 0, 1]]
        )
        np.testing.assert_allclose(mm, expected, atol=1e-12)

    def test_matches_coherency_route(self, rng):
        for _ in range(100):
            train = random_elements(rng, int(rng.integers(1, 6)))
            s = stokes_vec(random_valid_stokes(rng, 1)[0])
            basis = "circular" if rng.integers(0, 2) else "linear"
            mm = mueller_of_train(train, basis)
            via_mueller = apply_mueller(mm, s)
            via_coherency = stokes_from_coherency(
                apply_train_to_coherency(train, coherency_from_stokes(s, basis))
            )
            np.testing.assert_allclose(
                via_mueller.as_array(), via_coherency.as_array(), atol=1e-10
            )

    def test_basis_independent(self, rng):
        train = random_elements(rng, 4)
        np.testing.assert_allclose(
            mueller_of_train(train, "circular"),
            mueller_of_train(train, "linear"),
            atol=1e-12,
        )


# Exact reprs on the README train (the beam-sweep library path), so that a
# change in the last digit shows; recorded again when the train routes moved
# to the linear basis, where the fold and the Mueller probes now run.
README_TRAIN = """\
shifter d1=0.1 d2=1.2
rotate alpha=deg(45)
gyro d1=0.0 d2=0.3
qwp axis=0.785
hwp axis=0.4
atten e1=0.1 e2=0.8
"""
# the one matrix of either basis tag: the linear-basis fold, read in circular Stokes
README_MUELLER = [
    [0.5103136355363186, -0.29458200120324496, -0.03297266661720294, -0.08517843750592242],
    [0.30841711754166323, -0.4874217527089252, -0.05455728757493106, -0.1409380856011613],
    [-2.0816681711721685e-17, -0.011653443393873038, -0.36380536035079275, 0.18113184496018955],
    [-6.938893903907228e-17, -0.11984020985345549, 0.1762249900494587, 0.3462397510482215],
]
# (basis, beam): stokes_from_coherency, eig_decompose points and
# eigenvalues of the propagated beam, and apply_mueller; every route gives
# the same digits for either basis tag
README_OUTPUTS = {
    ('circular', (1.0, 0.0, 0.0, 0.5)): (
        'StokesVector(s0=0.46772441678335736, s1=0.23794807474108254, s2=0.09056592248009473, s3=0.17311987552411068)',
        '([0.7728521772151502, 0.2941569098485125, 0.5622910496906172], [-0.7728521772151502, -0.2941569098485125, -0.5622910496906172])',
        '[0.387803726418121, 0.07992069036523633]',
        'StokesVector(s0=0.46772441678335736, s1=0.2379480747410826, s2=0.09056592248009476, s3=0.17311987552411068)',
    ),
    ('circular', (2.0, 0.3, -0.4, 1.1)): (
        'StokesVector(s0=0.8517454561020301, s1=0.3373987301393439, s2=0.34127114057836366, s3=0.2744216671772234)',
        '([0.6103217526765161, 0.6173265695744615, 0.49640232141609997], [-0.6103217526765161, -0.6173265695744615, -0.49640232141609997])',
        '[0.7022832677865802, 0.14946218831544988]',
        'StokesVector(s0=0.8517454561020302, s1=0.33739873013934385, s2=0.3412711405783637, s3=0.27442166717722344)',
    ),
    ('circular', (1.0, 0.0, 0.0, 0.0)): (
        'StokesVector(s0=0.5103136355363186, s1=0.30841711754166323, s2=-2.0816681711721685e-17, s3=-6.938893903907228e-17)',
        '([1.0, -6.749522165840751e-17, -2.249840721946917e-16], [-1.0, 6.749522165840751e-17, 2.249840721946917e-16])',
        '[0.4093653765389909, 0.10094825899732768]',
        'StokesVector(s0=0.5103136355363186, s1=0.30841711754166323, s2=-2.0816681711721685e-17, s3=-6.938893903907228e-17)',
    ),
    ('linear', (1.0, 0.0, 0.0, 0.5)): (
        'StokesVector(s0=0.46772441678335736, s1=0.23794807474108254, s2=0.09056592248009473, s3=0.17311987552411068)',
        '([0.7728521772151502, 0.2941569098485125, 0.5622910496906172], [-0.7728521772151502, -0.2941569098485125, -0.5622910496906172])',
        '[0.387803726418121, 0.07992069036523633]',
        'StokesVector(s0=0.46772441678335736, s1=0.2379480747410826, s2=0.09056592248009476, s3=0.17311987552411068)',
    ),
    ('linear', (2.0, 0.3, -0.4, 1.1)): (
        'StokesVector(s0=0.8517454561020301, s1=0.3373987301393439, s2=0.34127114057836366, s3=0.2744216671772234)',
        '([0.6103217526765161, 0.6173265695744615, 0.49640232141609997], [-0.6103217526765161, -0.6173265695744615, -0.49640232141609997])',
        '[0.7022832677865802, 0.14946218831544988]',
        'StokesVector(s0=0.8517454561020302, s1=0.33739873013934385, s2=0.3412711405783637, s3=0.27442166717722344)',
    ),
    ('linear', (1.0, 0.0, 0.0, 0.0)): (
        'StokesVector(s0=0.5103136355363186, s1=0.30841711754166323, s2=-2.0816681711721685e-17, s3=-6.938893903907228e-17)',
        '([1.0, -6.749522165840751e-17, -2.249840721946917e-16], [-1.0, 6.749522165840751e-17, 2.249840721946917e-16])',
        '[0.4093653765389909, 0.10094825899732768]',
        'StokesVector(s0=0.5103136355363186, s1=0.30841711754166323, s2=-2.0816681711721685e-17, s3=-6.938893903907228e-17)',
    ),
}


class TestReadmeTrainExactOutputs:
    @pytest.fixture
    def train(self):
        return parse_train(README_TRAIN).document.elements

    @pytest.mark.parametrize("basis", ["circular", "linear"])
    def test_mueller_of_train(self, train, basis):
        assert repr(mueller_of_train(train, basis).tolist()) == repr(README_MUELLER)

    @pytest.mark.parametrize("key", list(README_OUTPUTS), ids=str)
    def test_coherency_and_mueller_routes(self, train, key):
        basis, beam = key
        s = StokesVector(*beam)
        c = apply_train_to_coherency(train, coherency_from_stokes(s, basis))
        dec = eig_decompose(c)
        got = (
            repr(stokes_from_coherency(c)),
            repr((dec.point_plus.tolist(), dec.point_minus.tolist())),
            repr([dec.lambda_plus, dec.lambda_minus]),
            repr(apply_mueller(mueller_of_train(train, basis), s)),
        )
        assert got == README_OUTPUTS[key]
