"""The CLI and `import polspin` run without NumPy or `dataclasses`; the scalar paths keep the
ndarray digits.

NumPy is imported only by the library calls that return ndarrays, and `dataclasses` only to
raise `FrozenInstanceError` on a write to a record.  The scalar forms of
U o, U^-1 v and the Jones division must print the digits the ndarray forms printed, so
these tests compare them bit for bit (by repr) against those forms on seeded draws.
"""

import cmath
import json
import math
import os
import random
import subprocess
import sys

import numpy as np
import pytest

import polspin
from polspin import (
    Attenuator,
    CoherencyMatrix,
    JonesAmpPhase,
    QuarterWave,
    Rotator,
    Spinor2,
    StokesVector,
    WaveState,
    classify,
    coherency_from_stokes,
    compose,
    eig_decompose,
    jones_from_wave,
    mueller_of_train,
    poincare_frame,
    su2_to_so3,
    wave_from_jones,
)
from polspin import pauli
from polspin.cli import main
from polspin.filters import element_matrix
from polspin.spinor import FLUX_MIN, JONES_PREFACTOR_UNIT, MAX_MAGNITUDE, _times

SRC = os.path.dirname(os.path.dirname(polspin.__file__))
ANGLES = '{"angles": {"theta": 0.7, "phi": 0.4, "chi": 0.2, "amp": 1.5}}'
STOKES_PURE = '{"stokes": [1, 0.6, 0, 0.8]}'
STOKES_MIXED = '{"stokes": [1.3, 0.2, 0.5, 0.1]}'
JONES = '{"jones": {"a1": 1.2, "a2": 0.5, "phi1": 0.2, "phi2": 1}}'
TRAIN = "qwp axis=0.35\natten e1=0.1 e2=0.8\nrotate alpha=0.7\n"


def loaded_after(module, code):
    """Whether module is in sys.modules after code runs in a fresh `python -W error`."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
    script = f"import sys\n{code}\nprint({module!r} in sys.modules)"
    proc = subprocess.run([sys.executable, "-W", "error", "-c", script], capture_output=True,
                          text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1] == "True"


def left_out(cases):
    """cases, by id, once for each module that stays out: NumPy's under the id, the others' under
    the id and the module's name."""
    return [pytest.param(module, case, id=name if module == "numpy" else f"{name}-{module}")
            for module in ("numpy", "dataclasses") for name, case in cases.items()]


@pytest.mark.parametrize("absent, module", left_out(
    {m: m for m in ["polspin", "polspin.cli", "polspin.pauli"]}))
def test_import_leaves_numpy_out(absent, module):
    assert not loaded_after(absent, f"import {module}")


@pytest.mark.parametrize("absent, argv", left_out({
    "convert-angles": ["convert", "--to", "jones", ANGLES],
    "convert-stokes": ["convert", "--to", "angles", STOKES_PURE],
    "convert-jones": ["convert", "--to", "jones", JONES],
    "convert-jones-spinor": ["convert", "--to", "spinor", JONES],
    "convert-coherency": ["convert", "--to", "coherency", "--basis", "linear", STOKES_MIXED],
    "trace-angles": ["trace", "<train>", ANGLES],
    "trace-jones": ["trace", "<train>", JONES],
    "trace-mixed": ["trace", "<train>", STOKES_MIXED],
    "mueller": ["mueller", "<train>"],
    "decompose": ["decompose", STOKES_MIXED],
    "decompose-degenerate": ["decompose", '{"stokes": [1, 0, 0, 0]}'],
    "phase": ["phase", JONES, ANGLES],
}))
def test_every_command_leaves_numpy_out(tmp_path, absent, argv):
    train = tmp_path / "t.pol"
    train.write_text(TRAIN)
    argv = [str(train) if a == "<train>" else a for a in argv]
    assert not loaded_after(absent, f"from polspin.cli import main\nassert main({argv!r}) == 0")


def test_array_calls_still_return_ndarrays():
    train = [QuarterWave(0.35), Attenuator(0.1, 0.8), Rotator(0.7)]
    spinor = Spinor2(0.6, 0.8j)
    c = coherency_from_stokes(StokesVector(1.3, 0.2, 0.5, 0.1))
    frame = poincare_frame(spinor)
    dec = eig_decompose(c)
    arrays = [
        element_matrix(train[0]).m, compose(train).m, CoherencyMatrix([[1, 0], [0, 1]]).matrix,
        c.matrix, spinor.as_array(), StokesVector(1, 0, 0, 1).as_array(), frame.r, frame.m_re,
        frame.m_im, dec.point_plus, dec.point_minus, mueller_of_train(train),
        su2_to_so3(element_matrix(train[2]).m), classify(train[0]).axis,
        classify(train[1]).boost_axis, jones_from_wave(WaveState(1.0, spinor))[0],
    ]
    assert all(type(a) is np.ndarray for a in arrays)


# the module-level ndarrays pauli defined before they were made on first access
OLD_PAULI = {
    "SIGMA0": np.eye(2, dtype=complex),
    "SIGMA1": np.array([[0, 1], [1, 0]], dtype=complex),
    "SIGMA2": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "SIGMA3": np.array([[1, 0], [0, -1]], dtype=complex),
    "EPSILON": np.array([[0, 1], [-1, 0]], dtype=complex),
    "U_BASIS": 0.5 * np.array([[1 + 1j, 1 + 1j], [-1 + 1j, 1 - 1j]]),
}
OLD_PAULI["SIGMA"] = np.stack([OLD_PAULI[f"SIGMA{i}"] for i in range(4)])
OLD_PAULI["U_BASIS_INV"] = OLD_PAULI["U_BASIS"].conj().T


@pytest.mark.parametrize("name", sorted(OLD_PAULI))
def test_lazy_pauli_constants_equal_the_old_arrays(name):
    old, new = OLD_PAULI[name], getattr(pauli, name)
    assert (new.dtype, new.shape, new.tobytes()) == (old.dtype, old.shape, old.tobytes())
    assert getattr(pauli, name) is new  # made once


def test_pauli_tuples_are_the_arrays_entries():
    assert pauli.U_ROWS == tuple(map(tuple, pauli.U_BASIS.tolist()))
    assert pauli.U_INV_ROWS == tuple(map(tuple, pauli.U_BASIS_INV.tolist()))
    with pytest.raises(AttributeError, match="no attribute 'SIGMA4'"):
        getattr(pauli, "SIGMA4")


def random_complex(rng):
    return complex(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0))


def test_u_times_matches_the_ndarray_product():
    rng = random.Random(1801)
    for _ in range(20000):
        c1, c2 = random_complex(rng), random_complex(rng)
        n = math.hypot(abs(c1), abs(c2))
        o = c1 / n, c2 / n
        for rows, matrix in ((pauli.U_ROWS, pauli.U_BASIS), (pauli.U_INV_ROWS, pauli.U_BASIS_INV)):
            assert repr(_times(rows, *o)) == repr(tuple((matrix @ np.array(o)).tolist()))


def ndarray_wave_from_jones(j):
    """wave_from_jones as it divided and multiplied on ndarrays."""
    amp = math.sqrt(0.5 * (j.a1**2 + j.a2**2))
    jones = np.array([j.a1 * cmath.exp(1j * j.phi1), j.a2 * cmath.exp(1j * j.phi2)])
    o = pauli.U_BASIS_INV @ (jones / (JONES_PREFACTOR_UNIT * amp))
    return WaveState(amp, Spinor2(complex(o[0]), complex(o[1])).normalized())


def test_wave_from_jones_matches_the_ndarray_route():
    rng = random.Random(1802)
    for _ in range(20000):
        a1, a2 = (10.0 ** rng.uniform(-5.0, 5.0) * rng.random() for _ in range(2))
        j = JonesAmpPhase(a1, a2, rng.uniform(-7.0, 7.0), rng.uniform(-7.0, 7.0))
        got, want = wave_from_jones(j), ndarray_wave_from_jones(j)
        assert repr(got) == repr(want), j


@pytest.mark.parametrize("amp", [math.sqrt(FLUX_MIN), 1e-100, 1e-5, 1.0, 3.7e5, MAX_MAGNITUDE])
def test_jones_divisor_takes_one_branch(amp):
    # the one branch of NumPy's division that wave_from_jones keeps
    k = JONES_PREFACTOR_UNIT * amp
    assert abs(k.real) >= abs(k.imag)


def test_convert_to_jones_prints_the_unfused_product(capsys):
    # the fused (FMA) NumPy product printed a2 = 0.7296840736753084 and
    # phi2 = 0.17022057241764604 on hosts with AVX2 kernels
    beam = {"stokes": [1.1807568552995038, 0.6483180079241109, -0.9633002570707313,
                       -0.214296819074733]}
    assert main(["convert", "--to", "jones", json.dumps(beam)]) == 0
    assert json.loads(capsys.readouterr().out) == {"jones": {
        "a1": 1.3524329422280483, "a2": 0.7296840736753083,
        "phi1": 3.092916670754076, "phi2": 0.17022057241764613}}
