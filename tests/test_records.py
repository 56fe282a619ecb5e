"""Every frozen value record of polspin, as `spinor._Record` builds it.

The records are found by scanning the polspin modules for public subclasses of
`_Record` (`CoherencyMatrix`, whose constructor takes a matrix, is left out by
name and tested on its own), so a new record without an entry in ARGS fails
here.  Each compares, hashes and prints by its fields (`__match_args__`) through
`_Record`, and must behave as a frozen record: construction by position and
keyword and from another's fields, its signature, pickle and `copy`,
`FrozenInstanceError`, and its range checks.  Records are not dataclasses, so
`dataclasses.fields` and `replace` do not apply to them.  Each holds its fields
in slots and nothing else (an element also its `_linear`, a wave its `_jones`),
has no `__dict__`, and can be weakly referenced.
"""

import copy
import dataclasses
import importlib
import inspect
import pickle
import pkgutil
import re
import weakref

import numpy as np
import pytest

import polspin
from polspin.dsl import ParseDiagnostic, TrainDocument
from polspin.filters import Rotator, _Element
from polspin.partial import CoherencyMatrix
from polspin.spinor import Spinor2, StokesVector, WaveState, _Record

from .conftest import slots

MODULES = [importlib.import_module(f"polspin.{m.name}")
           for m in pkgutil.iter_modules(polspin.__path__) if not m.name.startswith("_")]
RECORDS = sorted({cls for module in MODULES for cls in vars(module).values()
                  if isinstance(cls, type) and issubclass(cls, _Record)
                  and not cls.__name__.startswith("_") and cls is not CoherencyMatrix},
                 key=lambda cls: cls.__name__)
DOCUMENT = ([StokesVector(1.0, 0.0, 0.0, 1.0)], [Rotator(0.3)], [(1, 1, 36)], [(2, 1, 16)])

# one valid argument tuple per record, by class name
ARGS = {
    "Spinor2": (0.6 + 0.0j, 0.8j),
    "AngleSet": (1.0, 0.5, 0.25),
    "WaveState": (1.5, Spinor2(0.6 + 0.0j, 0.8j)),
    "EllipseParams": (1.2, -0.3, 0.4),
    "StokesVector": (1.0, 0.6, 0.0, 0.8),
    "JonesAmpPhase": (1.0, 0.5, 0.0, 0.7),
    "PhaseShifter": (0.1, 1.2),
    "Rotator": (0.3,),
    "Gyrotropic": (0.0, 0.3),
    "QuarterWave": (0.785,),
    "HalfWave": (0.4,),
    "Attenuator": (0.1, 0.8),
    "ElementMatrix": (np.array([[0.6, 0.8j], [0.8j, 0.6]]), 1.0 + 0.0j, "linear"),
    "PoincareRotation": (np.array([0.0, 0.0, 1.0]), 0.5),
    "ConformalMap": (np.array([1.0, 0.0, 0.0]), 0.7),
    "PolarizationDecomposition": (np.array([0.0, 0.0, 1.0]), np.array([0.0, 0.0, -1.0]),
                                  0.8, 0.2, False),
    "AnglesBeam": (0.7, 0.4, 0.2, 1.5),
    "ParseDiagnostic": ("error", 2, 7, "unknown key 'x' for 'rotate'", "x=1"),
    "TrainDocument": DOCUMENT,
    "ParseResult": (TrainDocument(*DOCUMENT),
                    [ParseDiagnostic("error", 3, 1, "unknown statement 'x'", "x")]),
    "Beam": (StokesVector(2.25, 0.0, 0.0, 2.25), WaveState(1.5, Spinor2(1.0 + 0.0j, 0.0j))),
    "PoincareFrame": (np.array([0.0, 0.0, 1.0]), np.array([1.0, 0.0, 0.0]),
                      np.array([0.0, 1.0, 0.0])),
}
# what a record may keep beside its fields, by base class, and what it fills there when made
KEPT = {_Element: ["_linear"], WaveState: ["_jones"]}
FILLED = {WaveState: ["_jones"]}


def values(x):
    """x's field values, an ndarray as its list, so that copies of it compare equal."""
    return [v.tolist() if isinstance(v, np.ndarray) else v
            for v in (getattr(x, name) for name in type(x).__match_args__)]


def assert_same(got, want):
    assert type(got) is type(want) and values(got) == values(want)
    held = slots(want).values()
    if not any(isinstance(v, np.ndarray) for v in held):
        assert got == want
        if not any(isinstance(v, (list, TrainDocument)) for v in held):  # else unhashable
            assert hash(got) == hash(want)


def assert_slotted(x, names):
    """x holds the slots names and no others, has no __dict__, and is weakly referenceable."""
    with pytest.raises(TypeError):
        vars(x)
    assert weakref.ref(x)() is x
    assert sorted(name for cls in type(x).__mro__ for name in cls.__dict__.get("__slots__", ())
                  if name != "__weakref__") == sorted(names)


def test_every_record_has_an_argument_tuple():
    assert sorted(cls.__name__ for cls in RECORDS) == sorted(ARGS)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_a_record_behaves_as_a_frozen_dataclass(cls):
    args = ARGS[cls.__name__]
    names = list(cls.__match_args__)
    x = cls(*args)
    signature = inspect.signature(cls)
    assert [(p.name, p.annotation) for p in signature.parameters.values()] == [
        (name, cls.__annotations__[name]) for name in names]
    assert list(slots(x)) == names + FILLED.get(cls, [])  # it holds its fields, in order
    assert_slotted(x, names + next((v for k, v in KEPT.items() if issubclass(cls, k)), []))
    assert_same(cls(**dict(zip(names, args))), x)
    y = cls(**{name: getattr(x, name) for name in names})
    assert y is not x
    assert_same(y, x)
    for dup in (pickle.loads(pickle.dumps(x)), copy.copy(x)):
        assert_same(dup, x)
        assert repr(slots(dup)) == repr(slots(x))  # the same slots, bit for bit
    frozen = dataclasses.FrozenInstanceError
    with pytest.raises(frozen, match=f"^cannot assign to field '{names[0]}'$"):
        setattr(x, names[0], args[0])
    with pytest.raises(frozen, match=f"^cannot delete field '{names[0]}'$"):
        delattr(x, names[0])
    # the repr the dataclass decorator wrote, which error messages embed
    fields = ", ".join(f"{name}={getattr(x, name)!r}" for name in names)
    assert repr(x) == f"{cls.__qualname__}({fields})"
    with pytest.raises(TypeError, match="dataclass"):  # not a dataclass: no fields, no replace
        dataclasses.fields(x)


@pytest.mark.parametrize("name, args, message", [
    ("AngleSet", (4.0, 0.0, 0.0), "theta out of [0, pi]: 4.0"),
    ("Attenuator", (-1.0, 0.0), "attenuation exponents must be nonnegative"),
    ("JonesAmpPhase", (-1.0, 0.5, 0.0, 0.0), "Jones amplitudes out of [0, 9.481e+153]: -1.0, 0.5"),
    ("WaveState", (1.0, Spinor2(0.6, 0.6)), "spinor is not unit-norm: |o| = 0.848528137423857"),
], ids=["AngleSet", "Attenuator", "JonesAmpPhase", "WaveState"])
def test_a_record_out_of_range_raises_its_check(name, args, message):
    cls = next(cls for cls in RECORDS if cls.__name__ == name)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        cls(*args)


def test_the_coherency_matrix_is_a_slotted_frozen_record():
    c = CoherencyMatrix(np.array([[0.8, 0.1 - 0.2j], [0.1 + 0.2j, 0.2]]), "linear")
    assert list(slots(c)) == ["stokes", "basis"]
    assert_slotted(c, ["stokes", "basis"])
    for dup in (pickle.loads(pickle.dumps(c)), copy.copy(c), copy.deepcopy(c)):
        assert type(dup) is CoherencyMatrix and dup == c and repr(slots(dup)) == repr(slots(c))
    with pytest.raises(dataclasses.FrozenInstanceError):
        c.basis = "circular"
