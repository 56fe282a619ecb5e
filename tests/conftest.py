import numpy as np
import pytest

from polspin import Spinor2, StokesVector


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_unit_spinors(rng, n):
    """(n, 2) array of unit spinors, Haar-ish via normalized Gaussians."""
    raw = rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2))
    return raw / np.linalg.norm(raw, axis=1, keepdims=True)


def as_spinor(row):
    return Spinor2(complex(row[0]), complex(row[1]))


def slots(x):
    """The slots record x has filled, name -> value, in slot order: its fields, then what it
    keeps beside them (an element's `_linear`, a wave's `_jones`); read by the member
    descriptors, so that reading makes nothing."""
    out = {}
    for cls in type(x).__mro__:
        for name in cls.__dict__.get("__slots__", ()):
            try:
                out[name] = cls.__dict__[name].__get__(x)
            except AttributeError:  # not filled
                pass
    out.pop("__weakref__", None)
    return out


def random_su2(rng):
    """Random SU(2) matrix a*I + i(b s1 + c s2 + d s3), (a,b,c,d) unit."""
    q = rng.standard_normal(4)
    a, b, c, d = q / np.linalg.norm(q)
    return np.array([[a + 1j * d, c + 1j * b], [-c + 1j * b, a - 1j * d]])


def random_valid_stokes(rng, n):
    """(n, 4) Stokes rows with s0 > 0 and |s_vec| <= s0."""
    s0 = rng.uniform(0.1, 3.0, n)
    direction = rng.standard_normal((n, 3))
    direction /= np.linalg.norm(direction, axis=1, keepdims=True)
    dop = rng.uniform(0.0, 1.0, n)
    out = np.empty((n, 4))
    out[:, 0] = s0
    out[:, 1:] = direction * (dop * s0)[:, None]
    return out


def stokes_vec(row):
    return StokesVector(*(float(v) for v in row))
