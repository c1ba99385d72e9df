"""copulatree.special against scipy.special, its oracle, bit for bit.

The package no longer imports scipy.special; these tests do.  Two results
agree when their float64 bit patterns are equal or both are NaN (NaN
payloads are not compared).
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special as sc

from copulatree import special as sp

FUNCS = ("ndtr", "ndtri")

_EXPM2 = 0.13533528323661269189
EDGES = np.array([
    0.0, -0.0, 1.0, -1.0, 0.5, 1.5, 2.0, 8.0, -8.0,
    5e-324, -5e-324, 2.2250738585072014e-308, 1e-300, 1e300, -1e300,
    1.0 - 2.0**-53, 1.0 - 1e-16, 1.0 + 2.0**-52, np.nextafter(0.5, 0.0), np.nextafter(1.5, 2.0),
    np.nextafter(2.0, 3.0), _EXPM2, np.nextafter(_EXPM2, 1.0), 1.0 - _EXPM2,
    np.nextafter(1.0 - _EXPM2, 1.0), math.sqrt(0.5), 1.0, 8.0 * math.sqrt(2.0),
    37.5, -37.5, 38.6, -38.6, 40.0, -40.0,
    math.inf, -math.inf, math.nan,
])


def same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    both_nan = np.isnan(a) & np.isnan(b)
    return a.shape == b.shape and bool(np.all((a.view(np.int64) == b.view(np.int64)) | both_nan))


def corpus(seed: int, n: int) -> np.ndarray:
    """Edge values plus seeded draws over each function's branches."""
    rng = np.random.default_rng(seed)
    return np.concatenate([
        EDGES,
        rng.random(n),
        np.exp(rng.uniform(-745.0, 0.0, n)),  # down into the subnormals
        -np.expm1(-np.exp(rng.uniform(-40.0, 4.0, n))),  # up to 1 - 2^-53
        np.exp(rng.uniform(-50.0, 50.0, n)),
        rng.normal(0.0, 3.0, n),
        rng.normal(0.0, 15.0, n),
        -rng.random(n),
        np.frombuffer(rng.bytes(8 * n), dtype=float),  # every exponent, NaN payloads
    ])


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("name", FUNCS)
def test_equals_scipy_on_seeded_corpus(name, seed):
    x = corpus(seed, 20000)
    assert same_bits(getattr(sp, name)(x), getattr(sc, name)(x))


@pytest.mark.parametrize("name", FUNCS)
def test_keeps_shape_and_scalar_type(name):
    ours, theirs = getattr(sp, name), getattr(sc, name)
    x = corpus(3, 500)
    x = x[: x.size // 2 * 2].reshape(-1, 2)
    assert same_bits(ours(x), theirs(x))
    assert same_bits(ours(x.T), theirs(x.T))
    assert ours(np.empty((0, 3))).shape == (0, 3)
    for v in EDGES:
        got = ours(float(v))
        assert type(got) is type(theirs(float(v))) and same_bits(got, theirs(float(v))), v


@given(st.lists(st.floats(), min_size=1, max_size=40))
@settings(max_examples=300)
def test_ndtr_property(xs):
    assert same_bits(sp.ndtr(xs), sc.ndtr(xs))


@given(st.lists(st.floats(0.0, 1.0) | st.floats(), min_size=1, max_size=40))
@settings(max_examples=300)
def test_ndtri_property(ys):
    assert same_bits(sp.ndtri(ys), sc.ndtri(ys))
