"""The special functions the package needs, as scipy.special computes them.

``ndtr`` and ``ndtri`` port the cephes routines that ``scipy.special``
runs (scipy 1.17): the same coefficient tables, Horner evaluation (cephes
``polevl``/``p1evl``) and branch points, so they return scipy's bits.
Arithmetic and ``sqrt`` are vectorised with numpy, because IEEE rounds
them correctly.  ``log`` and ``exp`` are not correctly rounded, and numpy's
SIMD versions differ from the C library's in the last bit on some
arguments, so they go through ``math.log``/``math.exp`` (the C library's)
element by element, on the elements of the branch that needs them.  Like
the ufuncs, the functions signal a bad argument by their result (NaN or an
infinity), never by a numpy warning.

Importing ``scipy.special`` costs most of the CLI's start-up, and the
package needs nothing else from it; the tests compare these ports with it.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["ndtr", "ndtri"]


def _polevl(x, coef):
    """cephes polevl: coef[0] x^N + ... + coef[N] by Horner's rule."""
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _p1evl(x, coef):
    """cephes p1evl: polevl with an implicit leading coefficient 1."""
    ans = x + coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _libm(func, x: np.ndarray) -> np.ndarray:
    """``func`` (math.log or math.exp) of each element of a 1-d array."""
    return np.fromiter(map(func, x.tolist()), float, x.size)


def _finish(flat: np.ndarray, shape: tuple):
    """The result in the argument's shape; a 0-d argument gives a numpy scalar, like a ufunc."""
    return flat.reshape(shape)[()]


# ---------------------------------------------------------------------------
# ndtr: the standard normal CDF through erf/erfc (cephes ndtr.c)

_NDTR_P = (
    2.46196981473530512524e-10,
    5.64189564831068821977e-1,
    7.46321056442269912687e0,
    4.86371970985681366614e1,
    1.96520832956077098242e2,
    5.26445194995477358631e2,
    9.34528527171957607540e2,
    1.02755188689515710272e3,
    5.57535335369399327526e2,
)
_NDTR_Q = (
    1.32281951154744992508e1,
    8.67072140885989742329e1,
    3.54937778887819891062e2,
    9.75708501743205489753e2,
    1.82390916687909736289e3,
    2.24633760818710981792e3,
    1.65666309194161350182e3,
    5.57535340817727675546e2,
)
_NDTR_R = (
    5.64189583547755073984e-1,
    1.27536670759978104416e0,
    5.01905042251180477414e0,
    6.16021097993053585195e0,
    7.40974269950448939160e0,
    2.97886665372100240670e0,
)
_NDTR_S = (
    2.26052863220117276590e0,
    9.39603524938001434673e0,
    1.20489539808096656605e1,
    1.70814450747565897222e1,
    9.60896809063285878198e0,
    3.36907645100081516050e0,
)
_NDTR_T = (
    9.60497373987051638749e0,
    9.00260197203842689217e1,
    2.23200534594684319226e3,
    7.00332514112805075473e3,
    5.55923013010394962768e4,
)
_NDTR_U = (
    3.35617141647503099647e1,
    5.21357949780152679795e2,
    4.59432382970980127987e3,
    2.26290000613890934246e4,
    4.92673942608635921086e4,
)
_SQRT1_2 = 0.70710678118654752440
_MAXLOG = 7.09782712893383996843e2


def _erf_small(x: np.ndarray) -> np.ndarray:
    """cephes erf for |x| <= 1 (erf(x) = -erf(-x) changes no bit there)."""
    z = x * x
    return x * _polevl(z, _NDTR_T) / _p1evl(z, _NDTR_U)


def _erfc_large(x: np.ndarray) -> np.ndarray:
    """cephes erfc for x >= 1 or NaN."""
    y = np.zeros_like(x)  # erfc underflows to 0 below exp(-MAXLOG)
    keep = ~(-x * x < -_MAXLOG)
    x = x[keep]
    e = _libm(math.exp, -x * x)
    near = x < 8.0
    p = np.where(near, _polevl(x, _NDTR_P), _polevl(x, _NDTR_R))
    q = np.where(near, _p1evl(x, _NDTR_Q), _p1evl(x, _NDTR_S))
    y[keep] = e * p / q
    return y


@np.errstate(all="ignore")
def ndtr(a):
    """Standard normal CDF as ``scipy.special.ndtr``."""
    a = np.asarray(a, dtype=float)
    x = a.ravel() * _SQRT1_2
    z = np.abs(x)
    y = np.empty_like(x)
    near = z < _SQRT1_2
    y[near] = 0.5 + 0.5 * _erf_small(x[near])
    mid = ~near & (z < 1.0)  # erfc(z) = 1 - erf(z)
    y[mid] = 0.5 * (1.0 - _erf_small(z[mid]))
    far = ~(near | mid)
    y[far] = 0.5 * _erfc_large(z[far])
    upper = ~near & (x > 0.0)
    y[upper] = 1.0 - y[upper]
    return _finish(y, a.shape)


# ---------------------------------------------------------------------------
# ndtri: the standard normal quantile (cephes ndtri.c)

_NDTRI_P0 = (
    -5.99633501014107895267e1,
    9.80010754185999661536e1,
    -5.66762857469070293439e1,
    1.39312609387279679503e1,
    -1.23916583867381258016e0,
)
_NDTRI_Q0 = (
    1.95448858338141759834e0,
    4.67627912898881538453e0,
    8.63602421390890590575e1,
    -2.25462687854119370527e2,
    2.00260212380060660359e2,
    -8.20372256168333339912e1,
    1.59056225126211695515e1,
    -1.18331621121330003142e0,
)
_NDTRI_P1 = (
    4.05544892305962419923e0,
    3.15251094599893866154e1,
    5.71628192246421288162e1,
    4.40805073893200834700e1,
    1.46849561928858024014e1,
    2.18663306850790267539e0,
    -1.40256079171354495875e-1,
    -3.50424626827848203418e-2,
    -8.57456785154685413611e-4,
)
_NDTRI_Q1 = (
    1.57799883256466749731e1,
    4.53907635128879210584e1,
    4.13172038254672030440e1,
    1.50425385692907503408e1,
    2.50464946208309415979e0,
    -1.42182922854787788574e-1,
    -3.80806407691578277194e-2,
    -9.33259480895457427372e-4,
)
_NDTRI_P2 = (
    3.23774891776946035970e0,
    6.91522889068984211695e0,
    3.93881025292474443415e0,
    1.33303460815807542389e0,
    2.01485389549179081538e-1,
    1.23716634817820021358e-2,
    3.01581553508235416007e-4,
    2.65806974686737550832e-6,
    6.23974539184983293730e-9,
)
_NDTRI_Q2 = (
    6.02427039364742014255e0,
    3.67983563856160859403e0,
    1.37702099489081330271e0,
    2.16236993594496635890e-1,
    1.34204006088543189037e-2,
    3.28014464682127739104e-4,
    2.89247864745380683936e-6,
    6.79019408009981274425e-9,
)
_S2PI = 2.50662827463100050242e0
_EXPM2 = 0.13533528323661269189  # exp(-2)


@np.errstate(all="ignore")
def ndtri(y0):
    """Standard normal quantile as ``scipy.special.ndtri``: +-inf at 1 and 0, NaN outside [0, 1]."""
    y0 = np.asarray(y0, dtype=float)
    flat = y0.ravel()
    x = np.full_like(flat, math.nan)
    upper = flat > 1.0 - _EXPM2  # cephes code 0: work with 1 - y
    y = np.where(upper, 1.0 - flat, flat)

    central = y > _EXPM2
    yc = y[central] - 0.5
    y2 = yc * yc
    x[central] = (yc + yc * (y2 * _polevl(y2, _NDTRI_P0) / _p1evl(y2, _NDTRI_Q0))) * _S2PI

    tail = (y > 0.0) & ~central  # 0 < y <= exp(-2)
    r = np.sqrt(-2.0 * _libm(math.log, y[tail]))
    r0 = r - _libm(math.log, r) / r
    z = 1.0 / r
    r1 = np.where(
        r < 8.0,
        z * _polevl(z, _NDTRI_P1) / _p1evl(z, _NDTRI_Q1),
        z * _polevl(z, _NDTRI_P2) / _p1evl(z, _NDTRI_Q2),
    )
    r = r0 - r1
    x[tail] = np.where(upper[tail], r, -r)

    x[flat == 0.0] = -math.inf
    x[flat == 1.0] = math.inf
    return _finish(x, y0.shape)
