"""Bivariate Archimedean copula families: Clayton, Frank and Gumbel.

Each family has a single dependence parameter ``theta`` linked to Kendall's
tau by a strictly monotone bijection:

    Clayton   theta in (0, inf)      tau = theta / (theta + 2)
    Frank     theta in R \\ {0}       tau = 1 - (4/theta) * (1 - D1(theta))
    Gumbel    theta in (1, inf)      tau = 1 - 1/theta

where ``D1`` is the first Debye function.  Densities and CDFs are evaluated
in log space so that likelihoods stay finite deep into the tails and for
strong dependence.  Near the independence limit (|tau| < 1e-7) all three
families degenerate to the product copula, which is handled exactly to
avoid 0/0 evaluations.

Sampling uses the conditional-inversion construction: draw u and w i.i.d.
uniform and solve dC/du(u, v) = w for v.  Clayton and Frank invert in
closed form; Gumbel is inverted by bracketed bisection.

All functions are pure; sampling takes an explicit seed.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np
from numpy.polynomial.polynomial import polyval
from scipy.special import bernoulli, spence

from .errors import BoundaryError, DomainError, FitError, InsufficientDataError

__all__ = [
    "Family",
    "CopulaSpec",
    "FitResult",
    "spec_for",
    "log_density",
    "cdf",
    "theta_to_tau",
    "tau_to_theta",
    "fit_mle",
    "sample",
    "conditional_quantile",
    "debye1",
    "INDEP_TAU_EPS",
]

# Below this |tau| every family is evaluated as the product copula.
INDEP_TAU_EPS = 1e-7

# Frank's tau -> theta is inverted on theta in [-50, 50]; taus beyond
# +-theta_to_tau(50) (about 0.9226, _FRANK_TAU_MAX) are rejected.
_FRANK_THETA_MAX = 50.0

_TAU_SEARCH_MARGIN = 1e-4
_DEFAULT_MIN_FIT_N = 10


class Family(str, Enum):
    CLAYTON = "clayton"
    FRANK = "frank"
    GUMBEL = "gumbel"


@dataclass(frozen=True)
class CopulaSpec:
    """A copula family together with its open parameter and tau domains."""

    family: Family
    theta_domain: tuple[float, float]
    tau_domain: tuple[float, float]


_SPECS = {
    Family.CLAYTON: CopulaSpec(Family.CLAYTON, (0.0, math.inf), (0.0, 1.0)),
    Family.FRANK: CopulaSpec(Family.FRANK, (-math.inf, math.inf), (-1.0, 1.0)),
    Family.GUMBEL: CopulaSpec(Family.GUMBEL, (1.0, math.inf), (0.0, 1.0)),
}


def spec_for(family: Family | str) -> CopulaSpec:
    """Return the canonical :class:`CopulaSpec` for a family (or its name)."""
    try:
        fam = Family(family.lower() if isinstance(family, str) else family)
    except ValueError:
        raise DomainError(f"unknown copula family: {family!r}") from None
    return _SPECS[fam]


@dataclass(frozen=True)
class FitResult:
    """Maximum-likelihood fit of a single copula parameter.

    ``loglik`` is the summed (not averaged) log-density at ``theta_hat``.
    """

    theta_hat: float
    tau_hat: float
    loglik: float
    n_obs: int
    converged: bool


# ---------------------------------------------------------------------------
# validation helpers


def _check_theta(spec: CopulaSpec, theta) -> None:
    theta = np.asarray(theta, dtype=float)
    if not np.isfinite(theta).all():
        raise DomainError(f"{spec.family.value}: theta must be finite")
    if spec.family is Family.CLAYTON and (theta <= 0.0).any():
        raise DomainError(f"clayton: theta must be > 0, got {theta}")
    if spec.family is Family.GUMBEL and (theta < 1.0).any():
        raise DomainError(f"gumbel: theta must be >= 1, got {theta}")
    # Frank admits any finite theta; theta == 0 is the independence limit.


def _check_interior(u, v) -> None:
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if np.any(u <= 0.0) or np.any(u >= 1.0) or np.any(v <= 0.0) or np.any(v >= 1.0):
        raise BoundaryError("points must lie strictly inside the unit square")


def _indep_mask(spec: CopulaSpec, theta):
    """Boolean mask (broadcast like theta) of parameters below the tau eps."""
    theta = np.asarray(theta, dtype=float)
    if spec.family is Family.CLAYTON:
        return theta / (theta + 2.0) < INDEP_TAU_EPS
    if spec.family is Family.GUMBEL:
        return 1.0 - 1.0 / theta < INDEP_TAU_EPS
    return np.abs(theta) / 9.0 < INDEP_TAU_EPS


# ---------------------------------------------------------------------------
# family row terms (log space, broadcasting over theta, u, v)
#
# Each family's log-density is linear in per-row logs but for one nonlinear
# term, computed only here: log_density, cdf, fit_mle's objective and the
# split screen all evaluate it.  On request it also returns its derivative
# in theta, which only the screen asks for.  Terms in theta alone
# (1 - e^-t, ...) stay with the callers: fit_mle forms them with math.*,
# log_density with numpy, and the two can differ in the last bit.


def _clayton_ls(theta, lu, lv, deriv=False):
    """ls = log(u^-t + v^-t - 1) and, if ``deriv``, d ls/dt (else None).

    Shifted by m = max(a, b), a = -t log u, b = -t log v, against overflow:
    one shifted power is 1 and the other exp(-|a - b|).
    """
    a = -theta * lu
    b = -theta * lv
    m = np.maximum(a, b)
    e = np.exp(-np.abs(a - b))
    s = 1.0 + e - np.exp(-m)
    ls = m + np.log(s)
    if not deriv:
        return ls, None
    # with x = -log u, y = -log v: d ls/dt = (max(x, y) + min(x, y) e) / s
    return ls, (-np.minimum(lu, lv) - np.maximum(lu, lv) * e) / s


def _frank_log_d(theta, u, v, em, et, deriv=False):
    """log|D| for D = (1 - e^-t) - (1 - e^-tu)(1 - e^-tv) and, if ``deriv``,
    dD/dt / D (else None).

    The caller supplies em = 1 - e^-t and et = e^-t, shaped like theta.
    The expm1 product rounds to 1 once theta*u and theta*v exceed ~38,
    wiping out the difference; the expanded form keeps the surviving
    exponentials.  Below |theta| = 1 the expanded form cancels instead, so
    each theta takes the representation that stays exact.  Thetas on both
    sides of 1 are split by regime: a 1-d theta along the result's last
    axis (the screen's grid columns), anything else element by element.
    """
    small = abs(theta) < 1.0
    if isinstance(small, np.ndarray):
        if small.any() and not small.all():
            return _frank_split(theta, u, v, em, et, deriv, small)
        small = small.any()
    if small:
        mu, mv = np.expm1(-theta * u), np.expm1(-theta * v)
        d = em - mu * mv
        dd = et + u * (mu + 1.0) * mv + v * (mv + 1.0) * mu if deriv else None
    else:
        eu, ev, euv = np.exp(-theta * u), np.exp(-theta * v), np.exp(-theta * (u + v))
        d = eu + ev - euv - et
        dd = (u + v) * euv - u * eu - v * ev + et if deriv else None
    return np.log(np.abs(d)), (dd / d if deriv else None)


def _frank_split(theta, u, v, em, et, deriv, small):
    """_frank_log_d on an array of thetas on both sides of |theta| = 1."""
    shape = np.broadcast(theta, u, v).shape
    if small.ndim != 1 or shape[-1] != small.size:
        theta, u, v, em, et = np.broadcast_arrays(theta, u, v, em, et)
        small = abs(theta) < 1.0
    out = np.empty((2,) + shape)
    for sel in (small, ~small):
        args = (x[..., sel] if np.shape(x)[np.ndim(x) - sel.ndim:] == sel.shape else x
                for x in (theta, u, v, em, et))
        log_d, dlog_d = _frank_log_d(*args, deriv)
        out[0][..., sel] = log_d
        if deriv:
            out[1][..., sel] = dlog_d
    return out[0], (out[1] if deriv else None)


def _frank_cdf(theta, u, v):
    small = np.abs(theta) < 1.0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        naive = -np.log1p(np.expm1(-theta * u) * np.expm1(-theta * v) / np.expm1(-theta)) / theta
        num = (
            np.exp(-theta) + np.exp(-theta * (u + v))
            - np.exp(-theta * u) - np.exp(-theta * v)
        )
        expanded = -(np.log(np.abs(num)) - np.log(np.abs(np.expm1(-theta)))) / theta
    return np.where(small, naive, expanded)


def _gumbel_logs(lu, lv):
    """lx = log(-log u), ly = log(-log v), hi = max(lx, ly), dlo = min(lx, ly) - hi."""
    lx, ly = np.log(-lu), np.log(-lv)
    hi = np.maximum(lx, ly)
    return lx, ly, hi, np.minimum(lx, ly) - hi


def _gumbel_ls(theta, hi, dlo, deriv=False):
    """ls = log(x^t + y^t) and A = exp(ls/t) for x = -log u, y = -log v (from
    _gumbel_logs) and, if ``deriv``, (d ls/dt, dA/dt) (else None).

    Shifted by the larger of x^t, y^t against overflow for large theta.
    """
    r = np.exp(theta * dlo)
    ls = theta * hi + np.log1p(r)
    a = np.exp(ls / theta)
    if not deriv:
        return ls, a, None
    dls = hi + dlo * (r / (1.0 + r))
    return ls, a, (dls, a * (dls - ls / theta) / theta)


def _logpdf(spec: CopulaSpec, theta, u, v, score: bool = False):
    """Log-density at thetas outside the independence band and, if
    ``score``, its derivative in theta (else None); broadcasts.

    log_density and the split screen both evaluate through here.
    """
    if spec.family is Family.CLAYTON:
        lu, lv = np.log(u), np.log(v)
        ls, dls = _clayton_ls(theta, lu, lv, score)
        k = 2.0 + 1.0 / theta
        ll = np.log1p(theta) - (theta + 1.0) * (lu + lv) - k * ls
        if score:
            return ll, 1.0 / (1.0 + theta) - (lu + lv) + ls / theta**2 - k * dls
    elif spec.family is Family.FRANK:
        em = -np.expm1(-theta)  # 1 - e^{-theta}, sign follows theta
        log_d, dlog_d = _frank_log_d(theta, u, v, em, np.exp(-theta), score)
        ll = np.log(theta * em) - theta * (u + v) - 2.0 * log_d
        if score:
            return ll, 1.0 / theta + 1.0 / np.expm1(theta) - (u + v) - 2.0 * dlog_d
    else:
        lu, lv = np.log(u), np.log(v)
        lx, ly, hi, dlo = _gumbel_logs(lu, lv)
        ls, a, d = _gumbel_ls(theta, hi, dlo, score)
        w = theta - 1.0 + a
        ll = -a + (theta - 1.0) * (lx + ly) + (1.0 / theta - 2.0) * ls + np.log(w) - lu - lv
        if score:
            dls, da = d
            return ll, -da + (lx + ly) - ls / theta**2 + (1.0 / theta - 2.0) * dls + (1.0 + da) / w
    return ll, None


# ---------------------------------------------------------------------------
# public density / cdf


def log_density(spec: CopulaSpec, theta, u, v):
    """Log copula density log c_theta(u, v) for interior points."""
    _check_theta(spec, theta)
    _check_interior(u, v)
    theta = np.asarray(theta, dtype=float)
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    indep = _indep_mask(spec, theta)
    if np.all(indep):
        return np.zeros(np.broadcast(theta, u, v).shape)

    # Clamp thetas in the independence band to a safe evaluation point; the
    # result there is overwritten with the exact limit 0 below.
    safe = np.where(indep, _safe_theta(spec), theta)
    return np.where(indep, 0.0, _logpdf(spec, safe, u, v)[0])[()]


def _safe_theta(spec: CopulaSpec) -> float:
    if spec.family is Family.CLAYTON:
        return 1.0
    if spec.family is Family.GUMBEL:
        return 2.0
    return 1.0


def cdf(spec: CopulaSpec, theta, u, v):
    """Copula CDF C_theta(u, v); accepts the closed unit square."""
    _check_theta(spec, theta)
    theta = np.asarray(theta, dtype=float)
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if np.any(u < 0.0) or np.any(u > 1.0) or np.any(v < 0.0) or np.any(v > 1.0):
        raise BoundaryError("cdf arguments must lie in [0, 1]")

    shape = np.broadcast(theta, u, v).shape
    ub = np.broadcast_to(u, shape).copy()
    vb = np.broadcast_to(v, shape).copy()
    edge_zero = (ub == 0.0) | (vb == 0.0)
    # Interior-clip the remaining boundary points; C(u,1)=u and C(1,v)=v are
    # recovered in the limit and the clip keeps logs finite.
    tiny = np.finfo(float).tiny
    ub = np.clip(ub, tiny, 1.0 - 1e-16)
    vb = np.clip(vb, tiny, 1.0 - 1e-16)

    indep = _indep_mask(spec, theta)
    safe = np.where(indep, _safe_theta(spec), theta)
    if spec.family is Family.CLAYTON:
        out = np.exp(-_clayton_ls(safe, np.log(ub), np.log(vb))[0] / safe)
    elif spec.family is Family.FRANK:
        out = _frank_cdf(safe, ub, vb)
    else:
        out = np.exp(-_gumbel_ls(safe, *_gumbel_logs(np.log(ub), np.log(vb))[2:])[1])
    out = np.where(indep, ub * vb, out)
    out = np.where(edge_zero, 0.0, out)
    return np.clip(out, 0.0, 1.0)[()]


# ---------------------------------------------------------------------------
# Kendall tau bridge
#
# x D1(x) = pi^2/6 + x log(1 - e^-x) - Li2(e^-x), Li2(e^-x) = spence(1 - e^-x).
# Near 0, pi^2/6 - Li2 cancels and Frank's 4/theta magnifies what is left,
# so below _DEBYE_SWITCH the series D1(x) = 1 - x/4 + sum_k c_k x^2k, with
# c_k = B_2k / ((2k + 1) (2k)!), takes over (its 18th term is below 1e-19),
# and Frank's tau = 1 - 4 (1 - D1) / theta = 4 sum_k c_k theta^(2k-1) is
# summed directly.  Above it dtau/dtheta = 4 (1 - 2 D1) / theta^2 +
# 4 / (theta (e^theta - 1)).

_DEBYE_SWITCH = 2.0
_DEBYE_SERIES = np.array(
    [b / ((k + 1) * math.factorial(k)) for k, b in zip(range(2, 37, 2), bernoulli(36)[2::2])]
)
_DEBYE_SLOPE = _DEBYE_SERIES * np.arange(1, 36, 2)  # (2k - 1) c_k

_NEWTON_RTOL = 1e-14  # Frank's tau -> theta stops at steps below this share of theta
_NEWTON_MAX_STEPS = 64


def _scalar_or_array(x: np.ndarray):
    return float(x) if x.ndim == 0 else x


def debye1(x):
    """First Debye function D1(x) = (1/x) * int_0^x t / (e^t - 1) dt.

    Takes scalars or arrays; a scalar gives a float.  Negative arguments
    use the identity D1(-x) = D1(x) + x/2.
    """
    x = np.asarray(x, dtype=float)
    a = np.abs(x)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        z = -np.expm1(-a)  # 1 - e^-a
        closed = (math.pi**2 / 6.0 + a * np.log(z) - spence(z)) / a
        series = 1.0 - a / 4.0 + a * a * polyval(a * a, _DEBYE_SERIES)
    d1 = np.where(a < _DEBYE_SWITCH, series, closed)
    return _scalar_or_array(d1 - np.minimum(x, 0.0) / 2.0)


def _frank_tau(a: np.ndarray) -> np.ndarray:
    """Frank's tau at theta = a >= 0 (tau is odd in theta)."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        closed = 1.0 - 4.0 / a * (1.0 - debye1(a))
        series = 4.0 * a * polyval(a * a, _DEBYE_SERIES)
    return np.where(a < _DEBYE_SWITCH, series, closed)


def _frank_slope(a: np.ndarray) -> np.ndarray:
    """dtau/dtheta of Frank's tau at theta = a >= 0 (even in theta)."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        closed = 4.0 * (1.0 - 2.0 * debye1(a)) / a**2 + 4.0 / (a * np.expm1(a))
        series = 4.0 * polyval(a * a, _DEBYE_SLOPE)
    return np.where(a < _DEBYE_SWITCH, series, closed)


def theta_to_tau(spec: CopulaSpec, theta):
    """Kendall's tau corresponding to theta (strictly increasing map).

    Takes scalars or arrays; a scalar gives a float.
    """
    theta = np.asarray(theta, dtype=float)
    _check_theta(spec, theta)
    if spec.family is Family.CLAYTON:
        tau = theta / (theta + 2.0)
    elif spec.family is Family.GUMBEL:
        tau = 1.0 - 1.0 / theta
    else:
        tau = np.sign(theta) * _frank_tau(np.abs(theta))
    return _scalar_or_array(tau)


_FRANK_TAU_MAX = theta_to_tau(_SPECS[Family.FRANK], _FRANK_THETA_MAX)


def _check_tau(spec: CopulaSpec, tau: np.ndarray) -> None:
    lo, hi = spec.tau_domain
    frank = spec.family is Family.FRANK
    for bad, why in (
        (~((lo < tau) & (tau < hi)), f"outside ({lo}, {hi})"),
        (frank & (tau == 0.0), "is excluded (independence limit)"),
        (frank & (np.abs(tau) >= _FRANK_TAU_MAX), f"beyond the invertible range "
         f"+-{_FRANK_TAU_MAX:.4f} of the theta bracket +-{_FRANK_THETA_MAX:g}"),
    ):
        if bad.any():
            raise DomainError(f"{spec.family.value}: tau={tau[bad][0]} {why}")


def _frank_theta(t: np.ndarray) -> np.ndarray:
    """Frank's theta > 0 whose tau is t, for 0 < t < _FRANK_TAU_MAX.

    tau is concave in theta >= 0 with slope 1/9 at 0, and tau >= 1 - 4/theta
    as D1 > 0, so the root lies in [9t, 4/(1 - t)] and Newton's iterates rise
    monotonically to it from 9t.  As a safeguard, a step that leaves the
    bracket (shrunk to the iterates on either side) bisects instead.  Each
    element stops on its own, so an array gives the bits of scalar calls.
    """
    lo = 9.0 * t
    hi = np.minimum(_FRANK_THETA_MAX, 4.0 / (1.0 - t))
    theta = lo
    done = np.zeros(t.shape, dtype=bool)
    for _ in range(_NEWTON_MAX_STEPS):
        tau = _frank_tau(theta)
        lo = np.where(tau < t, theta, lo)
        hi = np.where(tau > t, theta, hi)
        step = theta - (tau - t) / _frank_slope(theta)
        step = np.where((lo <= step) & (step <= hi), step, 0.5 * (lo + hi))
        converged = np.abs(step - theta) <= _NEWTON_RTOL * theta
        theta = np.where(done, theta, step)
        done |= converged
        if done.all():
            break
    return theta


def tau_to_theta(spec: CopulaSpec, tau):
    """Inverse of :func:`theta_to_tau`; raises DomainError if any tau lies
    outside tau_domain (Frank: or beyond the tau of the theta bracket).

    Takes scalars or arrays; a scalar gives a float.
    """
    tau = np.asarray(tau, dtype=float)
    _check_tau(spec, tau)
    if spec.family is Family.CLAYTON:
        theta = 2.0 * tau / (1.0 - tau)
    elif spec.family is Family.GUMBEL:
        theta = 1.0 / (1.0 - tau)
    else:
        theta = np.sign(tau) * _frank_theta(np.abs(tau))
    return _scalar_or_array(theta)


# ---------------------------------------------------------------------------
# sampling by conditional inversion


def conditional_quantile(spec: CopulaSpec, theta, u, w):
    """Solve dC/du(u, v) = w for v; broadcasts over theta, u, w."""
    _check_theta(spec, theta)
    theta = np.asarray(theta, dtype=float)
    u = np.asarray(u, dtype=float)
    w = np.asarray(w, dtype=float)
    shape = np.broadcast(theta, u, w).shape
    th = np.broadcast_to(theta, shape).astype(float)
    ub = np.clip(np.broadcast_to(u, shape).astype(float), 1e-12, 1.0 - 1e-12)
    wb = np.clip(np.broadcast_to(w, shape).astype(float), 1e-12, 1.0 - 1e-12)

    indep = _indep_mask(spec, th)
    safe = np.where(indep, _safe_theta(spec), th)
    if spec.family is Family.CLAYTON:
        t = np.exp(-safe * np.log(ub)) * (np.exp(-safe / (1.0 + safe) * np.log(wb)) - 1.0)
        out = np.exp(-np.log1p(t) / safe)
    elif spec.family is Family.FRANK:
        # v = -(1/theta) * log[((1-w) e^{-theta u} + w e^{-theta}) /
        #                      ((1-w) e^{-theta u} + w)], stable for |theta| <= 50
        base = (1.0 - wb) * np.exp(-safe * ub)
        out = -(np.log(base + wb * np.exp(-safe)) - np.log(base + wb)) / safe
    else:
        out = _gumbel_cond_quantile(safe, ub, wb)
    out = np.where(indep, wb, out)
    return np.clip(out, 1e-15, 1.0 - 1e-15)[()]


def _gumbel_cond_cdf(theta, lu, lv):
    lx, _, hi, dlo = _gumbel_logs(lu, lv)
    ls, a, _ = _gumbel_ls(theta, hi, dlo)
    return np.exp(-a + (theta - 1.0) * lx + (1.0 / theta - 1.0) * ls - lu)


def _gumbel_cond_quantile(theta, u, w, iters: int = 48):
    # dC/du is increasing in v; plain bisection to ~2^-48 < 1e-10.
    lu = np.log(u)
    lo = np.full(np.shape(u), 1e-15)
    hi = np.full(np.shape(u), 1.0 - 1e-15)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        below = _gumbel_cond_cdf(theta, lu, np.log(mid)) < w
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return 0.5 * (lo + hi)


def sample(spec: CopulaSpec, theta, n: int, seed) -> np.ndarray:
    """Draw ``n`` pairs from C_theta; deterministic given ``seed``."""
    if n < 1:
        raise DomainError(f"sample size must be >= 1, got {n}")
    _check_theta(spec, theta)
    rng = np.random.default_rng(seed)
    u = rng.random(n)
    w = rng.random(n)
    v = conditional_quantile(spec, theta, u, w)
    return np.column_stack([u, np.asarray(v)])


# ---------------------------------------------------------------------------
# maximum likelihood


def _nll_factory(spec: CopulaSpec, uv: np.ndarray):
    """Return (objective over the search parameter, param -> theta map)."""
    u = uv[:, 0]
    v = uv[:, 1]
    if spec.family is Family.CLAYTON:
        lu, lv = np.log(u), np.log(v)
        slog = float(np.sum(lu + lv))

        def nll(tau):
            theta = 2.0 * tau / (1.0 - tau)
            sls = float(np.sum(_clayton_ls(theta, lu, lv)[0]))
            ll = len(u) * np.log1p(theta) - (theta + 1.0) * slog - (2.0 + 1.0 / theta) * sls
            return -ll

        return nll, lambda tau: 2.0 * tau / (1.0 - tau)

    if spec.family is Family.GUMBEL:
        lu, lv = np.log(u), np.log(v)
        lx, ly, hi, dlo = _gumbel_logs(lu, lv)
        sxy = float(np.sum(lx + ly))
        slog_uv = float(np.sum(lu + lv))

        def nll(tau):
            theta = 1.0 / (1.0 - tau)
            ls, a, _ = _gumbel_ls(theta, hi, dlo)
            ll = (
                -float(np.sum(a))
                + (theta - 1.0) * sxy
                + (1.0 / theta - 2.0) * float(np.sum(ls))
                + float(np.sum(np.log(theta - 1.0 + a)))
                - slog_uv
            )
            return -ll

        return nll, lambda tau: 1.0 / (1.0 - tau)

    suv = float(np.sum(u + v))

    def nll(theta):
        if abs(theta) < 9e-7:  # independence band: product copula
            return 0.0
        em = -math.expm1(-theta)
        log_d = _frank_log_d(theta, u, v, em, math.exp(-theta))[0]
        ll = len(u) * math.log(theta * em) - theta * suv - 2.0 * float(np.sum(log_d))
        return -ll

    return nll, lambda theta: theta


def _search_bounds(spec: CopulaSpec) -> tuple[float, float]:
    """fit_mle's search interval on its own parameter (tau, or Frank's theta)."""
    if spec.family is Family.FRANK:
        return -_FRANK_THETA_MAX, _FRANK_THETA_MAX
    return _TAU_SEARCH_MARGIN, 1.0 - _TAU_SEARCH_MARGIN


# ---------------------------------------------------------------------------
# split screen: a theta grid over fit_mle's search interval, per-row scores
# on it, and proven caps on a row's curvature in theta between grid nodes.
#
# Frank.  With D = (1 - e^-t) - (1 - e^-tu)(1 - e^-tv) = t * M(t), where
# M(t) = int e^{-ts} mu(ds) for mu = 1[u, u+v] + 1[v, 1], the log-density is
#     l(t) = log M0(t) - t (u + v) - 2 log M(t),   M0(t) = int_0^1 e^{-ts} ds.
# A Laplace transform of a positive measure is log-convex, so -2 log M is
# concave and l'' <= (log M0)'' = 1/t^2 - 1/(4 sinh^2(t/2)) =: V(t), the
# variance of the exponentially tilted uniform.  V(0) = 1/12 and V falls in
# |t| (Lazarevic: (sinh w / w)^3 > cosh w), so a cell's cap is V at the
# cell's smallest |t|.
#
# Clayton.  With x = -log u >= y = -log v (symmetric otherwise), d = x - y
# and r(t) = log(1 + e^{-t d} - e^{-t x}),
#     l(t) = log(1 + t) - (2 + 1/t) r(t) + (linear in t).
# At a fixed t put rho(s) = r(s t), so r' = rho'(1) / t, r'' = rho''(1) / t^2:
#     l'' = -1/(1+t)^2 - 2 rho''(1) / t^2 - sigma / t^3,
#     sigma = rho''(1) - 2 rho'(1) + 2 rho(1) = int_0^1 s^2 rho'''(s) ds
# (rho(0) = 0).  Write a = t d <= b = t x and g(s) = e^{-sa} - e^{-sb} in
# [0, 1), rho = log(1 + g); each derivative of g is a difference of two
# same-signed terms, so |g^(k)| <= b^k, and on s in [0, 1]
# |rho'''| <= 6 b^3, whence -sigma <= 2 b^3.  At s = 1,
#     -rho'' <= b^2 e^-b + max(a e^-a, b e^-b)^2 <= m2(b) + m1(b)^2,
#     -sigma <= -rho'' + 2 rho' <= m2(b) + m1(b)^2 + 2 m1(b),
# with m1(B) = sup_{s<=B} s e^-s and m2(B) = sup_{s<=B} s^2 e^-s.  Both
# bounds rise with b = t x, so the node's largest x = -log min(u, v), X,
# caps every row.  In B = t X the cap is 2 X^2 phi1(B) + X^3 phi2(B) -
# 1/(1+t)^2 with phi1, phi2 falling in B, so a cell's cap takes phi1, phi2
# at its lower node and 1/(1+t)^2 at its upper node.  As phi1, phi2 <= 2,
# a row also obeys 4 x^2 + 2 x^3 - 1/(1+t)^2 with its own x, which is far
# tighter near independence for all but the extreme rows.  No finite cap
# holds uniformly over the square: near independence the tail rows'
# curvature grows with x, hence the dependence on the node's data.
#
# Gumbel.  With x = -log u >= y = -log v, phi(t) = log(1 + (y/x)^t) and
# A = (x^t + y^t)^(1/t) = x e^p, p = phi / t,
#     l(t) = -A + (1/t - 2) phi + log(t - 1 + A) + (linear in t),
#     l'' = -A'' (1 - 1/W) + p'' - 2 phi'' - ((1 + A') / W)^2,   W = t - 1 + A.
# phi is positive, falling and convex, and so is 1/t, so p = phi (1/t) is
# convex and A'' = A (p'' + p'^2) >= 0.  Hence the first term is <= 0 when
# W >= 1, and otherwise, as A <= W and 1 - W <= 2 - t, at most
# (p'' + p'^2)(2 - t).  In s = t log(x/y),
#     p'' = Psi(s) / t^3,  Psi = s^2 e^-s / (1 + e^-s)^2 + 2 s e^-s / (1 + e^-s)
#                                + 2 log(1 + e^-s) <= 4/e^2 + 2/e + 2 log 2,
#     |p'| <= (1/e + log 2) / t^2,
# and phi'' >= 0, so l'' <= Psi_max / t^3 + (Psi_max / t^3 + (1/e + log 2)^2
# / t^4)(2 - t)_+ for every row, a cap that falls in t.

_GUMBEL_PSI = 4.0 * math.exp(-2.0) + 2.0 * math.exp(-1.0) + 2.0 * math.log(2.0)
_GUMBEL_DP = math.exp(-1.0) + math.log(2.0)

# Screen grid per family: (nodes, base, scale) with theta = base + scale *
# sinh(z) for z uniform, so nodes are spaced evenly near the independence
# end and geometrically in |theta - base| further out.
_GRID = {
    Family.FRANK: (64, 0.0, 2.0),
    Family.CLAYTON: (128, 0.0, 0.08),
    Family.GUMBEL: (128, 1.0, 0.1),
}


def _search_thetas(spec: CopulaSpec) -> tuple[float, float]:
    """fit_mle's search interval mapped to theta."""
    lo, hi = _search_bounds(spec)
    if spec.family is Family.FRANK:
        return lo, hi
    return tau_to_theta(spec, lo), tau_to_theta(spec, hi)


@functools.lru_cache(maxsize=None)
def _screen_grid(family: Family) -> np.ndarray:
    lo, hi = _search_thetas(_SPECS[family])
    nodes, base, scale = _GRID[family]
    z = np.linspace(np.arcsinh((lo - base) / scale), np.arcsinh((hi - base) / scale), nodes)
    theta = base + scale * np.sinh(z)
    theta[0], theta[-1] = lo, hi  # exactly the thetas fit_mle searches between
    theta.setflags(write=False)
    return theta


def screen_grid(spec: CopulaSpec) -> np.ndarray:
    """Increasing theta nodes spanning exactly fit_mle's search interval."""
    return _screen_grid(spec.family)


def _frank_variance(theta):
    """V(t) = 1/t^2 - 1/(4 sinh^2(t/2)), with V(0) = 1/12 (see above)."""
    t = np.maximum(np.abs(theta), 1e-3)
    out = 1.0 / t**2 - 0.25 / np.sinh(0.5 * t) ** 2
    return np.where(np.abs(theta) < 1e-3, 1.0 / 12.0, out)


def _m1(b):
    return np.where(b <= 1.0, b * np.exp(-b), math.exp(-1.0))


def _m2(b):
    return np.where(b <= 2.0, b * b * np.exp(-b), 4.0 * math.exp(-2.0))


def _gumbel_cap(theta):
    """Psi_max / t^3 + (Psi_max / t^3 + (1/e + log 2)^2 / t^4)(2 - t)_+ (see above)."""
    p2 = _GUMBEL_PSI / theta**3
    return p2 + (p2 + _GUMBEL_DP**2 / theta**4) * np.maximum(2.0 - theta, 0.0)


def curvature_caps(spec: CopulaSpec, theta: np.ndarray, uv: np.ndarray):
    """Caps on the curvature in theta of summed row log-densities, per grid cell.

    ``theta`` are grid nodes and ``uv`` the rows the caps must hold for.
    Returns ``(cap, row_cap, offset)``: for any subset S of the rows and
    theta in cell [theta[k], theta[k+1]],

        sum_{i in S} l_i''(theta) <= min(|S| cap[k], sum_{i in S} row_cap[i] + |S| offset[k]).

    ``cap`` is never negative.
    """
    lo, hi = theta[:-1], theta[1:]
    none = np.zeros(len(uv)), np.full(len(lo), math.inf)
    if spec.family is Family.FRANK:
        closest = np.where((lo < 0.0) & (hi > 0.0), 0.0, np.minimum(np.abs(lo), np.abs(hi)))
        return (_frank_variance(closest), *none)
    if spec.family is Family.GUMBEL:
        return (_gumbel_cap(lo), *none)
    x = -np.log(np.min(uv, axis=1))
    big = float(np.max(x))
    b = lo * big
    m1, m2 = _m1(b), _m2(b)
    phi1 = (m2 + m1 * m1) / (b * b)
    phi2 = np.minimum(2.0, (m2 + m1 * m1 + 2.0 * m1) / b**3)
    offset = -1.0 / (1.0 + hi) ** 2
    cap = np.maximum(2.0 * big * big * phi1 + big**3 * phi2 + offset, 0.0)
    # phi1, phi2 <= 2 for every B, so each row also obeys its own 4 x^2 + 2 x^3
    return cap, 4.0 * x * x + 2.0 * x**3, offset


def log_density_and_score(spec: CopulaSpec, theta: np.ndarray, u: np.ndarray, v: np.ndarray):
    """Log-density and its derivative in theta, one column per grid node.

    ``theta`` is a 1-d run of screen-grid nodes, which stay clear of the
    independence band, and ``u``, ``v`` the rows; both results have shape
    (len(u), len(theta)).  The rows' terms are log_density's own.  No
    argument checks.
    """
    return _logpdf(spec, theta, u[:, None], v[:, None], score=True)


def fit_mle(spec: CopulaSpec, data, min_fit_n: int = _DEFAULT_MIN_FIT_N) -> FitResult:
    """Maximum-likelihood fit of theta on pairs in the open unit square.

    Clayton and Gumbel are optimised on the (bounded) tau scale; Frank
    directly on theta over [-50, 50], matching the tau_to_theta bracket.
    Rows are canonicalised by lexicographic sort so the result is exactly
    invariant under row permutations.
    """
    uv = np.asarray(data, dtype=float)
    if uv.ndim != 2 or uv.shape[1] != 2:
        raise DomainError(f"expected an (n, 2) array, got shape {uv.shape}")
    if uv.shape[0] < min_fit_n:
        raise InsufficientDataError(
            f"need at least {min_fit_n} pairs to fit, got {uv.shape[0]}"
        )
    _check_interior(uv[:, 0], uv[:, 1])
    uv = uv[np.lexsort((uv[:, 1], uv[:, 0]))]

    nll, to_theta = _nll_factory(spec, uv)
    lo, hi = _search_bounds(spec)

    x, fun, success = _fminbound(nll, lo, hi, 1e-6)
    loglik = -float(fun)
    if not math.isfinite(loglik):
        raise FitError(f"{spec.family.value}: log-likelihood not finite at optimum")
    theta_hat = float(to_theta(x))
    return FitResult(
        theta_hat=theta_hat,
        tau_hat=theta_to_tau(spec, theta_hat),
        loglik=loglik,
        n_obs=uv.shape[0],
        converged=success,
    )


_SQRT_EPS = math.sqrt(2.2e-16)
_GOLDEN = 0.5 * (3.0 - math.sqrt(5.0))


def _fminbound(func, lo: float, hi: float, xatol: float, maxfun: int = 500):
    """Brent's bounded minimiser of a scalar function on [lo, hi].

    A port of scipy's ``minimize_scalar(method="bounded")`` (scipy 1.17)
    that performs the same floating-point operations in the same order, so
    it evaluates ``func`` at the same points and returns the same bits.
    Returns ``(x, fun, success)``; ``success`` is False when ``maxfun``
    evaluations are spent or the result is NaN.  ``lo <= hi``, both finite.

    The step ``rat`` is never NaN: a parabolic step passes three ordered
    comparisons, which NaN fails, and the other steps are finite.  So the
    plain-float sign and max below equal numpy's sign and maximum.
    """
    a, b = lo, hi
    fulc = a + _GOLDEN * (b - a)
    nfc = xf = fulc
    rat = e = 0.0
    fx = func(xf)
    num = 1
    fu = math.inf
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = _SQRT_EPS * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1
    flag = 0

    while abs(xf - xm) > (tol2 - 0.5 * (b - a)):
        golden = True
        if abs(e) > tol1:  # try a parabolic fit
            golden = False
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r = e
            e = rat
            if abs(p) < abs(0.5 * q * r) and p > q * (a - xf) and p < q * (b - xf):
                rat = (p + 0.0) / q
                x = xf + rat
                if (x - a) < tol2 or (b - x) < tol2:
                    rat = tol1 * (-1.0 if xm < xf else 1.0)
            else:
                golden = True
        if golden:
            e = (a - xf) if xf >= xm else (b - xf)
            rat = _GOLDEN * e

        x = xf + (-1.0 if rat < 0.0 else 1.0) * max(abs(rat), tol1)
        fu = func(x)
        num += 1

        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu

        xm = 0.5 * (a + b)
        tol1 = _SQRT_EPS * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1

        if num >= maxfun:
            flag = 1
            break

    if math.isnan(xf) or math.isnan(fx) or math.isnan(fu):
        flag = 2
    return xf, fx, flag == 0
