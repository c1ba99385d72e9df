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
from scipy import optimize

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

# Frank's tau <-> theta bridge is root-found on theta in [-50, 50]; taus
# beyond +-theta_to_tau(50) (about 0.9236) are rejected as out of range.
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
    if not np.all(np.isfinite(theta)):
        raise DomainError(f"{spec.family.value}: theta must be finite")
    if spec.family is Family.CLAYTON and np.any(theta <= 0.0):
        raise DomainError(f"clayton: theta must be > 0, got {theta}")
    if spec.family is Family.GUMBEL and np.any(theta < 1.0):
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
# family formulas (log space, broadcasting over theta, u, v)


def _clayton_logpdf(theta, lu, lv):
    a = -theta * lu
    b = -theta * lv
    m = np.maximum(a, b)
    # log(u^-theta + v^-theta - 1), computed without overflow
    ls = m + np.log(np.exp(a - m) + np.exp(b - m) - np.exp(-m))
    return np.log1p(theta) - (theta + 1.0) * (lu + lv) - (2.0 + 1.0 / theta) * ls


def _clayton_logcdf(theta, lu, lv):
    a = -theta * lu
    b = -theta * lv
    m = np.maximum(a, b)
    ls = m + np.log(np.exp(a - m) + np.exp(b - m) - np.exp(-m))
    return -ls / theta


def _frank_d(theta, u, v):
    """(1 - e^-t) - (1 - e^-tu)(1 - e^-tv), stable over the theta bracket.

    The expm1 product rounds to 1 once theta*u and theta*v exceed ~38,
    wiping out the difference; the expanded form keeps the surviving
    exponentials.  Below |theta| = 1 the expanded form cancels instead,
    so the two regimes each use the representation that stays exact.
    """
    small = np.abs(theta) < 1.0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        naive = -np.expm1(-theta) - np.expm1(-theta * u) * np.expm1(-theta * v)
        expanded = (
            np.exp(-theta * u) + np.exp(-theta * v)
            - np.exp(-theta * (u + v)) - np.exp(-theta)
        )
    return np.where(small, naive, expanded)


def _frank_logpdf(theta, u, v):
    em = -np.expm1(-theta)  # 1 - e^{-theta}, sign follows theta
    d = _frank_d(theta, u, v)
    return np.log(theta * em) - theta * (u + v) - 2.0 * np.log(np.abs(d))


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


def _gumbel_parts(theta, lu, lv):
    lx = np.log(-lu)
    ly = np.log(-lv)
    hi = np.maximum(lx, ly)
    lo = np.minimum(lx, ly)
    # log(x^theta + y^theta) without overflow for large theta
    ls = theta * hi + np.log1p(np.exp(theta * (lo - hi)))
    a = np.exp(ls / theta)  # (x^theta + y^theta)^(1/theta)
    return lx, ly, ls, a


def _gumbel_logpdf(theta, lu, lv):
    lx, ly, ls, a = _gumbel_parts(theta, lu, lv)
    return (
        -a
        + (theta - 1.0) * (lx + ly)
        + (1.0 / theta - 2.0) * ls
        + np.log(theta - 1.0 + a)
        - lu
        - lv
    )


def _gumbel_logcdf(theta, lu, lv):
    return -_gumbel_parts(theta, lu, lv)[3]


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
    if spec.family is Family.CLAYTON:
        out = _clayton_logpdf(safe, np.log(u), np.log(v))
    elif spec.family is Family.FRANK:
        out = _frank_logpdf(safe, u, v)
    else:
        out = _gumbel_logpdf(safe, np.log(u), np.log(v))
    return np.where(indep, 0.0, out)[()]


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
        out = np.exp(_clayton_logcdf(safe, np.log(ub), np.log(vb)))
    elif spec.family is Family.FRANK:
        out = _frank_cdf(safe, ub, vb)
    else:
        out = np.exp(_gumbel_logcdf(safe, np.log(ub), np.log(vb)))
    out = np.where(indep, ub * vb, out)
    out = np.where(edge_zero, 0.0, out)
    return np.clip(out, 0.0, 1.0)[()]


# ---------------------------------------------------------------------------
# Kendall tau bridge


def debye1(x: float) -> float:
    """First Debye function D1(x) = (1/x) * int_0^x t / (e^t - 1) dt.

    Simpson's rule with the panel count doubled until two successive
    estimates agree within 1e-12; a series expansion covers |x| < 1e-4.
    Negative arguments use the identity D1(-x) = D1(x) + x/2.
    """
    if x < 0.0:
        return debye1(-x) - x / 2.0
    if x < 1e-4:
        return 1.0 - x / 4.0 + x * x / 36.0
    return _debye1_positive(float(x))


@functools.lru_cache(maxsize=4096)
def _debye1_positive(x: float) -> float:
    def integrand(t):
        out = np.ones_like(t)
        nz = t != 0.0
        out[nz] = t[nz] / np.expm1(t[nz])
        return out

    n = 64
    prev = _simpson(integrand, x, n)
    for _ in range(16):
        n *= 2
        cur = _simpson(integrand, x, n)
        if abs(cur - prev) < 1e-12:
            prev = cur
            break
        prev = cur
    return prev / x


def _simpson(f, b: float, n: int) -> float:
    t = np.linspace(0.0, b, n + 1)
    y = f(t)
    h = b / n
    return h / 3.0 * (y[0] + y[-1] + 4.0 * y[1:-1:2].sum() + 2.0 * y[2:-1:2].sum())


def theta_to_tau(spec: CopulaSpec, theta: float) -> float:
    """Kendall's tau corresponding to theta (strictly increasing map)."""
    _check_theta(spec, float(theta))
    theta = float(theta)
    if spec.family is Family.CLAYTON:
        return theta / (theta + 2.0)
    if spec.family is Family.GUMBEL:
        return 1.0 - 1.0 / theta
    if abs(theta) < 1e-3:
        # series: tau = theta/9 - theta^3/900 + O(theta^5)
        return theta / 9.0 - theta**3 / 900.0
    return 1.0 - 4.0 / theta * (1.0 - debye1(theta))


def _check_tau(spec: CopulaSpec, tau: float) -> None:
    lo, hi = spec.tau_domain
    if not (lo < tau < hi) or not math.isfinite(tau):
        raise DomainError(f"{spec.family.value}: tau={tau} outside ({lo}, {hi})")
    if spec.family is Family.FRANK and tau == 0.0:
        raise DomainError("frank: tau=0 is excluded (independence limit)")


@functools.lru_cache(maxsize=4096)
def _frank_tau_to_theta(tau: float) -> float:
    spec = _SPECS[Family.FRANK]
    tau_max = theta_to_tau(spec, _FRANK_THETA_MAX)
    if abs(tau) >= tau_max:
        raise DomainError(
            f"frank: |tau|={abs(tau):.6f} beyond the invertible range "
            f"(+-{tau_max:.4f}) for the theta bracket [-50, 50]"
        )
    lo, hi = (1e-12, _FRANK_THETA_MAX) if tau > 0 else (-_FRANK_THETA_MAX, -1e-12)
    if abs(tau) <= theta_to_tau(spec, 1e-12 if tau > 0 else -1e-12):
        return 9.0 * tau
    return float(
        optimize.brentq(
            lambda t: theta_to_tau(spec, t) - tau, lo, hi, xtol=1e-13, rtol=8.9e-16
        )
    )


def tau_to_theta(spec: CopulaSpec, tau: float) -> float:
    """Inverse of :func:`theta_to_tau`; raises DomainError outside tau_domain."""
    tau = float(tau)
    _check_tau(spec, tau)
    if spec.family is Family.CLAYTON:
        return 2.0 * tau / (1.0 - tau)
    if spec.family is Family.GUMBEL:
        return 1.0 / (1.0 - tau)
    return _frank_tau_to_theta(tau)


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
    lx, ly, ls, a = _gumbel_parts(theta, lu, lv)
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
            a = -theta * lu
            b = -theta * lv
            m = np.maximum(a, b)
            ls = m + np.log(np.exp(a - m) + np.exp(b - m) - np.exp(-m))
            ll = len(u) * np.log1p(theta) - (theta + 1.0) * slog - (2.0 + 1.0 / theta) * float(np.sum(ls))
            return -ll

        return nll, lambda tau: 2.0 * tau / (1.0 - tau)

    if spec.family is Family.GUMBEL:
        lu, lv = np.log(u), np.log(v)
        lx, ly = np.log(-lu), np.log(-lv)
        hi = np.maximum(lx, ly)
        dlo = np.minimum(lx, ly) - hi
        sxy = float(np.sum(lx + ly))
        slog_uv = float(np.sum(lu + lv))

        def nll(tau):
            theta = 1.0 / (1.0 - tau)
            ls = theta * hi + np.log1p(np.exp(theta * dlo))
            a = np.exp(ls / theta)
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
        if abs(theta) < 1.0:
            d = em - np.expm1(-theta * u) * np.expm1(-theta * v)
        else:
            d = (
                np.exp(-theta * u) + np.exp(-theta * v)
                - np.exp(-theta * (u + v)) - math.exp(-theta)
            )
        ll = len(u) * math.log(theta * em) - theta * suv - 2.0 * float(np.sum(np.log(np.abs(d))))
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


def _clayton_logpdf_and_score(theta, x, y):
    # with x = -log u, y = -log v: log(u^-t + v^-t - 1) = t hi + log(1 + e_d - e_1)
    hi, lo = np.maximum(x, y), np.minimum(x, y)
    t_hi = theta * hi
    e_d, e_1 = np.exp(theta * (lo - hi)), np.exp(-t_hi)
    s = 1.0 + e_d - e_1
    ls = t_hi + np.log(s)
    k = 2.0 + 1.0 / theta
    ll = np.log1p(theta) + (theta + 1.0) * (x + y) - k * ls
    # d/dt log(u^-t + v^-t - 1) = (hi + lo e_d) / s
    score = 1.0 / (1.0 + theta) + (x + y) + ls / theta**2 - k * (hi + lo * e_d) / s
    return ll, score


def _frank_logpdf_and_score(theta, u, v, small: bool):
    eu, ev, et = np.exp(-theta * u), np.exp(-theta * v), np.exp(-theta)
    # D as in _frank_d and dD/dt, in the regime that stays exact
    if small:
        mu, mv = np.expm1(-theta * u), np.expm1(-theta * v)
        d = -np.expm1(-theta) - mu * mv
        dd = et + u * eu * mv + v * ev * mu
    else:
        euv = eu * ev
        d = eu + ev - euv - et
        dd = (u + v) * euv - u * eu - v * ev + et
    ll = np.log(theta * -np.expm1(-theta)) - theta * (u + v) - 2.0 * np.log(np.abs(d))
    score = 1.0 / theta + 1.0 / np.expm1(theta) - (u + v) - 2.0 * dd / d
    return ll, score


def _gumbel_logpdf_and_score(theta, lu, lv):
    lx, ly = np.log(-lu), np.log(-lv)
    hi, lo = np.maximum(lx, ly), np.minimum(lx, ly)
    r = np.exp(theta * (lo - hi))
    ls = theta * hi + np.log1p(r)  # log(x^t + y^t), as in _gumbel_parts
    a = np.exp(ls / theta)
    w = theta - 1.0 + a
    ll = -a + (theta - 1.0) * (lx + ly) + (1.0 / theta - 2.0) * ls + np.log(w) - lu - lv
    dls = (hi + lo * r) / (1.0 + r)
    da = a * (dls - ls / theta) / theta
    score = -da + (lx + ly) - ls / theta**2 + (1.0 / theta - 2.0) * dls + (1.0 + da) / w
    return ll, score


def log_density_and_score(spec: CopulaSpec, theta: np.ndarray, u: np.ndarray, v: np.ndarray):
    """Log-density and its derivative in theta, one column per grid node.

    ``theta`` is a 1-d run of screen-grid nodes, which stay clear of the
    independence band, and ``u``, ``v`` the rows; both results have shape
    (len(u), len(theta)).  No argument checks.
    """
    u, v = u[:, None], v[:, None]
    if spec.family is Family.CLAYTON:
        return _clayton_logpdf_and_score(theta, -np.log(u), -np.log(v))
    if spec.family is Family.GUMBEL:
        return _gumbel_logpdf_and_score(theta, np.log(u), np.log(v))
    small = np.abs(theta) < 1.0
    ll = np.empty((len(u), len(theta)))
    score = np.empty_like(ll)
    for regime in (True, False):
        cols = small == regime
        if cols.any():
            ll[:, cols], score[:, cols] = _frank_logpdf_and_score(theta[cols], u, v, regime)
    return ll, score


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

    res = optimize.minimize_scalar(
        nll, bounds=(lo, hi), method="bounded", options={"xatol": 1e-6}
    )
    loglik = -float(res.fun)
    if not math.isfinite(loglik):
        raise FitError(f"{spec.family.value}: log-likelihood not finite at optimum")
    theta_hat = float(to_theta(float(res.x)))
    tau_hat = theta_to_tau(spec, theta_hat) if abs(theta_hat) > 0 else 0.0
    return FitResult(
        theta_hat=theta_hat,
        tau_hat=float(tau_hat),
        loglik=loglik,
        n_obs=uv.shape[0],
        converged=bool(res.success),
    )
