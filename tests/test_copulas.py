"""Tests for the Archimedean copula families.

Derived expectations are checked against independent oracles: central
finite differences of the CDF for densities, tensor Gauss-Legendre
quadrature of the density for CDF values, and scipy quad + bisect for the
Frank tau bridge, plus quad of the Genest-MacKay generator formula, which
does not pass through the Debye function, for Frank's tau.
"""

import decimal
import functools
import math
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, optimize, stats

from copulatree import copulas as cp
from copulatree.errors import BoundaryError, DomainError, InsufficientDataError

CLAYTON = cp.spec_for("clayton")
FRANK = cp.spec_for("frank")
GUMBEL = cp.spec_for("gumbel")
ALL = [CLAYTON, FRANK, GUMBEL]

GL_X, GL_W = np.polynomial.legendre.leggauss(64)


def gl_box_integral(spec, theta, u0, v0):
    """64-point/axis tensor Gauss-Legendre integral of the density over [0,u0]x[0,v0]."""
    un, wu = 0.5 * u0 * (GL_X + 1.0), 0.5 * u0 * GL_W
    vn, wv = 0.5 * v0 * (GL_X + 1.0), 0.5 * v0 * GL_W
    U, V = np.meshgrid(un, vn, indexing="ij")
    dens = np.exp(cp.log_density(spec, theta, U, V))
    return float(np.einsum("i,j,ij->", wu, wv, dens))


def frank_tau_oracle(theta):
    """Frank's tau by quad of tau = 1 + 4 int_0^1 phi(t) / phi'(t) dt, with the
    generator phi(t) = -log(r(t)), r(t) = (e^-theta t - 1) / (e^-theta - 1).

    phi / phi' = log(r) (e^theta t - 1) / theta, and log r is formed from
    log(1 - e^-x), each in the form that keeps its relative accuracy.
    """
    a = abs(theta)

    def log1m_exp(x):
        return np.log(-np.expm1(-x)) if x < 1.0 else np.log1p(-np.exp(-x))

    def ratio(t):
        log_r = log1m_exp(a * t) - log1m_exp(a) - (a * (1.0 - t) if theta < 0 else 0.0)
        return log_r * np.expm1(theta * t) / theta

    return 1.0 + 4.0 * integrate.quad(ratio, 0.0, 1.0, epsabs=1e-15, epsrel=1e-13, limit=200)[0]


def bernoulli(n):
    """B_0..B_n exactly, by the recurrence sum_{j <= m} C(m + 1, j) B_j = 0."""
    b = [Fraction(1)]
    for m in range(1, n + 1):
        b.append(-sum(math.comb(m + 1, j) * b[j] for j in range(m)) / (m + 1))
    return b


# c_k = B_2k / ((2k + 1) (2k)!), k = 1..30: D1(x) = 1 - x/4 + sum_k c_k x^2k
DEBYE_C = [bk / math.factorial(2 * k + 1) for k, bk in enumerate(bernoulli(60)[2::2], 1)]


def frank_decimal(x):
    """D1(x) and Frank's tau at theta = x > 0 as 40-digit Decimals.

    Below 1, the series with exact c_k (30 terms, the last below 1e-50);
    from 1 on, pi^2/6 - sum_k e^-kx (x/k + 1/k^2), summed to below 1e-48.
    """
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        x = Decimal(x)
        if x < 1:
            odd = sum(Decimal(c.numerator) / Decimal(c.denominator) * x ** (2 * k - 1)
                      for k, c in enumerate(DEBYE_C, 1))  # sum_k c_k x^(2k-1)
            return 1 - x / 4 + x * odd, 4 * odd
        pi = Decimal("3.14159265358979323846264338327950288419716939937510")
        e, ek, k, tail = (-x).exp(), Decimal(1), 0, Decimal(0)
        while k < 5 or ek > Decimal("1e-50"):
            k += 1
            ek *= e
            tail += ek * (x / k + Decimal(1) / (k * k))
        d1 = (pi * pi / 6 - tail) / x
        return d1, 1 - 4 / x * (1 - d1)


def fd_density(spec, theta, u, v, h=1e-4):
    """Central second mixed finite difference of the CDF."""
    c = lambda a, b: float(cp.cdf(spec, theta, a, b))
    return (c(u + h, v + h) - c(u + h, v - h) - c(u - h, v + h) + c(u - h, v - h)) / (4 * h * h)


class TestLogDensity:
    def test_frank_independence_limit(self):
        assert abs(cp.log_density(FRANK, 1e-8, 0.3, 0.7)) < 1e-6

    def test_gumbel_theta_one_is_independence(self):
        assert cp.log_density(GUMBEL, 1.0, 0.5, 0.5) == 0.0

    def test_clayton_small_theta_approaches_zero(self):
        assert abs(cp.log_density(CLAYTON, 1e-5, 0.3, 0.7)) < 1e-3

    def test_clayton_matches_fd_oracle(self):
        # frozen oracle value: fd of the CDF at (0.5, 0.5), theta=2, h=1e-4
        oracle = fd_density(CLAYTON, 2.0, 0.5, 0.5)
        assert oracle == pytest.approx(1.4810036, abs=1e-5)
        assert np.exp(cp.log_density(CLAYTON, 2.0, 0.5, 0.5)) == pytest.approx(oracle, abs=1e-4)

    @pytest.mark.parametrize("spec", ALL, ids=lambda s: s.family.value)
    def test_fd_consistency_on_grid(self, spec):
        theta = cp.tau_to_theta(spec, 0.5)
        for u in (0.2, 0.5, 0.8):
            for v in (0.2, 0.5, 0.8):
                dens = np.exp(cp.log_density(spec, theta, u, v))
                assert dens == pytest.approx(fd_density(spec, theta, u, v), abs=1e-4)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            cp.log_density(CLAYTON, -1.0, 0.5, 0.5)
        with pytest.raises(DomainError):
            cp.log_density(GUMBEL, 0.5, 0.5, 0.5)
        with pytest.raises(BoundaryError):
            cp.log_density(FRANK, 2.0, 0.0, 0.5)
        with pytest.raises(BoundaryError):
            cp.log_density(FRANK, 2.0, 0.5, 1.0)

    @pytest.mark.parametrize("spec, band", [(CLAYTON, 1e-9), (FRANK, 0.0), (GUMBEL, 1.0)],
                             ids=lambda x: getattr(x, "family", x))
    def test_scalars_give_numpy_floats_in_and_out_of_the_independence_band(self, spec, band):
        for theta in (band, cp.tau_to_theta(spec, 0.3)):
            for f in (cp.log_density, cp.cdf, cp.conditional_quantile):
                assert type(f(spec, theta, 0.3, 0.6)) is np.float64, (f.__name__, theta)

    @pytest.mark.parametrize("spec", ALL, ids=lambda s: s.family.value)
    def test_normalization(self, spec, unit_square_integral):
        # graded composite Gauss-Legendre rule (see conftest); its own error
        # is at most 2.1e-7 on these cells, so 5e-3 tests the density
        for tau in (0.1, 0.5, 0.8):
            total = unit_square_integral(spec, cp.tau_to_theta(spec, tau))
            assert total == pytest.approx(1.0, abs=5e-3)


class TestCdf:
    def test_independence_product(self):
        for spec, theta in ((CLAYTON, 1e-9), (FRANK, 1e-9), (GUMBEL, 1.0)):
            assert cp.cdf(spec, theta, 0.2, 0.4) == pytest.approx(0.08, abs=1e-6)

    def test_uniform_margin_limit(self):
        assert cp.cdf(CLAYTON, 2.0, 1.0 - 1e-12, 0.37) == pytest.approx(0.37, abs=1e-9)
        assert cp.cdf(CLAYTON, 2.0, 1.0, 0.37) == pytest.approx(0.37, abs=1e-9)
        assert cp.cdf(FRANK, 5.0, 0.42, 1.0) == pytest.approx(0.42, abs=1e-9)

    def test_frank_matches_quadrature_oracle(self):
        # frozen: 64-point tensor GL integral of the theta=5 density over [0,0.5]^2
        oracle = gl_box_integral(FRANK, 5.0, 0.5, 0.5)
        assert oracle == pytest.approx(0.37714851, abs=1e-6)
        assert cp.cdf(FRANK, 5.0, 0.5, 0.5) == pytest.approx(oracle, abs=1e-5)

    @pytest.mark.parametrize("spec", ALL, ids=lambda s: s.family.value)
    def test_frechet_bounds(self, spec):
        grid = np.linspace(0.05, 0.95, 5)
        for tau in (0.1, 0.5, 0.8):
            theta = cp.tau_to_theta(spec, tau)
            for u in grid:
                for v in grid:
                    c = cp.cdf(spec, theta, u, v)
                    assert max(u + v - 1.0, 0.0) - 1e-12 <= c <= min(u, v) + 1e-12


# Per family, thetas in the independence band (and across its edge) and
# ordinary ones; Frank's also fall on both sides of |theta| = 1, where D
# changes form.
MIXED_THETAS = {
    CLAYTON: st.one_of(st.floats(1e-12, 2.2e-7), st.floats(1e-3, 30.0)),
    FRANK: st.one_of(st.floats(-1e-6, 1e-6), st.floats(-1.5, 1.5), st.floats(-50.0, 50.0)),
    GUMBEL: st.one_of(st.floats(1.0, 1.0 + 2e-7), st.floats(1.0, 20.0)),
}
OPEN_UNIT = st.floats(1e-9, 1.0 - 1e-9)


class TestMixedArrays:
    """An array of thetas that mixes the regimes gives, element by element,
    the bits of one-element calls: whichever way its elements are picked."""

    @pytest.mark.parametrize("spec", ALL, ids=lambda s: s.family.value)
    @given(data=st.data())
    @settings(max_examples=100)
    def test_elements_equal_one_element_calls(self, spec, data):
        n = data.draw(st.integers(2, 10))
        theta, u, v = (np.array(data.draw(st.lists(s, min_size=n, max_size=n)))
                       for s in (MIXED_THETAS[spec], OPEN_UNIT, OPEN_UNIT))
        for f in (cp.log_density, cp.cdf, cp.conditional_quantile):
            # element by element, theta along the last axis, theta along the first
            want = np.array([[f(spec, t, a, b) for a, b in zip(u, v)] for t in theta])
            assert f(spec, theta, u, v).tobytes() == np.diagonal(want).tobytes(), f.__name__
            assert f(spec, theta, u[:, None], v[:, None]).tobytes() == want.T.tobytes(), f.__name__
            assert f(spec, theta[:, None], u, v).tobytes() == want.tobytes(), f.__name__


class TestTauBridge:
    def test_clayton_closed_form(self):
        assert cp.theta_to_tau(CLAYTON, 2.0) == pytest.approx(0.5)
        assert cp.tau_to_theta(CLAYTON, 0.5) == pytest.approx(2.0)

    def test_gumbel_closed_form(self):
        assert cp.tau_to_theta(GUMBEL, 0.75) == pytest.approx(4.0)
        assert cp.theta_to_tau(GUMBEL, 4.0) == pytest.approx(0.75)

    def test_frank_against_quad_bisect_oracle(self):
        def tau_of(th):
            d1 = integrate.quad(lambda t: t / np.expm1(t), 0, th, epsabs=1e-13)[0] / th
            return 1.0 - 4.0 / th * (1.0 - d1)

        oracle = optimize.bisect(lambda t: tau_of(t) - 0.5, 1e-6, 50, xtol=1e-12)
        assert oracle == pytest.approx(5.7362827070, abs=1e-9)
        assert cp.tau_to_theta(FRANK, 0.5) == pytest.approx(oracle, abs=1e-6)
        assert abs(0.5 - cp.theta_to_tau(FRANK, cp.tau_to_theta(FRANK, 0.5))) < 1e-8

    def test_frank_antisymmetry(self):
        assert cp.theta_to_tau(FRANK, -5.0) == pytest.approx(-cp.theta_to_tau(FRANK, 5.0), abs=1e-12)

    @pytest.mark.parametrize("spec", ALL, ids=lambda s: s.family.value)
    def test_roundtrip_grid(self, spec):
        grid = np.concatenate([np.linspace(-0.8, -0.05, 8), np.linspace(0.05, 0.9, 8)])
        lo, hi = spec.tau_domain
        for tau in grid:
            if not (lo < tau < hi):
                continue
            assert abs(tau - cp.theta_to_tau(spec, cp.tau_to_theta(spec, tau))) <= 1e-8

    @pytest.mark.parametrize("spec", ALL, ids=lambda s: s.family.value)
    def test_monotone_on_grid(self, spec):
        lo, hi = spec.tau_domain
        taus = [t for t in np.linspace(-0.85, 0.9, 12) if lo < t < hi and abs(t) > 1e-3]
        thetas = [cp.tau_to_theta(spec, t) for t in taus]
        assert all(a < b for a, b in zip(thetas, thetas[1:]))
        back = [cp.theta_to_tau(spec, th) for th in thetas]
        assert all(a < b for a, b in zip(back, back[1:]))

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            cp.tau_to_theta(CLAYTON, -0.2)
        with pytest.raises(DomainError):
            cp.tau_to_theta(GUMBEL, 1.0)
        with pytest.raises(DomainError):
            cp.tau_to_theta(FRANK, 0.0)
        with pytest.raises(DomainError):
            cp.tau_to_theta(FRANK, 0.97)

    def test_frank_tau_matches_generator_quadrature(self):
        # |theta| geometric over [1e-3, 50], both signs, and both sides of the
        # switch from the Bernoulli series to the closed form of D1
        s = cp._DEBYE_SWITCH
        grid = np.concatenate([np.geomspace(1e-3, 50.0, 41), [np.nextafter(s, 0.0), s, 1.01 * s]])
        for theta in np.concatenate([-grid, grid]):
            assert abs(cp.theta_to_tau(FRANK, theta) - frank_tau_oracle(theta)) <= 1e-12, theta

    def test_debye1_matches_quadrature(self):
        for x in (-30.0, -2.0, -0.5, 1e-3, 0.5, np.nextafter(cp._DEBYE_SWITCH, 0.0), 2.0, 7.0, 50.0):
            d1 = integrate.quad(lambda t: t / np.expm1(t), 0.0, x, epsabs=1e-15, epsrel=1e-13)[0] / x
            assert cp.debye1(x) == pytest.approx(d1, rel=1e-12, abs=0.0), x

    def test_debye1_and_frank_tau_match_40_digit_sums(self):
        # against 40-digit Decimal sums: both signs of theta, both sides of
        # the switch from the series to the sum of e^-kx terms
        s = cp._DEBYE_SWITCH
        xs = np.concatenate([np.linspace(s, 50.0, 97), np.geomspace(s, 50.0, 41)[1:], [np.nextafter(s, 3.0)]])
        for x in xs:
            d1 = frank_decimal(x)[0]
            assert abs((Decimal(cp.debye1(x)) - d1) / d1) <= Decimal("5e-16"), x
        grid = np.concatenate([np.geomspace(1e-3, 50.0, 121), np.linspace(0.5 * s, 2.0 * s, 41),
                               [np.nextafter(s, 0.0), np.nextafter(s, 3.0)]])
        for theta in grid:
            tau = frank_decimal(theta)[1]
            assert abs(Decimal(cp.theta_to_tau(FRANK, theta)) - tau) <= Decimal("3e-16"), theta
            assert abs(Decimal(cp.theta_to_tau(FRANK, -theta)) + tau) <= Decimal("3e-16"), -theta

    def test_each_regime_on_its_own_elements_equals_both_everywhere(self):
        # the two-regime formulas evaluated on every element and then picked
        # by np.where, as a reference: computing each regime only where it is
        # used must give the same bits, for scalars, arrays and negative theta
        s, c, k = cp._DEBYE_SWITCH, cp._DEBYE_SERIES, cp._DEBYE_TAIL_K
        poly = np.polynomial.polynomial.polyval

        def d1_both(x):
            x = np.asarray(x, dtype=float)
            a = np.abs(x)
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                ka = a[..., None] * k
                closed = (math.pi**2 / 6.0 - np.cumsum(np.exp(-ka) * (ka + 1.0) / k**2, axis=-1)[..., -1]) / a
                series = 1.0 - a / 4.0 + a * a * poly(a * a, c)
            return np.where(a < s, series, closed) - np.minimum(x, 0.0) / 2.0

        def tau_both(a):
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                closed = 1.0 - 4.0 / a * (1.0 - d1_both(a))
                return np.where(a < s, 4.0 * a * poly(a * a, c), closed)

        def slope_both(a):
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                closed = 4.0 * (1.0 - 2.0 * d1_both(a)) / a**2 + 4.0 / (a * np.expm1(a))
                return np.where(a < s, 4.0 * poly(a * a, cp._DEBYE_SLOPE), closed)

        def same(got, want):  # equal bits, where a NaN's sign bit may differ
            got, want = np.asarray(got), np.asarray(want)
            nan = np.isnan(want)
            return np.array_equal(np.isnan(got), nan) and got[~nan].tobytes() == want[~nan].tobytes()

        grid = np.concatenate([np.geomspace(1e-6, 50.0, 301), np.linspace(0.5 * s, 2.0 * s, 101),
                               [0.0, np.nextafter(s, 0.0), s, np.nextafter(s, 3.0), np.inf, np.nan]])
        theta = np.concatenate([-grid, grid])
        for got, want, x in ((cp.debye1, d1_both, theta), (cp._frank_tau, tau_both, grid),
                             (cp._frank_slope, slope_both, grid)):
            assert same(got(x), want(x))
            assert same(got(x.reshape(2, -1)), want(x).reshape(2, -1))
            for v in x:
                assert same(got(np.asarray(v)), want(v)), v
        assert [cp.debye1(float(v)) for v in theta[:50]] == d1_both(theta[:50]).tolist()
        assert np.array_equal(cp.theta_to_tau(FRANK, theta[np.isfinite(theta)]),
                              np.sign(theta[np.isfinite(theta)]) * tau_both(np.abs(theta[np.isfinite(theta)])))

    def test_debye_series_is_exact_bernoulli_rounded(self):
        assert cp._DEBYE_SERIES.tolist() == [float(c) for c in DEBYE_C[:18]]

    @pytest.mark.parametrize("coefficients", ["_DEBYE_SERIES", "_DEBYE_SLOPE"])
    def test_polyval_is_numpys_bit_for_bit(self, coefficients):
        from numpy.polynomial.polynomial import polyval

        c = getattr(cp, coefficients)
        x = np.random.default_rng(3).uniform(0.0, cp._DEBYE_SWITCH**2, 100_000)
        assert np.array_equal(cp._polyval(x, c), polyval(x, c))
        assert np.array_equal(cp._polyval(x[:60].reshape(3, 4, 5), c), polyval(x[:60].reshape(3, 4, 5), c))
        assert cp._polyval(np.asarray(x[0]), c) == polyval(np.asarray(x[0]), c)

    @pytest.mark.parametrize("spec", ALL, ids=lambda s: s.family.value)
    def test_array_calls_equal_scalar_calls(self, spec):
        lo, hi = spec.tau_domain
        taus = np.array([t for t in np.linspace(-0.92, 0.92, 47) if lo < t < hi and t != 0.0])
        thetas = cp.tau_to_theta(spec, taus)
        assert thetas.shape == taus.shape
        assert np.array_equal(thetas, [cp.tau_to_theta(spec, t) for t in taus])
        back = cp.theta_to_tau(spec, thetas)
        assert np.array_equal(back, [cp.theta_to_tau(spec, th) for th in thetas])
        grid = np.geomspace(1e-3, 50.0, 22)
        x = np.concatenate([-grid, [0.0], grid]).reshape(3, 3, 5)
        assert np.array_equal(cp.debye1(x), np.reshape([cp.debye1(v) for v in x.ravel()], x.shape))
        assert isinstance(cp.tau_to_theta(spec, 0.5), float)
        assert isinstance(cp.theta_to_tau(spec, thetas[-1]), float)
        assert isinstance(cp.debye1(1.0), float)

    @pytest.mark.parametrize("spec", ALL, ids=lambda s: s.family.value)
    def test_array_roundtrip(self, spec):
        lo, hi = spec.tau_domain
        taus = np.concatenate([-np.geomspace(1e-9, 0.92, 60), np.geomspace(1e-9, 0.92, 60)])
        taus = taus[(taus > lo) & (taus < hi)]
        assert np.abs(cp.theta_to_tau(spec, cp.tau_to_theta(spec, taus)) - taus).max() <= 1e-12

    @pytest.mark.parametrize(
        "spec, bad",
        [(CLAYTON, -0.2), (CLAYTON, 1.0), (GUMBEL, 0.0), (GUMBEL, np.nan),
         (FRANK, 0.0), (FRANK, 0.95), (FRANK, -1.0), (FRANK, np.nan)],
    )
    def test_one_bad_element_raises(self, spec, bad):
        with pytest.raises(DomainError):
            cp.tau_to_theta(spec, np.array([0.3, 0.5, bad, 0.7]))

    @given(tau=st.floats(0.02, 0.92))
    @settings(max_examples=25, deadline=None)
    def test_roundtrip_property_clayton_gumbel(self, tau):
        for spec in (CLAYTON, GUMBEL):
            assert abs(tau - cp.theta_to_tau(spec, cp.tau_to_theta(spec, tau))) <= 1e-8


class TestSampling:
    def test_deterministic(self):
        a = cp.sample(CLAYTON, 2.0, 500, seed=11)
        b = cp.sample(CLAYTON, 2.0, 500, seed=11)
        assert np.array_equal(a, b)

    def test_frank_independence_tau(self):
        uv = cp.sample(FRANK, 1e-8, 10_000, seed=7)
        tau = stats.kendalltau(uv[:, 0], uv[:, 1]).statistic
        assert abs(tau) < 0.03

    def test_clayton_tau_recovery(self):
        uv = cp.sample(CLAYTON, 2.0, 10_000, seed=42)
        tau = stats.kendalltau(uv[:, 0], uv[:, 1]).statistic
        assert tau == pytest.approx(0.5, abs=0.03)

    def test_frank_tau_recovery(self):
        theta = cp.tau_to_theta(FRANK, 0.5)
        uv = cp.sample(FRANK, theta, 10_000, seed=5)
        tau = stats.kendalltau(uv[:, 0], uv[:, 1]).statistic
        assert tau == pytest.approx(0.5, abs=0.03)

    def test_gumbel_margins_uniform(self):
        uv = cp.sample(GUMBEL, 4.0, 10_000, seed=42)
        assert stats.kendalltau(uv[:, 0], uv[:, 1]).statistic == pytest.approx(0.75, abs=0.03)
        assert stats.kstest(uv[:, 0], "uniform").pvalue > 0.01
        assert stats.kstest(uv[:, 1], "uniform").pvalue > 0.01

    def test_heterogeneous_theta_broadcast(self):
        theta = np.array([1.0, 2.0, 8.0])
        v = cp.conditional_quantile(CLAYTON, theta, np.full(3, 0.4), np.full(3, 0.6))
        single = [
            float(cp.conditional_quantile(CLAYTON, t, 0.4, 0.6)) for t in theta
        ]
        assert np.allclose(v, single)


class TestFitMle:
    def test_clayton_recovery(self):
        uv = cp.sample(CLAYTON, 2.0, 2000, seed=123)
        fit = cp.fit_mle(CLAYTON, uv)
        assert abs(fit.tau_hat - 0.5) < 0.04
        assert fit.converged and fit.n_obs == 2000
        assert np.isfinite(fit.loglik)
        assert fit.tau_hat == pytest.approx(cp.theta_to_tau(CLAYTON, fit.theta_hat), abs=1e-9)

    def test_gumbel_near_independence(self):
        uv = cp.sample(GUMBEL, 1.0 + 1e-6, 500, seed=3)
        fit = cp.fit_mle(GUMBEL, uv)
        assert fit.tau_hat < 0.08

    def test_permutation_invariance_exact(self):
        uv = cp.sample(FRANK, 4.0, 750, seed=21)
        perm = np.random.default_rng(0).permutation(len(uv))
        f1, f2 = cp.fit_mle(FRANK, uv), cp.fit_mle(FRANK, uv[perm])
        assert f1.theta_hat == f2.theta_hat
        assert f1.loglik == f2.loglik

    def test_insufficient_data(self):
        uv = cp.sample(CLAYTON, 2.0, 5, seed=1)
        with pytest.raises(InsufficientDataError):
            cp.fit_mle(CLAYTON, uv)

    @pytest.mark.parametrize(
        "spec, theta", [(CLAYTON, 2.0), (FRANK, 6.0), (GUMBEL, 3.0)], ids=["clayton", "frank", "gumbel"]
    )
    def test_loglik_is_summed_logdensity(self, spec, theta):
        uv = cp.sample(spec, theta, 400, seed=9)
        fit = cp.fit_mle(spec, uv)
        ll = float(np.sum(cp.log_density(spec, fit.theta_hat, uv[:, 0], uv[:, 1])))
        assert fit.loglik == pytest.approx(ll, rel=1e-12)

    @pytest.mark.parametrize("spec", ALL, ids=lambda s: s.family.value)
    def test_monotone_recovery_in_n(self, spec):
        tau0 = 0.5
        theta0 = cp.tau_to_theta(spec, tau0)
        med = []
        for n in (200, 2000, 20_000):
            errs = []
            for seed in range(20):
                uv = cp.sample(spec, theta0, n, seed=1000 + seed)
                errs.append(abs(cp.fit_mle(spec, uv).tau_hat - tau0))
            med.append(float(np.median(errs)))
        assert med[0] >= med[1] >= med[2]


def _bits(x):
    return np.float64(x).tobytes()


def _recorded(func):
    """``func`` plus the list of the points it is called at."""
    points = []

    def wrapped(x):
        points.append(_bits(x))
        return func(x)

    return wrapped, points


def assert_same_search(func, lo, hi, xatol, maxfun=500):
    """_fminbound and scipy's bounded method visit the same points and agree
    bit for bit on x, fun, the evaluation count and success."""
    theirs, their_points = _recorded(func)
    ours, our_points = _recorded(func)
    res = optimize.minimize_scalar(
        theirs, bounds=(lo, hi), method="bounded", options={"xatol": xatol, "maxiter": maxfun}
    )
    x, fun, success = cp._fminbound(ours, lo, hi, xatol, maxfun)
    assert our_points == their_points
    assert (_bits(x), _bits(fun)) == (_bits(res.x), _bits(res.fun))
    assert len(our_points) == res.nfev
    assert success is bool(res.success)
    return res


class TestBoundedSearch:
    """cp._fminbound against scipy's minimize_scalar(method="bounded")."""

    @pytest.mark.parametrize("spec", ALL, ids=lambda s: s.family.value)
    @pytest.mark.parametrize("power", [1, 3], ids=["uniform", "corners"])
    def test_fit_objectives_match_scipy(self, spec, power):
        taus = (0.02, 0.3, 0.75) + ((-0.05, -0.4) if spec is FRANK else ())
        lo, hi = cp._search_bounds(spec)
        for tau, n in ((tau, n) for tau in taus for n in (10, 60, 400, 1200)):
            uv = cp.sample(spec, cp.tau_to_theta(spec, tau), n, seed=n) ** power
            uv = uv[np.lexsort((uv[:, 1], uv[:, 0]))]
            nll, _ = cp._nll_factory(spec, uv)
            assert assert_same_search(nll, lo, hi, 1e-6).success

    @pytest.mark.parametrize(
        "func",
        [
            lambda x: math.inf if x < 0.3 else (x - 0.6) ** 2,
            lambda x: math.inf if 0.35 < x < 0.4 else (x - 0.8) ** 2,  # inf at the first point
            lambda x: math.nan if x > 0.7 else (x - 0.9) ** 2,
            lambda x: math.nan if 0.35 < x < 0.4 else (x - 0.1) ** 2,  # nan at the first point
            lambda x: np.float64(math.nan),
            lambda x: math.inf,
            lambda x: 1.0,
            lambda x: 0.0 if x < 0.6 else 1.0,  # flat pieces: ties between points
            lambda x: x,
            lambda x: -x,
            lambda x: np.log(x) if x > 0.5 else np.float64(math.nan),
        ],
        ids=["inf-left", "inf-first", "nan-right", "nan-first", "nan", "inf", "flat",
             "step", "min-at-lo", "min-at-hi", "log-nan-left"],
    )
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # scipy's numpy scalars
    def test_non_finite_flat_and_bound_objectives_match_scipy(self, func):
        assert_same_search(func, 0.0, 1.0, 1e-6)

    def test_nan_result_is_not_a_success(self):
        assert not assert_same_search(lambda x: math.nan, 0.0, 1.0, 1e-6).success

    def test_exhausted_maxfun_is_not_a_success(self):
        # with xatol = 0 the tolerance shrinks with |x| and never lets |x| -> 0 stop
        res = assert_same_search(abs, -1.0, 1.0, 0.0)
        assert res.nfev == 500 and not res.success

    @pytest.mark.parametrize("spec", ALL, ids=lambda s: s.family.value)
    def test_exhausted_search_gives_an_unconverged_fit(self, spec, monkeypatch):
        uv = cp.sample(spec, cp.tau_to_theta(spec, 0.4), 300, seed=2)
        uv = uv[np.lexsort((uv[:, 1], uv[:, 0]))]
        nll, to_theta = cp._nll_factory(spec, uv)
        lo, hi = cp._search_bounds(spec)
        res = assert_same_search(nll, lo, hi, 1e-6, maxfun=5)
        monkeypatch.setattr(cp, "_fminbound", functools.partial(cp._fminbound, maxfun=5))
        fit = cp.fit_mle(spec, uv)
        assert not fit.converged
        assert fit.theta_hat == to_theta(float(res.x)) and fit.loglik == -float(res.fun)


def frank_nll_reference(uv, theta):
    """Frank's fit objective through _frank_log_d, one exponential call per term."""
    if abs(theta) < 9e-7:
        return 0.0
    u, v = uv[:, 0], uv[:, 1]
    em = -math.expm1(-theta)
    log_d = cp._frank_log_d(theta, u, v, em, math.exp(-theta))[0]
    return -(len(u) * math.log(theta * em) - theta * float(np.sum(u + v))
             - 2.0 * float(np.sum(log_d)))


class TestFrankObjective:
    """_nll_factory's fused Frank objective against the _frank_log_d formula."""

    # both sides of |theta| = 1, the independence band (|theta| < 9e-7) and its edge
    THETAS = (0.0, 5e-7, -5e-7, 9e-7, -9e-7, 1e-3, -0.3, 0.5, 0.9999999, 1.0, -1.0,
              1.0000001, 3.0, -7.5, 38.0, 50.0, -50.0)

    @given(
        theta_true=st.floats(-30.0, 30.0),
        n=st.integers(10, 700),
        power=st.sampled_from([1, 3]),
        thetas=st.lists(st.floats(-50.0, 50.0), max_size=6),
    )
    @settings(max_examples=40)
    def test_equals_log_d_formula_bit_for_bit(self, theta_true, n, power, thetas):
        uv = cp.sample(FRANK, theta_true, n, seed=n) ** power
        uv = uv[np.lexsort((uv[:, 1], uv[:, 0]))]
        nll, _ = cp._nll_factory(FRANK, uv)
        for theta in self.THETAS + tuple(thetas):
            assert _bits(nll(theta)) == _bits(frank_nll_reference(uv, theta)), theta


class TestScreenDensity:
    """The split screen evaluates log_density's own row terms on its grid."""

    @pytest.mark.parametrize("spec", ALL, ids=lambda s: s.family.value)
    @pytest.mark.parametrize("power", [1, 3], ids=["uniform", "corners"])
    def test_columns_equal_log_density(self, spec, power):
        uv = cp.sample(spec, cp.tau_to_theta(spec, 0.5), 300, seed=4) ** power
        grid = cp.screen_grid(spec)
        if spec is FRANK:  # both regimes of D, in one call
            assert (np.abs(grid) < 1.0).any() and (np.abs(grid) >= 1.0).any()
        ll, _ = cp.log_density_and_score(spec, grid, uv[:, 0], uv[:, 1])
        for k, theta in enumerate(grid):
            np.testing.assert_allclose(
                ll[:, k], cp.log_density(spec, theta, uv[:, 0], uv[:, 1]), rtol=1e-12, atol=0.0
            )

    @given(
        small=st.lists(st.floats(-0.999, 0.999).filter(lambda t: abs(t) > 1e-3), min_size=1, max_size=6),
        large=st.lists(st.one_of(st.floats(1.0, 50.0), st.floats(-50.0, -1.0)), min_size=1, max_size=6),
        u=st.lists(OPEN_UNIT, min_size=1, max_size=20),
        data=st.data(),
    )
    @settings(max_examples=60)
    def test_frank_grid_across_one_equals_one_column_calls(self, small, large, u, data):
        grid = np.array(data.draw(st.permutations(small + large)))
        u = np.array(u)
        v = np.array(data.draw(st.lists(OPEN_UNIT, min_size=len(u), max_size=len(u))))
        both = cp.log_density_and_score(FRANK, grid, u, v)
        for k in range(len(grid)):
            for got, want in zip(both, cp.log_density_and_score(FRANK, grid[k:k + 1], u, v)):
                assert got[:, k].tobytes() == want[:, 0].tobytes(), grid[k]

    @pytest.mark.parametrize("spec", ALL, ids=lambda s: s.family.value)
    @pytest.mark.parametrize("power", [1, 3], ids=["uniform", "corners"])
    def test_score_is_the_log_density_slope(self, spec, power):
        uv = cp.sample(spec, cp.tau_to_theta(spec, 0.5), 300, seed=5) ** power
        grid = cp.screen_grid(spec)
        _, score = cp.log_density_and_score(spec, grid, uv[:, 0], uv[:, 1])
        for k in range(1, len(grid) - 1, 5):
            t, h = grid[k], 1e-5 * (grid[k + 1] - grid[k])
            hi, lo = (cp.log_density(spec, t + s, uv[:, 0], uv[:, 1]) for s in (h, -h))
            np.testing.assert_allclose(score[:, k], (hi - lo) / (2.0 * h), rtol=1e-4, atol=1e-4)
