import math
import os
import subprocess
import sys
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad, solve_ivp

import jumpdiff
from jumpdiff.analytic import (
    _invariant_norm,
    conjectured_threshold,
    coupling_tail_bound_rate,
    dirichlet_bottom,
    fast_coupling_bound,
    green_function,
    invariant_density,
    invariant_density_grid,
    invariant_density_limit,
    killed_survival,
    killed_survival_grid,
    mean_exit_time,
    theoretical_gap,
)
from jumpdiff.errors import (
    OutOfDomain,
    RequiresCenteredDelta,
    RequiresPositiveDrift,
    SeriesOverflow,
)
from jumpdiff.model import Interval, JumpDistribution, ProcessSpec, unit_spec
from jumpdiff.simulate import RngStream, exit_time_ensemble
from tests.test_model import make_spec

PI2 = math.pi**2


def green_oracle(spec, x, y):
    """Brute-force Green value: integrate the homogeneous ODE from both ends
    and assemble the kernel from the numeric Wronskian (independent of the
    closed-form path)."""
    def ode(_t, f):
        return [f[1], -2.0 * spec.mu * f[1] / spec.sigma**2]

    lo, hi = min(x, y), max(x, y)
    left = solve_ivp(ode, (spec.a, lo), [0.0, 1.0], rtol=1e-11, atol=1e-13,
                     dense_output=True)
    right = solve_ivp(ode, (spec.b, hi), [0.0, -1.0], rtol=1e-11, atol=1e-13,
                      dense_output=True)
    mid_l = solve_ivp(ode, (spec.a, y), [0.0, 1.0], rtol=1e-11, atol=1e-13)
    mid_r = solve_ivp(ode, (spec.b, y), [0.0, -1.0], rtol=1e-11, atol=1e-13)
    ha, dha = mid_l.y[0][-1], mid_l.y[1][-1]
    hb, dhb = mid_r.y[0][-1], mid_r.y[1][-1]
    wronskian = ha * dhb - dha * hb
    c = -2.0 / (spec.sigma**2 * wronskian)
    return c * left.y[0][-1] * right.y[0][-1]


# --- Green's function -------------------------------------------------------

def test_green_driftfree_examples(spec0):
    assert green_function(spec0, 0.5, 0.5) == pytest.approx(0.5, abs=1e-12)
    assert green_function(spec0, 0.25, 0.75) == pytest.approx(0.125, abs=1e-12)


def test_green_vanishes_at_boundary(spec0):
    for eps in (1e-6, 1e-9):
        assert green_function(spec0, eps, eps) == pytest.approx(0.0, abs=3e-6)


def test_green_out_of_domain(spec0):
    with pytest.raises(OutOfDomain):
        green_function(spec0, -0.1, 0.5)
    with pytest.raises(OutOfDomain):
        green_function(spec0, 0.5, 1.0)


@pytest.mark.parametrize("call", [
    lambda: invariant_density_grid(unit_spec(), [0.0, 0.5]),
    lambda: invariant_density_grid(unit_spec(), [0.5, 1.0]),
    lambda: fast_coupling_bound(unit_spec(4.0), -1e-3),
], ids=["density-grid-on-a", "density-grid-on-b", "coupling-bound-t<0"])
def test_closed_forms_refuse_points_off_their_domain(call):
    with pytest.raises(OutOfDomain):
        call()


def test_green_matches_ode_oracle(rng):
    for _ in range(12):
        mu = float(rng.uniform(-10.0, 30.0))
        sigma = float(rng.uniform(0.5, 2.0))
        spec = make_spec(sigma=sigma, mu=mu)
        x, y = sorted(rng.uniform(0.05, 0.95, size=2))
        got = green_function(spec, float(x), float(y))
        want = green_oracle(spec, float(x), float(y))
        assert got == pytest.approx(want, rel=1e-8)
        got = green_function(spec, float(y), float(x))
        want = green_oracle(spec, float(y), float(x))
        assert got == pytest.approx(want, rel=1e-8)


def test_green_reflection_symmetry(rng):
    for _ in range(20):
        mu = float(rng.uniform(-25.0, 25.0))
        spec = make_spec(a=-0.5, b=1.5, mu=mu, atoms=((0.5, 1.0),))
        x, y = rng.uniform(-0.45, 1.45, size=2)
        g1 = green_function(spec, float(x), float(y))
        g2 = green_function(make_spec(a=-0.5, b=1.5, mu=-mu, atoms=((0.5, 1.0),)),
                            float(-0.5 + 1.5 - x), float(-0.5 + 1.5 - y))
        assert g1 == pytest.approx(g2, rel=1e-10)


def test_green_continuous_across_drift_switch():
    # the drift-free branch takes over at mu_switch = 1e-4 sigma^2 / L; the
    # two formulas must agree there to the documented accuracy
    # on both sides of zero drift and for y on either side of x
    for mu_switch in (1e-4, -1e-4):
        for x, y in ((0.3, 0.6), (0.6, 0.3)):
            g_lo = green_function(make_spec(mu=mu_switch * (1 - 1e-9)), x, y)
            g_hi = green_function(make_spec(mu=mu_switch * (1 + 1e-9)), x, y)
            assert g_lo == pytest.approx(g_hi, rel=1e-8)


def test_import_leaves_scipy_out():
    src = os.path.dirname(os.path.dirname(os.path.abspath(jumpdiff.__file__)))
    code = "import sys, jumpdiff; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"


# (a, b, sigma, mu, atoms): both drift branches, reflection for mu < 0,
# one to three atoms, a long interval and a non-unit sigma
EXIT_CASES = [
    (0.0, 1.0, 1.0, 0.0, ((0.5, 1.0),)),
    (0.0, 1.0, 1.0, 5e-5, ((0.3, 1.0),)),
    (0.0, 1.0, 1.3, -5e-5, ((0.2, 0.4), (0.7, 0.6))),
    (0.0, 1.0, 1.0, 3.0, ((0.25, 0.5), (0.75, 0.5))),
    (0.0, 1.0, 1.0, -30.0, ((0.2, 0.3), (0.45, 0.5), (0.8, 0.2))),
    (0.0, 10.0, 1.0, 5.0, ((5.0, 1.0),)),
    (0.0, 10.0, 1.3, -0.7, ((2.0, 0.4), (7.0, 0.6))),
    (-0.5, 1.5, 1.3, 20.0, ((0.1, 0.25), (0.5, 0.25), (1.2, 0.5))),
]


def green_integral(spec, x):
    val, _ = quad(lambda y: green_function(spec, x, y), spec.a, spec.b, points=[x],
                  epsabs=0.0, epsrel=1e-13, limit=400)
    return val


@pytest.mark.parametrize("a,b,sigma,mu,atoms", EXIT_CASES)
def test_mean_exit_time_matches_green_quadrature(a, b, sigma, mu, atoms):
    spec = make_spec(a=a, b=b, sigma=sigma, mu=mu, atoms=atoms)
    for x in list(spec.nu.locations) + [a + 0.13 * (b - a), a + 0.91 * (b - a)]:
        assert mean_exit_time(spec, x) == pytest.approx(green_integral(spec, x), rel=1e-12)


@pytest.mark.parametrize("a,b,sigma,mu,atoms", EXIT_CASES)
def test_invariant_norm_matches_green_quadrature(a, b, sigma, mu, atoms):
    spec = make_spec(a=a, b=b, sigma=sigma, mu=mu, atoms=atoms)
    want = sum(w * green_integral(spec, x) for x, w in atoms)
    assert _invariant_norm(spec) == pytest.approx(want, rel=1e-12)


def test_mean_exit_time_continuous_across_drift_switch():
    for mu_switch in (1e-4, -1e-4):
        for x in (0.3, 0.6):
            lo = mean_exit_time(make_spec(mu=mu_switch * (1 - 1e-9)), x)
            hi = mean_exit_time(make_spec(mu=mu_switch * (1 + 1e-9)), x)
            assert lo == pytest.approx(hi, rel=1e-8)


def test_mean_exit_time_large_drift():
    # the drift carries the path to the drift-side edge at speed |mu|
    for x in (0.3, 0.7):
        assert mean_exit_time(unit_spec(500.0), x) == pytest.approx((1.0 - x) / 500.0,
                                                                    rel=1e-12)
        assert mean_exit_time(unit_spec(-500.0), x) == pytest.approx(x / 500.0, rel=1e-12)


def test_green_occupation_identity():
    # integral of the Green function over y equals the expected exit time,
    # cross-checked against the survival-function integral
    for spec, x in ((unit_spec(0.0), 0.5), (unit_spec(3.0), 0.3)):
        e_tau = mean_exit_time(spec, x)
        from_survival, _ = quad(lambda t: killed_survival(spec, x, t),
                                0.0, 40.0, limit=400)
        assert e_tau == pytest.approx(from_survival, rel=1e-6)


def test_green_large_drift_limit():
    # mu * g(x, y) -> 1 for x < y in the occupation normalization
    spec = unit_spec(200.0)
    assert abs(spec.mu * green_function(spec, 0.25, 0.75) - 1.0) < 0.01


# --- invariant density ------------------------------------------------------

def test_invariant_density_is_normalized_tent(spec0):
    # drift-free centered restart: normalized tent, 4y below the atom
    for y in (0.1, 0.3, 0.49):
        assert invariant_density(spec0, y) == pytest.approx(4.0 * y, rel=1e-9)
    for y in (0.51, 0.8):
        assert invariant_density(spec0, y) == pytest.approx(4.0 * (1 - y), rel=1e-9)


@pytest.mark.parametrize("mu,atoms", [
    (0.0, ((0.5, 1.0),)),
    (7.0, ((0.5, 1.0),)),
    (3.0, ((0.25, 0.5), (0.75, 0.5),)),
    (-4.0, ((0.3, 0.2), (0.6, 0.8),)),
])
def test_invariant_density_integrates_to_one(mu, atoms):
    spec = make_spec(mu=mu, atoms=atoms)
    val, _ = quad(lambda y: invariant_density(spec, y), spec.a, spec.b,
                  points=list(spec.nu.locations), limit=200)
    assert val == pytest.approx(1.0, abs=1e-8)


def test_invariant_density_large_drift_close_to_limit():
    spec = unit_spec(60.0)
    ys = np.linspace(0.56, 0.94, 101)
    dens = invariant_density_grid(spec, ys)
    assert float(np.max(np.abs(dens - 2.0))) < 0.05


def test_invariant_limit_examples():
    nu = JumpDistribution.delta(0.5)
    iv = Interval(0.0, 1.0)
    assert invariant_density_limit(nu, iv, 0.75) == pytest.approx(2.0)
    assert invariant_density_limit(nu, iv, 0.25) == pytest.approx(0.0)
    two = JumpDistribution(((0.25, 0.5), (0.75, 0.5)))
    assert invariant_density_limit(two, iv, 0.5) == pytest.approx(1.0)


def test_invariant_limit_matches_quadrature_normalizer():
    # denominator of the displayed limit computed by independent quadrature
    two = JumpDistribution(((0.25, 0.5), (0.75, 0.5)))
    iv = Interval(0.0, 1.0)
    denom, _ = quad(lambda z: two.mass_left_of(z), 0.0, 1.0,
                    points=[0.25, 0.75], limit=200)
    got = invariant_density_limit(two, iv, 0.5)
    assert got == pytest.approx(two.mass_left_of(0.5) / denom, rel=1e-9)


# --- killed spectrum and survival -------------------------------------------

def test_dirichlet_bottom_examples():
    assert dirichlet_bottom(unit_spec(0.0)) == pytest.approx(PI2 / 2)
    assert dirichlet_bottom(unit_spec(2.0)) == pytest.approx(PI2 / 2 + 2.0)
    assert dirichlet_bottom(make_spec(b=2.0)) == pytest.approx(PI2 / 8)
    assert dirichlet_bottom(make_spec(b=0.5, mu=2.0, atoms=((0.25, 1.0),))) == pytest.approx(
        2.0 * PI2 + 2.0)


def test_killed_survival_at_zero_is_one(spec0):
    assert killed_survival(spec0, 0.5, 0.0) == 1.0


def test_killed_survival_monotone_and_bounded(spec20):
    ts = np.linspace(0.0, 0.5, 40)
    for x in (0.2, 0.5, 0.8):
        vals = killed_survival_grid(spec20, x, ts)
        assert np.all(vals <= 1.0) and np.all(vals >= 0.0)
        assert np.all(np.diff(vals) <= 1e-12)


def test_killed_survival_matches_monte_carlo(spec0):
    # light version; the acceptance suite runs the full-size comparison
    taus, _ = exit_time_ensemble(spec0, 0.5, 100_000, 5e-4, RngStream(1234),
                                 horizon=1.0)
    p_hat = float((taus > 1.0).mean())
    se = math.sqrt(p_hat * (1 - p_hat) / 100_000)
    assert killed_survival(spec0, 0.5, 1.0) == pytest.approx(p_hat, abs=3 * se)


def test_killed_survival_tail_rate():
    spec = unit_spec(1.0)
    ts = np.linspace(0.5, 1.5, 11)
    vals = killed_survival_grid(spec, 0.5, ts)
    rates = -np.diff(np.log(vals)) / np.diff(ts)
    assert rates[-1] == pytest.approx(PI2 / 2 + 0.5, rel=1e-3)


def _survival_by_images(x, t) -> mpmath.mpf:
    """P_x(exit time > t) for Brownian motion killed outside (0, 1), by the
    method of images: sum_n [Phi((1 - x + 2n) / sqrt t) - Phi((2n - x) / sqrt t)
    - Phi((1 + x + 2n) / sqrt t) + Phi((x + 2n) / sqrt t)]."""
    r = 1 / mpmath.sqrt(t)
    return mpmath.fsum(mpmath.ncdf((1 - x + 2 * n) * r) - mpmath.ncdf((2 * n - x) * r)
                       - mpmath.ncdf((1 + x + 2 * n) * r) + mpmath.ncdf((x + 2 * n) * r)
                       for n in range(-20, 21))


def test_killed_survival_small_t_matches_image_series():
    # the image series shares no code with the eigenexpansion; at small t the
    # eigenexpansion needs hundreds of terms, which it must find by itself
    spec = unit_spec(0.0)
    with mpmath.workdps(40):
        for x, t in ((0.5, 1e-5), (0.01, 1e-4), (0.05, 1e-3), (0.3, 0.0064), (0.5, 0.1)):
            exact = float(_survival_by_images(mpmath.mpf(x), mpmath.mpf(t)))
            assert abs(killed_survival(spec, x, t) - exact) <= 1e-14, (x, t)


def test_killed_survival_series_budget_raises_before_allocating():
    ts = 1e-6 * np.linspace(0.0, 1.0, 10_001)
    tracemalloc.start()
    try:
        with pytest.raises(SeriesOverflow, match="budget"):
            killed_survival_grid(unit_spec(0.0), 0.5, ts)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_killed_survival_is_one_point_grid(spec20):
    for t in (0.0, 1e-3, 0.05, 0.4):
        for x in (0.2, 0.5, 0.8):
            assert killed_survival(spec20, x, t) == killed_survival_grid(spec20, x, [t])[0]


def test_killed_survival_overflow_raises_instead_of_nan():
    # beta (L - u) - lam_1 t is about 2.7e3 here: exp overflows and inf - inf
    # would be NaN, where the true survival is about 1
    spec = ProcessSpec(Interval(0.0, 3.79), 0.305, 77.4, JumpDistribution.delta(1.895))
    with pytest.raises(SeriesOverflow, match="t = 0.0064"):
        killed_survival(spec, 0.25, 0.0064)
    with pytest.raises(SeriesOverflow, match="t = 0.0064"):
        killed_survival_grid(spec, 0.25, [0.0, 0.0064, 0.1])
    # at t = 0 the value is 1 by definition and nothing is raised
    assert killed_survival_grid(spec, 0.25, [0.0])[0] == 1.0


def test_killed_survival_grid_does_not_warn_from_zero(spec0):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        vals = killed_survival_grid(spec0, 0.5, [0.0, 1e-5, 0.1])
    assert vals[0] == 1.0


def test_killed_survival_rejects_negative_time():
    spec = unit_spec(5.0)
    for t in (-0.1, -1e-3):
        with pytest.raises(OutOfDomain):
            killed_survival(spec, 0.5, t)
        with pytest.raises(OutOfDomain):
            killed_survival_grid(spec, 0.5, [0.0, t, 0.1])


# --- explicit drift-dependent bounds ----------------------------------------

def test_fast_coupling_bound_examples():
    spec = unit_spec(4.0)
    assert fast_coupling_bound(spec, 0.0) == pytest.approx(math.exp(2.0))
    assert fast_coupling_bound(spec, 2.0) == pytest.approx(math.exp(2.0 - 16.0))
    ts = np.linspace(0.0, 3.0, 30)
    vals = [fast_coupling_bound(spec, t) for t in ts]
    assert all(b < a for a, b in zip(vals, vals[1:]))


def test_fast_coupling_bound_preconditions():
    with pytest.raises(RequiresPositiveDrift):
        fast_coupling_bound(unit_spec(0.0), 1.0)
    with pytest.raises(RequiresCenteredDelta):
        fast_coupling_bound(make_spec(mu=4.0, atoms=((0.4, 1.0),)), 1.0)


def test_fast_coupling_bound_overflow_is_typed():
    # exponent L mu / (2 sigma^2) - mu^2 t / (2 sigma^2) = 10^4 - 2 10^6 t
    spec = make_spec(sigma=0.1, mu=200.0)
    for t in (0.0, 1e-4, 1e-3):
        with pytest.raises(SeriesOverflow, match="exponent"):
            fast_coupling_bound(spec, t)
    assert fast_coupling_bound(spec, 5e-3) == pytest.approx(1.0)


def test_theoretical_gap_examples():
    assert theoretical_gap(unit_spec()) == pytest.approx(8 * PI2)
    assert theoretical_gap(make_spec(b=2.0, atoms=((1.0, 1.0),))) == pytest.approx(2 * PI2)
    assert theoretical_gap(make_spec(sigma=2.0)) == pytest.approx(32 * PI2)


def test_conjectured_threshold_examples():
    assert conjectured_threshold(unit_spec()) == pytest.approx(2 * math.sqrt(3) * math.pi)
    assert conjectured_threshold(make_spec(b=2.0, atoms=((1.0, 1.0),))) == pytest.approx(
        math.sqrt(3) * math.pi)
    assert conjectured_threshold(make_spec(sigma=math.sqrt(2))) == pytest.approx(
        4 * math.sqrt(3) * math.pi)


def test_coupling_tail_bound_rate_examples():
    assert coupling_tail_bound_rate(unit_spec(0.0)) == pytest.approx(2 * PI2)
    assert coupling_tail_bound_rate(unit_spec(20.0)) == pytest.approx(8 * PI2)
    mu_star = conjectured_threshold(unit_spec())
    lo = coupling_tail_bound_rate(unit_spec(mu_star * (1 - 1e-9)))
    hi = coupling_tail_bound_rate(unit_spec(mu_star * (1 + 1e-9)))
    assert lo == pytest.approx(hi, rel=1e-6)
    assert lo == pytest.approx(8 * PI2, rel=1e-6)


def test_gap_below_bottom_exactly_when_drift_large():
    # closed-form comparison flips at mu^2 = 15 pi^2 sigma^4 / L^2
    mu_star = math.pi * math.sqrt(15.0)
    for mu in (mu_star * 0.99, mu_star * 1.01):
        spec = unit_spec(mu)
        below = theoretical_gap(spec) < dirichlet_bottom(spec)
        assert below == (mu > mu_star)
