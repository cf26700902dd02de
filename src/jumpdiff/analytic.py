"""Closed-form quantities for the drifted diffusion killed at the boundary.

Green's function (occupation-density normalization: integrating it in the
second argument gives the expected exit time), the invariant density of the
restarted process and its large-drift limit, the bottom of the killed
spectrum, survival probabilities by eigenexpansion, and the explicit
drift-dependent bounds used by the coupling experiments.

Everything here is a pure function of an immutable spec; callers may
evaluate in parallel without coordination.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import (
    OutOfDomain,
    RequiresCenteredDelta,
    RequiresPositiveDrift,
    SeriesOverflow,
)
from .model import Interval, JumpDistribution, ProcessSpec

SURVIVAL_MAX_ENTRIES = 2**22   # largest terms-by-times array one survival series builds
MU_SWITCH_SCALE = 1e-4         # drift-free Green below MU_SWITCH_SCALE * sigma^2 / L


def _require_inside(iv: Interval, *points: float) -> None:
    for p in points:
        if not iv.contains(p):
            raise OutOfDomain(f"point {p} outside open interval ({iv.a}, {iv.b})")


def _require_centered(spec: ProcessSpec) -> None:
    if not spec.is_centered_delta:
        raise RequiresCenteredDelta("spec must restart from a single midpoint atom")


# ---------------------------------------------------------------------------
# Green's function
# ---------------------------------------------------------------------------

def _green_raw(a: float, b: float, sigma: float, mu: float, x, y):
    """Occupation-density Green's function, vectorized over x and y.

    With mu_switch = MU_SWITCH_SCALE sigma^2 / (b - a): for mu > mu_switch
    all exponents have the form -(2 mu / sigma^2) * (positive length), so the
    evaluation never overflows and keeps full relative accuracy via expm1.
    For |mu| <= mu_switch the drift-free product form is used with its
    first-order drift correction (1 + alpha (y - x) / 2); the neglected
    second-order term is below (2 mu L / sigma^2)^2 / 6 ~ 7e-9 at the switch
    point.  Negative drift is evaluated through the reflection symmetry
    g_{sigma,mu}(x, y) = g_{sigma,-mu}(a+b-x, a+b-y).
    """
    L = b - a
    mu_switch = MU_SWITCH_SCALE * sigma**2 / L
    if mu < -mu_switch:
        return _green_raw(a, b, sigma, -mu, a + b - np.asarray(x), a + b - np.asarray(y))
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    lo = np.minimum(x, y)
    hi = np.maximum(x, y)
    alpha = 2.0 * mu / sigma**2
    if abs(mu) <= mu_switch:
        g0 = 2.0 * (lo - a) * (b - hi) / (sigma**2 * L)
        return g0 * (1.0 + 0.5 * alpha * (y - x))
    left = -np.expm1(-alpha * (lo - a))
    right = -np.expm1(-alpha * (b - hi))
    denom = -np.expm1(-alpha * L)
    skew = np.exp(-alpha * np.maximum(x - y, 0.0))
    return skew * left * right / (mu * denom)


def green_function(spec: ProcessSpec, x: float, y: float) -> float:
    """Expected occupation density at y for the killed diffusion started at x.

    Integrating over y yields the expected exit time from (a, b).

    Raises:
        OutOfDomain: x or y outside the open interval.
    """
    _require_inside(spec.interval, x, y)
    return float(_green_raw(spec.a, spec.b, spec.sigma, spec.mu, x, y))


def _green_profile(spec: ProcessSpec, ys: np.ndarray) -> np.ndarray:
    """Unnormalized invariant density: sum_i w_i g(x_i, y) on an array of y."""
    out = np.zeros_like(np.asarray(ys, dtype=float))
    for x_i, w_i in spec.nu.atoms:
        out = out + w_i * _green_raw(spec.a, spec.b, spec.sigma, spec.mu, x_i, ys)
    return out


def _exit_time_raw(a: float, b: float, sigma: float, mu: float, x: float) -> float:
    """Closed-form y-integral of :func:`_green_raw`, with u = x - a, v = b - x:
    (L (1 - exp(-alpha u)) / (1 - exp(-alpha L)) - u) / mu above the drift
    switch, u v (1 + alpha (v - u) / 6) / sigma^2 below it (the first-order
    branch), and the Green's function's reflection for negative drift.
    """
    L = b - a
    mu_switch = MU_SWITCH_SCALE * sigma**2 / L
    if mu < -mu_switch:
        return _exit_time_raw(a, b, sigma, -mu, a + b - x)
    u = x - a
    alpha = 2.0 * mu / sigma**2
    if abs(mu) <= mu_switch:
        v = b - x
        return u * v * (1.0 + alpha * (v - u) / 6.0) / sigma**2
    return (L * -math.expm1(-alpha * u) / -math.expm1(-alpha * L) - u) / mu


def _invariant_norm(spec: ProcessSpec) -> float:
    """Normalizer of the invariant density: sum_i w_i E_{x_i}[exit time]."""
    return sum(w_i * _exit_time_raw(spec.a, spec.b, spec.sigma, spec.mu, x_i)
               for x_i, w_i in spec.nu.atoms)


def mean_exit_time(spec: ProcessSpec, x: float) -> float:
    """E_x of the first exit time, as the y-integral of the Green's function."""
    _require_inside(spec.interval, x)
    return _exit_time_raw(spec.a, spec.b, spec.sigma, spec.mu, x)


def invariant_density(spec: ProcessSpec, y: float) -> float:
    """Stationary density of the restarted process at y.

    Ratio of the atom-weighted Green profile to its integral over (a, b);
    integrates to one.
    """
    _require_inside(spec.interval, y)
    num = float(_green_profile(spec, np.asarray(y)))
    return num / _invariant_norm(spec)


def invariant_density_grid(spec: ProcessSpec, ys: np.ndarray) -> np.ndarray:
    """Vectorized :func:`invariant_density` on interior grid points."""
    ys = np.asarray(ys, dtype=float)
    if np.any(ys <= spec.a) or np.any(ys >= spec.b):
        raise OutOfDomain("grid points must lie strictly inside the interval")
    return _green_profile(spec, ys) / _invariant_norm(spec)


def invariant_density_limit(nu: JumpDistribution, interval: Interval, y: float) -> float:
    """Large-drift limit density: nu((a, y]) normalized over the interval.

    For an atomic measure the normalizer is the exact sum of w_i (b - x_i).
    """
    _require_inside(interval, y)
    num = nu.mass_left_of(y)
    denom = sum(w * (interval.b - x) for x, w in nu.atoms)
    return num / denom


# ---------------------------------------------------------------------------
# Killed spectrum and survival
# ---------------------------------------------------------------------------

def dirichlet_bottom(spec: ProcessSpec) -> float:
    """Bottom eigenvalue of the killed generator: sigma^2 pi^2 / (2 L^2) + mu^2 / (2 sigma^2)."""
    L = spec.length
    return spec.sigma**2 * math.pi**2 / (2.0 * L**2) + spec.mu**2 / (2.0 * spec.sigma**2)


def killed_survival(spec: ProcessSpec, x: float, t: float) -> float:
    """P_x(exit time > t) by eigenexpansion of the killed drifted generator.

    Eigenvalues sigma^2 k^2 pi^2 / (2 L^2) + mu^2 / (2 sigma^2) with
    eigenfunctions exp(-mu (x-a)/sigma^2) sin(k pi (x-a)/L); the projection
    weights are the closed-form integrals of exp(+mu (y-a)/sigma^2)
    sin(k pi (y-a)/L).  The series sizes itself (:func:`_survival_grid`).

    Raises:
        OutOfDomain: x outside the open interval, or t < 0.
        SeriesOverflow: a term exceeds double range at t > 0 (large
            mu (L - u) / sigma^2 at small t), or the series outgrows
            ``SURVIVAL_MAX_ENTRIES``.
    """
    return float(_survival_grid(spec, [x], [t])[0, 0])


def killed_survival_grid(spec: ProcessSpec, x: float, ts: np.ndarray) -> np.ndarray:
    """Vectorized :func:`killed_survival`, with the same errors."""
    return _survival_grid(spec, [x], ts)[:, 0]


def _survival_grid(spec: ProcessSpec, xs, ts) -> np.ndarray:
    """Eigenexpansion shared by the survival functions: one row per time in
    ts, one column per start in xs.  The k-th term is
        (2/L) sin(omega_k u) * omega_k / (beta^2 + omega_k^2)
            * [exp(-beta u - lam_k t) - (-1)^k exp(beta (L - u) - lam_k t)].
    Its time factor exp(-(lam_k - lam_1) t) is the same for every start, so
    each bracket is one matrix product over k, scaled afterwards by
    exp(-beta u - lam_1 t) or exp(beta (L - u) - lam_1 t).  Those exponents
    stay combined, so large drifts cannot overflow prematurely.  Every term
    is at most exp(top - lam_k t), top = max over xs of max(-beta u,
    beta (L - u)), so the series ends at the first k with lam_k t - top >
    53 ln 2 at the smallest positive t (k = 1 if there is none).  Before
    anything is allocated, k len(ts) > SURVIVAL_MAX_ENTRIES raises.
    """
    ts = np.asarray(ts, dtype=float)
    if (ts < 0.0).any():
        raise OutOfDomain("time must be nonnegative")
    _require_inside(spec.interval, *xs)
    L = spec.length
    u = np.asarray(xs, dtype=float) - spec.a
    beta = spec.mu / spec.sigma**2
    n = 1.0
    if (ts > 0.0).any():
        t_min = ts[ts > 0.0].min()
        reach = (53.0 * math.log(2.0) + np.maximum(-beta * u, beta * (L - u)).max()
                 - spec.mu**2 * t_min / (2.0 * spec.sigma**2))
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            k = L / math.pi * np.sqrt(2.0 * max(reach, 0.0) / (spec.sigma**2 * t_min))
        n = max(n, np.ceil(k))
    if n * ts.size > SURVIVAL_MAX_ENTRIES:
        raise SeriesOverflow(f"survival series needs {n:.4g} terms at each of {ts.size} "
                             f"times, above its budget of {SURVIVAL_MAX_ENTRIES}")
    omega = np.arange(1, n + 1, dtype=float) * math.pi / L
    lam = 0.5 * spec.sigma**2 * omega**2 + spec.mu**2 / (2.0 * spec.sigma**2)
    base = (2.0 / L) * np.sin(np.outer(omega, u)) * (omega / (beta**2 + omega**2))[:, None]
    sign = np.where(np.arange(1, n + 1) % 2 == 0, 1.0, -1.0)
    decay = np.exp(-np.outer(ts, lam - lam[0]))
    tt = ts[:, None]
    with np.errstate(over="ignore", invalid="ignore"):
        vals = (np.exp(-beta * u - lam[0] * tt) * (decay @ base)
                - np.exp(beta * (L - u) - lam[0] * tt) * (decay @ (sign[:, None] * base)))
    bad = (tt > 0.0) & ~np.isfinite(vals)
    if bad.any():
        row, col = np.argwhere(bad)[0]
        t = float(ts[row])
        top = max(-beta * u[col], beta * (L - u[col])) - lam[0] * t
        raise SeriesOverflow(f"survival series overflows at t = {t:.6g}: largest exponent "
                             f"{top:.1f} (exp overflows above 709.8)")
    vals = np.clip(vals, 0.0, 1.0)
    return np.where(tt == 0.0, 1.0, vals)


# ---------------------------------------------------------------------------
# Drift-dependent bounds for the centered single-atom case
# ---------------------------------------------------------------------------

def fast_coupling_bound(spec: ProcessSpec, t: float) -> float:
    """Upper bound on the total-variation distance between mirrored starts.

    exp((b-a)/2 * mu/sigma^2) * exp(-mu^2 t / (2 sigma^2)); valid for
    positive drift and a centered single-atom restart.  Raises
    :class:`SeriesOverflow` where the exponent leaves double range.
    """
    _require_centered(spec)
    if not spec.mu > 0.0:
        raise RequiresPositiveDrift("bound needs mu > 0")
    if t < 0.0:
        raise OutOfDomain("time must be nonnegative")
    top = 0.5 * spec.length * spec.mu / spec.sigma**2 - spec.mu**2 / (2.0 * spec.sigma**2) * t
    try:
        return math.exp(top)
    except OverflowError:
        raise SeriesOverflow(f"coupling bound overflows at t = {t:.6g}: exponent "
                             f"{top:.1f} (exp overflows above 709.8)") from None


def _plateau(spec: ProcessSpec) -> float:
    """8 sigma^2 pi^2 / L^2, read without any requirement on the restart."""
    return 8.0 * spec.sigma**2 * math.pi**2 / spec.length**2


def theoretical_gap(spec: ProcessSpec) -> float:
    """Drift-independent plateau value 8 sigma^2 pi^2 / (b-a)^2."""
    _require_centered(spec)
    return _plateau(spec)


def conjectured_threshold(spec: ProcessSpec) -> float:
    """Conjectured smallest drift at which the plateau is reached: 2 sqrt(3) sigma^2 pi / (b-a)."""
    _require_centered(spec)
    return 2.0 * math.sqrt(3.0) * spec.sigma**2 * math.pi / spec.length


def coupling_tail_bound_rate(spec: ProcessSpec) -> float:
    """Largest certified coupling-time tail rate, which is the exact spectral
    gap of the centred restart.

    min(2 sigma^2 pi^2 / L^2 + mu^2 / (2 sigma^2), 8 sigma^2 pi^2 / L^2): the
    lowest real eigenvalue and the real part of the first complex pair of the
    closed-form centred spectrum.  The branches cross exactly at the
    conjectured threshold drift.
    """
    _require_centered(spec)
    stage3 = 2.0 * spec.sigma**2 * math.pi**2 / spec.length**2 + spec.mu**2 / (2.0 * spec.sigma**2)
    return min(stage3, _plateau(spec))
