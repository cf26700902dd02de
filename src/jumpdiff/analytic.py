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
import warnings

import numpy as np

from .errors import (
    OutOfDomain,
    RequiresCenteredDelta,
    RequiresPositiveDrift,
    SeriesOverflow,
    TruncationWarning,
)
from .model import Interval, JumpDistribution, ProcessSpec

SURVIVAL_N_TERMS = 64          # default truncation of the survival eigenexpansion
SURVIVAL_TAIL_WARN = 1e-8      # tail bound above which killed_survival warns
MU_SWITCH_SCALE = 1e-4         # drift-free Green below MU_SWITCH_SCALE * sigma^2 / L


def _require_inside(iv: Interval, *points: float) -> None:
    for p in points:
        if not iv.contains(p):
            raise OutOfDomain(f"point {p} outside open interval ({iv.a}, {iv.b})")


def _require_centered(spec: ProcessSpec) -> None:
    if not spec.is_centered_delta:
        raise RequiresCenteredDelta("spec must restart from a single midpoint atom")


def _mu_switch(spec: ProcessSpec) -> float:
    return MU_SWITCH_SCALE * spec.sigma**2 / spec.length


# ---------------------------------------------------------------------------
# Green's function
# ---------------------------------------------------------------------------

def _green_raw(a: float, b: float, sigma: float, mu: float, x, y, mu_switch: float):
    """Occupation-density Green's function, vectorized over x and y.

    For mu > mu_switch all exponents have the form -(2 mu / sigma^2) * (positive
    length), so the evaluation never overflows and keeps full relative accuracy
    via expm1.  For |mu| <= mu_switch the drift-free product form is used with
    its first-order drift correction (1 + alpha (y - x) / 2); the neglected
    second-order term is below (2 mu L / sigma^2)^2 / 6 ~ 7e-9 at the switch
    point.  Negative drift is evaluated through the reflection symmetry
    g_{sigma,mu}(x, y) = g_{sigma,-mu}(a+b-x, a+b-y).
    """
    if mu < -mu_switch:
        return _green_raw(a, b, sigma, -mu, a + b - np.asarray(x), a + b - np.asarray(y), mu_switch)
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    L = b - a
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
    return float(_green_raw(spec.a, spec.b, spec.sigma, spec.mu, x, y, _mu_switch(spec)))


def _green_profile(spec: ProcessSpec, ys: np.ndarray) -> np.ndarray:
    """Unnormalized invariant density: sum_i w_i g(x_i, y) on an array of y."""
    mu_switch = _mu_switch(spec)
    out = np.zeros_like(np.asarray(ys, dtype=float))
    for x_i, w_i in spec.nu.atoms:
        out = out + w_i * _green_raw(spec.a, spec.b, spec.sigma, spec.mu, x_i, ys, mu_switch)
    return out


def _exit_time_raw(a: float, b: float, sigma: float, mu: float, x: float,
                   mu_switch: float) -> float:
    """Closed-form y-integral of :func:`_green_raw`, with u = x - a, v = b - x:
    (L (1 - exp(-alpha u)) / (1 - exp(-alpha L)) - u) / mu above the drift
    switch, u v (1 + alpha (v - u) / 6) / sigma^2 below it (the first-order
    branch), and the Green's function's reflection for negative drift.
    """
    if mu < -mu_switch:
        return _exit_time_raw(a, b, sigma, -mu, a + b - x, mu_switch)
    L = b - a
    u = x - a
    alpha = 2.0 * mu / sigma**2
    if abs(mu) <= mu_switch:
        v = b - x
        return u * v * (1.0 + alpha * (v - u) / 6.0) / sigma**2
    return (L * -math.expm1(-alpha * u) / -math.expm1(-alpha * L) - u) / mu


def _invariant_norm(spec: ProcessSpec) -> float:
    """Normalizer of the invariant density: sum_i w_i E_{x_i}[exit time]."""
    mu_switch = _mu_switch(spec)
    return sum(w_i * _exit_time_raw(spec.a, spec.b, spec.sigma, spec.mu, x_i, mu_switch)
               for x_i, w_i in spec.nu.atoms)


def mean_exit_time(spec: ProcessSpec, x: float) -> float:
    """E_x of the first exit time, as the y-integral of the Green's function."""
    _require_inside(spec.interval, x)
    return _exit_time_raw(spec.a, spec.b, spec.sigma, spec.mu, x, _mu_switch(spec))


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

def dirichlet_bottom(spec: ProcessSpec, interval_override: Interval | None = None) -> float:
    """Bottom eigenvalue of the killed generator: sigma^2 pi^2 / (2 L^2) + mu^2 / (2 sigma^2)."""
    L = (interval_override or spec.interval).length
    return spec.sigma**2 * math.pi**2 / (2.0 * L**2) + spec.mu**2 / (2.0 * spec.sigma**2)


def killed_survival(spec: ProcessSpec, x: float, t: float, n_terms: int | None = None,
                    interval: Interval | None = None) -> float:
    """P_x(exit time > t) by eigenexpansion of the killed drifted generator.

    Eigenvalues sigma^2 k^2 pi^2 / (2 L^2) + mu^2 / (2 sigma^2) with
    eigenfunctions exp(-mu (x-a)/sigma^2) sin(k pi (x-a)/L); the projection
    weights are the closed-form integrals of exp(+mu (y-a)/sigma^2)
    sin(k pi (y-a)/L).  Truncated at ``n_terms`` (default
    ``SURVIVAL_N_TERMS``); emits :class:`TruncationWarning` when the
    geometric tail bound exceeds ``SURVIVAL_TAIL_WARN``.  ``interval`` restricts the exit problem to a
    sub-interval (the restart measure is irrelevant to the killed process).

    Raises:
        OutOfDomain: x outside the (possibly overridden) open interval.
        SeriesOverflow: a term exceeds double range at t > 0 (large
            mu (L - u) / sigma^2 at small t).
    """
    if t < 0.0:
        raise OutOfDomain("time must be nonnegative")
    val = float(_survival_grid(spec, x, np.array([t]), n_terms, interval)[0])
    if t > 0.0:
        iv = interval or spec.interval
        n = n_terms or SURVIVAL_N_TERMS
        _warn_survival_tail(spec, x - iv.a, iv.length, n, t)
    return val


def _warn_survival_tail(spec: ProcessSpec, u: float, L: float, n: int, t: float) -> None:
    beta = spec.mu / spec.sigma**2
    w1 = (n + 1) * math.pi / L
    lam1 = 0.5 * spec.sigma**2 * w1**2 + spec.mu**2 / (2.0 * spec.sigma**2)
    m1 = (2.0 / L) * w1 / (beta**2 + w1**2) * (
        math.exp(min(700.0, -beta * u - lam1 * t))
        + math.exp(min(700.0, beta * (L - u) - lam1 * t))
    )
    w2 = (n + 2) * math.pi / L
    lam2 = 0.5 * spec.sigma**2 * w2**2 + spec.mu**2 / (2.0 * spec.sigma**2)
    ratio = math.exp(-(lam2 - lam1) * t) * (n + 2) / (n + 1)
    if ratio >= 1.0:
        warnings.warn(TruncationWarning("survival tail bound diverges at this t"))
        return
    if m1 / (1.0 - ratio) > SURVIVAL_TAIL_WARN:
        warnings.warn(TruncationWarning(
            f"survival tail bound {m1 / (1.0 - ratio):.3e} above threshold"))


def killed_survival_grid(spec: ProcessSpec, x: float, ts: np.ndarray,
                         n_terms: int | None = None,
                         interval: Interval | None = None) -> np.ndarray:
    """Vectorized :func:`killed_survival`; silent, as the tail bound diverges at t = 0."""
    return _survival_grid(spec, x, ts, n_terms, interval)


def _survival_grid(spec, x, ts, n_terms, interval) -> np.ndarray:
    """Eigenexpansion shared by both survival functions; the k-th term is
        (2/L) sin(omega_k u) * omega_k / (beta^2 + omega_k^2)
            * [exp(-beta u - lam_k t) - (-1)^k exp(beta (L - u) - lam_k t)].
    Exponents are combined before exponentiation so large drifts cannot
    overflow prematurely.
    """
    iv = interval or spec.interval
    _require_inside(iv, x)
    ts = np.asarray(ts, dtype=float)
    n = n_terms or SURVIVAL_N_TERMS
    L = iv.length
    u = x - iv.a
    beta = spec.mu / spec.sigma**2
    omega = np.arange(1, n + 1, dtype=float) * math.pi / L
    lam = 0.5 * spec.sigma**2 * omega**2 + spec.mu**2 / (2.0 * spec.sigma**2)
    base = (2.0 / L) * np.sin(omega * u) * omega / (beta**2 + omega**2)
    sign = np.where(np.arange(1, n + 1) % 2 == 0, 1.0, -1.0)
    tt = ts[:, None]
    with np.errstate(over="ignore", invalid="ignore"):
        vals = np.sum(base * (np.exp(-beta * u - lam * tt)
                              - sign * np.exp(beta * (L - u) - lam * tt)), axis=1)
    bad = (ts > 0.0) & ~np.isfinite(vals)
    if bad.any():
        t = float(ts[bad][0])
        top = max(-beta * u, beta * (L - u)) - lam[0] * t
        raise SeriesOverflow(f"survival series overflows at t = {t:.6g}: largest exponent "
                             f"{top:.1f} (exp overflows above 709.8)")
    vals = np.clip(vals, 0.0, 1.0)
    return np.where(ts == 0.0, 1.0, vals)


# ---------------------------------------------------------------------------
# Drift-dependent bounds for the centered single-atom case
# ---------------------------------------------------------------------------

def fast_coupling_bound(spec: ProcessSpec, t: float) -> float:
    """Upper bound on the total-variation distance between mirrored starts.

    exp((b-a)/2 * mu/sigma^2) * exp(-mu^2 t / (2 sigma^2)); valid for
    positive drift and a centered single-atom restart.
    """
    _require_centered(spec)
    if not spec.mu > 0.0:
        raise RequiresPositiveDrift("bound needs mu > 0")
    if t < 0.0:
        raise OutOfDomain("time must be nonnegative")
    lam = spec.mu**2 / (2.0 * spec.sigma**2)
    return math.exp(0.5 * spec.length * spec.mu / spec.sigma**2 - lam * t)


def theoretical_gap(spec: ProcessSpec) -> float:
    """Drift-independent plateau value 8 sigma^2 pi^2 / (b-a)^2."""
    _require_centered(spec)
    return 8.0 * spec.sigma**2 * math.pi**2 / spec.length**2


def conjectured_threshold(spec: ProcessSpec) -> float:
    """Conjectured smallest drift at which the plateau is reached: 2 sqrt(3) sigma^2 pi / (b-a)."""
    _require_centered(spec)
    return 2.0 * math.sqrt(3.0) * spec.sigma**2 * math.pi / spec.length


def coupling_tail_bound_rate(spec: ProcessSpec) -> float:
    """Largest certified coupling-time tail rate.

    min(2 sigma^2 pi^2 / L^2 + mu^2 / (2 sigma^2), 8 sigma^2 pi^2 / L^2);
    the branches cross exactly at the conjectured threshold drift.
    """
    _require_centered(spec)
    L = spec.length
    stage3 = 2.0 * spec.sigma**2 * math.pi**2 / L**2 + spec.mu**2 / (2.0 * spec.sigma**2)
    stage2 = 8.0 * spec.sigma**2 * math.pi**2 / L**2
    return min(stage3, stage2)
