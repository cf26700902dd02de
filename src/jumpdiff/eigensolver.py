"""Point spectrum of the restarted generator via a characteristic determinant.

The generator domain couples the two boundary values to the restart average:
f(a) = f(b) and f(a) = sum_i w_i f(x_i).  Solutions of the second-order ODE
(sigma^2/2) f'' + mu f' + lambda f = 0 are spanned by the entire-in-lambda
pair

    C(x) = exp(-gamma d) cosh(q d),   S(x) = exp(-gamma d) sinh(q d) / q,

with d = x - a, gamma = mu / sigma^2 and q = sqrt(mu^2 - 2 sigma^2 lambda) /
sigma^2.  Both are even in q, so the square-root branch never matters and the
basis passes smoothly through the double-root point lambda = mu^2 / (2
sigma^2), where S degenerates to d * exp(-gamma d).  The characteristic
determinant is the 2x2 boundary determinant in this basis; its zeros are
exactly the eigenvalues, with multiplicity equal to the zero order.

Zeros are located by the argument principle: the winding number of the
determinant along box contours, computed by adaptive phase tracking, drives a
recursive bisection until each sub-box isolates one zero (or one unresolvable
cluster, reported with its multiplicity), followed by Newton polishing with a
Mueller fallback.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .analytic import dirichlet_bottom
from .errors import BoxTooSmall, ContourThroughZero, JumpdiffError
from .model import (
    DEFAULT_CONFIG,
    ComplexEigenvalue,
    ProcessSpec,
    SolverConfig,
)


class Box(NamedTuple):
    """Axis-aligned rectangle in the complex plane."""

    re_min: float
    re_max: float
    im_min: float
    im_max: float

    @property
    def width(self) -> float:
        return self.re_max - self.re_min

    @property
    def height(self) -> float:
        return self.im_max - self.im_min

    @property
    def center(self) -> complex:
        return complex(0.5 * (self.re_min + self.re_max), 0.5 * (self.im_min + self.im_max))

    @property
    def diag(self) -> float:
        return math.hypot(self.width, self.height)

    def corners(self) -> tuple[complex, complex, complex, complex]:
        return (
            complex(self.re_min, self.im_min),
            complex(self.re_max, self.im_min),
            complex(self.re_max, self.im_max),
            complex(self.re_min, self.im_max),
        )

    def dilate(self, factor: float) -> "Box":
        c = self.center
        hw = 0.5 * self.width * factor
        hh = 0.5 * self.height * factor
        return Box(c.real - hw, c.real + hw, c.imag - hh, c.imag + hh)

    def contains(self, z: complex, margin: float = 0.0) -> bool:
        return (self.re_min - margin <= z.real <= self.re_max + margin
                and self.im_min - margin <= z.imag <= self.im_max + margin)

    def split(self, frac: float) -> tuple["Box", "Box"]:
        """Cut the longer side at the given fraction."""
        if self.width >= self.height:
            mid = self.re_min + frac * self.width
            return (Box(self.re_min, mid, self.im_min, self.im_max),
                    Box(mid, self.re_max, self.im_min, self.im_max))
        mid = self.im_min + frac * self.height
        return (Box(self.re_min, self.re_max, self.im_min, mid),
                Box(self.re_min, self.re_max, mid, self.im_max))


@dataclass(frozen=True)
class SpectrumReport:
    """Eigenvalues found inside a search box, with the extracted gap."""

    eigenvalues: tuple[ComplexEigenvalue, ...]
    search_box: Box
    gap: float
    gap_is_real: bool


@dataclass(frozen=True)
class CharDeterminant:
    """Normalized characteristic determinant of the non-local boundary problem.

    Callable on scalars or arrays of complex lambda; entire up to a positive
    rescaling, so winding numbers and zeros are those of the boundary
    determinant itself.

    The 2x2 determinant in the {C, S} basis expands to the cancellation-free
    sum

        S(b) - sum_i w_i [ S(x_i) + exp(-g (b - a + d_i)) sinh(q (b - x_i)) / q ],

    whose leading exponential appears in exactly one term, so every value is
    computed at full relative accuracy for arbitrarily large |lambda|.
    The whole sum is further scaled by exp(-s), s = max(0, (Re q - g) (b - a)),
    a positive factor that keeps magnitudes O(1) without moving zeros or
    phases.  Negative drift is evaluated through interval reflection (an
    eigenvalue-preserving row operation; flips the overall sign).
    """

    spec: ProcessSpec
    config: SolverConfig = DEFAULT_CONFIG

    def _sinch(self, q, dist, shift):
        """exp(shift) * sinh(q dist) / q with a series branch near q = 0.

        Returns (value, magnitude bound); the bound is the generic size of
        the term, used to judge how close contour values are to a zero.
        """
        ep = np.exp(q * dist + shift)
        em = np.exp(-q * dist + shift)
        qd = q * dist
        small = np.abs(qd) < self.config.sinch_series_cutoff
        qsafe = np.where(small, 1.0, q)
        exact = 0.5 * (ep - em) / qsafe
        series = np.exp(shift) * dist * (1.0 + qd**2 / 6.0 + qd**4 / 120.0)
        bound = np.where(small, np.abs(series),
                         0.5 * (np.abs(ep) + np.abs(em)) / np.abs(qsafe))
        return np.where(small, series, exact), bound

    def with_scale(self, lam_arr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Determinant values and their generic magnitude on an array.

        The magnitude is the sum of the term bounds: |det| near it means the
        point is far from any zero, however large the drift-induced dynamic
        range across a contour.
        """
        spec = self.spec
        if spec.mu < 0.0:
            det, mag = self._reflected().with_scale(lam_arr)
            return -det, mag
        sig2 = spec.sigma**2
        gamma = spec.mu / sig2
        q = np.sqrt(spec.mu**2 - 2.0 * sig2 * lam_arr + 0j) / sig2
        L = spec.length
        s = np.maximum(0.0, (q.real - gamma) * L)
        det, mag = self._sinch(q, L, -gamma * L - s)
        for x_i, w_i in spec.nu.atoms:
            d_i = x_i - spec.a
            t_i, m_i = self._sinch(q, d_i, -gamma * d_i - s)
            u_i, mu_i = self._sinch(q, L - d_i, -gamma * (L + d_i) - s)
            det = det - w_i * (t_i + u_i)
            mag = mag + w_i * (m_i + mu_i)
        return det, mag

    def __call__(self, lam):
        lam_arr = np.atleast_1d(np.asarray(lam, dtype=complex))
        det, _ = self.with_scale(lam_arr)
        if np.isscalar(lam) or np.asarray(lam).ndim == 0:
            return complex(det[0])
        return det

    def _reflected(self) -> "CharDeterminant":
        from dataclasses import replace

        from .model import JumpDistribution
        spec = self.spec
        atoms = tuple(sorted((spec.a + spec.b - x, w) for x, w in spec.nu.atoms))
        return CharDeterminant(
            replace(spec, mu=-spec.mu, nu=JumpDistribution(atoms)), self.config)

    def log_scale(self, lam) -> float:
        """log of the positive rescaling at lambda; det * exp(log_scale)
        recovers the unscaled boundary determinant (oracle comparisons)."""
        spec = self.spec
        sig2 = spec.sigma**2
        gamma = abs(spec.mu) / sig2
        q = cmath.sqrt(spec.mu**2 - 2.0 * sig2 * complex(lam)) / sig2
        return max(0.0, (q.real - gamma) * spec.length)


def characteristic_det(spec: ProcessSpec, lam: complex,
                       config: SolverConfig = DEFAULT_CONFIG) -> complex:
    """Normalized characteristic determinant at a single lambda.

    Total on the complex plane: zero exactly at eigenvalues of the negated
    restarted generator (lambda = 0 included, via the constant eigenfunction).
    """
    return CharDeterminant(spec, config)(complex(lam))


# ---------------------------------------------------------------------------
# Winding numbers
# ---------------------------------------------------------------------------

class _BadContour(Exception):
    """Internal: contour too close to a zero, or refinement budget spent."""


def _edge_sample_estimate(spec: ProcessSpec, z0: complex, z1: complex) -> int:
    """Initial sample count resolving the determinant's phase along an edge.

    The determinant is a sum of exponentials exp(+-q c) with c <= b - a, so
    its phase along the edge changes by at most about L * |delta q|.  Sampling
    below one radian per step keeps the adaptive refinement in its capture
    zone (a full hidden turn between samples would alias to zero).
    """
    sig2 = spec.sigma**2

    def q_of(z: complex) -> complex:
        return cmath.sqrt(spec.mu**2 - 2.0 * sig2 * z) / sig2

    zm = 0.5 * (z0 + z1)
    span = abs(q_of(zm) - q_of(z0)) + abs(q_of(z1) - q_of(zm))
    phase_budget = 2.0 * spec.length * span + 8.0
    return int(min(8192.0, phase_budget / 0.7))


def _winding_count(f: CharDeterminant, box: Box, config: SolverConfig) -> int:
    """Number of determinant zeros inside the box by adaptive phase tracking.

    Edge samples are inserted until every consecutive phase step is below
    ``contour_phase_step`` radians, which pins the discrete winding integral
    to within ``winding_int_tol`` of the true integer.
    """
    corners = box.corners()
    edges = []
    total = 0
    for k in range(4):
        z0, z1 = corners[k], corners[(k + 1) % 4]
        n0 = max(config.contour_initial_samples, _edge_sample_estimate(f.spec, z0, z1))
        ts = np.linspace(0.0, 1.0, n0 + 1)
        fs, mags = f.with_scale(z0 + (z1 - z0) * ts)
        edges.append({"z0": z0, "z1": z1, "ts": ts, "fs": fs, "mags": mags})
        total += n0 + 1
    if total > config.contour_max_samples:
        raise _BadContour("edge sampling estimate exceeds budget")

    rounds = 0
    while True:
        rounds += 1
        if rounds > 64:
            # each round halves the offending intervals; a feature that
            # survives 64 halvings is noise, not geometry
            raise _BadContour("contour refinement stalled")
        # judge closeness to zeros per point, against the local generic
        # magnitude: large drifts make |det| vary by many orders along a
        # contour without any zero nearby
        rel = min(float(np.min(np.abs(e["fs"]) / e["mags"])) for e in edges)
        if not math.isfinite(rel):
            raise _BadContour("determinant not finite on contour")
        if rel < config.contour_min_modulus_rel:
            raise _BadContour("contour passes too close to a zero")
        inserted = False
        for e in edges:
            dphi = np.angle(e["fs"][1:] / e["fs"][:-1])
            bad = np.abs(dphi) > config.contour_phase_step
            n_bad = int(bad.sum())
            if n_bad == 0:
                continue
            if total + n_bad > config.contour_max_samples:
                raise _BadContour("contour refinement budget exhausted")
            mid_ts = 0.5 * (e["ts"][:-1][bad] + e["ts"][1:][bad])
            mid_fs, mid_mags = f.with_scale(e["z0"] + (e["z1"] - e["z0"]) * mid_ts)
            order = np.argsort(np.concatenate([e["ts"], mid_ts]), kind="stable")
            e["ts"] = np.concatenate([e["ts"], mid_ts])[order]
            e["fs"] = np.concatenate([e["fs"], mid_fs])[order]
            e["mags"] = np.concatenate([e["mags"], mid_mags])[order]
            total += n_bad
            inserted = True
        if not inserted:
            break

    winding = sum(float(np.sum(np.angle(e["fs"][1:] / e["fs"][:-1]))) for e in edges)
    winding /= 2.0 * math.pi
    nearest = round(winding)
    if abs(winding - nearest) > config.winding_int_tol:
        raise _BadContour(f"winding {winding:.3f} not near an integer")
    if nearest < 0:
        raise _BadContour(f"negative winding {nearest}")
    return int(nearest)


def _count_with_dilation(f: CharDeterminant, box: Box,
                         config: SolverConfig) -> tuple[int, Box]:
    """Count zeros, nudging the contour outward when it sits on a zero."""
    last = None
    for k in range(config.contour_dilations + 1):
        b = box if k == 0 else box.dilate(1.0 + config.contour_dilation_step * k)
        try:
            return _winding_count(f, b, config), b
        except _BadContour as exc:
            last = exc
    raise ContourThroughZero(f"contour unusable after "
                             f"{config.contour_dilations} dilations: {last}")


def count_zeros(spec: ProcessSpec, box: Box | tuple,
                config: SolverConfig = DEFAULT_CONFIG) -> int:
    """Zeros (with multiplicity) of the characteristic determinant in a box.

    The box is dilated by up to about one percent when the contour runs
    through a zero; raises :class:`ContourThroughZero` once the dilation
    budget is spent.
    """
    n, _ = _count_with_dilation(CharDeterminant(spec, config), Box(*box), config)
    return n


# ---------------------------------------------------------------------------
# Root polishing
# ---------------------------------------------------------------------------

def _muller_step(f, z0: complex, z1: complex, z2: complex) -> complex:
    f0, f1, f2 = f(z0), f(z1), f(z2)
    h1, h2 = z1 - z0, z2 - z1
    if h1 == 0 or h2 == 0 or (h2 + h1) == 0:
        return z2
    d1 = (f1 - f0) / h1
    d2 = (f2 - f1) / h2
    aa = (d2 - d1) / (h2 + h1)
    bb = aa * h2 + d2
    disc = cmath.sqrt(bb * bb - 4.0 * f2 * aa)
    denom = bb + disc if abs(bb + disc) > abs(bb - disc) else bb - disc
    if denom == 0:
        return z2
    return z2 - 2.0 * f2 / denom

def _polish(f, z0: complex, multiplicity: int,
            config: SolverConfig) -> tuple[complex, float]:
    """Newton iteration (order-aware) with a Mueller fallback on stagnation.

    The derivative is a central difference with step fd_step_scale*(1+|z|);
    for an m-fold zero the step is multiplied by m, restoring quadratic
    convergence.
    """
    def fval(z: complex) -> complex:
        return complex(f(np.asarray([z], dtype=complex))[0])

    z = complex(z0)
    best_z, best_r = z, abs(fval(z))
    stall = 0
    for _ in range(config.newton_max_iter):
        h = config.fd_step_scale * (1.0 + abs(z))
        deriv = (fval(z + h) - fval(z - h)) / (2.0 * h)
        fz = fval(z)
        if deriv == 0:
            z = _muller_step(fval, z - h, z + h, z)
        else:
            z = z - multiplicity * fz / deriv
        r = abs(fval(z))
        if r < best_r:
            best_z, best_r = z, r
            stall = 0
        else:
            stall += 1
        if best_r < config.newton_residual and stall >= 1:
            break
        if stall >= 4:
            z = _muller_step(fval, best_z - h, best_z + h, best_z)
            r = abs(fval(z))
            if r < best_r:
                best_z, best_r = z, r
            stall = 0
    return best_z, best_r


# ---------------------------------------------------------------------------
# Spectrum search
# ---------------------------------------------------------------------------

_SPLIT_FRACTIONS = (0.5, 0.54, 0.46, 0.58, 0.42, 0.62, 0.38, 0.66, 0.34)


def _locate_zeros(f: CharDeterminant, box: Box, count: int,
                  config: SolverConfig, out: list) -> None:
    if count == 0:
        return
    # below this size an m-fold zero's contour values sink into FP noise
    cluster_diag = max(config.cluster_box_diag,
                       config.cluster_rel_diag * (1.0 + abs(box.center)))
    if box.diag <= cluster_diag:
        _append_cluster(f, box, count, config, out)
        return
    if count == 1:
        z, r = _polish(f, box.center, 1, config)
        # strict containment: the counted zero is inside, so a polished root
        # outside the box means Newton drifted to a neighbor
        if r <= config.newton_residual and box.contains(z, margin=1e-9 * (1.0 + box.diag)):
            out.append((z, 1, r))
            return
        # polish wandered or stalled; tighten the box around the zero first
    last = None
    for frac in _SPLIT_FRACTIONS:
        if box.height > box.width and box.im_min < 0.0 < box.im_max:
            # real-coefficient determinant: real-axis zeros sit exactly on
            # an im = 0 split line, so keep the line clear of the axis
            line = box.im_min + frac * box.height
            if abs(line) < 0.02 * box.height:
                continue
        b1, b2 = box.split(frac)
        try:
            c1 = _winding_count(f, b1, config)
            c2 = _winding_count(f, b2, config)
        except _BadContour as exc:
            last = exc
            continue
        if c1 + c2 != count:
            last = _BadContour(f"split miscount {c1}+{c2} != {count}")
            continue
        _locate_zeros(f, b1, c1, config, out)
        _locate_zeros(f, b2, c2, config, out)
        return
    if box.diag <= 0.01 * (1.0 + abs(box.center)):
        # every split line failed on a small box: the contents are one
        # cluster below floating-point resolution (an m-fold zero whose
        # determinant values are noise at this scale)
        _append_cluster(f, box, count, config, out)
        return
    raise ContourThroughZero(f"no usable split line for box {box}: {last}")


def _append_cluster(f: CharDeterminant, box: Box, count: int,
                    config: SolverConfig, out: list) -> None:
    """Report an unresolvable box as one zero of multiplicity ``count``."""
    z, r = _polish(f, box.center, count, config)
    if count > 1 and box.im_min <= 0.0 <= box.im_max:
        # conjugate symmetry: an unresolved cluster straddling the real
        # axis is indistinguishable from a real m-fold zero
        z = complex(z.real, 0.0)
        r = abs(complex(f(np.asarray([z], dtype=complex))[0]))
    out.append((z, count, r))


def _assemble_eigenvalues(raw: list, re_max: float,
                          config: SolverConfig) -> tuple[ComplexEigenvalue, ...]:
    """Deduplicate, enforce conjugate symmetry, and validate residuals."""
    merged: list[list] = []
    for z, m, r in sorted(raw, key=lambda t: (t[0].real, t[0].imag)):
        for g in merged:
            if abs(g[0] - z) <= config.dedup_tol:
                g[1] += m
                g[2] = max(g[2], r)
                break
        else:
            merged.append([z, m, r])

    # pair conjugates and make the symmetry exact; an m-fold zero is located
    # only to about residual^(1/m), so the real-axis snap scales with it
    eigs: list[ComplexEigenvalue] = []
    used = [False] * len(merged)
    base_tol = max(config.dedup_tol, 1e-9 * (1.0 + re_max))
    for i, (z, m, r) in enumerate(merged):
        if used[i]:
            continue
        used[i] = True
        pair_tol = max(base_tol, 10.0 * r ** (1.0 / m))
        if abs(z.imag) <= pair_tol:
            eigs.append(ComplexEigenvalue(complex(z.real, 0.0), m, r))
            continue
        partner = None
        for j in range(i + 1, len(merged)):
            if not used[j] and abs(merged[j][0] - z.conjugate()) <= pair_tol:
                partner = j
                break
        if partner is None:
            eigs.append(ComplexEigenvalue(z, m, r))
            continue
        used[partner] = True
        zj, mj, rj = merged[partner]
        mean = 0.5 * (z + zj.conjugate())
        res = max(r, rj)
        eigs.append(ComplexEigenvalue(complex(mean.real, -abs(mean.imag)), m, res))
        eigs.append(ComplexEigenvalue(complex(mean.real, abs(mean.imag)), mj, res))

    for e in eigs:
        if e.value.real < -1e-9:
            raise JumpdiffError(f"eigenvalue {e.value} has negative real part")
        if e.residual > config.newton_residual:
            raise JumpdiffError(
                f"eigenvalue {e.value} residual {e.residual:.2e} above polish tolerance")
    return tuple(sorted(eigs, key=lambda e: (e.value.real, e.value.imag)))


def find_spectrum(spec: ProcessSpec, re_max: float, im_max: float | None = None,
                  config: SolverConfig = DEFAULT_CONFIG) -> SpectrumReport:
    """All determinant zeros inside [-delta, re_max] x [-im_max, im_max].

    Recursively bisects until each sub-box isolates one zero (a cluster
    smaller than the resolution floor is reported once with its winding
    multiplicity), Newton-polishes each, deduplicates, and extracts the gap
    as the minimal real part over nonzero eigenvalues.

    Raises:
        BoxTooSmall: no nonzero eigenvalue inside the box.
        ContourThroughZero: a zero could not be moved off the contour.
    """
    if not re_max > 0.0:
        raise ValueError("re_max must be positive")
    if im_max is None:
        im_max = config.im_aspect * re_max
    delta = max(0.5, 0.01 * re_max)
    f = CharDeterminant(spec, config)
    count, box = _count_with_dilation(f, Box(-delta, re_max, -im_max, im_max), config)
    raw: list = []
    _locate_zeros(f, box, count, config, raw)
    eigs = _assemble_eigenvalues(raw, re_max, config)

    zero_tol = 1e-8 * (1.0 + re_max)
    if not any(abs(e.value) <= zero_tol for e in eigs):
        raise JumpdiffError("constant eigenfunction (lambda = 0) not found in box")
    nonzero = [e for e in eigs if abs(e.value) > zero_tol]
    if not nonzero:
        raise BoxTooSmall(f"no nonzero eigenvalue below re_max={re_max}; enlarge the box")
    gap = min(e.value.real for e in nonzero)
    imag_tol = config.imag_tol_scale * (1.0 + gap)
    gap_is_real = any(abs(e.value.real - gap) <= config.dedup_tol
                      and abs(e.value.imag) < imag_tol for e in nonzero)
    return SpectrumReport(eigenvalues=eigs, search_box=box, gap=gap, gap_is_real=gap_is_real)


def plateau_scale(spec: ProcessSpec) -> float:
    """8 sigma^2 pi^2 / L^2 without the centered-restart requirement."""
    return 8.0 * spec.sigma**2 * math.pi**2 / spec.length**2


def auto_re_max(spec: ProcessSpec) -> float:
    """Search-box half-width used by the sweep: 2 max(killed bottom, plateau)."""
    return 2.0 * max(dirichlet_bottom(spec), plateau_scale(spec))


def gap_curve(spec_base: ProcessSpec, mu_grid,
              config: SolverConfig = DEFAULT_CONFIG) -> list[tuple[float, float, bool]]:
    """Spectral gap along a drift grid, with the auto-scaled search box.

    Solver errors are re-raised tagged with the offending drift value.
    """
    mu_grid = list(mu_grid)
    if not mu_grid:
        raise ValueError("mu_grid must be nonempty")
    out = []
    for mu in mu_grid:
        spec = spec_base.with_mu(mu)
        try:
            rep = find_spectrum(spec, auto_re_max(spec), config=config)
        except JumpdiffError as exc:
            raise type(exc)(f"mu={mu}: {exc}") from exc
        out.append((float(mu), rep.gap, rep.gap_is_real))
    return out
