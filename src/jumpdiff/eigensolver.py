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
determinant along box contours drives a recursive bisection until each
sub-box isolates one zero (or one unresolvable cluster, reported with its
multiplicity), followed by order-aware Newton polishing.  A winding count
tracks the phase on one sample array around the closed contour and halves
every interval whose phase step, or whose length times the exact |D'/D| at
its ends, exceeds a fixed step (Kravanja & Van Barel, Computing the Zeros of
Analytic Functions, 2000).  The array is kept with the count: a split
samples only its new line, and each half winds around the parent's refined
samples on its other three sides, so only the line and the intervals next
to its ends cost kernel calls.  One kernel evaluates the determinant, its
generic magnitude ``mag`` and its exact lambda-derivative; there is no
finite difference.  Residuals are |det| relative to ``mag``.

The same samples give, by the trapezoid rule, the power sums s_k = (1/2 pi
i) oint zeta^k D'/D dz, k = 1..MOMENT_MAX_ZEROS, of the enclosed zeros in
the box's own coordinate zeta = (z - centre) / half-diagonal (Delves &
Lyness, Math. Comp. 21, 1967).  Newton starts from them, not from the box
centre.  In a box with m <= MOMENT_MAX_ZEROS zeros, Newton's identities turn
s_1..s_m into the coefficients of the monic polynomial whose roots are the
zeros, and a plain-Python Durand-Kerner iteration gives its m roots as the
starts; an unresolved m-fold cluster starts from s_1 / m.  A box whose
starts, polishes or root iteration fail is split.  Every start of a solve
is polished together, one kernel call per Newton round.

The determinant is real on the real axis, so its zeros below the axis are
the conjugates of those above it.  The search box is symmetric about the
axis and no split line comes within 2% of a box's height of it, so only
boxes meeting the closed upper half-plane are searched: a box wholly below
the axis is wound once, to check its parent's split, and never entered.
Each zero found above the axis is reported with its conjugate, one within
the real-axis tolerance is real, and one below is dropped.  The
multiplicities must then add up to the search box's winding count.

Tolerances are the upper-case constants below, read at call time; the
``SolverConfig`` a ``CharDeterminant`` carries holds only ``newton_residual``
and the default ``find_spectrum`` height ``im_aspect``.

Gap-only solves (``gap_curve``) search a box certified to hold every
eigenvalue below its right edge: all zeros lie in a vertical strip
|Re q| < X of the q-plane (Bellman & Cooke, Differential-Difference
Equations, 1963, ch. 12), which bounds |Im lambda| for each Re lambda.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .analytic import _plateau, dirichlet_bottom
from .errors import BoxTooSmall, ConfigError, ContourThroughZero, JumpdiffError
from .model import DEFAULT_CONFIG, ComplexEigenvalue, ProcessSpec, SolverConfig

# |q d| below which a term sinh(q d)/q and its derivative take their series;
# at 1e-2 the derivative's cancellation (eps / |q d|^3) and the series'
# truncation ((q d)^4 / 840) both stay near 1e-10 relative
SINCH_SERIES_CUTOFF = 1e-2
NEWTON_MAX_ITER = 50
DEDUP_TOL = 1e-7
IMAG_TOL_SCALE = 1e-6
WINDING_INT_TOL = 0.25
CONTOUR_PHASE_STEP = 0.9
CONTOUR_INITIAL_SAMPLES = 48
CONTOUR_MAX_SAMPLES = 40_000
CONTOUR_MIN_MODULUS_REL = 1e-9   # |det| / generic magnitude, per point
CONTOUR_DILATIONS = 8
CONTOUR_DILATION_STEP = 0.00125
CLUSTER_BOX_DIAG = 1e-4          # stop bisecting; treat content as one multiple zero
CLUSTER_REL_DIAG = 1e-5          # scale-relative part of the same cutoff
MOMENT_MAX_ZEROS = 4             # boxes with up to this many zeros polish from moments
GAP_CACHE_SIZE = 1024            # specs whose gap one process remembers


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

    def contains(self, z: complex) -> bool:
        return (self.re_min <= z.real <= self.re_max
                and self.im_min <= z.imag <= self.im_max)

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


class _Terms(NamedTuple):
    """Term table of the determinant, built once per spec (see CharDeterminant)."""

    dist2: np.ndarray      # (2K, 1): +d_k then -d_k, the exponent factors of q
    shift2: np.ndarray     # (2K, 1): -g c_k, repeated for both signs
    dist_abs2: np.ndarray  # (2K, 1): d_k for both signs
    rows: np.ndarray       # (2, 2K): weights of sinh(q d) and of d cosh(q d)
    mag_row: np.ndarray    # (2K,): |w_k| / 2, the magnitude weights
    weight: np.ndarray     # (K,): w_k, for the term-by-term series branch
    q_series: float        # |q| below which some term takes its series branch


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
    computed at full relative accuracy for arbitrarily large |lambda|.  Each
    term is w_k exp(-g c_k) sinh(q d_k) / q, with distances d_k = L, d_i,
    L - d_i, shifts c_k = L, d_i, L + d_i and weights 1, -w_i, -w_i; the
    table is built once, and one ``np.exp`` over all terms and points
    evaluates the sum.  Where |q d_k| is below SINCH_SERIES_CUTOFF that
    term takes its Taylor series instead, so the basis passes smoothly
    through q = 0.  The whole sum is further scaled by exp(-s),
    s = max(0, (Re q - g) (b - a)), a positive factor that keeps magnitudes
    O(1) without moving zeros or phases.  Negative drift is evaluated
    through interval reflection x -> a + b - x, which maps eigenfunctions to
    eigenfunctions and multiplies the determinant by the positive factor
    exp(-2 |g| (b - a)); the table then holds the atoms in reflected order.
    """

    spec: ProcessSpec
    config: SolverConfig = DEFAULT_CONFIG

    def __post_init__(self):
        spec = self.spec
        atoms = spec.nu.atoms
        if spec.mu < 0.0:
            # interval reflection x -> a + b - x turns the drift positive
            atoms = sorted((spec.a + spec.b - x, w) for x, w in atoms)
        gamma = abs(spec.mu) / spec.sigma**2
        L = spec.length
        dist, shift, weight = [L], [-gamma * L], [1.0]
        for x_i, w_i in atoms:
            d_i = x_i - spec.a
            dist += [d_i, L - d_i]
            shift += [-gamma * d_i, -gamma * (L + d_i)]
            weight += [-w_i, -w_i]
        d, c, w = np.array(dist), np.array(shift), np.array(weight)
        both = np.concatenate
        object.__setattr__(self, "_terms", _Terms(
            dist2=both([d, -d])[:, None],
            shift2=both([c, c])[:, None],
            dist_abs2=both([d, d])[:, None],
            rows=np.array([both([0.5 * w, -0.5 * w]), both([0.5 * w * d, 0.5 * w * d])],
                          dtype=complex),
            mag_row=both([0.5 * np.abs(w), 0.5 * np.abs(w)]),
            weight=w,
            q_series=SINCH_SERIES_CUTOFF / float(d.min()),
        ))

    def _kernel(self, lam_arr: np.ndarray, deriv: bool):
        """(det, mag, dD/dlambda or None) on an array, all at the exp(-s) scale.

        The derivative holds s fixed, so det / deriv is the exact Newton step
        of the unscaled determinant.  With dq/dlambda = -1 / (sigma^2 q), a
        term's derivative is -w exp(-g c - s) (q d cosh(q d) - sinh(q d)) /
        (sigma^2 q^3); its series branch is -w exp(-g c - s) d^3 (1/3 +
        (q d)^2 / 30) / sigma^2.
        """
        spec, t = self.spec, self._terms
        sig2 = spec.sigma**2
        q = np.sqrt(spec.mu**2 - 2.0 * sig2 * lam_arr + 0j) / sig2
        s = (q.real - abs(spec.mu) / sig2) * spec.length
        np.maximum(s, 0.0, out=s)
        shifted = t.shift2 - s
        e = np.exp(q * t.dist2 + shifted)
        abs_q = np.abs(q)
        series = abs_q < t.q_series
        any_series = series.any()
        if any_series:
            # these points are recomputed term by term below
            q_div, abs_q = np.where(series, 1.0, q), np.where(series, 1.0, abs_q)
        else:
            q_div = q
        sinh_sum = t.rows[0] @ e
        det = sinh_sum / q_div
        mag = t.mag_row @ (np.abs(e) * np.minimum(t.dist_abs2, 1.0 / abs_q))
        ddet = ((sinh_sum - q_div * (t.rows[1] @ e)) / (sig2 * q_div**3)
                if deriv else None)
        if any_series:
            idx = np.flatnonzero(series)
            k = t.weight.size
            d = t.dist2[:k]
            qi, ep, em = q[idx], e[:k, idx], e[k:, idx]
            qd = qi * d
            small = np.abs(qd) < SINCH_SERIES_CUTOFF
            qs = np.where(small, 1.0, qi)
            base = np.exp(shifted[:k, idx])
            val = np.where(small, base * d * (1.0 + qd**2 / 6.0 + qd**4 / 120.0),
                           0.5 * (ep - em) / qs)
            bound = np.where(small, np.abs(val), 0.5 * (np.abs(ep) + np.abs(em))
                             * np.minimum(d, 1.0 / np.abs(qs)))
            det[idx] = t.weight @ val
            mag[idx] = np.abs(t.weight) @ bound
            if deriv:
                dval = np.where(small, -base * d**3 * (1.0 / 3.0 + qd**2 / 30.0),
                                (0.5 * (ep - em) - qd * 0.5 * (ep + em)) / qs**3) / sig2
                ddet[idx] = t.weight @ dval
        return det, mag, ddet

    def with_scale(self, lam_arr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Determinant values and their generic magnitude on an array.

        The magnitude is the sum of the term bounds 0.5 (|e^{+}| + |e^{-}|)
        min(d, 1/|q|) (|series| on the series branch); it stays finite as
        q -> 0 because |sinh(q d) / q| <= d cosh(Re q d).  |det| near it
        means the point is far from any zero, however large the
        drift-induced dynamic range across a contour.
        """
        det, mag, _ = self._kernel(lam_arr, False)
        return det, mag

    def with_derivative(self, lam_arr: np.ndarray
                        ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``with_scale`` plus dD/dlambda at the same scale, in one kernel call."""
        return self._kernel(lam_arr, True)

    def __call__(self, lam):
        lam_arr = np.atleast_1d(np.asarray(lam, dtype=complex))
        det, _ = self.with_scale(lam_arr)
        if np.isscalar(lam) or np.asarray(lam).ndim == 0:
            return complex(det[0])
        return det

    def log_scale(self, lam) -> float:
        """log of the positive rescaling at lambda; det * exp(log_scale)
        recovers the unscaled boundary determinant (oracle comparisons).

        For mu < 0 it includes the factor exp(2 |g| (b - a)) between the
        determinant of the reflected problem and that of the original one.
        """
        spec = self.spec
        sig2 = spec.sigma**2
        gamma = abs(spec.mu) / sig2
        q = cmath.sqrt(spec.mu**2 - 2.0 * sig2 * complex(lam)) / sig2
        reflect = 2.0 * gamma * spec.length if spec.mu < 0.0 else 0.0
        return max(0.0, (q.real - gamma) * spec.length) + reflect

    def re_q_bound(self) -> float:
        """X with |Re q| < X at every zero (Bellman & Cooke 1963, ch. 12).

        Divided by e^{qL}, 2 q e^{gL} D is 1 plus terms of modulus
        |w_k| exp(g (L - c_k) - x (L -+ d_k)) at Re q = x >= 0, all
        decreasing in x.  Where they sum below 1 the determinant cannot
        vanish, and D is even in q.  X is the upper end of a bisection of
        that sum against 1, with a fixed step budget.
        """
        t = self._terms
        L = self.spec.length
        gamma = abs(self.spec.mu) / self.spec.sigma**2
        # every term but the leading e^{qL}: log-modulus offset and slope in x
        offset = (np.log(2.0 * t.mag_row) + t.shift2[:, 0] + gamma * L)[1:].tolist()
        slope = (t.dist2[:, 0] - L)[1:].tolist()
        terms = list(zip(offset, slope))

        def dominated(x: float) -> bool:
            # a few terms: plain floats beat NumPy's per-call cost; a term of
            # modulus >= 1 settles the test and keeps math.exp from overflowing.
            # Each exponent, of size up to (g + 2 x) L, is rounded relative to
            # that size, so the sum must stay below 1 by that much to spare
            powers = [o + s * x for o, s in terms]
            return max(powers) < 0.0 and (math.fsum(map(math.exp, powers))
                                          < 1.0 - 1e-15 * (1.0 + (gamma + 2.0 * x) * L))

        lo, hi = 0.0, gamma + 1.0 / L
        for _ in range(64):
            if dominated(hi):
                break
            lo, hi = hi, 2.0 * hi
        else:
            raise JumpdiffError(f"no zero-free half-plane of q found below Re q = {hi}")
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if dominated(mid):
                hi = mid
            else:
                lo = mid
        return hi


# ---------------------------------------------------------------------------
# Winding numbers
# ---------------------------------------------------------------------------

class _BadContour(Exception):
    """Internal: contour too close to a zero, or refinement budget spent."""


class _Winding(NamedTuple):
    """Zero count of a box, the power sums s_1..s_MOMENT_MAX_ZEROS of its
    zeros in the box coordinate zeta = (z - centre) / half-diagonal, and the
    refined samples that gave them: rows z, D and D'/D once around the
    closed contour from the corner (re_min, im_min)."""

    count: int
    sums: tuple[complex, ...]
    samples: np.ndarray | None


def _halved(samples: np.ndarray, cut: np.ndarray, sample=None) -> np.ndarray:
    """The samples with the midpoint of each interval in ``cut`` inserted,
    with its D and D'/D from ``sample``, or NaN until evaluated."""
    mid = np.full((3, cut.size), complex(math.nan))
    mid[0] = 0.5 * (samples[0, cut] + samples[0, cut + 1])
    if sample is not None:
        mid[1:] = sample(mid[0])
    return np.insert(samples, cut + 1, mid, axis=1)


def _winding_count(f: CharDeterminant, box: Box, samples: np.ndarray | None = None
                   ) -> _Winding:
    """Number of determinant zeros inside the box by adaptive phase tracking,
    with the first MOMENT_MAX_ZEROS power sums of those zeros.

    One array of samples runs once around the closed contour.  A fresh one
    has CONTOUR_INITIAL_SAMPLES intervals per edge.  ``samples`` from
    ``_split`` hold a parent's refined samples on three sides and a new
    split line; every edge of fewer than CONTOUR_INITIAL_SAMPLES // 2
    intervals first has them halved until it has that many, so the power
    sums stay as good as a fresh contour's.  The samples whose D is NaN are
    evaluated in one kernel call.  Each refinement round then inserts a
    midpoint into every interval whose phase step |delta arg D| exceeds
    CONTOUR_PHASE_STEP radians, or whose length times the larger |D'/D| at
    its ends does, in one more call.  An interval of a refined parent passes
    again, so only new ones cost points.  D'/D comes exact from the same
    call as D, and it bounds the phase a step can hide: passing near an
    m-fold zero at distance r, |D'/D| is about m / r, so a full turn cannot
    alias to a small step.  The summed phase steps are then within
    WINDING_INT_TOL of the true integer.  The contour is unusable
    (``_BadContour``) where |det| falls below CONTOUR_MIN_MODULUS_REL times
    ``mag``, or where refinement needs more than CONTOUR_MAX_SAMPLES points.

    The power sums s_k = (1/2 pi i) oint zeta^k D'/D dz, k = 1..
    MOMENT_MAX_ZEROS, with zeta = (z - centre) / half-diagonal, are the
    trapezoid rule on the final samples and their D'/D: no further kernel
    call.  They give the Newton starts of ``_locate_zeros``.
    """
    def sample(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        det, mag, ddet = f.with_derivative(z)
        # det and mag underflow together at extreme drift; closeness to a
        # zero is judged per point against the local generic magnitude,
        # since large drifts make |det| vary by many orders along a contour
        if not (np.isfinite(det).all() and (mag > 0.0).all()):
            raise _BadContour("determinant not finite on contour")
        if (np.abs(det) < CONTOUR_MIN_MODULUS_REL * mag).any():
            raise _BadContour("contour passes too close to a zero")
        return det, ddet / det

    n = CONTOUR_INITIAL_SAMPLES
    c = np.array(box.corners())
    if samples is None:
        samples = np.full((3, 4 * n + 1), complex(math.nan))
        samples[0, :-1] = (c[:, None] + (np.roll(c, -1) - c)[:, None] * (np.arange(n) / n)).ravel()
        samples[0, -1] = c[0]
    else:
        while True:
            ends = (samples[0, :, None] == c).argmax(axis=0).tolist()
            edges = np.diff(ends + [samples.shape[1] - 1])
            if edges.min() >= n // 2:
                break
            samples = _halved(samples, np.repeat(edges < n // 2, edges).nonzero()[0])
    new = np.isnan(samples[1]).nonzero()[0]
    if new.size:
        samples[1:, new] = sample(samples[0, new])
    # each round halves the offending intervals; a feature that survives 64
    # halvings is noise, not geometry
    for _ in range(64):
        z, fs, logd = samples
        dphi = np.angle(fs[1:] / fs[:-1])
        rate = np.abs(logd)
        reach = np.maximum(rate[:-1], rate[1:]) * np.abs(z[1:] - z[:-1])
        bad = ((np.abs(dphi) > CONTOUR_PHASE_STEP) | (reach > CONTOUR_PHASE_STEP)).nonzero()[0]
        if bad.size == 0:
            break
        if z.size + bad.size > CONTOUR_MAX_SAMPLES:
            raise _BadContour("contour refinement budget exhausted")
        samples = _halved(samples, bad, sample)
    else:
        raise _BadContour("contour refinement stalled")

    winding = float(dphi.sum()) / (2.0 * math.pi)
    nearest = round(winding)
    if abs(winding - nearest) > WINDING_INT_TOL:
        raise _BadContour(f"winding {winding:.3f} not near an integer")
    if nearest < 0:
        raise _BadContour(f"negative winding {nearest}")
    zeta = (z - box.center) / (0.5 * box.diag)
    g = zeta * logd
    dz = (z[1:] - z[:-1]) / (4j * math.pi)   # trapezoid weight over 2 pi i
    sums = []
    for _ in range(MOMENT_MAX_ZEROS):
        sums.append(complex(dz @ (g[:-1] + g[1:])))
        g *= zeta
    return _Winding(int(nearest), tuple(sums), samples)


def _count_with_dilation(f: CharDeterminant, box: Box) -> tuple[_Winding, Box]:
    """Count zeros of a search box, nudging its contour outward when it sits
    on a zero: up to CONTOUR_DILATIONS times, by CONTOUR_DILATION_STEP more
    each time (about one percent in all).  Returns the winding count and
    power sums, and the box it counted."""
    last = None
    for k in range(CONTOUR_DILATIONS + 1):
        b = box if k == 0 else box.dilate(1.0 + CONTOUR_DILATION_STEP * k)
        try:
            return _winding_count(f, b), b
        except _BadContour as exc:
            last = exc
    raise ContourThroughZero(f"contour unusable after "
                             f"{CONTOUR_DILATIONS} dilations: {last}")


def count_zeros(spec: ProcessSpec, box: Box | tuple) -> int:
    """Zeros (with multiplicity) of the characteristic determinant in exactly
    the given box, from one winding count along its contour.

    Raises :class:`ContourThroughZero`, naming the box, when the contour
    passes within CONTOUR_MIN_MODULUS_REL of a zero or its phase cannot be
    resolved in CONTOUR_MAX_SAMPLES points; the box is never moved.  Raises
    :class:`ConfigError` for an empty, inverted or non-finite box.
    """
    box = Box(*box)
    if not (-math.inf < box.re_min < box.re_max < math.inf
            and -math.inf < box.im_min < box.im_max < math.inf):
        raise ConfigError(f"box needs finite edges with min < max, got {box}")
    try:
        return _winding_count(CharDeterminant(spec), box).count
    except _BadContour as exc:
        raise ContourThroughZero(f"contour of box {box} unusable: {exc}") from exc


# ---------------------------------------------------------------------------
# Root polishing
# ---------------------------------------------------------------------------

def _polish(f: CharDeterminant, jobs: list) -> list[tuple[complex, float, float]]:
    """Order-aware Newton iteration from each start of ``jobs``, a list of
    (box, multiplicity, start), all iterates together.

    The starts come from the boxes' power sums (``_winding_count``), which
    place each within a small fraction of its box diagonal of the zero.
    Each round is one kernel call over every iterate still running, which
    returns the determinant, its magnitude and its exact derivative at the
    same scale, so D / D' is the true Newton step; for an m-fold zero the
    step is multiplied by m, restoring quadratic convergence.  An iterate
    stops when it leaves its box, when its step is at floating-point
    resolution, after four steps without improvement, after NEWTON_MAX_ITER
    steps, or once its residual |det| / mag is below
    ``f.config.newton_residual`` and no longer improving.  Returns, job by
    job, the best iterate, its residual, and the length of the Newton step
    there: a point of small residual that is not a zero (near a cluster,
    with the next step leaving the box) still has a long step.
    """
    if not jobs:
        return []
    re_min, re_max, im_min, im_max = np.array([box for box, _, _ in jobs]).T
    mult = np.array([m for _, m, _ in jobs], dtype=float)
    z = np.array([start for _, _, start in jobs], dtype=complex)

    def newton_data(run: np.ndarray, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        det, mag, ddet = f.with_derivative(points)
        # infinite where D' vanishes, which ends the iteration at the box edge
        step = np.full(points.size, complex(math.inf))
        np.divide(mult[run] * det, ddet, out=step, where=ddet != 0)
        return np.abs(det) / mag, step

    run = np.arange(z.size)             # the iterates still running
    best_r, step = newton_data(run, z)
    best_z, best_step = z.copy(), np.abs(step)
    stall = np.zeros(z.size, dtype=int)
    for _ in range(NEWTON_MAX_ITER):
        moved = z[run] - step[run]
        keep = ((re_min[run] <= moved.real) & (moved.real <= re_max[run])
                & (im_min[run] <= moved.imag) & (moved.imag <= im_max[run])
                & (np.abs(step[run]) > 2.0 * np.finfo(float).eps * (1.0 + np.abs(moved))))
        run, moved = run[keep], moved[keep]
        if not run.size:
            break
        z[run] = moved
        r, step[run] = newton_data(run, moved)
        better = r < best_r[run]
        up = run[better]
        best_z[up], best_r[up], best_step[up] = moved[better], r[better], np.abs(step[up])
        stall[run] = np.where(better, 0, stall[run] + 1)
        done = (stall[run] >= 4) | ((best_r[run] < f.config.newton_residual)
                                    & (stall[run] >= 1))
        run = run[~done]
    return list(zip(best_z.tolist(), best_r.tolist(), best_step.tolist()))


# ---------------------------------------------------------------------------
# Spectrum search
# ---------------------------------------------------------------------------

_SPLIT_FRACTIONS = (0.5, 0.54, 0.46, 0.58, 0.42, 0.62, 0.38, 0.66, 0.34)


def _moment_starts(box: Box, w: _Winding) -> list[complex] | None:
    """Newton starts of a box with m = count <= MOMENT_MAX_ZEROS zeros from
    its power sums, or None if their root iteration does not settle.

    Newton's identities k c_k = -(c_{k-1} s_1 + ... + c_0 s_k), c_0 = 1,
    give the monic polynomial zeta^m + c_1 zeta^(m-1) + ... + c_m whose
    roots are the zeros in the box coordinate.  Its roots come from a
    Durand-Kerner iteration in plain Python (``np.roots`` would load
    LAPACK), stopped once no root moves by more than 1e-10: they are only
    starts.
    """
    m = w.count
    coef = [1.0 + 0j]
    for k in range(1, m + 1):
        coef.append(-sum(coef[k - i] * w.sums[i - 1] for i in range(1, k + 1)) / k)
    zetas = [(0.4 + 0.9j) ** i for i in range(m)]
    for _ in range(100):   # Durand-Kerner, each root updated in turn
        moved = 0.0
        for i, x in enumerate(zetas):
            value = 0j
            for c in coef:
                value = value * x + c
            denom = 1.0 + 0j
            for j, y in enumerate(zetas):
                if j != i:
                    denom *= x - y
            if denom == 0:
                return None
            step = value / denom
            zetas[i] = x - step
            moved = max(moved, abs(step))
        if moved <= 1e-10:
            return [box.center + 0.5 * box.diag * zeta for zeta in zetas]
    return None


def _moment_roots(f: CharDeterminant, box: Box, polished: list,
                  min_sep: float) -> list | None:
    """The zeros of a box with up to MOMENT_MAX_ZEROS zeros from the polishes
    of its moment starts (``_moment_starts``), or None to split the box.

    None unless every polish converged in the box and every two roots are
    more than ``min_sep`` apart.  A polish has converged when its residual
    is within ``newton_residual`` and its last Newton step is below 1e-3
    ``min_sep``: next to a cluster the residual alone can pass a point a few
    thousandths away from any zero.  The iterate never leaves the box, so
    converged polishes are the counted zeros and not neighbours.  Hence a
    root whose conjugate lies in the box within ``min_sep`` of it is real,
    since that conjugate would be one more zero; it is reported on the
    axis, because next to another zero its polish can end further off the
    axis than ``_assemble_eigenvalues`` allows.
    """
    roots = []
    for z, r, step in polished:
        if r > f.config.newton_residual or step > 1e-3 * min_sep:
            return None
        if any(abs(z - other) <= min_sep for other, _, _ in roots):
            return None
        roots.append((z, 1, r))
    return [(complex(z.real, 0.0) if 2.0 * abs(z.imag) <= min_sep
             and box.contains(z.conjugate()) else z, 1, r) for z, _, r in roots]


class _Leaf(NamedTuple):
    """A box whose zeros are polished, not split: one cluster of ``count``
    zeros from their centroid, or up to MOMENT_MAX_ZEROS simple zeros from
    their moment starts.  Only a moment leaf, which goes back to splitting
    if its polish fails, keeps its contour samples."""

    box: Box
    winding: _Winding
    min_sep: float
    cluster: bool
    starts: list


def _locate_zeros(f: CharDeterminant, box: Box, w: _Winding) -> list:
    """Zeros (z, multiplicity, residual) of the box on and above the real axis.

    Boxes are wound and split down to leaves: a box below the cluster size,
    or one of up to MOMENT_MAX_ZEROS zeros whose moment starts settle inside
    it.  Every start of every leaf is then polished in one Newton pass
    (``_polish``), and a moment leaf that fails ``_moment_roots`` goes back
    to splitting, until no box is left.
    """
    out, snap = [], []
    pending = [(box, w, True)]
    while pending:
        leaves = []
        while pending:
            box, w, try_moments = pending.pop()
            if w.count == 0 or box.im_max < 0.0:
                # a box below the real axis holds the conjugates of zeros above it
                continue
            # below this size an m-fold zero's contour values sink into FP noise
            cluster_diag = max(CLUSTER_BOX_DIAG, CLUSTER_REL_DIAG * (1.0 + abs(box.center)))
            centroid = [box.center + 0.5 * box.diag * w.sums[0] / w.count]
            if box.diag <= cluster_diag:
                leaves.append(_Leaf(box, w._replace(samples=None), cluster_diag, True, centroid))
                continue
            if try_moments and w.count <= MOMENT_MAX_ZEROS:
                starts = _moment_starts(box, w)
                if starts is not None and all(box.contains(z) for z in starts):
                    leaves.append(_Leaf(box, w, cluster_diag, False, starts))
                    continue
            halves = _split(f, box, w)
            if halves is None:
                leaves.append(_Leaf(box, w._replace(samples=None), cluster_diag, True, centroid))
            else:
                pending += [(b, wb, True) for b, wb in halves]
        polished = iter(_polish(f, [(leaf.box, leaf.winding.count if leaf.cluster else 1, z)
                                    for leaf in leaves for z in leaf.starts]))
        for leaf in leaves:
            box, count = leaf.box, leaf.winding.count
            if not leaf.cluster:
                roots = _moment_roots(f, box, [next(polished) for _ in leaf.starts],
                                      leaf.min_sep)
                if roots is None:
                    pending.append((box, leaf.winding, False))
                else:
                    out += roots
                continue
            # an unresolvable box is one zero of multiplicity count
            z, r, _ = next(polished)
            if count > 1 and box.im_min <= 0.0 <= box.im_max:
                # conjugate symmetry: an unresolved cluster straddling the real
                # axis is indistinguishable from a real m-fold zero
                z = complex(z.real, 0.0)
                snap.append(len(out))
            out.append((z, count, r))
    if snap:
        det, mag = f.with_scale(np.array([out[k][0] for k in snap]))
        for k, r in zip(snap, (np.abs(det) / mag).tolist()):
            out[k] = (out[k][0], out[k][1], r)
    return out


def _split(f: CharDeterminant, box: Box, w: _Winding) -> list | None:
    """The two halves of the box and their windings, at the first split line
    whose windings add up to the box's; None when every line fails on a box
    so small that its contents are one cluster.

    Only the split line is sampled afresh.  The first half, which holds the
    box's corner (re_min, im_min), winds around the box's refined samples
    short of the line and the line itself; the second around the samples
    past the line and the line as refined for the first half, read
    backwards.

    Raises:
        ContourThroughZero: every split line failed on a larger box.
    """
    last, n = None, CONTOUR_INITIAL_SAMPLES
    vertical = box.width >= box.height
    along = w.samples[0].real if vertical else w.samples[0].imag
    for frac in _SPLIT_FRACTIONS:
        if not vertical and box.im_min < 0.0 < box.im_max:
            # real-coefficient determinant: real-axis zeros sit exactly on
            # an im = 0 split line, so keep the line clear of the axis
            line = box.im_min + frac * box.height
            if abs(line) < 0.02 * box.height:
                continue
        b1, b2 = box.split(frac)
        cut = b1.re_max if vertical else b1.im_max
        # the samples at or past the line run from a to e - 1; one that lies
        # on it is an end of the line, and is not evaluated again
        a = int(np.argmax(along >= cut))
        e = along.size - int(np.argmax(along[::-1] > cut))
        on_a, on_e = int(along[a] == cut), int(along[e] == cut)
        start, end = b1.corners()[1:3] if vertical else b1.corners()[2:]
        line = np.full((3, n + 1), complex(math.nan))
        line[0] = start + (end - start) * (np.arange(n + 1) / n)
        line[0, -1] = end
        if on_a:
            line[1:, 0] = w.samples[1:, a]
        if on_e:
            line[1:, -1] = w.samples[1:, e]
        try:
            w1 = _winding_count(f, b1, np.concatenate(
                (w.samples[:, :a], line, w.samples[:, e + on_e:]), axis=1))
            z = w1.samples[0]
            line = w1.samples[:, int(np.argmax(z == start)):int(np.argmax(z == end)) + 1]
            inner = w.samples[:, a + on_a:e]
            w2 = _winding_count(f, b2, np.concatenate(
                (line[:, :1], inner, line[:, ::-1]) if vertical
                else (line[:, ::-1], inner, line[:, -1:]), axis=1))
        except _BadContour as exc:
            last = exc
            continue
        if w1.count + w2.count != w.count:
            last = _BadContour(f"split miscount {w1.count}+{w2.count} != {w.count}")
            continue
        return [(b1, w1), (b2, w2)]
    if box.diag <= 0.01 * (1.0 + abs(box.center)):
        # every split line failed on a small box: the contents are one
        # cluster below floating-point resolution (an m-fold zero whose
        # determinant values are noise at this scale)
        return None
    raise ContourThroughZero(f"no usable split line for box {box}: {last}")


def _assemble_eigenvalues(raw: list, count: int, re_max: float,
                          residual: float) -> tuple[ComplexEigenvalue, ...]:
    """Eigenvalues from the zeros found on and above the real axis.

    A zero within the real-axis tolerance is real (an m-fold zero is located
    only to about residual^(1/m), so the tolerance scales with it), one above
    is reported with its conjugate at the same multiplicity and residual, and
    one below is dropped.  The multiplicities must add up to ``count``, the
    box's winding count, and every residual must be within ``residual``.
    """
    eigs: list[ComplexEigenvalue] = []
    base_tol = max(DEDUP_TOL, 1e-9 * (1.0 + re_max))
    for z, m, r in raw:
        if abs(z.imag) <= max(base_tol, 10.0 * r ** (1.0 / m)):
            eigs.append(ComplexEigenvalue(complex(z.real, 0.0), m, r))
        elif z.imag > 0.0:
            eigs += [ComplexEigenvalue(z, m, r), ComplexEigenvalue(z.conjugate(), m, r)]
    found = sum(e.multiplicity for e in eigs)
    if found != count:
        raise JumpdiffError(f"multiplicities add up to {found}, "
                            f"but the box winds around {count} zeros")
    for e in eigs:
        if e.value.real < -_zero_tol(re_max):
            raise JumpdiffError(f"eigenvalue {e.value} has negative real part")
        if e.residual > residual:
            raise JumpdiffError(
                f"eigenvalue {e.value} residual {e.residual:.2e} above polish tolerance")
    return tuple(sorted(eigs, key=lambda e: (e.value.real, e.value.imag)))


def _zero_tol(re_max: float) -> float:
    """Distance from 0 within which a polished zero is lambda = 0, relative
    to the box scale; no eigenvalue lies further left of the imaginary axis."""
    return 1e-8 * (1.0 + re_max)


def _search_box(re_max: float, im_max: float) -> Box:
    """[-delta, re_max] x [-im_max, im_max]; delta keeps lambda = 0 off the contour."""
    delta = max(0.5, 0.01 * re_max)
    return Box(-delta, re_max, -im_max, im_max)


def find_spectrum(spec: ProcessSpec, re_max: float, im_max: float | None = None,
                  config: SolverConfig = DEFAULT_CONFIG) -> SpectrumReport:
    """All determinant zeros inside [-delta, re_max] x [-im_max, im_max].

    Recursively bisects until each sub-box isolates one zero (a cluster
    smaller than the resolution floor is reported once with its winding
    multiplicity) and Newton-polishes each, on and above the real axis only,
    adds the conjugates, and extracts the gap as the minimal real part over
    nonzero eigenvalues.  ``im_max`` defaults to ``config.im_aspect *
    re_max``.  A contour through a zero is dilated (see
    ``_count_with_dilation``), and the box searched is reported as
    ``search_box``.

    Raises:
        ConfigError: re_max or im_max is not finite and positive.
        BoxTooSmall: no nonzero eigenvalue inside the box.
        ContourThroughZero: a zero could not be moved off the contour.
    """
    if im_max is None:
        im_max = config.im_aspect * re_max
    if not (0.0 < re_max < math.inf and 0.0 < im_max < math.inf):
        raise ConfigError(f"re_max and im_max must be finite and positive, "
                          f"got {re_max}, {im_max}")
    f = CharDeterminant(spec, config)
    w, box = _count_with_dilation(f, _search_box(re_max, im_max))
    return _solve_counted(f, w, box, re_max)


def _solve_counted(f: CharDeterminant, w: _Winding, box: Box, re_max: float) -> SpectrumReport:
    """The report of :func:`find_spectrum` for a box whose winding count and
    power sums are known."""
    raw = _locate_zeros(f, box, w)
    eigs = _assemble_eigenvalues(raw, w.count, re_max, f.config.newton_residual)

    zero_tol = _zero_tol(re_max)
    if not any(abs(e.value) <= zero_tol for e in eigs):
        raise JumpdiffError("constant eigenfunction (lambda = 0) not found in box")
    nonzero = [e for e in eigs if abs(e.value) > zero_tol]
    if not nonzero:
        raise BoxTooSmall(f"no nonzero eigenvalue below re_max={re_max}; enlarge the box")
    gap = min(e.value.real for e in nonzero)
    imag_tol = IMAG_TOL_SCALE * (1.0 + gap)
    gap_is_real = any(abs(e.value.real - gap) <= DEDUP_TOL
                      and abs(e.value.imag) < imag_tol for e in nonzero)
    return SpectrumReport(eigenvalues=eigs, search_box=box, gap=gap, gap_is_real=gap_is_real)


def auto_re_max(spec: ProcessSpec) -> float:
    """Search-box half-width: 2 max(killed bottom, 8 sigma^2 pi^2 / L^2).

    The second term is the plateau value, here without the centered-restart
    requirement of :func:`analytic.theoretical_gap`.
    """
    return 2.0 * max(dirichlet_bottom(spec), _plateau(spec))


def _gap_window(f: CharDeterminant) -> tuple[_Winding, Box, float]:
    """(winding, box, re_max) of the smallest certified box holding a nonzero zero.

    Every zero has |Re q| < X (``CharDeterminant.re_q_bound``), and with
    lambda = (mu^2 - sigma^4 q^2) / (2 sigma^2) every eigenvalue with
    Re lambda <= R then has |Im lambda| <= X sqrt(2 sigma^2 R - mu^2 +
    sigma^4 X^2).  So the box of that height holds all of them, and its
    lowest nonzero zero is the gap (X > |mu| / sigma^2, so the root is
    real).  R starts at 0.6 of the plateau 8 sigma^2 pi^2 / L^2 and doubles,
    on winding counts alone, until the box holds a zero besides lambda = 0.
    The winding count, its power sums and the (possibly dilated) box are
    those of the last round, so the solve need not wind around the box
    again.

    Raises:
        BoxTooSmall: still no nonzero zero at ``auto_re_max(spec)``.
    """
    spec = f.spec
    x = f.re_q_bound()
    sig2 = spec.sigma**2
    cap = auto_re_max(spec)
    re_max = 0.6 * _plateau(spec)
    while True:
        re_max = min(re_max, cap)
        im_max = x * math.sqrt(2.0 * sig2 * re_max - spec.mu**2 + sig2**2 * x**2)
        w, box = _count_with_dilation(f, _search_box(re_max, im_max))
        if w.count > 1:
            return w, box, re_max
        if re_max >= cap:
            raise BoxTooSmall(f"no nonzero eigenvalue below re_max={cap}")
        re_max *= 2.0


@functools.lru_cache(maxsize=GAP_CACHE_SIZE)
def _gap(spec: ProcessSpec) -> tuple[float, bool]:
    """(gap, gap_is_real) of one solve on the certified gap-only box of
    :func:`_gap_window`, which reuses that box's zero count.  Remembered per
    spec, since a threshold search and a corollary table revisit the drifts
    of a sweep; a solve that raises is not remembered."""
    f = CharDeterminant(spec)
    rep = _solve_counted(f, *_gap_window(f))
    return rep.gap, rep.gap_is_real


def gap_curve(spec_base: ProcessSpec, mu_grid) -> list[tuple[float, float, bool]]:
    """Spectral gap along a drift grid, each drift solved once per process
    (:func:`_gap`).

    Solver errors are re-raised tagged with the offending drift value; an
    empty grid raises :class:`ConfigError`.
    """
    mu_grid = list(mu_grid)
    if not mu_grid:
        raise ConfigError("mu_grid must be nonempty")
    out = []
    for mu in mu_grid:
        spec = spec_base.with_mu(mu)
        try:
            gap, gap_is_real = _gap(spec)
        except JumpdiffError as exc:
            raise type(exc)(f"mu={mu}: {exc}") from exc
        out.append((float(mu), gap, gap_is_real))
    return out
