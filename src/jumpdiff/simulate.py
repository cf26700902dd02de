"""Ensemble Monte Carlo engines for the restarted diffusion.

Every engine works on an array of paths at once.  Exit times
(:func:`exit_time_ensemble`) take no steps: each path chains exact exits
from windows around it (:func:`_window_exit_times`, which inverts the
window's survival series) into its exit from the interval
(:func:`_interval_exits`), as do the mirror coupling and the drift-free
staged coupling in :mod:`.coupling`; the convolution check draws one window
per path.  The restarted ensembles (:func:`ensemble_snapshots`,
:func:`ensemble_tv`) are exact in time too (:func:`_ensemble_positions`):
steps sized by the far barrier, not by ``dt``, with an exact crossing time
(:func:`_crossing_times`) from which the restarted path runs the rest of its
step.  The conditioned-path check (:func:`verify_pathwise_lemma`) and the
staged coupling with drift (for its x-marginal at any drift, until the pair
glues) step on a uniform grid, booking an exit at the end of its step.  Each step moves one coordinate between two barriers and
one kernel, :func:`_step_exits`, tests it by one-sided Brownian-bridge
corrections (upper barrier first), so exit statistics converge at O(dt)
instead of O(sqrt(dt)).  A stepping engine sizes its run with
:func:`_step_count`, and the window chain its rounds; both refuse work over
the one budget ``PATH_STEP_BUDGET`` before allocating.

Randomness is counter-based (Philox) addressed by (seed, stream_id), so
every operation is a deterministic function of its inputs and stream layout,
and distinct stream ids give independent streams.  Bridge tests draw a uniform
only for the paths within reach of a barrier, so the number of uniforms per
step depends on the state; a rerun still reproduces every draw.  The per-step
draw order of each engine is listed beside :func:`_hits`, the sparse entry to
:func:`_crosses`, the one crossing rule they all share.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analytic import invariant_density_grid, killed_survival, mean_exit_time
from .errors import (
    BelowNoiseFloor,
    ConfigError,
    NonpositiveDt,
    OutOfDomain,
    RejectionBudgetExceeded,
    RequiresCenteredDelta,
    RequiresPositiveDrift,
    StepBudgetExceeded,
    WindowTooSparse,
)
from .model import (
    Interval,
    JumpDistribution,
    ProcessSpec,
    RateFit,
)

LEFT, RIGHT = 0, 1
DT_SCALE = 1e-4                     # default dt = DT_SCALE * (L / sigma)^2
PATH_STEP_BUDGET = 2**32            # paths times steps one sampler run may take
REJECTION_MIN_ACCEPT = 1e-6         # lowest acceptance the conditioned-path check runs at
WINDOW_TERMS = 64                   # terms of the window survival series
WINDOW_TERM_CUT = 40.0              # a Newton round drops terms below e^-40 of the first
WINDOW_T_MIN = 0.005                # lowest standardised exit time the inversion searches
WINDOW_NEWTON_BUDGET = 64           # safeguarded Newton steps per inversion
WINDOW_ROUND_BUDGET = 64            # window rounds per interval exit


def default_dt(spec: ProcessSpec) -> float:
    """Step used when a run names none: DT_SCALE times the diffusive time (L / sigma)^2."""
    return DT_SCALE * (spec.length / spec.sigma) ** 2


@dataclass(frozen=True)
class RngStream:
    """Counter-based stream address; (seed, stream_id) reproduce draws exactly."""

    seed: int
    stream_id: int = 0

    def generator(self, *path: int) -> np.random.Generator:
        key = np.random.SeedSequence(entropy=int(self.seed) & (2**64 - 1),
                                     spawn_key=(int(self.stream_id), *path))
        return np.random.Generator(np.random.Philox(key))


@dataclass(frozen=True)
class EnsembleSnapshot:
    """Histogram of an ensemble at one time over a fixed partition of (a, b)."""

    t: float
    histogram: tuple[float, ...]
    n_paths: int

    def __post_init__(self):
        if len(self.histogram) < 32:
            raise ValueError("need at least 32 bins")
        if abs(math.fsum(self.histogram) - 1.0) > 1e-12:
            raise ValueError("histogram masses must sum to 1")


@dataclass(frozen=True)
class TVCurve:
    """Empirical total-variation distance on a time grid."""

    times: tuple[float, ...]
    tv: tuple[float, ...]
    pairing: tuple
    n_paths: int
    bins: int

    def __post_init__(self):
        if any(t2 <= t1 for t1, t2 in zip(self.times, self.times[1:])):
            raise ValueError("times must be increasing")
        if any(v < 0.0 or v > 1.0 for v in self.tv):
            raise ValueError("tv values must lie in [0, 1]")

    def se_scale(self) -> float:
        """Documented error-bar scale sqrt(bins / n_paths)."""
        return math.sqrt(self.bins / self.n_paths)


# ---------------------------------------------------------------------------
# Stepping kernels
# ---------------------------------------------------------------------------
# Every sampler detects barrier hits with _hits, the sparse entry to the one
# crossing rule _crosses.  A test draws one uniform per entry within reach of
# its barrier, in index order, and none for the others, so the number of
# uniforms per step depends on the state.  Per step the engines draw:
#   ensembles (histograms): per round of _ensemble_positions, normals for
#     the paths with time left in the step, right-bridge then left-bridge
#     uniforms, then for the paths that crossed one normal each and one
#     uniform each (_crossing_times), then their restart uniforms;
#   exit times, mirror coupling: no steps, two uniforms per window round of
#     _interval_exits (window time, then side) for each path still inside, in
#     path order; the mirror runs phase 1 (B until the copies meet or the copy
#     from y exits), then phase 2 (the centre copy until it exits);
#   staged coupling, when it steps: normals for the pairs not yet glued,
#     then one _step_exits call for all of them: upper-barrier uniforms (the
#     lowest line of the gap in stages I-II), then lower-barrier uniforms;
#     the coupled marginal then moves the glued pairs as one ensemble gap;
#   drift-free staged coupling: no steps, the window rounds of
#     _interval_exits for stage I (every pair), then stage II, then stage
#     III (the pairs that reached it within the horizon), in pair order;
#   conditioned paths (lemma): normals for the proposals still inside the
#     window, window-right and window-left uniforms, then x-restart and
#     y-restart uniforms for the proposals that stayed inside;
#   window exit times (convolution check): no steps, one uniform per path,
#     in path order, inverted by _window_exit_times.

# The bridge factor exp(-2 p / var_dt) is 2^-53 (to rounding) at p = REACH *
# var_dt and smaller beyond.  random() returns multiples of 2^-53, so such a
# factor fires only at u = 0 or 2^-53: treating it as a miss changes the law
# on an event of probability at most 2^-52 per test.
REACH = 53.0 * math.log(2.0) / 2.0


def _crosses(d0, d1, var_dt, u):
    """Bridge-corrected hit of a barrier by a step whose distance to it goes d0 -> d1.

    u < exp(-2 d0 d1 / var_dt), the one-sided Brownian-bridge crossing
    probability (Gobet 2000); var_dt is the step variance of the distance.
    The factor is exactly 1 once d1 <= 0 and u lies in [0, 1), so a step
    that ends on or past the barrier always crosses.  d0 * d1 is formed
    first so a huge d0 with d1 = 0 gives 0, not inf * 0 = NaN.  One buffer
    is updated in place: d0 and d1 stay alive during the call, and a fresh
    temporary per operation made the conditioned-path check about 12% slower
    (2-vCPU Xeon VM).
    """
    e = np.maximum(d0, 0.0)
    e *= np.maximum(d1, 0.0)
    e *= -2.0
    e /= var_dt
    return u < np.exp(e)


def _hits(d0, d1, var_dt, gen: np.random.Generator) -> np.ndarray:
    """_crosses for arrays of distances, drawing uniforms only where they can matter.

    var_dt is one step variance, or one per entry.  With p = max(d0, 0)
    max(d1, 0): p <= 0 is a sure hit and p >= REACH * var_dt a sure miss,
    and neither draws.  The entries in between draw one ``gen.random`` each,
    in index order, and get _crosses of it.
    """
    p = np.maximum(d0, 0.0)
    p *= np.maximum(d1, 0.0)
    hit = p <= 0.0
    # the sure hits lie within reach too, so ^ leaves the entries in between
    near = np.flatnonzero((p < REACH * var_dt) ^ hit)
    if near.size:
        # p is the product already, so the rule sees the distances (p, 1)
        var_near = var_dt[near] if np.ndim(var_dt) else var_dt
        hit[near] = _crosses(p[near], 1.0, var_near, gen.random(near.size))
    return hit


def _step_exits(lo0, lo1, hi0, hi1, var, gen: np.random.Generator) -> np.ndarray:
    """Exit code of a coordinate's step from lo0 / hi0 above / below its two
    barriers (lines in time) to lo1 / hi1, at one step variance var or one
    per entry.  _hits tests the upper barrier, then the lower one; the code
    is LEFT where the lower test fires (surely if the step ends at or below
    it), else RIGHT where the upper one fires, else -1.
    """
    code = np.where(_hits(hi0, hi1, var, gen), np.int8(RIGHT), np.int8(-1))
    code[_hits(lo0, lo1, var, gen)] = LEFT
    return code


def _advance(x, spec: ProcessSpec, dt, z, gen: np.random.Generator):
    """One step of positions between a and b, dt one step length or one per
    entry; returns (x_new, the _step_exits code).  x_new of an exited entry
    is the pre-restart proposal (callers overwrite it with the restart draw).
    """
    x1 = x + spec.mu * dt + spec.sigma * np.sqrt(dt) * z
    return x1, _step_exits(x - spec.a, x1 - spec.a, spec.b - x, spec.b - x1,
                           spec.sigma**2 * dt, gen)


def _crossing_times(d0, d1, dt, var_dt, gen: np.random.Generator) -> np.ndarray:
    """When the bridges that crossed a barrier first reached it, within their step.

    A crossing step of length dt and variance var_dt took the distance to
    the barrier from d0 > 0 to d1 (of either sign).  Given the crossing,
    R = tau / (dt - tau) is inverse Gaussian with mean d0 / |d1| and shape
    lam = d0^2 / var_dt (Gobet & Menozzi 2010), drawn from one normal Z and
    then one uniform per entry (Michael, Schucany & Haas 1976).  The smaller
    root is formed as 4 lam / (|Z| + sqrt(Z^2 + 4 phi))^2, phi = d0 |d1| /
    var_dt, so d1 = 0 gives the Levy draw lam / Z^2, not inf * 0; the times
    dt / (1 + 1 / R) lie in [0, dt].
    """
    z = gen.standard_normal(np.shape(d0))
    u = gen.random(np.shape(d0))
    e = np.abs(d1)
    # inv = 1 / R for the smaller root, kept with probability d0 inv / (d0 inv + e)
    inv = np.abs(z) + np.sqrt(z * z + 4.0 * d0 * e / var_dt)
    inv *= inv * var_dt / (4.0 * d0 * d0)
    big = u * (d0 * inv + e) > d0 * inv
    inv[big] = e[big] ** 2 / (d0[big] ** 2 * inv[big])
    return dt / (1.0 + inv)


def _restart_positions(spec: ProcessSpec, n: int, gen: np.random.Generator) -> np.ndarray:
    locs = np.array(spec.nu.locations)
    if len(locs) == 1:
        return np.full(n, locs[0])
    cum = np.cumsum(spec.nu.weights)
    idx = np.searchsorted(cum, gen.random(n), side="right")
    return locs[np.minimum(idx, len(locs) - 1)]


def _check_dt(dt: float) -> None:
    if not dt > 0.0:
        raise NonpositiveDt(f"dt must be positive, got {dt}")


def _step_count(paths: int, t: float, dt: float, up: bool = False) -> int:
    """Steps of dt to time t, to the nearest or, with ``up``, the fewest
    steps of at most dt; StepBudgetExceeded if paths * max(1, t / dt), the
    worst case with every path held at least one step, exceeds
    PATH_STEP_BUDGET.  The comparison is in floating point, so a t / dt that
    overflows to inf, or an infinite t, is refused rather than converted."""
    steps = t / dt
    if not paths * max(steps, 1.0) <= PATH_STEP_BUDGET:
        raise StepBudgetExceeded(f"{paths} paths to t={t:.6g} at dt={dt:.6g} "
                                 f"exceed {PATH_STEP_BUDGET} path-steps")
    return math.ceil(steps) if up else int(round(steps))


def _check_counts(n: int, bins: int | None = None) -> None:
    """Refuse an empty ensemble (fewer than one path or pair) or fewer than 32 bins."""
    if not n >= 1:
        raise ConfigError(f"need at least one path or pair, got {n}")
    if bins is not None and not bins >= 32:
        raise ConfigError(f"need at least 32 bins, got {bins}")


def _check_times(times) -> list[float]:
    """The times as sorted floats; an empty grid or a negative time is refused."""
    times = sorted(float(t) for t in times)
    if not times:
        raise ConfigError("the time grid is empty")
    if not all(t >= 0.0 for t in times):
        raise OutOfDomain(f"times must be nonnegative, got {times}")
    return times


def exit_time_ensemble(spec: ProcessSpec, x0: float, n_paths: int, dt: float,
                       rng: RngStream, horizon: float = np.inf) -> tuple[np.ndarray, np.ndarray]:
    """Exact exit times and sides of n_paths diffusions started at x0.

    (x - x0) / sigma is Brownian motion with drift mu / sigma, so each path
    is one _interval_exits draw, with no time step: its budget, not dt,
    bounds the work, and ``dt`` is only checked to be positive.  Times past
    the horizon are censored: tau = +inf and side = -1.
    """
    _check_dt(dt)
    _check_counts(n_paths)
    _check_times([horizon])
    if not spec.interval.contains(x0):
        raise OutOfDomain(f"start {x0} outside open interval")
    taus, sides = _interval_exits(np.full(n_paths, (x0 - spec.a) / spec.sigma),
                                  np.full(n_paths, (spec.b - x0) / spec.sigma),
                                  rng.generator(), spec.mu / spec.sigma)
    late = taus > horizon
    taus[late], sides[late] = np.inf, -1
    return taus, sides


def _window_exit_times(u: np.ndarray, h, tilt=0.0) -> np.ndarray:
    """Exact exit times from (-h, h) of Brownian motion with drift m, started at 0.

    h and the tilt m h (|m h| <= 1) are one value or arrays shaped like u.
    tau = h^2 T; by Girsanov T does not depend on the exit side, and with
    nu = (m h)^2 / 2 it has the survival function
        S(T) = cosh(m h) e^(-nu T) sum_k c_k r_k / (r_k + nu) e^(-r_k T),
        c_k = (4 / pi) (-1)^k / (2k + 1),  r_k = (2k + 1)^2 pi^2 / 8.
    Each T solves S(T) = u for its uniform u in [0, 1) (the series method;
    Devroye 1986); u = 0 gives +inf.  The sum is formed as A - nu B with
    A = sum_k c_k e^(-r_k T), so m = 0 gives the drift-free floats exactly.
    The terms shrink as |m h| <= 1, so the first term's root bounds T above;
    WINDOW_T_MIN bounds it below for every u up to 1 - 2^-53, and there
    WINDOW_TERMS terms are exact to rounding.  Newton's method falls back to
    bisection whenever a step leaves the bracket, and keeps a root once its
    step is below 1e-14 of it, or its residual below 1e-15 u.  Each round
    sums only the terms above e^-WINDOW_TERM_CUT of the first at the
    smallest live iterate: 5 terms from T = 0.3 on, 40 at WINDOW_T_MIN.
    """
    k = np.arange(WINDOW_TERMS)
    rate = (2 * k + 1) ** 2 * math.pi**2 / 8.0
    coef = (4.0 / math.pi) * np.where(k % 2 == 0, 1.0, -1.0) / (2 * k + 1)
    slope = coef * rate
    out = np.full(np.shape(u), np.inf)
    idx = np.flatnonzero(u > 0.0)
    v = u[idx]
    tilt = np.broadcast_to(tilt, np.shape(u))[idx]
    nu, scale = 0.5 * tilt * tilt, np.cosh(tilt)
    gain = 8.0 * nu / math.pi**2            # r_0 + nu = (1 + gain) r_0
    lo = np.full(v.shape, WINDOW_T_MIN)
    hi = ((8.0 / math.pi**2) * (np.log(4.0 / (math.pi * v)) + np.log(scale)
                                - np.log1p(gain)) / (1.0 + gain))
    t = hi.copy()
    for _ in range(WINDOW_NEWTON_BUDGET):
        if not idx.size:
            break
        kept = int(np.searchsorted(rate - rate[0], WINDOW_TERM_CUT / t.min()))
        e = np.outer(t, -rate[:kept])
        np.exp(e, out=e)
        damp = scale * np.exp(-nu * t)
        tail = (e / (rate[:kept] + nu[:, None])) @ coef[:kept] if nu.any() else 0.0
        resid = damp * (e @ coef[:kept] - nu * tail) - v
        below_root = resid > 0.0            # S decreases in T
        lo = np.where(below_root, t, lo)
        hi = np.where(below_root, hi, t)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = resid / (damp * (e @ slope[:kept]))
        t_new = t + step
        done = (np.abs(step) <= 1e-14 * t) | (np.abs(resid) <= 1e-15 * v)
        t_new = np.where(done | ((t_new > lo) & (t_new < hi)), t_new, 0.5 * (lo + hi))
        out[idx[done]] = t_new[done]
        keep = ~done
        idx, v, lo, hi, t = idx[keep], v[keep], lo[keep], hi[keep], t_new[keep]
        nu, scale = nu[keep], scale[keep]
    out[idx] = t        # roots still open when the budget is spent keep their last iterate
    return h * h * out


def _interval_exits(d_lo, d_hi, gen: np.random.Generator,
                    drift: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """Exact exit times and sides of m t + W_t, m = drift, from an interval.

    Path i starts d_lo[i] above the lower end and d_hi[i] below the upper
    end.  Each round takes it to the exit point of the window (-h, h) around
    it, h = min(d_lo, d_hi, 1 / |m|): one uniform gives the window time, the
    next the side, up with probability 1 / (1 + e^(-2 m h)) (walk on spheres;
    Muller 1956).  A path has N = WINDOW_ROUND_BUDGET + ceil(3 K) rounds, K =
    |m| max(d_lo + d_hi); StepBudgetExceeded refuses a call whose paths times
    N exceed PATH_STEP_BUDGET, and ends one with a path inside after N
    rounds.  At m = 0 a round ends a path with probability 1/2, so that has
    probability 2^-N.  With drift, g = e^(-|m| x), x the distance to the end
    the drift points away from, is >= e^-K inside and shrinks in mean by
    sech(1) (h = 1 / |m|) or 1/2 (the window reaches an end) per round: the
    bound is e^K sech(1)^N < e^(-27.7 - 0.3 K).  Returns (times, sides),
    LEFT at the lower end and RIGHT at the upper; a path on an end exits
    there at time 0.
    """
    lo = np.asarray(d_lo, dtype=float)
    hi = np.asarray(d_hi, dtype=float)
    span = abs(drift) * float(np.max(lo + hi, initial=0.0))
    if not lo.size * (WINDOW_ROUND_BUDGET + 3.0 * span) <= PATH_STEP_BUDGET:
        raise StepBudgetExceeded(f"{lo.size} paths at |drift| x length {span:.6g} "
                                 f"exceed {PATH_STEP_BUDGET} window rounds")
    budget = WINDOW_ROUND_BUDGET + math.ceil(3.0 * span)
    cap = 1.0 / abs(drift) if drift else np.inf
    times = np.zeros(lo.shape)
    sides = np.full(lo.shape, RIGHT, dtype=np.int8)
    idx = np.arange(lo.size)
    for rounds in range(budget + 1):
        at_lo = lo <= 0.0
        inside = ~(at_lo | (hi <= 0.0))
        sides[idx[at_lo]] = LEFT
        if not inside.all():
            idx, lo, hi = idx[inside], lo[inside], hi[inside]
        if not idx.size:
            return times, sides
        if rounds == budget:
            break
        u = gen.random((idx.size, 2))
        h = np.minimum(np.minimum(lo, hi), cap)
        times[idx] += _window_exit_times(u[:, 0], h, drift * h)
        h[u[:, 1] >= 1.0 / (1.0 + np.exp(2.0 * drift * h))] *= -1.0    # the move down, or up
        lo = lo - h
        hi = hi + h
    raise StepBudgetExceeded(f"{idx.size} paths still inside after {budget} window rounds")


# ---------------------------------------------------------------------------
# Ensembles and total variation
# ---------------------------------------------------------------------------

def sample_invariant(spec: ProcessSpec, n: int, gen: np.random.Generator) -> np.ndarray:
    """Draws from the analytic invariant density by inverse-CDF on a 4097-point grid."""
    ys = np.linspace(spec.a, spec.b, 4097)
    dens = np.zeros(ys.size)
    dens[1:-1] = invariant_density_grid(spec, ys[1:-1])
    cdf = np.concatenate(([0.0], np.cumsum(0.5 * (dens[1:] + dens[:-1]) * np.diff(ys))))
    cdf /= cdf[-1]
    return np.interp(gen.random(n), cdf, ys)


def _max_step(spec: ProcessSpec) -> float:
    """Longest ensemble step: the smaller root of (L/2 - |mu| s)^2 = 4 REACH sigma^2 s.

    Every point lies at least L/2 from its far barrier, which a step of s
    then reaches with probability at most exp(-(L/2 - |mu| s)^2 / (2
    sigma^2 s)) = 2^-53, the standard REACH sets for a bridge test.
    """
    c, m, v = 0.5 * spec.length, abs(spec.mu), 4.0 * REACH * spec.sigma**2
    return 2.0 * c * c / (2.0 * c * m + v + math.sqrt(v * (v + 4.0 * c * m)))


def _ensemble_positions(spec: ProcessSpec, x: np.ndarray, gaps, steps,
                        gen: np.random.Generator):
    """Yield the positions of restarted paths from x at the end of each gap.

    Gap j is steps[j] equal steps of at most _max_step, so only the near
    barrier is in reach of a step; a gap is one length, or one per path.  Each round moves the paths with time left
    in the step to its end (_advance, one step length per path); a path that
    crossed a barrier restarts from nu at its crossing time
    (_crossing_times) and runs the rest of its step in the next round.  So
    the law is exact in time, up to the 2^-53 per test that REACH and
    _max_step leave.  Path-rounds are counted against PATH_STEP_BUDGET as
    they run.  A yielded array is not written to again.
    """
    used = 0
    for gap, k in zip(gaps, steps):
        for _ in range(k):
            # the first round moves every path, the later ones those that restarted
            idx, x0, left = None, x, gap / k
            while x0.size:
                used += x0.size
                if used > PATH_STEP_BUDGET:
                    raise StepBudgetExceeded(f"{x.size} paths took over "
                                             f"{PATH_STEP_BUDGET} path-rounds")
                x1, code = _advance(x0, spec, left, gen.standard_normal(x0.size), gen)
                out = np.flatnonzero(code >= 0)
                if idx is None:
                    x, idx = x1, out
                else:
                    x[idx] = x1
                    idx = idx[out]
                right = code[out] == RIGHT
                x0, x1 = x0[out], x1[out]
                d0 = np.where(right, spec.b - x0, x0 - spec.a)
                d1 = np.where(right, spec.b - x1, x1 - spec.a)
                if np.ndim(left):
                    left = left[out]
                left = left - _crossing_times(d0, d1, left, spec.sigma**2 * left, gen)
                x[idx] = _restart_positions(spec, idx.size, gen)
                idx, left = idx[left > 0.0], left[left > 0.0]
                x0 = x[idx]
        yield x


def ensemble_snapshots(spec: ProcessSpec, x0, times, n_paths: int, bins: int,
                       dt: float, stream: RngStream) -> list[EnsembleSnapshot]:
    """Ensemble histograms at exactly the requested times.

    ``x0`` is a point start or "invariant" for i.i.d. draws from the analytic
    stationary density.  The paths are exact in time (_ensemble_positions):
    each gap between times is ceil(gap / _max_step) equal steps, and ``dt``
    is checked to be positive and otherwise ignored.  A path restarts about
    t / E_nu[tau] times by time t, E_nu[tau] the nu-mean of
    ``mean_exit_time``, and each restart costs a sub-step: an atom eps from
    an edge restarts about t sigma^2 / (eps L) times, so 6,000 paths to t =
    0.15 at mu = 0 on the unit interval took 0.03 s at eps = 1/4, 0.06 s at
    eps = 0.01 and 4 s at eps = 1e-4 (2-vCPU VM).

    Raises:
        NonpositiveDt: dt is not positive.
        OutOfDomain: a time is negative, or the start lies outside (a, b).
        ConfigError: the time grid is empty or repeats a time, there are no
            paths or fewer than 32 bins.
        StepBudgetExceeded: n_paths * (steps + t_max / E_nu[tau] + 1)
            exceeds ``PATH_STEP_BUDGET``, checked before any draw, or the
            path-rounds run exceed it.
    """
    _check_dt(dt)
    _check_counts(n_paths, bins)
    times = _check_times(times)
    for t0, t1 in zip(times, times[1:]):
        if t0 == t1:
            raise ConfigError(f"time {t0:.12g} is requested twice")
    gaps = [t1 - t0 for t0, t1 in zip([0.0, *times], times)]
    steps = [_step_count(n_paths, gap, _max_step(spec), up=True) for gap in gaps]
    mean_exit = math.fsum(w * mean_exit_time(spec, loc) for loc, w in spec.nu.atoms)
    if not n_paths * (sum(steps) + times[-1] / mean_exit + 1.0) <= PATH_STEP_BUDGET:
        raise StepBudgetExceeded(f"{n_paths} paths to t={times[-1]:.6g}, at a mean "
                                 f"restart time of {mean_exit:.6g}, exceed "
                                 f"{PATH_STEP_BUDGET} path-steps")
    gen = stream.generator()
    if isinstance(x0, str):
        if x0 != "invariant":
            raise OutOfDomain(f"unknown start {x0!r}")
        init = sample_invariant(spec, n_paths, stream.generator(1))
    else:
        if not spec.interval.contains(float(x0)):
            raise OutOfDomain(f"start {x0} outside open interval")
        init = np.full(n_paths, float(x0))
    positions = _ensemble_positions(spec, init, gaps, steps, gen)
    return [
        EnsembleSnapshot(t=t, n_paths=n_paths, histogram=tuple(
            (np.histogram(x, bins=bins, range=(spec.a, spec.b))[0] / n_paths).tolist()))
        for t, x in zip(times, positions)
    ]


def ensemble_tv(spec: ProcessSpec, x: float, y_or_invariant, times, n_paths: int,
                bins: int, dt: float, seed: int) -> TVCurve:
    """Empirical TV distance between two simulated ensembles at the given times.

    The first ensemble starts at x (stream 0), the second at y or from
    invariant-density draws (stream 1); both are exact in time, and ``dt``
    is only checked to be positive (see :func:`ensemble_snapshots`).  TV at
    each time is half the L1 distance between the bin-mass histograms.
    Error bars scale like sqrt(bins / n_paths).  Fewer than 1000 paths or 32
    bins raise ConfigError.
    """
    times = _check_times(times)
    if n_paths < 1000:
        raise ConfigError("n_paths must be at least 1000")
    snaps_x = ensemble_snapshots(spec, x, times, n_paths, bins, dt, RngStream(seed, 0))
    snaps_y = ensemble_snapshots(spec, y_or_invariant, times, n_paths, bins, dt,
                                 RngStream(seed, 1))
    tv = [0.5 * float(np.abs(np.array(hx.histogram) - np.array(hy.histogram)).sum())
          for hx, hy in zip(snaps_x, snaps_y)]
    pairing = (x, y_or_invariant if isinstance(y_or_invariant, str) else float(y_or_invariant))
    return TVCurve(times=tuple(s.t for s in snaps_x), tv=tuple(tv), pairing=pairing,
                   n_paths=n_paths, bins=bins)


# ---------------------------------------------------------------------------
# Rate fitting
# ---------------------------------------------------------------------------

def _curve_arrays(curve) -> tuple[np.ndarray, np.ndarray]:
    if isinstance(curve, TVCurve):
        return np.array(curve.times), np.array(curve.tv)
    t, v = curve
    return np.asarray(t, dtype=float), np.asarray(v, dtype=float)


def fit_rate(curve, window: tuple[float, float], noise_floor: float = 0.0) -> RateFit:
    """Least-squares exponential rate of a decaying curve on a time window.

    Fits log(value) against t for points inside the window and above the
    noise floor; the returned rate is the negated slope with its standard
    error from the residuals.

    Raises:
        WindowTooSparse: fewer than 3 window points.
        BelowNoiseFloor: fewer than 3 points above the floor, or no
            resolvable decay (slope within two standard errors of zero).
    """
    t, v = _curve_arrays(curve)
    t_min, t_max = window
    in_window = (t >= t_min) & (t <= t_max)
    n_window = int(in_window.sum())
    if n_window < 3:
        raise WindowTooSparse(f"{n_window} points in window [{t_min:g}, {t_max:g}]")
    usable = in_window & (v > max(noise_floor, 0.0))
    if int(usable.sum()) < 3:
        raise BelowNoiseFloor("fewer than 3 points above the noise floor")
    tt = t[usable]
    log_v = np.log(v[usable])
    n = tt.size
    t_bar = tt.mean()
    sxx = float(np.sum((tt - t_bar) ** 2))
    slope = float(np.sum((tt - t_bar) * (log_v - log_v.mean())) / sxx)
    intercept = float(log_v.mean() - slope * t_bar)
    resid = log_v - (intercept + slope * tt)
    var = float(np.sum(resid**2) / max(n - 2, 1))
    stderr = math.sqrt(var / sxx)
    rate = -slope
    if rate <= 0.0 or rate <= 2.0 * stderr:
        raise BelowNoiseFloor(f"no resolvable decay: rate {rate:.3g} +- {stderr:.3g}")
    return RateFit(rate=rate, intercept=intercept, window=(float(t_min), float(t_max)),
                   stderr=stderr, n_points=int(n))


# ---------------------------------------------------------------------------
# Conditioned-path check
# ---------------------------------------------------------------------------

def verify_pathwise_lemma(spec: ProcessSpec, n: int, n_paths: int, dt: float,
                          seed: int) -> tuple[float, float]:
    """Conditioned-path fractions for the deterministic-squeeze property.

    Drives standard Brownian paths conditioned (by rejection) to stay in the
    symmetric window J up to t_n = n (b - x0) / mu, builds the restarted
    diffusion from the quarter points x0 + (b-x0)/4 and x0 + 3(b-x0)/4 with
    that same noise, and returns the fractions of accepted paths landing in
    [x0, x0 + (b-x0)/2) at t_n.  The squeeze argument predicts fractions 1
    and 0 up to discretization slack.

    Raises:
        RejectionBudgetExceeded: the analytic acceptance is below
            ``REJECTION_MIN_ACCEPT``.
        StepBudgetExceeded: proposals times steps exceed ``PATH_STEP_BUDGET``.
    """
    _check_lemma_inputs(spec, dt)
    _check_counts(n_paths)
    x0 = spec.nu.locations[0]
    b = spec.b
    gap = b - x0
    half_j = gap / (4.0 * spec.sigma)
    t_n = gap * n / spec.mu

    # the acceptance probability is the window survival, known analytically;
    # refuse upfront instead of burning the path-step budget
    window = ProcessSpec(Interval(-half_j, half_j), 1.0, 0.0,
                         JumpDistribution.delta(0.0))
    est_accept = killed_survival(window, 0.0, t_n)
    if est_accept < REJECTION_MIN_ACCEPT:
        raise RejectionBudgetExceeded(
            f"window-survival acceptance {est_accept:.2e} below {REJECTION_MIN_ACCEPT}")
    x_start = x0 + gap / 4.0
    y_start = x0 + 3.0 * gap / 4.0
    a_lo, a_hi = x0, x0 + gap / 2.0

    gen = RngStream(seed, 0).generator()
    accepted = 0
    in_a_x = 0
    in_a_y = 0
    proposals = 0
    sqrt_dt = math.sqrt(dt)
    while accepted < n_paths:
        # proposals for the paths still needed, 4 binomial SD to spare
        need = n_paths - accepted
        batch = min(200_000, math.ceil((need + 4.0 * math.sqrt(need) + 8.0) / est_accept))
        proposals += batch
        n_steps = max(1, _step_count(proposals, t_n, dt))
        # bm, xs and ys hold the proposals whose window motion is still
        # inside, in batch order
        bm = np.zeros(batch)
        xs = np.full(batch, x_start)
        ys = np.full(batch, y_start)
        for _ in range(n_steps):
            z = gen.standard_normal(bm.size)
            bm1 = bm + sqrt_dt * z
            inside = _step_exits(bm + half_j, bm1 + half_j, half_j - bm, half_j - bm1,
                                 dt, gen) < 0
            if not inside.all():
                bm1, xs, ys, z = bm1[inside], xs[inside], ys[inside], z[inside]
            incr = spec.mu * dt + spec.sigma * sqrt_dt * z
            xs = _drive_restarted(spec, xs, incr, dt, gen)
            ys = _drive_restarted(spec, ys, incr, dt, gen)
            bm = bm1
        take = min(bm.size, n_paths - accepted)
        in_a_x += int(((xs[:take] >= a_lo) & (xs[:take] < a_hi)).sum())
        in_a_y += int(((ys[:take] >= a_lo) & (ys[:take] < a_hi)).sum())
        accepted += take
    return in_a_x / n_paths, in_a_y / n_paths


def _check_lemma_inputs(spec: ProcessSpec, dt: float) -> None:
    _check_dt(dt)
    if not spec.is_centered_delta:
        raise RequiresCenteredDelta("conditioned check needs the midpoint atom")
    if not spec.mu > 0.0:
        raise RequiresPositiveDrift("conditioned check needs mu > 0")


def _drive_restarted(spec: ProcessSpec, x: np.ndarray, incr: np.ndarray, dt: float,
                     gen: np.random.Generator) -> np.ndarray:
    """Advance the restarted diffusion with shared increments (upper exits only)."""
    x1 = x + incr
    jump = _hits(spec.b - x, spec.b - x1, spec.sigma**2 * dt, gen)
    return np.where(jump, spec.nu.locations[0], x1)
