"""Monte Carlo engine for the restarted diffusion.

Paths follow exact Gaussian increments on a uniform grid; within-step
boundary crossings are recovered by one-sided Brownian-bridge corrections
(right barrier first, then left), so exit statistics converge at O(dt)
instead of O(sqrt(dt)).  Exits are attributed to the end of the step in
which they are detected, and the restart position is the recorded state at
that grid time.

Randomness is counter-based (Philox) addressed by (seed, stream_id), so
every operation is a deterministic function of its inputs and stream layout,
and distinct stream ids give independent streams.  The per-step draw order of
each engine is listed beside :func:`_crosses`, the one crossing rule they all
share.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analytic import invariant_density_grid, killed_survival
from .errors import (
    BelowNoiseFloor,
    ConfigError,
    HorizonExceeded,
    NonpositiveDt,
    OutOfDomain,
    RejectionBudgetExceeded,
    RequiresCenteredDelta,
    RequiresPositiveDrift,
    WindowTooSparse,
)
from .model import (
    Interval,
    JumpDistribution,
    PathRealization,
    ProcessSpec,
    RateFit,
)

LEFT, RIGHT = 0, 1
SIDE_LABELS = ("left", "right")
DT_SCALE = 1e-4                     # default dt = DT_SCALE * (L / sigma)^2
EXIT_STEP_BUDGET = 1_000_000_000    # steps an uncensored exit search may take
REJECTION_MIN_ACCEPT = 1e-6         # lowest acceptance the conditioned-path check runs at


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

    def child(self, k: int) -> "RngStream":
        return RngStream(self.seed, (int(self.stream_id) << 8) + k)


def _as_generator(rng) -> np.random.Generator:
    if isinstance(rng, np.random.Generator):
        return rng
    if isinstance(rng, RngStream):
        return rng.generator()
    return RngStream(int(rng)).generator()


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
# Every sampler detects barrier hits with _crosses.  Per step they draw:
#   exit times, histograms, step_with_exit, simulate_path (by chunks): normal,
#     right-bridge, left-bridge, then restart uniforms for exited paths only;
#   staged coupling: normal, meet, x-edge, y-edge, gap uniforms;
#   mirror coupling: normal, meet, y-right, y-left, centre-right, centre-left;
#   conditioned paths (lemma): normal, window-right, window-left, x-restart,
#     y-restart uniforms.

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


def _exit_code(spec: ProcessSpec, x, x1, var_dt: float, u_right, u_left) -> np.ndarray:
    """-1, LEFT or RIGHT per step x -> x1; ending at or below a is LEFT even if
    the right bridge fires."""
    code = np.full(np.shape(x1), -1, dtype=np.int8)
    code[_crosses(x - spec.a, x1 - spec.a, var_dt, u_left)] = LEFT
    code[_crosses(spec.b - x, spec.b - x1, var_dt, u_right) & (x1 > spec.a)] = RIGHT
    return code


def _advance(x, spec: ProcessSpec, dt: float, z, u_right, u_left):
    """One step for an array of positions.

    Returns (x_new, exit_code) with exit_code -1 for interior, 0 for a left
    exit, 1 for a right exit; x_new for exited entries is the pre-restart
    proposal (callers overwrite it with the restart draw).
    """
    x1 = x + spec.mu * dt + spec.sigma * math.sqrt(dt) * z
    return x1, _exit_code(spec, x, x1, spec.sigma**2 * dt, u_right, u_left)


def _restart_positions(spec: ProcessSpec, n: int, gen: np.random.Generator) -> np.ndarray:
    locs = np.array(spec.nu.locations)
    if len(locs) == 1:
        return np.full(n, locs[0])
    cum = np.cumsum(spec.nu.weights)
    idx = np.searchsorted(cum, gen.random(n), side="right")
    return locs[np.minimum(idx, len(locs) - 1)]


def _check_start(spec: ProcessSpec, x0: float, dt: float) -> None:
    if not dt > 0.0:
        raise NonpositiveDt(f"dt must be positive, got {dt}")
    if not spec.interval.contains(x0):
        raise OutOfDomain(f"start {x0} outside open interval")


def step_with_exit(x: float, dt: float, spec: ProcessSpec, rng) -> tuple[float, str | None]:
    """Single Euler/exact-Gaussian step with bridge-corrected exit detection.

    Returns the new position and None, or the (unchanged proposal, boundary
    label) when the step exits.
    """
    _check_start(spec, x, dt)
    gen = _as_generator(rng)
    z = gen.standard_normal(1)
    u1 = gen.random(1)
    u2 = gen.random(1)
    x1, code = _advance(np.array([x]), spec, dt, z, u1, u2)
    if code[0] < 0:
        return float(x1[0]), None
    return float(x1[0]), SIDE_LABELS[code[0]]


# ---------------------------------------------------------------------------
# Path simulation
# ---------------------------------------------------------------------------

def simulate_path(spec: ProcessSpec, x0: float, horizon: float, dt: float,
                  rng) -> PathRealization:
    """Restarted-diffusion path sampled on the uniform grid of step dt.

    On each detected exit the path restarts from an atom of the restart
    measure at the end of the step; that grid sample records the post-jump
    state.
    """
    _check_start(spec, x0, dt)
    gen = _as_generator(rng)
    n_steps = int(round(horizon / dt))
    positions = np.empty(n_steps + 1)
    positions[0] = x0
    jump_times: list[float] = []
    exited_at: list[str] = []

    chunk = 8192
    x = x0
    step = 0
    sig2dt = spec.sigma**2 * dt
    while step < n_steps:
        m = min(chunk, n_steps - step)
        z = gen.standard_normal(m)
        u1 = gen.random(m)
        u2 = gen.random(m)
        incr = spec.mu * dt + spec.sigma * math.sqrt(dt) * z
        start = 0
        while start < m:
            path = x + np.cumsum(incr[start:])
            prev = np.concatenate(([x], path[:-1]))
            code = _exit_code(spec, prev, path, sig2dt, u1[start:], u2[start:])
            hits = np.flatnonzero(code >= 0)
            if hits.size == 0:
                positions[step + start + 1: step + m + 1] = path
                x = float(path[-1])
                start = m
            else:
                i = int(hits[0])
                positions[step + start + 1: step + start + i + 1] = path[:i]
                restart = float(_restart_positions(spec, 1, gen)[0])
                positions[step + start + i + 1] = restart
                jump_times.append((step + start + i + 1) * dt)
                exited_at.append(SIDE_LABELS[code[i]])
                x = restart
                start = start + i + 1
        step += m

    times = np.arange(n_steps + 1) * dt
    return PathRealization(
        times=tuple(times.tolist()),
        positions=tuple(positions.tolist()),
        jump_times=tuple(jump_times),
        exited_at=tuple(exited_at),
    )


def _exit_loop(spec: ProcessSpec, x0: float, n: int, dt: float, gen: np.random.Generator,
               max_steps: int, bridge: bool = True) -> tuple[np.ndarray, np.ndarray]:
    """March n paths from x0 until they exit or max_steps pass.

    Returns (exit times, sides); paths still alive get tau = +inf, side = -1.
    """
    taus = np.full(n, np.inf)
    sides = np.full(n, -1, dtype=np.int8)
    idx = np.arange(n)
    x = np.full(n, float(x0))
    step = 0
    while idx.size and step < max_steps:
        z = gen.standard_normal(idx.size)
        u1 = gen.random(idx.size)
        u2 = gen.random(idx.size)
        x, code = _advance(x, spec, dt, z, u1, u2)
        if not bridge:      # instrumentation: only steps that end outside exit
            code = np.select([x >= spec.b, x <= spec.a], [RIGHT, LEFT], -1)
        step += 1
        done = code >= 0
        if done.any():
            taus[idx[done]] = step * dt
            sides[idx[done]] = code[done]
            keep = ~done
            idx = idx[keep]
            x = x[keep]
    return taus, sides


def sample_exit_time(spec: ProcessSpec, x0: float, dt: float, rng) -> tuple[float, str]:
    """First-exit time (step-end attribution) and boundary side from x0."""
    _check_start(spec, x0, dt)
    taus, sides = _exit_loop(spec, x0, 1, dt, _as_generator(rng), EXIT_STEP_BUDGET)
    if sides[0] < 0:
        raise HorizonExceeded(f"no exit within {EXIT_STEP_BUDGET} steps")
    return float(taus[0]), SIDE_LABELS[sides[0]]


def exit_time_ensemble(spec: ProcessSpec, x0: float, n_paths: int, dt: float, rng,
                       horizon: float = np.inf,
                       bridge: bool = True) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized exit sampling: (exit times, sides) over n_paths starts at x0.

    Paths still alive at the horizon get tau = +inf and side = -1 (censored).
    ``bridge=False`` counts only steps that end outside, so exits are detected
    late (test instrumentation for the size of the bridge correction).
    """
    _check_start(spec, x0, dt)
    censoring = np.isfinite(horizon)
    max_steps = int(round(horizon / dt)) if censoring else EXIT_STEP_BUDGET
    taus, sides = _exit_loop(spec, x0, n_paths, dt, _as_generator(rng), max_steps, bridge)
    if not censoring and (sides < 0).any():
        raise HorizonExceeded("exit sampling ran past the step budget")
    return taus, sides


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


def _evolve_histograms(spec: ProcessSpec, x_init: np.ndarray, snap_steps: list[int],
                       bins: int, dt: float, gen: np.random.Generator) -> list[np.ndarray]:
    """March an ensemble, collecting bin-mass histograms at the given steps."""
    x = x_init.copy()
    n = x.size
    out = []
    snap_iter = iter(sorted(snap_steps))
    target = next(snap_iter, None)
    step = 0
    if target == 0:
        out.append(np.histogram(x, bins=bins, range=(spec.a, spec.b))[0] / n)
        target = next(snap_iter, None)
    last = max(snap_steps) if snap_steps else 0
    while step < last:
        z = gen.standard_normal(n)
        u1 = gen.random(n)
        u2 = gen.random(n)
        x, code = _advance(x, spec, dt, z, u1, u2)
        exited = code >= 0
        n_exit = int(exited.sum())
        if n_exit:
            x[exited] = _restart_positions(spec, n_exit, gen)
        step += 1
        if step == target:
            out.append(np.histogram(x, bins=bins, range=(spec.a, spec.b))[0] / n)
            target = next(snap_iter, None)
    return out


def ensemble_snapshots(spec: ProcessSpec, x0, times, n_paths: int, bins: int,
                       dt: float, stream: RngStream) -> list[EnsembleSnapshot]:
    """Ensemble histograms at the requested times (snapped to the step grid).

    ``x0`` is a point start or "invariant" for i.i.d. draws from the analytic
    stationary density.
    """
    gen = stream.generator()
    if isinstance(x0, str):
        if x0 != "invariant":
            raise OutOfDomain(f"unknown start {x0!r}")
        init = sample_invariant(spec, n_paths, stream.generator(1))
    else:
        if not spec.interval.contains(float(x0)):
            raise OutOfDomain(f"start {x0} outside open interval")
        init = np.full(n_paths, float(x0))
    steps = [int(round(t / dt)) for t in times]
    hists = _evolve_histograms(spec, init, steps, bins, dt, gen)
    return [
        EnsembleSnapshot(t=k * dt, histogram=tuple(h.tolist()), n_paths=n_paths)
        for k, h in zip(sorted(steps), hists)
    ]


def ensemble_tv(spec: ProcessSpec, x: float, y_or_invariant, times, n_paths: int,
                bins: int, dt: float, seed: int) -> TVCurve:
    """Empirical TV distance between two simulated ensembles on a shared grid.

    The first ensemble starts at x (stream 0), the second at y or from
    invariant-density draws (stream 1); TV at each time is half the L1
    distance between the bin-mass histograms.  Error bars scale like
    sqrt(bins / n_paths).  Fewer than 1000 paths or 32 bins raise ConfigError.
    """
    times = sorted(float(t) for t in times)
    if n_paths < 1000:
        raise ConfigError("n_paths must be at least 1000")
    if bins < 32:
        raise ConfigError("need at least 32 bins")
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
    if int(in_window.sum()) < 3:
        raise WindowTooSparse(f"{int(in_window.sum())} points in window {window}")
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
        RejectionBudgetExceeded: conditional acceptance below
            ``REJECTION_MIN_ACCEPT``.
    """
    _check_lemma_inputs(spec, dt)
    x0 = spec.nu.locations[0]
    b = spec.b
    gap = b - x0
    half_j = gap / (4.0 * spec.sigma)
    t_n = gap * n / spec.mu
    n_steps = max(1, int(round(t_n / dt)))

    # the acceptance probability is the window survival, known analytically;
    # refuse upfront instead of burning the proposal budget
    window = ProcessSpec(Interval(-half_j, half_j), 1.0, 0.0,
                         JumpDistribution.delta(0.0))
    est_accept = killed_survival(window, 0.0, t_n, n_terms=256)
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
    batch = max(4096, min(200_000, 8 * n_paths))
    while accepted < n_paths:
        proposals += batch
        if proposals > max(batch, n_paths / REJECTION_MIN_ACCEPT):
            raise RejectionBudgetExceeded(f"acceptance below {REJECTION_MIN_ACCEPT}")
        alive = np.ones(batch, dtype=bool)
        bm = np.zeros(batch)
        xs = np.full(batch, x_start)
        ys = np.full(batch, y_start)
        for _ in range(n_steps):
            z = gen.standard_normal(batch)
            u_r = gen.random(batch)
            u_l = gen.random(batch)
            u_x = gen.random(batch)
            u_y = gen.random(batch)
            bm1 = bm + sqrt_dt * z
            alive &= ~(_crosses(half_j - bm, half_j - bm1, dt, u_r)
                       | _crosses(bm + half_j, bm1 + half_j, dt, u_l))
            incr = spec.mu * dt + spec.sigma * sqrt_dt * z
            xs = _drive_restarted(spec, xs, incr, u_x, dt)
            ys = _drive_restarted(spec, ys, incr, u_y, dt)
            bm = bm1
        n_new = int(alive.sum())
        if n_new:
            take = min(n_new, n_paths - accepted)
            sel = np.flatnonzero(alive)[:take]
            in_a_x += int(((xs[sel] >= a_lo) & (xs[sel] < a_hi)).sum())
            in_a_y += int(((ys[sel] >= a_lo) & (ys[sel] < a_hi)).sum())
            accepted += take
    return in_a_x / n_paths, in_a_y / n_paths


def _check_lemma_inputs(spec: ProcessSpec, dt: float) -> None:
    if not dt > 0.0:
        raise NonpositiveDt(f"dt must be positive, got {dt}")
    if not spec.is_centered_delta:
        raise RequiresCenteredDelta("conditioned check needs the midpoint atom")
    if not spec.mu > 0.0:
        raise RequiresPositiveDrift("conditioned check needs mu > 0")


def _drive_restarted(spec: ProcessSpec, x: np.ndarray, incr: np.ndarray,
                     u: np.ndarray, dt: float) -> np.ndarray:
    """Advance the restarted diffusion with shared increments (upper exits only)."""
    x1 = x + incr
    jump = _crosses(spec.b - x, spec.b - x1, spec.sigma**2 * dt, u)
    return np.where(jump, spec.nu.locations[0], x1)
