"""Couplings of the restarted diffusion and coupling-time tail estimation.

Two constructions from the coupling analysis:

* a mirror coupling of plain (killed) Brownian motions, one from an interior
  point and one from the interval center, driven by opposite signs of one
  noise until they meet and glued afterwards; it exhibits stochastic
  dominance of the centered exit time;

* the three-stage coupling of two restarted copies: stage I runs the copies
  with opposite noise signs until one exits or they meet; stage II restarts
  the exited copy at the center atom and keeps opposite signs until the
  distance hits 0 (coalescence) or half the interval length; stage III runs
  the copies in parallel at exactly half-length separation until either
  boundary is hit, at which instant the exiting copy restarts at the center
  and the other one arrives there, gluing the pair.

The fitted tail rate of the coalescence time is the empirical lower-bound
certificate for the spectral gap.  Between restarts the distance process is
affine in the shared noise, so distance hits (0 and half-length) get the
same one-sided bridge corrections as boundary exits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analytic import killed_survival_grid
from .errors import (
    ConfigError,
    OutOfDomain,
    RequiresCenteredDelta,
    RequiresPositiveDrift,
    StageBudgetExceeded,
)
from .model import Interval, JumpDistribution, ProcessSpec, RateFit
from .simulate import (
    RngStream,
    _advance,
    _as_generator,
    _crosses,
    default_dt,
    exit_time_ensemble,
    fit_rate,
)

STAGE_LABELS = {1: "I", 2: "II", 3: "III"}
STAGE_STEP_BUDGET = 100_000_000     # pair-steps one coupling run may take
COALESCE_TOL_STEPS = 0.5            # meet tolerance = COALESCE_TOL_STEPS * sigma * sqrt(dt)


@dataclass(frozen=True)
class CouplingRecord:
    """Stage transition times of one coupled pair."""

    tau_I: float
    tau_II: float
    tau_coup: float
    coalesced_in_stage: str
    start_x: float
    start_y: float

    def __post_init__(self):
        if not (self.tau_I <= self.tau_II <= self.tau_coup):
            raise ValueError("stage times must be ordered tau_I <= tau_II <= tau_coup")
        if self.coalesced_in_stage not in ("I", "II", "III"):
            raise ValueError(f"unknown stage {self.coalesced_in_stage!r}")


@dataclass(frozen=True)
class TailTable:
    """Empirical survival of the coalescence time on a threshold grid."""

    thresholds: tuple[float, ...]
    survival: tuple[float, ...]
    n: int

    def __post_init__(self):
        if any(s2 > s1 for s1, s2 in zip(self.survival, self.survival[1:])):
            raise ValueError("survival must be non-increasing")
        if any(s < 0.0 or s > 1.0 for s in self.survival):
            raise ValueError("survival values must lie in [0, 1]")

    def standard_errors(self) -> tuple[float, ...]:
        return tuple(math.sqrt(s * (1.0 - s) / self.n) for s in self.survival)


# ---------------------------------------------------------------------------
# Three-stage coupling engine (vectorized; one code path for all uses)
# ---------------------------------------------------------------------------

class _CouplingResult:
    def __init__(self, n: int):
        self.tau_1 = np.full(n, np.inf)
        self.tau_2 = np.full(n, np.inf)
        self.tau_c = np.full(n, np.inf)
        self.coalesced_stage = np.zeros(n, dtype=np.int8)


def _run_coupling(spec: ProcessSpec, x: float, y: float, n: int, dt: float,
                  gen: np.random.Generator, horizon: float,
                  trace: list | None = None, snapshot_step: int | None = None):
    """March n coupled pairs to the horizon.

    Coalesced pairs are dropped from the working set (the aggregation is a
    commutative merge keyed by original index), except in snapshot mode,
    where they keep evolving as single restarted paths so the x-marginal at
    ``snapshot_step`` has the process law.  Optionally records a per-step
    trace (n == 1 only).
    """
    a, b, x0 = spec.a, spec.b, spec.nu.locations[0]
    half = 0.5 * spec.length
    sig = spec.sigma
    sqrt_dt = math.sqrt(dt)
    sig2dt = sig**2 * dt
    gap2dt = 4.0 * sig**2 * dt          # distance process has volatility 2 sigma
    tol0 = COALESCE_TOL_STEPS * sig * sqrt_dt
    drift = spec.mu * dt

    res = _CouplingResult(n)
    xs = np.full(n, float(x))
    ys = np.full(n, float(y))
    stage = np.ones(n, dtype=np.int8)
    upper_is_x = np.zeros(n, dtype=bool)
    orig = np.arange(n)

    same = np.isclose(xs, ys)
    if same.any():
        res.tau_1[same] = 0.0
        res.tau_2[same] = 0.0
        res.tau_c[same] = 0.0
        res.coalesced_stage[same] = 1
        stage[same] = 4
    snapshot = np.full(n, np.nan) if snapshot_step is not None else None

    n_steps = int(round(horizon / dt))
    work = 0
    for step in range(n_steps):
        if snapshot_step is None and xs.size == 0:
            break
        t = (step + 1) * dt
        m = xs.size
        # the budget guards the coupling stages; the post-coalescence march
        # in snapshot mode is bounded by n * snapshot_step by construction
        work += int((stage < 4).sum()) if snapshot_step is not None else m
        if work > STAGE_STEP_BUDGET:
            raise StageBudgetExceeded(f"coupling exceeded the step budget {STAGE_STEP_BUDGET}")
        z = gen.standard_normal(m)
        u_meet = gen.random(m)
        u_xb = gen.random(m)
        u_yb = gen.random(m)
        u_gap = gen.random(m)
        dw = sig * sqrt_dt * z

        # freeze the stage assignment for this step: a pair that transitions
        # waits until the next step for its new dynamics (otherwise it would
        # be advanced twice with the same noise)
        in_stage = stage.copy()

        # --- stage I: opposite drivers until meet / x hits a / y hits b
        s1 = np.flatnonzero(in_stage == 1)
        if s1.size:
            x_old, y_old = xs[s1], ys[s1]
            x_new = x_old + drift + dw[s1]
            y_new = y_old + drift - dw[s1]
            d_old, d_new = y_old - x_old, y_new - x_new
            meet = (d_new <= tol0) | _crosses(d_old, d_new, gap2dt, u_meet[s1])
            hit_a = _crosses(x_old - a, x_new - a, sig2dt, u_xb[s1])
            hit_b = _crosses(b - y_old, b - y_new, sig2dt, u_yb[s1])
            xs[s1], ys[s1] = x_new, y_new
            glue = s1[meet]
            if glue.size:
                pos = np.clip(0.5 * (xs[glue] + ys[glue]), a + 1e-12, b - 1e-12)
                xs[glue] = pos
                ys[glue] = pos
                stage[glue] = 4
                _record(res, orig[glue], t, t, t, 1)
            both = s1[~meet & hit_a & hit_b]
            if both.size:
                xs[both] = x0
                ys[both] = x0
                stage[both] = 4
                _record(res, orig[both], t, t, t, 2)
            for moved, arr in ((s1[~meet & hit_a & ~hit_b], xs),
                               (s1[~meet & ~hit_a & hit_b], ys)):
                if moved.size:
                    arr[moved] = x0
                    stage[moved] = 2
                    res.tau_1[orig[moved]] = t

        # --- stage II: opposite drivers, restarts via b, gap to {0, half}
        s2 = np.flatnonzero(in_stage == 2)
        if s2.size:
            x_old, y_old = xs[s2], ys[s2]
            x_mid = x_old + drift + dw[s2]
            y_mid = y_old + drift - dw[s2]
            # the signed gap is affine in the shared noise between restarts;
            # a sign change is a sure zero hit, distinct from the sign flip a
            # restart produces
            g_old = y_old - x_old
            g_mid = y_mid - x_mid
            d_old, d_mid = np.abs(g_old), np.abs(g_mid)
            hit0 = (g_old * g_mid <= 0.0) | (d_mid <= tol0) | \
                _crosses(d_old, d_mid, gap2dt, u_meet[s2])
            # restarts go through b only; a is a hard exit without a bridge
            jump_x = _crosses(b - x_old, b - x_mid, sig2dt, u_xb[s2]) | (x_mid <= a)
            jump_y = _crosses(b - y_old, b - y_mid, sig2dt, u_yb[s2]) | (y_mid <= a)
            x_new = np.where(jump_x & ~hit0, x0, x_mid)
            y_new = np.where(jump_y & ~hit0, x0, y_mid)
            xs[s2], ys[s2] = x_new, y_new
            jumped = (jump_x | jump_y) & ~hit0
            d_new = np.abs(y_new - x_new)
            hit0 |= d_new <= tol0       # e.g. both copies restarted together
            # a restart takes the gap off its affine path: only the step end counts
            to_half = ~hit0 & np.where(
                jumped, d_new >= half, _crosses(half - d_old, half - d_mid, gap2dt, u_gap[s2]))
            glue = s2[hit0]
            if glue.size:
                pos = np.clip(0.5 * (xs[glue] + ys[glue]), a + 1e-12, b - 1e-12)
                xs[glue] = pos
                ys[glue] = pos
                stage[glue] = 4
                _record(res, orig[glue], None, t, t, 2)
            to3 = s2[to_half]
            if to3.size:
                stage[to3] = 3
                res.tau_2[orig[to3]] = t
                up_x = xs[to3] >= ys[to3]
                upper_is_x[to3] = up_x
                upper = np.where(up_x, xs[to3], ys[to3])
                xs[to3] = np.where(up_x, upper, upper - half)
                ys[to3] = np.where(up_x, upper - half, upper)

        # --- stage III: parallel motion at exact half-length separation
        s3 = np.flatnonzero(in_stage == 3)
        if s3.size:
            upper_old = np.where(upper_is_x[s3], xs[s3], ys[s3])
            upper_new = upper_old + drift + dw[s3]
            done = _crosses(b - upper_old, b - upper_new, sig2dt, u_xb[s3]) | \
                _crosses(upper_old - half - a, upper_new - half - a, sig2dt, u_yb[s3])
            glue = s3[done]
            move = s3[~done]
            if move.size:
                up = upper_new[~done]
                xs[move] = np.where(upper_is_x[move], up, up - half)
                ys[move] = np.where(upper_is_x[move], up - half, up)
            if glue.size:
                xs[glue] = x0
                ys[glue] = x0
                stage[glue] = 4
                _record(res, orig[glue], None, None, t, 3)

        # --- coalesced pairs evolve further only when a marginal is requested
        if snapshot_step is not None:
            s4 = np.flatnonzero(in_stage == 4)
            if s4.size:
                x_new, code = _advance(xs[s4], spec, dt, z[s4], u_xb[s4], u_yb[s4])
                x_new = np.where(code >= 0, x0, x_new)
                xs[s4] = x_new
                ys[s4] = x_new
            if step + 1 == snapshot_step:
                snapshot[orig] = xs
        elif (stage == 4).any():
            keep = stage < 4
            xs, ys = xs[keep], ys[keep]
            stage = stage[keep]
            upper_is_x = upper_is_x[keep]
            orig = orig[keep]

        if trace is not None and xs.size:
            trace.append((t, float(xs[0]), float(ys[0]), int(stage[0]), float(z[0])))

    return res, snapshot


def _record(res: _CouplingResult, idx: np.ndarray, t1, t2, tc, stage_no: int) -> None:
    if t1 is not None:
        res.tau_1[idx] = np.minimum(res.tau_1[idx], t1)
    if t2 is not None:
        res.tau_2[idx] = t2
    res.tau_c[idx] = tc
    res.coalesced_stage[idx] = stage_no


def _check_staged_inputs(spec: ProcessSpec, x: float, y: float) -> None:
    if not spec.is_centered_delta:
        raise RequiresCenteredDelta("three-stage coupling needs the midpoint atom")
    if spec.mu < 0.0:
        raise RequiresPositiveDrift("three-stage coupling needs mu >= 0")
    if not (spec.a < x <= y < spec.b):
        raise OutOfDomain(f"need a < x <= y < b, got x={x}, y={y}")


def staged_coupling(spec: ProcessSpec, x: float, y: float, dt: float, rng,
                    trace: bool = False):
    """One coupled pair from (x, y); returns its :class:`CouplingRecord`.

    With ``trace=True`` also returns the per-step rows
    (t, x, y, stage, noise increment) for construction-level tests.
    """
    _check_staged_inputs(spec, x, y)
    gen = _as_generator(rng)
    rows: list | None = [] if trace else None
    # coalescence happens on the diffusive time scale; 64 of them is plenty
    horizon = 64.0 * spec.length**2 / spec.sigma**2
    res, _ = _run_coupling(spec, x, y, 1, dt, gen, horizon, trace=rows)
    if not np.isfinite(res.tau_c[0]):
        raise StageBudgetExceeded("pair did not coalesce within the step budget")
    record = CouplingRecord(
        tau_I=float(res.tau_1[0]), tau_II=float(res.tau_2[0]),
        tau_coup=float(res.tau_c[0]),
        coalesced_in_stage=STAGE_LABELS[int(res.coalesced_stage[0])],
        start_x=float(x), start_y=float(y))
    return (record, rows) if trace else record


def coupling_records(spec: ProcessSpec, x: float, y: float, n_pairs: int, dt: float,
                     seed: int, horizon: float):
    """Vectorized stage times for n_pairs couples (inf where censored)."""
    _check_staged_inputs(spec, x, y)
    gen = RngStream(seed, 0).generator()
    res, _ = _run_coupling(spec, x, y, n_pairs, dt, gen, horizon)
    return res.tau_1, res.tau_2, res.tau_c, res.coalesced_stage


def coupling_marginal(spec: ProcessSpec, x: float, y: float, n_pairs: int, dt: float,
                      seed: int, t: float) -> np.ndarray:
    """x-marginal of the coupled construction at time t (law check support)."""
    _check_staged_inputs(spec, x, y)
    gen = RngStream(seed, 0).generator()
    step = int(round(t / dt))
    _, snap = _run_coupling(spec, x, y, n_pairs, dt, gen, t, snapshot_step=step)
    return snap


def coupling_tail(spec: ProcessSpec, x: float, y: float, n_paths: int, dt: float,
                  t_grid, seed: int) -> tuple[TailTable, RateFit]:
    """Empirical coalescence-time survival and its fitted exponential rate.

    The fitted rate is the empirical lower-bound certificate for the spectral
    gap.  The fit window is chosen automatically on the resolved tail:
    survival at most 0.4 (past the stage transient) with at least 25
    surviving pairs (above the binomial noise floor).  Fewer than 10^4 pairs
    raise ConfigError.
    """
    if n_paths < 10_000:
        raise ConfigError("tail estimation needs at least 10^4 pairs")
    t_grid = sorted(float(t) for t in t_grid)
    _, _, tau_c, _ = coupling_records(spec, x, y, n_paths, dt, seed, horizon=t_grid[-1])
    surv = np.array([(tau_c > t).mean() for t in t_grid])
    table = TailTable(thresholds=tuple(t_grid), survival=tuple(surv.tolist()), n=n_paths)
    usable = (surv <= 0.4) & (surv * n_paths >= 25.0)
    ts = np.array(t_grid)[usable]
    if ts.size >= 3:
        window = (float(ts[0]), float(ts[-1]))
    else:
        window = (t_grid[0], t_grid[-1])
    fit = fit_rate((np.array(t_grid), surv), window, noise_floor=10.0 / n_paths)
    return table, fit


# ---------------------------------------------------------------------------
# Mirror coupling of killed Brownian motions
# ---------------------------------------------------------------------------

def mirror_exit_dominance(interval: Interval, y: float, t_grid, n_paths: int,
                          seed: int, dt: float = 1e-4) -> list[tuple[float, float, float]]:
    """Empirical exit-time survivals of the mirror-coupled pair.

    Standard Brownian motions from y (driven by -B) and from the center
    (driven by +B) share one noise until they meet, then glue.  Returns rows
    (t, survival from y, survival from center); the construction makes the
    centered survival dominate up to Monte Carlo error.
    """
    if not interval.contains(y):
        raise OutOfDomain(f"start {y} outside open interval")
    t_grid = sorted(float(t) for t in t_grid)
    a, b = interval.a, interval.b
    x0 = interval.midpoint
    m = 0.5 * (y - x0)                  # B level at which the copies meet
    gen = RngStream(seed, 0).generator()
    sqrt_dt = math.sqrt(dt)

    bm = np.zeros(n_paths)
    met = np.zeros(n_paths, dtype=bool)
    tau_y = np.full(n_paths, np.inf)
    tau_c = np.full(n_paths, np.inf)
    if abs(m) == 0.0:
        met[:] = True
    sgn = 1.0 if m >= 0.0 else -1.0
    n_steps = int(round(t_grid[-1] / dt))
    for step in range(n_steps):
        t = (step + 1) * dt
        z = gen.standard_normal(n_paths)
        u_meet = gen.random(n_paths)
        u1 = gen.random(n_paths)
        u2 = gen.random(n_paths)
        u3 = gen.random(n_paths)
        u4 = gen.random(n_paths)
        bm1 = bm + sqrt_dt * z

        newly_met = ~met & _crosses(sgn * (m - bm), sgn * (m - bm1), dt, u_meet)
        glued = met | newly_met

        # process started at the center: x0 + B throughout
        co = x0 + bm
        cn = x0 + bm1
        exit_c = _crosses(b - co, b - cn, dt, u3) | _crosses(co - a, cn - a, dt, u4)

        # process started at y: y - B until met; one path (the center one)
        # after gluing, so glued pairs share a single exit decision
        xo = y - bm
        xn = y - bm1
        exit_x = _crosses(b - xo, b - xn, dt, u1) | _crosses(xo - a, xn - a, dt, u2)
        exit_x = np.where(glued, exit_c, exit_x)

        tau_y[np.isinf(tau_y) & exit_x] = t
        tau_c[np.isinf(tau_c) & exit_c] = t

        met |= newly_met
        bm = bm1

    return [(t, float((tau_y > t).mean()), float((tau_c > t).mean())) for t in t_grid]


# ---------------------------------------------------------------------------
# Convolution-inequality check
# ---------------------------------------------------------------------------

def convolution_bound_check(spec: ProcessSpec, j_halfwidth: float | None, t_grid,
                            n_paths: int, seed: int):
    """Empirical two-sided comparison of the exit-time convolution inequality.

    Left side: the analytic fast-exit survival on (a, x0) (supremum over
    starts) convolved against simulated exit-time samples of a standard
    Brownian motion from the symmetric window of the given halfwidth.  Right
    side: the empirical window-exit survival itself.  Returns
    (rows, holds) where rows are (t, lhs, rhs, ratio, survivors) and holds
    is True when every supported ratio is below one.  Grid times where fewer
    than 10 samples survive carry ratio NaN and are excluded from the verdict
    (their true survival is below Monte Carlo resolution).
    """
    if not spec.mu > 0.0:
        raise RequiresPositiveDrift("convolution comparison needs mu > 0")
    x0 = spec.nu.locations[0]
    h = j_halfwidth if j_halfwidth is not None else (spec.b - x0) / (4.0 * spec.sigma)
    t_grid = sorted(float(t) for t in t_grid)
    window_spec = ProcessSpec(Interval(-h, h), 1.0, 0.0, JumpDistribution.delta(0.0))
    taus, _ = exit_time_ensemble(window_spec, 0.0, n_paths, default_dt(window_spec),
                                 RngStream(seed, 0), horizon=4.0 * t_grid[-1])

    sub = Interval(spec.a, x0)
    xs = np.linspace(spec.a, x0, 35)[1:-1]
    us = np.linspace(0.0, t_grid[-1], 2001)
    sup_surv = np.zeros_like(us)
    for xx in xs:
        sup_surv = np.maximum(
            sup_surv, killed_survival_grid(spec, xx, us, n_terms=128, interval=sub))
    sup_surv[0] = 1.0

    rows = []
    supported_ratios = []
    for t in t_grid:
        done = taus <= t
        lhs = float(np.where(done, np.interp(np.maximum(t - taus, 0.0), us, sup_surv),
                             0.0).mean())
        survivors = int((taus > t).sum())
        rhs = survivors / n_paths
        if survivors >= 10:
            ratio = lhs / rhs
            supported_ratios.append(ratio)
        else:
            ratio = float("nan")
        rows.append((t, lhs, rhs, ratio, survivors))
    holds = bool(supported_ratios) and all(r < 1.0 for r in supported_ratios)
    return rows, holds
