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
certificate for the spectral gap.  Each stage moves one Brownian coordinate
between two lines in time: in stages I-II the midpoint moves by the drift
alone and the gap is a driftless Brownian motion, and in stage III the gap
is fixed and the midpoint moves.  So with drift a step is one two-barrier
bridge test, and at mu = 0, where every line is constant, the stage times
are drawn exactly, with no time step, and only traces and snapshots march.
The mirror coupling takes no steps either.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analytic import _survival_grid
from .errors import (
    ConfigError,
    OutOfDomain,
    RequiresCenteredDelta,
    RequiresPositiveDrift,
    StepBudgetExceeded,
)
from .model import Interval, JumpDistribution, ProcessSpec, RateFit
from .simulate import (
    LEFT,
    RIGHT,
    RngStream,
    _check_counts,
    _check_dt,
    _check_times,
    _interval_exits,
    _step_count,
    _step_exits,
    _window_exit_times,
    fit_rate,
)

STAGE_LABELS = {1: "I", 2: "II", 3: "III"}


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
# Three-stage coupling engine (vectorized: exact at mu = 0, one step rule otherwise)
# ---------------------------------------------------------------------------

class _CouplingResult:
    def __init__(self, n: int):
        self.tau_1 = np.full(n, np.inf)
        self.tau_2 = np.full(n, np.inf)
        self.tau_c = np.full(n, np.inf)
        self.coalesced_stage = np.zeros(n, dtype=np.int8)


def _driftfree_coupling(spec: ProcessSpec, x: float, y: float, n: int,
                        gen: np.random.Generator, horizon: float) -> _CouplingResult:
    """Stage times of n coupled pairs at mu = 0, sampled exactly with no time step.

    Without drift the midpoint s = (x + y) / 2 stays put in stages I-II and
    the gap g = y - x is a Brownian motion with volatility 2 sigma, so each
    stage is one exit of one coordinate from a fixed interval, drawn by
    _interval_exits:

    * stage I: g leaves (0, 2 min(b - s, s - a)).  At 0 the copies meet.
      Otherwise the copy on the nearer side exits, and restarts at x0; at
      s = x0 both exit at once and restart at x0, so stage II starts with
      the gap at 0 and the pair glues, labelled stage II.
    * stage II: the other copy p is at 2s - b or 2s - a, and the gap
      |p - x0| leaves (0, L/2).  An exit line lies L/2 + (b - p) or
      L/2 + (p - a) away, beyond L/2, so no copy exits in stage II.
    * stage III: the gap stays L/2 and the midpoint, with volatility sigma,
      leaves (a + L/4, b - L/4).

    All pairs draw stage I, then the stage II pairs, then the stage III
    pairs, each in index order; a pair past the horizon draws no further.
    Times past the horizon are censored to inf, with stage 0.  At x == y
    the gap starts on its lower end, so the pair coalesces at t = 0 in
    stage I with no draw.
    """
    res = _CouplingResult(n)
    stage = res.coalesced_stage
    a, b, x0 = spec.a, spec.b, spec.nu.locations[0]
    quarter = 0.25 * spec.length
    vol = 2.0 * spec.sigma              # the gap's volatility in stages I-II
    s, g = 0.5 * (x + y), y - x
    d_b, d_a = b - s, s - a
    # the copy left when the nearer one exits; at s = x0 both restart at x0
    p = x0 if d_b == d_a else 2.0 * s - (b if d_b < d_a else a)
    g2, s3 = abs(p - x0), 0.5 * (p + x0)
    exits = (                           # distances to the lower and upper exit, per unit noise
        (g / vol, (2.0 * min(d_b, d_a) - g) / vol),
        (g2 / vol, (2.0 * quarter - g2) / vol),
        ((s3 - a - quarter) / spec.sigma, (b - quarter - s3) / spec.sigma),
    )
    tau = np.zeros(n)
    on = np.arange(n)
    for k, ((d_lo, d_hi), out) in enumerate(zip(exits, (res.tau_1, res.tau_2, res.tau_c)), 1):
        t, side = _interval_exits(np.full(on.size, d_lo), np.full(on.size, d_hi), gen)
        tau[on] += t
        stage[on] = k
        on = on[(side == RIGHT) & (tau[on] <= horizon)]
        out[:] = tau
        out[out > horizon] = np.inf
    stage[np.isinf(res.tau_c)] = 0
    return res


def _run_coupling(spec: ProcessSpec, x: float, y: float, n: int, dt: float,
                  gen: np.random.Generator, horizon: float,
                  trace: list | None = None, snapshot: bool = False):
    """March n coupled pairs to the horizon, one coordinate and one bridge test per step.

    At mu = 0, unless a trace or a snapshot is asked for, the stage times
    are exact draws by _driftfree_coupling instead, and dt is ignored.

    A pair is its midpoint s, the copies' positions ``hi >= lo`` and whether
    x is the upper copy; g = hi - lo.  x moves with +dW.  In stages I-II y
    moves with -dW, so s moves by mu dt alone and g / 2 is the coordinate,
    between 0 (the meet) and the lowest of the lines b - s (the upper copy
    at b), s - a (the lower copy at a) and, in stage II, L/4 (the gap at
    half).  In stage III and after coalescence (stage 4) y moves with +dW,
    g is fixed and s is the coordinate, between a + g/2 and b - g/2.  One
    _step_exits call per step tests every pair.  Between restarts s moves
    one way, so at most one step per stage has s crossing the midpoint,
    where the exit lines cross (or a quarter point, where one crosses L/4);
    that step is tested against the lowest line at each end.

    Events are booked at the end of their step (the last one clamped to the
    horizon), where the lowest line decides: a lower hit glues the pair at
    s (unless a coarse drift step carried s past b); an upper hit whose
    lowest line is L/4 enters stage III at gap half; any other stage I-II
    hit restarts at x0 the copy with the lowest line, both at a tie, and
    any copy that ended past an end.  A pair with both copies restarted
    glues at x0 in stage II.  From stage III on an exit puts both copies at
    x0.  The positions are stored, not formed from s, so starts and
    restarts stay exact, and lo = hi - L/2 keeps the traced stage III gap
    exact.

    Pairs with x == y coalesce at t = 0.  Coalesced pairs are dropped from
    the working set (a merge keyed by original index), except in snapshot
    mode, where they keep evolving as single restarted paths so the
    x-positions returned at the horizon have the process law.  Optionally
    records a per-step trace (n == 1 only).
    """
    if spec.mu == 0.0 and trace is None and not snapshot:
        return _driftfree_coupling(spec, x, y, n, gen, horizon), None
    n_steps = _step_count(n, horizon, dt)
    a, b, x0 = spec.a, spec.b, spec.nu.locations[0]
    half, quarter = 0.5 * spec.length, 0.25 * spec.length
    sig_sqrt_dt = spec.sigma * math.sqrt(dt)
    sig2dt = spec.sigma**2 * dt
    drift = spec.mu * dt

    res = _CouplingResult(n)
    s = np.full(n, 0.5 * (x + y))
    hi = np.full(n, float(y))           # x <= y: y starts as the upper copy
    lo = np.full(n, float(x))
    x_up = np.zeros(n, dtype=bool)
    stage = np.ones(n, dtype=np.int8)
    orig = np.arange(n)
    if x == y:
        res.tau_1[:] = res.tau_2[:] = res.tau_c[:] = 0.0
        res.coalesced_stage[:] = 1
        if not snapshot:
            return res, None
        stage[:] = 4

    def barriers(hi, lo, opp, cap):
        # the coordinate's distances to its barriers; in stages I-II it is g / 2
        d_hi, d_lo, h = b - hi, lo - a, 0.5 * (hi - lo)
        return (np.where(opp, h, d_lo),
                np.minimum(d_hi, np.where(opp, np.minimum(d_lo, cap - h), np.inf)))

    for step in range(n_steps):
        if not s.size:
            break
        t = min((step + 1) * dt, horizon)
        z = gen.standard_normal(s.size)
        opp = stage <= 2                # the copies take opposite noise signs
        dw = sig_sqrt_dt * z            # the upper copy's noise
        np.negative(dw, out=dw, where=opp & ~x_up)
        s1 = s + drift + dw * ~opp
        hi1 = hi + drift + dw
        lo1 = np.where(opp, lo + drift - dw, hi1 - (hi - lo))
        cap = np.where(stage == 2, quarter, np.inf)
        (dn0, up0), (dn1, up1) = barriers(hi, lo, opp, cap), barriers(hi1, lo1, opp, cap)
        code = _step_exits(dn0, dn1, up0, up1, sig2dt, gen)
        s, hi, lo = s1, hi1, lo1

        e = np.flatnonzero(code >= 0)
        st, left, s_e, h = stage[e], code[e] == LEFT, s[e], 0.5 * (hi[e] - lo[e])
        d_b, d_a = b - s_e, s_e - a
        met = (st <= 2) & left & (d_b > 0.0)
        to3 = (st == 2) & ~left & (quarter < np.minimum(d_b, d_a))
        # the copy whose line is lowest restarts, and so does a copy that
        # ended past an end; from stage III on an exit puts both at x0
        up_out = (st >= 3) | (d_b <= np.maximum(d_a, h))
        lo_out = (st >= 3) | (d_a <= np.maximum(d_b, h)) | (d_b <= -h)
        p_up = np.where(met, s_e, np.where(up_out, x0, hi[e]))[~to3]
        p_lo = np.where(met, s_e, np.where(lo_out, x0, lo[e]))[~to3]
        r = e[~to3]
        s[r], hi[r], lo[r] = 0.5 * (p_up + p_lo), np.maximum(p_up, p_lo), np.minimum(p_up, p_lo)
        x_up[r] ^= p_lo > p_up
        res.tau_1[orig[e[st == 1]]] = t
        stage[e[(st == 1) & ~met]] = 2
        done = e[met | (up_out & lo_out & ~to3 & (st <= 3))]
        if done.size:
            k = orig[done]
            res.tau_2[k] = np.minimum(res.tau_2[k], t)
            res.tau_c[k] = t
            res.coalesced_stage[k] = stage[done]
            stage[done] = 4
        to3 = e[to3]
        hi[to3] = s[to3] + quarter
        lo[to3], stage[to3] = hi[to3] - half, 3
        res.tau_2[orig[to3]] = t

        if done.size and not snapshot:
            keep = stage < 4
            s, hi, lo, x_up, stage, orig = (s[keep], hi[keep], lo[keep], x_up[keep],
                                            stage[keep], orig[keep])

        if trace is not None and s.size:
            pair = (float(hi[0]), float(lo[0]))
            trace.append((t, *(pair if x_up[0] else pair[::-1]), int(stage[0]), float(z[0])))

    return res, (np.where(x_up, hi, lo) if snapshot else None)


def _check_staged_inputs(spec: ProcessSpec, x: float, y: float, dt: float) -> None:
    _check_dt(dt)
    if not spec.is_centered_delta:
        raise RequiresCenteredDelta("three-stage coupling needs the midpoint atom")
    if spec.mu < 0.0:
        raise RequiresPositiveDrift("three-stage coupling needs mu >= 0")
    if not (spec.a < x <= y < spec.b):
        raise OutOfDomain(f"need a < x <= y < b, got x={x}, y={y}")


def staged_coupling(spec: ProcessSpec, x: float, y: float, dt: float, rng: RngStream,
                    trace: bool = False):
    """One coupled pair from (x, y); returns its :class:`CouplingRecord`.

    With ``trace=True`` also returns the per-step rows
    (t, x, y, stage, noise increment) for construction-level tests; without
    a trace the times at mu = 0 are exact and dt is ignored.
    """
    _check_staged_inputs(spec, x, y, dt)
    gen = rng.generator()
    rows: list | None = [] if trace else None
    # coalescence happens on the diffusive time scale; 64 of them is plenty
    horizon = 64.0 * spec.length**2 / spec.sigma**2
    res, _ = _run_coupling(spec, x, y, 1, dt, gen, horizon, trace=rows)
    if not np.isfinite(res.tau_c[0]):
        raise StepBudgetExceeded(f"pair did not coalesce within t={horizon:.6g}")
    record = CouplingRecord(
        tau_I=float(res.tau_1[0]), tau_II=float(res.tau_2[0]),
        tau_coup=float(res.tau_c[0]),
        coalesced_in_stage=STAGE_LABELS[int(res.coalesced_stage[0])],
        start_x=float(x), start_y=float(y))
    return (record, rows) if trace else record


def coupling_records(spec: ProcessSpec, x: float, y: float, n_pairs: int, dt: float,
                     seed: int, horizon: float):
    """Vectorized stage times for n_pairs couples (inf where censored);
    exact at mu = 0, where dt is ignored."""
    _check_staged_inputs(spec, x, y, dt)
    _check_counts(n_pairs)
    _check_times([horizon])
    gen = RngStream(seed, 0).generator()
    res, _ = _run_coupling(spec, x, y, n_pairs, dt, gen, horizon)
    return res.tau_1, res.tau_2, res.tau_c, res.coalesced_stage


def coupling_marginal(spec: ProcessSpec, x: float, y: float, n_pairs: int, dt: float,
                      seed: int, t: float) -> np.ndarray:
    """x-marginal of the coupled construction at time t (law check support)."""
    _check_staged_inputs(spec, x, y, dt)
    _check_counts(n_pairs)
    _check_times([t])
    gen = RngStream(seed, 0).generator()
    _, snap = _run_coupling(spec, x, y, n_pairs, dt, gen, t, snapshot=True)
    return snap


def coupling_tail(spec: ProcessSpec, x: float, y: float, n_paths: int, dt: float,
                  t_grid, seed: int) -> tuple[TailTable, RateFit]:
    """Empirical coalescence-time survival and its fitted exponential rate.

    The fitted rate is the empirical lower-bound certificate for the spectral
    gap.  The fit window is chosen automatically on the resolved tail:
    survival at most 0.4 (past the stage transient) with at least 25
    surviving pairs (above the binomial noise floor).  Fewer than 10^4 pairs
    raise ConfigError.  At mu = 0 the coalescence times are exact, with no
    time step, and dt is ignored.
    """
    if n_paths < 10_000:
        raise ConfigError("tail estimation needs at least 10^4 pairs")
    t_grid = _check_times(t_grid)
    _, _, tau_c, _ = coupling_records(spec, x, y, n_paths, dt, seed, horizon=t_grid[-1])
    # the stepping route books a coalescence at the end of its step, (step +
    # 1) dt, which can round above a grid point t = k dt; a pair coalesced
    # in step k has not survived t, so booked times within 1e-9 dt of t are
    # not past it
    slack = 0.0 if spec.mu == 0.0 else 1e-9 * dt
    surv = np.array([(tau_c > t + slack).mean() for t in t_grid])
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
    """Exit-time survivals of the mirror-coupled pair, sampled exactly.

    Standard Brownian motions from y (driven by -B) and from the centre x0
    (driven by +B) share one noise until they meet, then glue.  Returns rows
    (t, survival from y, survival from centre).  A y below x0 is reflected
    about x0, which leaves the law of the pair unchanged.  Then each path is
    two exits of B from an interval, drawn by _interval_exits with no time
    step.  Phase 1 is B's exit from (y - b, m), m = (y - x0) / 2: at y - b
    the copy from y leaves at b, at m the copies meet.  Phase 2 is the
    centre copy's exit from (a, b).  So the copy from y exits no later than
    the centre one on every path.  At m = 0 phase 1 ends at once, with no
    draw.  ``dt`` is ignored; existing callers still pass it.
    """
    _check_counts(n_paths)
    if not interval.contains(y):
        raise OutOfDomain(f"start {y} outside open interval")
    t_grid = _check_times(t_grid)
    a, b = interval.a, interval.b
    x0 = interval.midpoint
    y = max(y, 2.0 * x0 - y)
    m = 0.5 * (y - x0)                  # B level at which the copies meet
    gen = RngStream(seed, 0).generator()
    tau_1, side = _interval_exits(np.full(n_paths, b - y), np.full(n_paths, m), gen)
    exited = side == LEFT               # the copy from y reached b before the meet
    c = x0 + np.where(exited, y - b, m)     # the centre copy when phase 1 ends
    tau_2, _ = _interval_exits(c - a, b - c, gen)
    tau_c = tau_1 + tau_2
    tau_y = np.where(exited, tau_1, tau_c)
    return [(t, float((tau_y > t).mean()), float((tau_c > t).mean())) for t in t_grid]


# ---------------------------------------------------------------------------
# Convolution-inequality check
# ---------------------------------------------------------------------------

def convolution_bound_check(spec: ProcessSpec, j_halfwidth: float | None, t_grid,
                            n_paths: int, seed: int):
    """Empirical two-sided comparison of the exit-time convolution inequality.

    Left side: the analytic fast-exit survival on (a, x0) (supremum over
    starts) convolved against exit-time samples of a standard Brownian
    motion from the symmetric window of the given halfwidth.  Right side:
    the empirical window-exit survival itself.  The window exit times are
    exact draws from their series law (one uniform per path, inverted), so
    there is no step size and no horizon.  Returns (rows, holds) where rows
    are (t, lhs, rhs, ratio, survivors) and holds is False when some
    supported ratio exceeds one by more than 3 standard errors, the ratio's
    delta-method error std(f - ratio s) / (sqrt(n) rhs) over the per-path
    lhs terms f and survival indicators s.  Grid times where fewer than 10
    samples survive carry ratio NaN and are excluded from the verdict (their
    true survival is below Monte Carlo resolution); with none left, holds is
    False.
    """
    if not spec.mu > 0.0:
        raise RequiresPositiveDrift("convolution comparison needs mu > 0")
    x0 = spec.nu.locations[0]
    h = j_halfwidth if j_halfwidth is not None else (spec.b - x0) / (4.0 * spec.sigma)
    Interval(-h, h)     # refuses a halfwidth that is not finite and positive
    t_grid = _check_times(t_grid)
    _check_counts(n_paths)
    taus = _window_exit_times(RngStream(seed, 0).generator().random(n_paths), h)

    # the killed law on (a, x0) never reads its restart atom
    fast = ProcessSpec(Interval(spec.a, x0), spec.sigma, spec.mu,
                       JumpDistribution.delta(0.5 * (spec.a + x0)))
    xs = np.linspace(spec.a, x0, 35)[1:-1]
    us = np.linspace(0.0, t_grid[-1], 2001)
    sup_surv = _survival_grid(fast, xs, us).max(axis=1)

    rows = []
    excesses = []
    for t in t_grid:
        done = taus <= t
        f = np.where(done, np.interp(np.maximum(t - taus, 0.0), us, sup_surv), 0.0)
        lhs = float(f.mean())
        alive = ~done
        survivors = int(alive.sum())
        rhs = survivors / n_paths
        if survivors >= 10:
            ratio = lhs / rhs
            # delta method: the ratio of means has variance var(f - ratio s) / (n rhs^2)
            se = float(np.std(f - ratio * alive)) / (math.sqrt(n_paths) * rhs)
            excesses.append(ratio - 1.0 - 3.0 * se)
        else:
            ratio = float("nan")
        rows.append((t, lhs, rhs, ratio, survivors))
    holds = bool(excesses) and all(e <= 0.0 for e in excesses)
    return rows, holds
