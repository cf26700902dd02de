import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from jumpdiff import coupling, simulate
from jumpdiff.analytic import killed_survival
from jumpdiff.coupling import (
    CouplingRecord,
    TailTable,
    convolution_bound_check,
    coupling_marginal,
    coupling_records,
    coupling_tail,
    mirror_exit_dominance,
    staged_coupling,
)
from jumpdiff.errors import (
    JumpdiffError,
    NonpositiveDt,
    OutOfDomain,
    RequiresCenteredDelta,
    RequiresPositiveDrift,
    StepBudgetExceeded,
)
from jumpdiff.model import Interval, unit_spec
from jumpdiff.simulate import RngStream, ensemble_snapshots, ensemble_tv
from tests.test_model import make_spec

PI2 = math.pi**2


# --- record and table types ----------------------------------------------------

def test_record_orders_stage_times():
    with pytest.raises(ValueError):
        CouplingRecord(tau_I=1.0, tau_II=0.5, tau_coup=2.0,
                       coalesced_in_stage="II", start_x=0.2, start_y=0.6)


def test_tail_table_invariants():
    with pytest.raises(ValueError):
        TailTable(thresholds=(0.1, 0.2), survival=(0.4, 0.5), n=100)
    with pytest.raises(ValueError):
        TailTable(thresholds=(0.1,), survival=(1.2,), n=100)


# --- staged coupling ------------------------------------------------------------

def test_equal_starts_coalesce_immediately(spec20):
    rec = staged_coupling(spec20, 0.4, 0.4, 1e-3, RngStream(1))
    assert rec.coalesced_in_stage == "I"
    assert rec.tau_coup == 0.0


def test_start_meet_test_does_not_depend_on_the_offset():
    # starts half a length apart never meet at t = 0, however far the
    # interval sits from 0 (a relative tolerance of 1e-5 |y| glued them all
    # on (1e5, 1e5 + 1))
    surv = {}
    for a in (0.0, 1e5):
        spec = make_spec(a=a, b=a + 1.0, mu=20.0, atoms=((a + 0.5, 1.0),))
        _, _, tau_c, _ = coupling_records(spec, a + 0.25, a + 0.75, 2000, 2e-4, 1, 0.03)
        assert not (tau_c == 0.0).any()
        surv[a] = float((tau_c > 0.03).mean())
    se = math.sqrt(surv[0.0] * (1.0 - surv[0.0]) / 2000)
    assert abs(surv[1e5] - surv[0.0]) <= 3.0 * se


def test_staged_coupling_preconditions(spec20):
    with pytest.raises(OutOfDomain):
        staged_coupling(spec20, 0.75, 0.25, 1e-3, RngStream(1))
    with pytest.raises(RequiresCenteredDelta):
        staged_coupling(make_spec(mu=5.0, atoms=((0.4, 1.0),)), 0.2, 0.6, 1e-3,
                        RngStream(1))
    with pytest.raises(RequiresPositiveDrift):
        staged_coupling(unit_spec(-1.0), 0.2, 0.6, 1e-3, RngStream(1))


def test_stage_times_ordered_and_stage_one_bounded(spec20):
    t1, t2, tc, stage = coupling_records(spec20, 0.25, 0.75, 20_000, 1e-4, 5,
                                         horizon=0.6)
    assert np.all(np.isfinite(tc))
    assert np.all(t1 <= t2) and np.all(t2 <= tc)
    # both copies drift right at speed mu, so stage I ends within L / mu
    # (one-step slack from end-of-step attribution)
    assert np.all(t1 <= spec20.length / spec20.mu + 1e-4 + 1e-12)
    assert set(np.unique(stage)) <= {1, 2, 3}


def test_stage_three_gap_exactly_half_length(spec20):
    # scan seeds for a pair that reaches stage III and check the recorded
    # trace keeps |X - Y| = (b - a) / 2 exactly while there
    for seed in range(40):
        rec, rows = staged_coupling(spec20, 0.25, 0.75, 1e-4, RngStream(seed),
                                    trace=True)
        if rec.coalesced_in_stage != "III":
            continue
        gaps = [abs(r[2] - r[1]) for r in rows if r[3] == 3]
        assert gaps, "stage III entered but no trace rows"
        assert all(g == 0.5 for g in gaps)
        return
    pytest.fail("no seed reached stage III in 40 tries")


def test_stage_two_distance_moves_with_shared_noise_only(spec20):
    # between restarts the gap changes exactly through twice the noise
    # increment; restart steps (a coordinate lands on the atom) are exempt
    x0 = 0.5
    checked = 0
    for seed in range(30):
        rec, rows = staged_coupling(spec20, 0.25, 0.75, 1e-4, RngStream(seed),
                                    trace=True)
        lam = 2.0 * spec20.sigma * math.sqrt(1e-4)
        for prev, cur in zip(rows, rows[1:]):
            if prev[3] != 2 or cur[3] != 2:
                continue
            if cur[1] == x0 or cur[2] == x0:
                continue
            dd = abs(cur[2] - cur[1]) - abs(prev[2] - prev[1])
            z = cur[4]
            assert min(abs(dd - lam * z), abs(dd + lam * z)) < 1e-12
            checked += 1
        if checked > 200:
            return
    assert checked > 50


def test_stage_step_budget(spec20, monkeypatch):
    # 10 pairs to t = 1 at dt 1e-4 ask for 10^5 pair-steps, far over 25
    monkeypatch.setattr(simulate, "PATH_STEP_BUDGET", 25)
    with pytest.raises(StepBudgetExceeded):
        coupling_records(spec20, 0.25, 0.75, 10, 1e-4, 1, horizon=1.0)


def test_coupling_tail_rate_large_drift(spec20):
    grid = [0.01 * k for k in range(1, 16)]
    table, fit = coupling_tail(spec20, 0.25, 0.75, 30_000, 1e-4, grid, 7)
    assert 0.8 * 8 * PI2 <= fit.rate <= 1.2 * 8 * PI2
    assert table.n == 30_000


def test_coupling_tail_rate_driftfree(spec0):
    grid = [0.04 * k for k in range(1, 16)]
    _, fit = coupling_tail(spec0, 0.25, 0.75, 30_000, 1e-4, grid, 7)
    assert fit.rate >= 0.8 * 2 * PI2


def test_coupling_survival_starts_at_one(spec20):
    table, _ = coupling_tail(spec20, 0.25, 0.75, 10_000, 1e-4,
                             [1e-3] + [0.01 * k for k in range(1, 14)], 3)
    assert table.survival[0] > 0.999


def test_coupled_marginal_has_process_law():
    # the first coordinate of the coupled pair, on its own, is the restarted
    # diffusion: compare against a plain ensemble at t = 1, which is exact in
    # time, so the budget covers Monte Carlo noise and the coupling's O(dt)
    # step bias at dt = 5e-4
    spec = unit_spec(5.0)
    xs = coupling_marginal(spec, 0.25, 0.75, 100_000, 5e-4, 21, 1.0)
    hist = np.histogram(xs, bins=32, range=(0.0, 1.0))[0] / xs.size
    snap = ensemble_snapshots(spec, 0.25, [1.0], 100_000, 32, 5e-4,
                              RngStream(99))[0]
    tv = 0.5 * float(np.abs(hist - np.array(snap.histogram)).sum())
    assert tv < 0.02


def test_coupled_marginal_stays_inside_at_coarse_steps():
    # with a drift step of 0.4 both copies often end a stage I-II step past
    # b; each must restart, so no copy is ever outside the interval
    xs = coupling_marginal(unit_spec(200.0), 0.25, 0.75, 4000, 2e-3, 3, 0.01)
    assert np.all((xs > 0.0) & (xs < 1.0))


@pytest.mark.parametrize("t", [0.0, 4e-4])
def test_coupled_marginal_within_half_a_step_is_the_start(spec20, t):
    # t rounds to step 0 of dt = 1e-3: the x-copy has not moved
    xs = coupling_marginal(spec20, 0.25, 0.75, 4, 1e-3, 1, t)
    assert np.array_equal(xs, np.full(4, 0.25))


def test_coupling_inequality_quick(spec0):
    # empirical TV is below the empirical coalescence survival within errors
    grid = [0.05, 0.1, 0.15, 0.2]
    curve = ensemble_tv(spec0, 0.25, 0.75, grid, 20_000, 64, 2e-4, 11)
    table, _ = coupling_tail(spec0, 0.25, 0.75, 20_000, 2e-4, grid, 12)
    for tv, p, se_p in zip(curve.tv, table.survival, table.standard_errors()):
        combined = math.sqrt(curve.se_scale() ** 2 + se_p**2)
        assert tv <= p + 3.0 * combined


# --- exact drift-free coupling ---------------------------------------------------

def _sine_series_survival(a, c, x, sigma, t, terms=400):
    """P(sigma W from x stays in (a, c) up to time t), W standard Brownian motion:
    sum_k 2 (1 - (-1)^k) / (k pi) sin(k pi (x - a) / l) exp(-k^2 pi^2 sigma^2 t / (2 l^2))
    with l = c - a."""
    ell = c - a
    k = np.arange(1, terms + 1)
    coef = 2.0 * (1.0 - (-1.0) ** k) / (k * math.pi) * np.sin(k * math.pi * (x - a) / ell)
    return float(coef @ np.exp(-(k * math.pi / ell) ** 2 * sigma**2 * t / 2.0))


@pytest.mark.parametrize("spec, x, times", [
    (unit_spec(0.0), 0.25, (0.02, 0.05, 0.1, 0.2, 0.3)),
    (make_spec(a=-1.0, b=2.0, sigma=0.7), 0.125, (0.05, 0.1, 0.2, 0.4, 0.8, 1.6)),
], ids=["unit", "wide-sigma0.7"])
def test_driftfree_coalescence_matches_the_sine_series(spec, x, times):
    # from starts symmetric about x0 both copies reach the boundary at one
    # instant, so the pair coalesces when x, a sigma-Brownian motion, leaves
    # (a, x0): the copies meet as x reaches x0, and x reaches a as y reaches b
    x0 = spec.nu.locations[0]
    n = 1_000_000
    _, _, tau_c, stage = coupling_records(spec, x, 2.0 * x0 - x, n, 2e-4, 31, times[-1])
    assert not (stage == 3).any()
    for t in times:
        p = _sine_series_survival(spec.a, x0, x, spec.sigma, t)
        assert abs(float((tau_c > t).mean()) - p) <= 3.0 * math.sqrt(p * (1.0 - p) / n)


def test_stepping_route_glues_symmetric_pairs_in_stage_two():
    # the stepping route (taken at mu = 0 for snapshots) sees the tie of the
    # drift-free route: from starts symmetric about x0 both copies reach the
    # boundary at one instant and glue, so no pair reaches stage III, and the
    # pair coalesces as the sine series says; a coalescence is booked at the
    # end of its step, so the survival to grid time t counts the times past t + dt/2
    n, dt, horizon = 100_000, 5e-5, 0.025
    res, _ = coupling._run_coupling(unit_spec(0.0), 0.25, 0.75, n, dt,
                                    RngStream(23).generator(), horizon, snapshot=True)
    assert not (res.coalesced_stage == 3).any()
    assert (res.coalesced_stage == 2).any()
    for t in (0.01, 0.015, 0.02):
        p = _sine_series_survival(0.0, 0.5, 0.25, 1.0, t)
        surv = float((res.tau_c > t + 0.5 * dt).mean())
        assert abs(surv - p) <= 3.0 * math.sqrt(p * (1.0 - p) / n)


def test_driftfree_route_matches_the_stepping_engine():
    # the exact route at mu = 0 against the stepping engine at mu = 1e-9, which
    # takes dt steps: coalescence survival and the stage shares within 3 SE
    n, dt, horizon = 20_000, 1e-4, 1.5
    runs = [coupling_records(unit_spec(mu), 0.2, 0.7, n, dt, 41, horizon)
            for mu in (0.0, 1e-9)]
    (_, _, tc_exact, st_exact), (_, _, tc_step, st_step) = runs
    assert np.isfinite(tc_exact).all() and np.isfinite(tc_step).all()

    def agree(p, q):
        return abs(p - q) <= 3.0 * math.sqrt((p * (1.0 - p) + q * (1.0 - q)) / n)

    for t in (0.02, 0.05, 0.1, 0.2):
        assert agree(float((tc_exact > t).mean()), float((tc_step > t).mean())), t
    for k in (1, 2, 3):
        assert agree(float((st_exact == k).mean()), float((st_step == k).mean())), k


def test_driftfree_route_checks_dt_but_takes_no_steps(spec0):
    # dt must be positive, but it sets no step: a dt whose step count
    # overflows, and an infinite horizon, still give every pair its times
    with pytest.raises(NonpositiveDt):
        coupling_records(spec0, 0.25, 0.75, 10, 0.0, 1, 1.0)
    _, _, tau_c, stage = coupling_records(spec0, 0.25, 0.75, 10, 1e-320, 1, math.inf)
    assert np.isfinite(tau_c).all() and set(np.unique(stage)) <= {1, 2}


def _fuzz_start(a, length, frac, edge):
    if edge == "a":
        return a + 1e-9
    if edge == "b":
        return a + length - 1e-9
    return a + frac * length


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(a=st.floats(-1e3, 1e3), length=st.floats(1e-6, 1e3), sigma=st.floats(1e-3, 1e3),
       fx=st.floats(0.0, 1.0), fy=st.floats(0.0, 1.0),
       edges=st.tuples(*[st.sampled_from([None, None, "a", "b"])] * 2),
       same=st.sampled_from([False, False, False, True]), n=st.integers(1, 200),
       seed=st.integers(0, 2**32), horizon=st.one_of(st.floats(0.0, 4.0), st.just(math.inf)),
       mu=st.one_of(st.just(0.0), st.floats(0.0, 60.0)))
def test_driftfree_records_are_ordered_and_labelled(a, length, sigma, fx, fy, edges, same,
                                                     n, seed, horizon, mu):
    # a random interval and volatility, starts anywhere in it (some within
    # 1e-9 of an end, some equal), a horizon in units of the diffusive time
    # and a drift in units of sigma^2 / length: mu = 0 takes the exact route
    # and mu > 0 the stepping one, at dt a thousandth of the diffusive time
    x, y = sorted(_fuzz_start(a, length, f, e) for f, e in zip((fx, fy), edges))
    if same:
        y = x
    horizon *= length**2 / sigma**2
    dt = 1e-3 * length**2 / sigma**2
    try:
        spec = make_spec(a=a, b=a + length, sigma=sigma, mu=mu * sigma**2 / length,
                         atoms=((a + 0.5 * length, 1.0),))
        t1, t2, tc, stage = coupling_records(spec, x, y, n, dt, seed, horizon)
    except JumpdiffError:
        return
    assert np.all(t1 <= t2) and np.all(t2 <= tc)
    done = np.isfinite(tc)
    assert np.all(tc[done] <= horizon)
    assert set(np.unique(stage[done])) <= {1, 2, 3}
    assert np.all(stage[~done] == 0)
    try:
        xs = coupling_marginal(spec, x, y, n, dt, seed, horizon)
    except JumpdiffError:
        return
    assert np.all((xs > spec.a) & (xs < spec.b))


# --- mirror coupling -------------------------------------------------------------

def test_mirror_same_start_identical(rng):
    rows = mirror_exit_dominance(Interval(0.0, 1.0), 0.5, [0.05, 0.1, 0.2], 5_000, 3)
    for _, p_y, p_c in rows:
        assert p_y == p_c


def test_mirror_dominance(rng):
    n = 30_000
    rows = mirror_exit_dominance(Interval(0.0, 1.0), 0.9, [0.05, 0.1, 0.2], n, 13)
    for _, p_y, p_c in rows:
        se = math.sqrt(p_y * (1 - p_y) / n + p_c * (1 - p_c) / n)
        assert p_y <= p_c + 3 * se


def test_mirror_near_boundary_start_exits_fast():
    rows = mirror_exit_dominance(Interval(0.0, 1.0), 0.999, [0.05], 5_000, 9)
    assert rows[0][1] < 0.1


@pytest.mark.parametrize("y", [0.2, 0.9])
def test_mirror_survivals_match_killed_survival(y):
    # each copy on its own is a killed Brownian motion from its start
    spec = unit_spec(0.0)
    n = 50_000
    rows = mirror_exit_dominance(Interval(0.0, 1.0), y, [0.02, 0.05, 0.1, 0.2], n, 17)
    for t, p_y, p_c in rows:
        for p, start in ((p_y, y), (p_c, 0.5)):
            q = killed_survival(spec, start, t)
            assert abs(p - q) <= 3.0 * math.sqrt(q * (1.0 - q) / n)


def test_mirror_dominance_holds_on_every_path():
    # the copy from y exits no later than the centre copy on every path, so
    # the survivals are ordered exactly, with no error bar
    grid = np.linspace(0.0, 0.5, 51)
    for y, seed in ((0.6, 1), (0.95, 2), (0.05, 3), (0.999, 4)):
        for _, p_y, p_c in mirror_exit_dominance(Interval(0.0, 1.0), y, grid, 2_000, seed):
            assert p_y <= p_c


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(a=st.floats(-1e3, 1e3), length=st.floats(1e-6, 1e3), frac=st.floats(0.0, 1.0),
       edge=st.sampled_from([None, None, "a", "b"]), n=st.integers(1, 200),
       seed=st.integers(0, 2**32), ts=st.lists(st.floats(0.0, 4.0), max_size=5))
def test_mirror_rows_are_ordered_survivals(a, length, frac, edge, n, seed, ts):
    # a random interval, a start anywhere in it (some within 1e-9 of an end)
    # and a grid from 0 to inf, in units of the diffusive time length^2
    y = _fuzz_start(a, length, frac, edge)
    grid = [0.0, *(t * length**2 for t in ts), math.inf]
    try:
        rows = mirror_exit_dominance(Interval(a, a + length), y, grid, n, seed)
    except JumpdiffError:
        return
    p_y = np.array([r[1] for r in rows])
    p_c = np.array([r[2] for r in rows])
    for p in (p_y, p_c):
        assert np.all((p >= 0.0) & (p <= 1.0))
        assert np.all(np.diff(p) <= 0.0)
    assert np.all(p_y <= p_c)
    assert rows[-1][1:] == (0.0, 0.0)


# --- convolution comparison -------------------------------------------------------

def test_convolution_requires_drift(spec0):
    with pytest.raises(RequiresPositiveDrift):
        convolution_bound_check(spec0, None, [0.05], 1000, 1)


def test_convolution_holds_at_large_drift():
    rows, holds = convolution_bound_check(unit_spec(60.0), None,
                                          [0.02, 0.04, 0.06, 0.08], 30_000, 21)
    assert holds
    assert all(r[3] < 1.0 for r in rows if math.isfinite(r[3]))


def test_convolution_ratio_vanishes_at_small_t():
    rows, _ = convolution_bound_check(unit_spec(60.0), None, [0.002, 0.05],
                                      30_000, 21)
    assert rows[0][3] < 0.05


def test_convolution_improves_with_drift():
    shared = dict(j_halfwidth=None, t_grid=[0.02, 0.04, 0.06], n_paths=30_000,
                  seed=21)
    rows10, _ = convolution_bound_check(unit_spec(10.0), shared["j_halfwidth"],
                                        shared["t_grid"], shared["n_paths"],
                                        shared["seed"])
    rows40, _ = convolution_bound_check(unit_spec(40.0), shared["j_halfwidth"],
                                        shared["t_grid"], shared["n_paths"],
                                        shared["seed"])
    max10 = max(r[3] for r in rows10 if math.isfinite(r[3]))
    max40 = max(r[3] for r in rows40 if math.isfinite(r[3]))
    assert max40 <= max10


def test_convolution_unsupported_times_are_nan():
    rows, _ = convolution_bound_check(unit_spec(60.0), None, [0.02, 1.0],
                                      20_000, 5)
    assert math.isnan(rows[-1][3])
    assert rows[-1][4] < 10
