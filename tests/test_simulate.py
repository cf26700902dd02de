import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from jumpdiff import simulate
from jumpdiff.analytic import invariant_density_grid, mean_exit_time
from jumpdiff.errors import (
    BelowNoiseFloor,
    HorizonExceeded,
    NonpositiveDt,
    OutOfDomain,
    RejectionBudgetExceeded,
    WindowTooSparse,
)
from jumpdiff.model import unit_spec
from jumpdiff.simulate import (
    LEFT,
    SIDE_LABELS,
    RngStream,
    _advance,
    _crosses,
    ensemble_snapshots,
    ensemble_tv,
    exit_time_ensemble,
    fit_rate,
    sample_exit_time,
    sample_invariant,
    simulate_path,
    step_with_exit,
    verify_pathwise_lemma,
)

PI2 = math.pi**2


# --- stepping kernel ---------------------------------------------------------

def test_step_reproducible(spec0):
    out1 = step_with_exit(0.5, 1e-4, spec0, RngStream(7, 3))
    out2 = step_with_exit(0.5, 1e-4, spec0, RngStream(7, 3))
    assert out1 == out2


def test_step_rejects_bad_inputs(spec0):
    with pytest.raises(NonpositiveDt):
        step_with_exit(0.5, 0.0, spec0, RngStream(1))
    with pytest.raises(OutOfDomain):
        step_with_exit(1.5, 1e-4, spec0, RngStream(1))


def test_step_exit_vanishes_for_small_dt(spec0):
    # from the middle, both bridge exponents blow down as dt -> 0
    gen = RngStream(5).generator()
    for _ in range(200):
        _, side = step_with_exit(0.5, 1e-6, spec0, gen)
        assert side is None


def _crossing_frequency(d0, d1, var_dt, n=1_000_000):
    # share of an evenly spaced grid of n uniforms in [0, 1) on which the
    # library's crossing rule fires: the bridge factor to within 1/n
    return float(_crosses(d0, d1, var_dt, np.arange(n) / n).mean())


def test_bridge_crossing_probability_value():
    # the one-sided bridge factor at the documented corner case
    b, x, x1, dt = 1.0, 0.999, 0.9995, 1e-4
    p = _crossing_frequency(b - x, b - x1, dt)
    assert p == pytest.approx(0.990, abs=5e-4)


@given(d0=st.floats(allow_nan=False, allow_infinity=False),
       d1=st.floats(max_value=0.0, allow_nan=False),
       var_dt=st.floats(min_value=0.0, exclude_min=True, allow_nan=False),
       u=st.floats(min_value=0.0, max_value=1.0, exclude_max=True))
def test_step_ending_past_the_barrier_always_crosses(d0, d1, var_dt, u):
    # the samplers test no sure crossing beside _crosses; this is why
    assert _crosses(d0, d1, var_dt, u)


def test_step_ending_below_a_is_a_left_exit(spec0):
    # from just below b a step far past a is a left exit even when the right
    # bridge uniform fires too
    x1, code = _advance(np.array([0.999]), spec0, 1e-2, np.array([-20.0]),
                        np.array([0.0]), np.array([0.5]))
    assert x1[0] < spec0.a and code[0] == LEFT


def test_bridge_factor_matches_fine_grid_bridge_oracle(rng):
    # simulate dense Brownian bridges between fixed endpoints and compare the
    # empirical crossing frequency with that of the library's crossing rule
    b, x, x1, dt = 1.0, 0.95, 0.96, 2.5e-3
    m, n, batch = 2048, 40_000, 4_000
    k = np.arange(1, m + 1) / m
    # discrete monitoring misses excursions; shift the barrier by the
    # standard continuity correction before comparing
    barrier = b - 0.5826 * math.sqrt(dt / m)
    crossed = 0
    for _ in range(n // batch):
        w = np.cumsum(rng.standard_normal((batch, m)) * math.sqrt(dt / m), axis=1)
        bridge = x + (x1 - x) * k[None, :] + (w - w[:, -1][:, None] * k[None, :])
        crossed += int((bridge.max(axis=1) >= barrier).sum())
    p_hat = crossed / n
    p = _crossing_frequency(b - x, b - x1, dt)
    se = math.sqrt(p * (1 - p) / n)
    assert p_hat == pytest.approx(p, abs=3 * se + 0.004)


# --- exit times --------------------------------------------------------------

def test_sample_exit_time_scalar(spec0):
    tau, side = sample_exit_time(spec0, 0.5, 1e-3, RngStream(3))
    assert tau > 0.0 and side in ("left", "right")


@pytest.mark.parametrize("seed", [3, 4, 5])
def test_sample_exit_time_is_first_path_of_ensemble(seed):
    spec = unit_spec(3.0)
    tau, side = sample_exit_time(spec, 0.4, 1e-3, RngStream(seed))
    taus, sides = exit_time_ensemble(spec, 0.4, 1, 1e-3, RngStream(seed))
    assert (tau, side) == (taus[0], SIDE_LABELS[sides[0]])


# from the midpoint, no path can leave (0, 1) within 3 steps of 1e-6
def test_sample_exit_time_step_budget(spec0, monkeypatch):
    monkeypatch.setattr(simulate, "EXIT_STEP_BUDGET", 3)
    with pytest.raises(HorizonExceeded):
        sample_exit_time(spec0, 0.5, 1e-6, RngStream(1))


def test_uncensored_ensemble_step_budget(spec0, monkeypatch):
    monkeypatch.setattr(simulate, "EXIT_STEP_BUDGET", 3)
    with pytest.raises(HorizonExceeded):
        exit_time_ensemble(spec0, 0.5, 10, 1e-6, RngStream(1))


def test_exit_time_mean_matches_green(spec0):
    taus, sides = exit_time_ensemble(spec0, 0.5, 20_000, 1e-4, RngStream(42))
    want = mean_exit_time(spec0, 0.5)
    se = float(taus.std() / math.sqrt(taus.size))
    assert float(taus.mean()) == pytest.approx(want, abs=3 * se)


def test_exit_sides_balanced_without_drift(spec0):
    _, sides = exit_time_ensemble(spec0, 0.5, 20_000, 2e-4, RngStream(9))
    frac_right = float((sides == 1).mean())
    assert frac_right == pytest.approx(0.5, abs=3 * 0.5 / math.sqrt(20_000))


def test_exit_side_right_dominates_at_large_drift():
    taus, sides = exit_time_ensemble(unit_spec(50.0), 0.5, 5_000, 1e-5, RngStream(11))
    assert np.all(sides == 1)


def test_exit_tail_rate_matches_killed_bottom():
    # light version of the full-size acceptance comparison
    spec = unit_spec(1.0)
    taus, _ = exit_time_ensemble(spec, 0.5, 30_000, 1e-4, RngStream(77), horizon=1.6)
    grid = np.linspace(0.3, 1.4, 23)
    surv = np.array([(taus > t).mean() for t in grid])
    fit = fit_rate((grid, surv), (0.3, 1.4), noise_floor=20.0 / 30_000)
    assert fit.rate == pytest.approx(PI2 / 2 + 0.5, rel=0.1)


def test_bridge_correction_necessity(spec0):
    # with the correction disabled, exits are detected late and the mean
    # exit time is biased high by at least 5 percent at dt = 1e-3
    taus_on, _ = exit_time_ensemble(spec0, 0.5, 40_000, 1e-3, RngStream(19))
    taus_off, _ = exit_time_ensemble(spec0, 0.5, 40_000, 1e-3, RngStream(19),
                                     bridge=False)
    assert float(taus_off.mean()) > 1.05 * float(taus_on.mean())
    assert float(taus_on.mean()) == pytest.approx(0.25, rel=0.02)


# --- path simulation ---------------------------------------------------------

def test_path_restarts_at_atom():
    spec = unit_spec(5.0)
    path = simulate_path(spec, 0.3, 4.0, 1e-4, RngStream(1))
    assert len(path.jump_times) > 0
    for t in path.jump_times:
        k = int(round(t / 1e-4))
        assert path.positions[k] == 0.5
    assert min(path.positions) >= 0.0 and max(path.positions) <= 1.0
    assert all(b > a for a, b in zip(path.jump_times, path.jump_times[1:]))


def test_path_all_exits_right_under_strong_drift():
    path = simulate_path(unit_spec(50.0), 0.5, 1.0, 1e-4, RngStream(2))
    assert path.exited_at and all(side == "right" for side in path.exited_at)


def test_path_reproducible(spec0):
    p1 = simulate_path(spec0, 0.5, 1.0, 1e-3, RngStream(4, 1))
    p2 = simulate_path(spec0, 0.5, 1.0, 1e-3, RngStream(4, 1))
    assert p1 == p2


def test_jump_count_matches_renewal_rate(spec0):
    # mean number of restarts per unit time is 1 / E[exit time]
    horizon, n = 50.0, 60
    counts = [len(simulate_path(spec0, 0.5, horizon, 1e-3, RngStream(100, k)).jump_times)
              for k in range(n)]
    want = horizon / mean_exit_time(spec0, 0.5)
    se = float(np.std(counts) / math.sqrt(n))
    assert float(np.mean(counts)) == pytest.approx(want, abs=3 * se)


def test_long_run_occupation_matches_invariant_density():
    spec = unit_spec(5.0)
    path = simulate_path(spec, 0.5, 200.0, 1e-4, RngStream(8))
    hist, edges = np.histogram(path.positions, bins=64, range=(0.0, 1.0))
    emp = hist / hist.sum()
    centers = 0.5 * (edges[1:] + edges[:-1])
    dens = invariant_density_grid(spec, centers)
    model = dens / dens.sum()
    assert 0.5 * float(np.abs(emp - model).sum()) < 0.02


# --- ensembles and TV --------------------------------------------------------

def test_tv_starts_at_one_for_distinct_points(spec0):
    # point masses in different bins: TV exactly 1 at time zero
    curve = ensemble_tv(spec0, 0.25, 0.75, [0.0, 1e-4], 2000, 64, 1e-4, 31)
    assert curve.tv[0] == 1.0
    assert curve.tv[1] > 0.99


def test_tv_decay_rate_driftfree(spec0):
    times = [0.02 * k for k in range(1, 13)]
    curve = ensemble_tv(spec0, 0.25, 0.75, times, 30_000, 64, 2e-4, 99)
    fit = fit_rate(curve, (0.04, 0.16), noise_floor=3 * curve.se_scale())
    assert fit.rate == pytest.approx(2 * PI2, rel=0.15)


def test_tv_noise_floor_scale(spec0):
    # two ensembles drawn from the same law: TV settles at the multinomial
    # fluctuation scale
    curve = ensemble_tv(spec0, "invariant", "invariant", [0.01], 20_000, 64, 1e-3, 5)
    floor = math.sqrt(64 / (2 * math.pi * 20_000))
    assert 0.2 * floor < curve.tv[0] < 5 * floor


def test_invariant_start_is_stationary(spec0):
    snaps = ensemble_snapshots(spec0, "invariant", [0.05, 0.2], 20_000, 64, 5e-4,
                               RngStream(17))
    centers = (np.arange(64) + 0.5) / 64
    dens = invariant_density_grid(spec0, centers)
    model = dens / dens.sum()
    for snap in snaps:
        tv = 0.5 * float(np.abs(np.array(snap.histogram) - model).sum())
        assert tv < 0.03


def test_ensemble_tv_reproducible(spec0):
    c1 = ensemble_tv(spec0, 0.25, 0.75, [0.01, 0.02], 2000, 64, 1e-3, 123)
    c2 = ensemble_tv(spec0, 0.25, 0.75, [0.01, 0.02], 2000, 64, 1e-3, 123)
    assert c1 == c2


def test_tv_rate_stable_under_refinement(spec0):
    # doubling the ensemble and halving the step moves the fitted rate by
    # less than ten percent
    times = [0.02 * k for k in range(2, 11)]
    coarse = ensemble_tv(spec0, 0.25, 0.75, times, 20_000, 64, 4e-4, 7)
    fine = ensemble_tv(spec0, 0.25, 0.75, times, 40_000, 64, 2e-4, 8)
    r1 = fit_rate(coarse, (0.04, 0.16), noise_floor=3 * coarse.se_scale()).rate
    r2 = fit_rate(fine, (0.04, 0.16), noise_floor=3 * fine.se_scale()).rate
    assert abs(r1 - r2) / max(r1, r2) < 0.10


# --- rate fitting ------------------------------------------------------------

def test_fit_rate_exact_exponential():
    ts = np.arange(1.0, 11.0)
    fit = fit_rate((ts, np.exp(-3.0 * ts)), (0.5, 10.5))
    assert fit.rate == pytest.approx(3.0, abs=1e-12)
    assert fit.stderr < 1e-12


def test_fit_rate_with_noise(rng):
    ts = np.linspace(0.1, 2.0, 40)
    vals = np.exp(-4.0 * ts) * (1.0 + 0.05 * rng.standard_normal(ts.size))
    fit = fit_rate((ts, vals), (0.1, 2.0))
    assert fit.rate == pytest.approx(4.0, rel=0.1)


def test_fit_rate_rejects_constant():
    ts = np.linspace(0.0, 1.0, 10)
    with pytest.raises(BelowNoiseFloor):
        fit_rate((ts, np.ones_like(ts)), (0.0, 1.0))


def test_fit_rate_rejects_sparse_window():
    ts = np.linspace(0.0, 1.0, 10)
    with pytest.raises(WindowTooSparse):
        fit_rate((ts, np.exp(-ts)), (0.4, 0.45))


# --- conditioned-path squeeze -------------------------------------------------

def test_pathwise_squeeze_fractions(spec20):
    fx, fy = verify_pathwise_lemma(spec20, 1, 2000, 1e-4, 11)
    assert fx >= 0.99 and fy <= 0.01


def test_pathwise_squeeze_refinement_consistency(spec20):
    # halving dt must not increase the violation fractions materially
    fx1, fy1 = verify_pathwise_lemma(spec20, 1, 1500, 2e-4, 11)
    fx2, fy2 = verify_pathwise_lemma(spec20, 1, 1500, 1e-4, 11)
    viol1 = (1.0 - fx1) + fy1
    viol2 = (1.0 - fx2) + fy2
    assert viol2 <= viol1 + 0.01


def test_pathwise_rejection_budget():
    # drive the acceptance probability to essentially zero: n = 40 at mu = 20
    # conditions on a window survival of order exp(-79)
    with pytest.raises(RejectionBudgetExceeded):
        verify_pathwise_lemma(unit_spec(20.0), 40, 100, 1e-3, 3)


def test_sample_invariant_matches_density(spec0):
    draws = sample_invariant(spec0, 100_000, RngStream(55).generator())
    hist, edges = np.histogram(draws, bins=32, range=(0.0, 1.0), density=True)
    centers = 0.5 * (edges[1:] + edges[:-1])
    dens = invariant_density_grid(spec0, centers)
    assert float(np.max(np.abs(hist - dens))) < 0.08
