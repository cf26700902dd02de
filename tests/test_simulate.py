import ast
import math
import time
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from jumpdiff import coupling, simulate
from jumpdiff.analytic import invariant_density_grid, killed_survival, mean_exit_time
from jumpdiff.errors import (
    BelowNoiseFloor,
    ConfigError,
    JumpdiffError,
    NonpositiveDt,
    OutOfDomain,
    RejectionBudgetExceeded,
    StepBudgetExceeded,
    WindowTooSparse,
)
from jumpdiff.model import Interval, JumpDistribution, ProcessSpec, unit_spec
from jumpdiff.simulate import (
    LEFT,
    RngStream,
    _advance,
    _crosses,
    _hits,
    _restart_positions,
    _window_exit_times,
    ensemble_snapshots,
    ensemble_tv,
    exit_time_ensemble,
    fit_rate,
    sample_invariant,
    verify_pathwise_lemma,
)
from tests.test_model import make_spec

PI2 = math.pi**2


# --- stepping kernel ---------------------------------------------------------

def test_step_rejects_bad_inputs(spec0):
    with pytest.raises(NonpositiveDt):
        exit_time_ensemble(spec0, 0.5, 10, 0.0, RngStream(1))
    with pytest.raises(OutOfDomain):
        exit_time_ensemble(spec0, 1.5, 10, 1e-4, RngStream(1))
    with pytest.raises(NonpositiveDt):
        ensemble_snapshots(spec0, 0.5, [0.1], 10, 64, 0.0, RngStream(1))
    with pytest.raises(OutOfDomain):
        ensemble_snapshots(spec0, 1.5, [0.1], 10, 64, 1e-4, RngStream(1))


def test_exit_times_ignore_dt(spec0):
    # no steps: a dt of 1e-320 draws the same exits as one of 0.1
    tiny = exit_time_ensemble(spec0, 0.3, 100, 1e-320, RngStream(6))
    coarse = exit_time_ensemble(spec0, 0.3, 100, 0.1, RngStream(6))
    for got, want in zip(tiny, coarse):
        np.testing.assert_array_equal(got, want)


def test_step_exit_vanishes_for_small_dt(spec0):
    # from the middle, a path leaves by t = 1e-6 with probability about
    # 4 Phi(-500): all 200 paths are censored
    taus, sides = exit_time_ensemble(spec0, 0.5, 200, 1e-6, RngStream(5), horizon=1e-6)
    assert np.all(np.isinf(taus)) and np.all(sides == -1)


def test_path_restarts_at_atom():
    # a single atom is returned exactly; several are drawn at their weights
    gen = RngStream(21).generator()
    assert np.all(_restart_positions(unit_spec(5.0), 10, gen) == 0.5)
    n = 100_000
    for atoms in (((0.25, 0.5), (0.75, 0.5)), ((0.2, 0.1), (0.5, 0.3), (0.9, 0.6))):
        draws = _restart_positions(make_spec(mu=5.0, atoms=atoms), n, gen)
        assert set(draws.tolist()) == {x for x, _ in atoms}
        for x, w in atoms:
            se = math.sqrt(w * (1 - w) / n)
            assert float((draws == x).mean()) == pytest.approx(w, abs=3 * se)


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
    # bridge fires too; _advance tests b first, so a twin generator replays
    # the right bridge and shows it firing on some of the copies
    x, dt = np.full(64, 0.999), 1e-2
    x1, code = _advance(x, spec0, dt, np.full(64, -20.0), RngStream(4).generator())
    right = _hits(spec0.b - x, spec0.b - x1, dt, RngStream(4).generator())
    assert right.any()
    assert np.all(x1 < spec0.a) and np.all(code == LEFT)


# --- the sparse entry to the crossing rule -------------------------------------

def test_sparse_test_draws_nothing_for_far_and_sure_pairs():
    var_dt = 1e-4
    reach = simulate.REACH * var_dt
    d0 = np.array([0.5, 1.0, reach, 0.3, -0.2, 0.0, 0.7, 1e300])
    d1 = np.array([0.4, 1.0, 1.0, -0.1, 0.5, 0.0, 0.0, 0.0])
    gen = RngStream(8).generator()
    hit = _hits(d0, d1, var_dt, gen)
    np.testing.assert_equal(gen.bit_generator.state, RngStream(8).generator().bit_generator.state)
    np.testing.assert_array_equal(hit, [False, False, False, True, True, True, True, True])
    # and they agree with the rule itself at every uniform from 2^-52 on: the
    # factor at the reach is 2^-53 up to rounding
    np.testing.assert_array_equal(hit, _crosses(d0, d1, var_dt, np.full(d0.size, 2.0**-52)))


def test_sparse_test_near_entries_match_the_rule_on_twin_uniforms():
    var_dt = 4e-4
    gen = RngStream(9).generator()
    d0 = gen.uniform(-0.01, 0.2, 5000)
    d1 = gen.uniform(-0.01, 0.2, 5000)
    p = np.maximum(d0, 0.0) * np.maximum(d1, 0.0)
    near = np.flatnonzero((p > 0.0) & (p < simulate.REACH * var_dt))
    assert 100 < near.size < 4000
    sparse = RngStream(10).generator()
    hit = _hits(d0, d1, var_dt, sparse)
    twin = RngStream(10).generator()
    u = twin.random(near.size)
    np.testing.assert_array_equal(hit[near], _crosses(d0[near], d1[near], var_dt, u))
    np.testing.assert_equal(sparse.bit_generator.state, twin.bit_generator.state)
    far = np.setdiff1d(np.arange(d0.size), near)
    np.testing.assert_array_equal(hit[far], p[far] <= 0.0)


def test_sparse_test_hit_frequency_at_the_corner_case():
    b, x, x1, dt = 1.0, 0.999, 0.9995, 1e-4
    n = 1_000_000
    hit = _hits(np.full(n, b - x), np.full(n, b - x1), dt, RngStream(12).generator())
    se = math.sqrt(0.990 * 0.010 / n)
    assert float(hit.mean()) == pytest.approx(0.990, abs=3 * se)


def _calls_by_function(module):
    """(enclosing function, callee) for every call in the module's source; the
    callee is a bare name, or ``.attr`` for a method call."""
    tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
    out = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Call):
                f = child.func
                if isinstance(f, ast.Name):
                    out.append((owner, f.id))
                elif isinstance(f, ast.Attribute):
                    out.append((owner, "." + f.attr))
            visit(child, owner)
    visit(tree, None)
    return out


def test_one_crossing_rule_and_no_dense_uniform_blocks():
    # every engine reaches _crosses through _hits, and no engine draws bridge
    # uniforms for the whole ensemble: gen.random is left to the sparse test,
    # restart atoms, invariant draws, the window exit times and the crossing
    # times of the paths that crossed
    calls = _calls_by_function(simulate) + _calls_by_function(coupling)
    assert {owner for owner, callee in calls if callee == "_crosses"} == {"_hits"}
    assert {owner for owner, callee in calls if callee == ".random"} == {
        "_hits", "_restart_positions", "sample_invariant", "convolution_bound_check",
        "_interval_exits", "_crossing_times"}
    # the staged coupling takes one step rule for every stage: five bridge
    # tests and no hard comparison of a position against a or b
    run = [callee for owner, callee in calls if owner == "_run_coupling"]
    assert run.count("_hits") == 5 and "_advance" not in run
    tree = ast.parse(Path(coupling.__file__).read_text(encoding="utf-8"))
    body = next(node for node in ast.walk(tree)
                if isinstance(node, ast.FunctionDef) and node.name == "_run_coupling")
    barrier_tests = [ast.unparse(node) for node in ast.walk(body)
                     if isinstance(node, ast.Compare)
                     and {"a", "b"} & {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}]
    assert barrier_tests == []


def test_one_step_count_for_every_sampler():
    # every engine sizes its run through the one budgeted step count, and no
    # time is divided by dt or rounded to a step anywhere else
    calls = _calls_by_function(simulate) + _calls_by_function(coupling)
    assert {owner for owner, callee in calls if callee == "_step_count"} == {
        "ensemble_snapshots", "verify_pathwise_lemma", "_run_coupling"}
    assert {owner for owner, callee in calls if callee in ("round", ".round", ".rint")} == {
        "_step_count"}
    for module in (simulate, coupling):
        tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
        for fn in ast.walk(tree):
            if isinstance(fn, ast.FunctionDef) and fn.name != "_step_count":
                by_dt = [ast.unparse(node) for node in ast.walk(fn)
                         if isinstance(node, ast.BinOp)
                         and isinstance(node.op, (ast.Div, ast.FloorDiv))
                         and ast.unparse(node.right) == "dt"]
                assert by_dt == [], fn.name


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

def test_uncensored_ensemble_step_budget(spec0, monkeypatch):
    # 10 paths of 64 window rounds exceed a budget of 30: refused up front
    monkeypatch.setattr(simulate, "PATH_STEP_BUDGET", 30)
    with pytest.raises(StepBudgetExceeded):
        exit_time_ensemble(spec0, 0.5, 10, 1e-6, RngStream(1))
    # with no base rounds, mu = 1 on (0, 1) leaves 3 rounds per path, and
    # some of 100 paths from 0.3 are still inside after them
    monkeypatch.setattr(simulate, "PATH_STEP_BUDGET", 2**32)
    monkeypatch.setattr(simulate, "WINDOW_ROUND_BUDGET", 0)
    with pytest.raises(StepBudgetExceeded, match="after 3 window rounds"):
        exit_time_ensemble(unit_spec(1.0), 0.3, 100, 1e-6, RngStream(2))


def test_extreme_drift_is_refused_at_once():
    start = time.perf_counter()
    with pytest.raises(StepBudgetExceeded):
        exit_time_ensemble(unit_spec(1e12), 0.5, 10, 1e-3, RngStream(3))
    assert time.perf_counter() - start < 1.0


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


def _march_exits(spec, x0, n, dt, seed, n_steps, bridge=True):
    """Exit times of n paths marched by the step kernel _advance, inf for a
    path still inside after n_steps; bridge=False counts only steps that end
    outside, so exits are detected late."""
    gen = RngStream(seed).generator()
    taus = np.full(n, np.inf)
    idx = np.arange(n)
    x = np.full(n, float(x0))
    for step in range(1, n_steps + 1):
        if not idx.size:
            break
        x, code = _advance(x, spec, dt, gen.standard_normal(idx.size), gen)
        if not bridge:
            code = np.select([x >= spec.b, x <= spec.a], [simulate.RIGHT, LEFT], -1)
        done = code >= 0
        taus[idx[done]] = step * dt
        idx, x = idx[~done], x[~done]
    return taus


def test_bridge_correction_necessity(spec0):
    # with the correction disabled, exits are detected late and the mean
    # exit time is biased high by at least 5 percent at dt = 1e-3
    taus_on = _march_exits(spec0, 0.5, 40_000, 1e-3, 19, 100_000)
    taus_off = _march_exits(spec0, 0.5, 40_000, 1e-3, 19, 100_000, bridge=False)
    assert float(taus_off.mean()) > 1.05 * float(taus_on.mean())
    assert float(taus_on.mean()) == pytest.approx(0.25, rel=0.02)


# --- exact window exit law ------------------------------------------------------

def _window_survival_by_images(t) -> mpmath.mpf:
    """P(T > t) for standard Brownian motion from 0 in (-1, 1), by the method
    of images: sum_k (-1)^k [Phi((2k+1) / sqrt t) - Phi((2k-1) / sqrt t)]."""
    r = 1 / mpmath.sqrt(t)
    return mpmath.fsum((-1) ** k * (mpmath.ncdf((2 * k + 1) * r)
                                    - mpmath.ncdf((2 * k - 1) * r))
                       for k in range(-80, 81))


def test_window_exit_inversion_residual():
    u = np.concatenate([RngStream(3).generator().random(60),
                        [2.0**-53, 1e-10, 1e-3, 0.5, 0.999, 1.0 - 2.0**-53]])
    T = _window_exit_times(u, 1.0)
    with mpmath.workdps(40):
        worst = max(abs(float(_window_survival_by_images(mpmath.mpf(float(t)))) - v)
                    for t, v in zip(T, u))
    assert worst <= 1e-12
    assert np.all(T >= simulate.WINDOW_T_MIN)
    assert np.isinf(_window_exit_times(np.array([0.0]), 0.3)[0])
    np.testing.assert_allclose(_window_exit_times(u, 0.3), 0.09 * T, rtol=1e-15)


def test_window_exit_survival_matches_series_and_euler():
    h = 0.125               # the convolution check's window at the unit spec
    window = ProcessSpec(Interval(-h, h), 1.0, 0.0, JumpDistribution.delta(0.0))
    ts = [0.005, 0.02, 0.06]
    n = 100_000
    exact = _window_exit_times(RngStream(17).generator().random(n), h)
    dt = 2.5e-5
    euler = _march_exits(window, 0.0, n, dt, 18, round(ts[-1] / dt))
    for t in ts:
        p = float((exact > t).mean())
        p_euler = float((euler > t + 0.5 * dt).mean())
        se = math.sqrt(p * (1.0 - p) / n)
        assert abs(p - killed_survival(window, 0.0, t)) <= 3.0 * se
        assert abs(p - p_euler) <= 3.0 * math.sqrt(2.0) * se


@pytest.mark.parametrize("tilt", [0.25, 0.5, 1.0, -1.0])
def test_drifted_window_inversion_matches_killed_survival(tilt):
    # drift m = tilt on (-1, 1): the inverted T has killed survival u, and a
    # window of halfwidth 0.3 at the same tilt scales it by 0.09
    u = np.concatenate([RngStream(4).generator().random(40),
                        [2.0**-53, 1e-10, 1e-3, 0.5, 0.999, 1.0 - 2.0**-53]])
    T = _window_exit_times(u, 1.0, tilt)
    window = ProcessSpec(Interval(-1.0, 1.0), 1.0, tilt, JumpDistribution.delta(0.0))
    worst = max(abs(killed_survival(window, 0.0, t) - v) for t, v in zip(T, u))
    assert worst <= 1e-12
    assert np.all(T >= simulate.WINDOW_T_MIN)
    np.testing.assert_allclose(_window_exit_times(u, 0.3, np.full(u.size, tilt)), 0.09 * T,
                               rtol=1e-15)


# --- exact interval exits ----------------------------------------------------

def test_interval_exit_side_and_mean_time():
    # from 0.3 above the lower end of an interval of length 1: the lower end
    # first with probability d_hi / (d_lo + d_hi), mean exit time d_lo d_hi
    n = 100_000
    taus, sides = simulate._interval_exits(np.full(n, 0.3), np.full(n, 0.7),
                                           RngStream(21).generator())
    p_lo = float((sides == LEFT).mean())
    assert abs(p_lo - 0.7) <= 3.0 * math.sqrt(0.7 * 0.3 / n)
    assert set(np.unique(sides)) == {LEFT, simulate.RIGHT}
    assert abs(taus.mean() - 0.21) <= 3.0 * taus.std() / math.sqrt(n)


@pytest.mark.parametrize("d_lo, d_hi", [(0.2, 0.8), (1e-3, 0.999)],
                         ids=["off-centre", "next-to-an-end"])
def test_interval_exit_survival_matches_killed_survival(d_lo, d_hi):
    spec = ProcessSpec(Interval(0.0, d_lo + d_hi), 1.0, 0.0,
                       JumpDistribution.delta(0.5 * (d_lo + d_hi)))
    n = 100_000
    taus, _ = simulate._interval_exits(np.full(n, d_lo), np.full(n, d_hi),
                                       RngStream(22).generator())
    for t in (1e-6, 0.01, 0.05, 0.1, 0.3):
        p = killed_survival(spec, d_lo, t)
        assert abs(float((taus > t).mean()) - p) <= 3.0 * math.sqrt(p * (1.0 - p) / n)


def test_interval_exit_round_budget(monkeypatch):
    # each round ends a path with probability 1/2 from an off-centre start,
    # so after one round some of 100 paths are still inside
    monkeypatch.setattr(simulate, "WINDOW_ROUND_BUDGET", 1)
    with pytest.raises(StepBudgetExceeded):
        simulate._interval_exits(np.full(100, 0.3), np.full(100, 0.7),
                                 RngStream(23).generator())


def _exit_side_b(spec, x):
    """P_x(the diffusion leaves (a, b) at b), by its scale function."""
    k = 2.0 * spec.mu / spec.sigma**2
    if k == 0.0:
        return (x - spec.a) / spec.length
    return math.expm1(-k * (x - spec.a)) / math.expm1(-k * spec.length)


# (spec, start, paths), named by K = |mu| L / sigma^2; 10^6 paths at K = 60
# take about 40 s, so the larger drifts run fewer
LAW_CASES = [
    pytest.param(make_spec(mu=0.0), 0.5, 1_000_000, id="K=0"),
    pytest.param(make_spec(mu=1.0), 0.3, 1_000_000, id="K=1"),
    pytest.param(make_spec(a=-1.0, b=2.0, sigma=0.7, mu=5.0 * 0.49 / 3.0,
                           atoms=((0.5, 1.0),)), 0.2, 400_000, id="K=5-wide"),
    pytest.param(make_spec(mu=-20.0), 0.6, 100_000, id="K=20-down"),
    pytest.param(make_spec(mu=60.0), 0.5, 50_000, id="K=60"),
]


@pytest.mark.parametrize("spec, x0, n", LAW_CASES)
def test_exit_law_matches_killed_survival_and_scale_function(spec, x0, n):
    taus, sides = exit_time_ensemble(spec, x0, n, 1e-3, RngStream(31))
    assert np.all(np.isfinite(taus)) and set(np.unique(sides)) <= {LEFT, simulate.RIGHT}
    mean = mean_exit_time(spec, x0)
    for t in (0.25 * mean, 0.5 * mean, mean, 2.0 * mean):
        p = killed_survival(spec, x0, t)
        assert abs(float((taus > t).mean()) - p) <= 3.0 * math.sqrt(p * (1.0 - p) / n)
    p = _exit_side_b(spec, x0)
    assert abs(float((sides == simulate.RIGHT).mean()) - p) <= 3.0 * math.sqrt(p * (1.0 - p) / n)


@pytest.mark.parametrize("mu, x0", [(20.0, 1e-9), (-60.0, 1.0 - 1e-9), (20.0, 1.0 - 1e-9)],
                         ids=["K=20-near-a", "K=60-near-b", "K=20-near-drift-end"])
def test_exit_law_from_next_to_an_end(mu, x0):
    # within t ~ eps^2 of a start eps from an end, the drift and the far end
    # move the law by about mu t / eps ~ 1e-8: the survival is that of
    # Brownian motion on a half-line, erf(eps / sqrt(2 t)); the side is the
    # near end except with probability ~2 |mu| eps, up to 1.2e-7 here
    spec, n = unit_spec(mu), 200_000
    taus, sides = exit_time_ensemble(spec, x0, n, 1e-3, RngStream(32))
    eps = min(x0 - spec.a, spec.b - x0)
    for t in (0.25 * eps**2, eps**2, 4.0 * eps**2):
        p = math.erf(eps / math.sqrt(2.0 * t))
        assert abs(float((taus > t).mean()) - p) <= 3.0 * math.sqrt(p * (1.0 - p) / n)
    near = LEFT if x0 - spec.a < spec.b - x0 else simulate.RIGHT
    assert np.all(sides == near)


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(a=st.floats(-1e3, 1e3), length=st.floats(1e-6, 1e3), sigma=st.floats(1e-3, 1e3),
       drift=st.floats(-1e3, 1e3), frac=st.floats(0.0, 1.0),
       edge=st.sampled_from([None, None, "a", "b"]),
       horizon=st.one_of(st.floats(0.0, 4.0), st.just(math.inf)),
       n=st.integers(1, 200), seed=st.integers(0, 2**32))
def test_exit_times_within_horizon_or_censored(a, length, sigma, drift, frac, edge,
                                               horizon, n, seed):
    # drift is mu L / sigma^2 and the horizon is in units of L^2 / sigma^2
    x0 = {"a": a + 1e-9, "b": a + length - 1e-9}.get(edge, a + frac * length)
    horizon *= length**2 / sigma**2
    try:
        spec = make_spec(a=a, b=a + length, sigma=sigma, mu=drift * sigma**2 / length,
                         atoms=((a + 0.5 * length, 1.0),))
        taus, sides = exit_time_ensemble(spec, x0, n, 1e-3, RngStream(seed), horizon)
    except JumpdiffError:
        return
    done = np.isfinite(taus)
    assert np.all((taus[done] >= 0.0) & (taus[done] <= horizon))
    assert set(np.unique(sides[done])) <= {LEFT, simulate.RIGHT}
    assert np.all(np.isposinf(taus[~done])) and np.all(sides[~done] == -1)


def test_mirror_engine_takes_no_steps():
    calls = _calls_by_function(simulate) + _calls_by_function(coupling)
    for owner in ("mirror_exit_dominance", "_interval_exits", "_driftfree_coupling",
                  "exit_time_ensemble"):
        callees = {callee for o, callee in calls if o == owner}
        assert callees, owner
        assert not callees & {".standard_normal", "_hits", "_advance", "_step_count"}, owner


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


def test_long_run_occupation_matches_invariant_density():
    # from a point start, the restarted ensemble forgets it by t = 0.5 at mu = 5,
    # about 16 relaxation times of the gap
    spec = unit_spec(5.0)
    (snap,) = ensemble_snapshots(spec, 0.3, [0.5], 20_000, 64, 5e-4, RngStream(8))
    centers = (np.arange(64) + 0.5) / 64
    dens = invariant_density_grid(spec, centers)
    model = dens / dens.sum()
    assert 0.5 * float(np.abs(np.array(snap.histogram) - model).sum()) < 0.03


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


# --- exact-in-time ensembles --------------------------------------------------

def _ensemble_positions(spec, x0, times, n, seed):
    """Positions of n restarted paths from x0 at the ascending times, as the
    ensemble engine draws them."""
    gaps = [t1 - t0 for t0, t1 in zip([0.0, *times], times)]
    steps = [simulate._step_count(n, gap, simulate._max_step(spec), up=True) for gap in gaps]
    return simulate._ensemble_positions(spec, np.full(n, float(x0)), gaps, steps,
                                        RngStream(seed).generator())


MODE_CASES = [pytest.param(unit_spec(mu), (2, 4), id=f"unit-mu={mu:g}")
              for mu in (0.0, 20.0, -7.0)] + [
    pytest.param(make_spec(a=-1.0, b=2.0, sigma=0.7, mu=3.0,
                           atoms=((0.0, 0.6), (1.0, 0.4))), (3,), id="two-atoms")]


@pytest.mark.parametrize("spec, modes", MODE_CASES)
def test_ensemble_matches_periodic_modes(spec, modes):
    # with every atom on the grid a + jL/m, f(x) = exp(i k (x - a)), k = 2 pi m
    # / L, takes one value at a, b and the atoms, and the generator maps it to
    # -lam f with lam = sigma^2 k^2 / 2 - i k mu: so E_x f(X_t) = e^(-lam t)
    # f(x) exactly, a law that shares no code with the engine
    n, x0 = 1_000_000, spec.a + 0.25 * spec.length
    times = [c * spec.length**2 / spec.sigma**2 for c in (0.01, 0.02, 0.05, 0.1)]
    for t, x in zip(times, _ensemble_positions(spec, x0, times, n, 41)):
        for m in modes:
            k = 2.0 * math.pi * m / spec.length
            f = np.exp(1j * k * (x - spec.a))
            want = np.exp(-(0.5 * spec.sigma**2 * k * k - 1j * k * spec.mu) * t
                          + 1j * k * (x0 - spec.a))
            for got, exact in ((f.real, want.real), (f.imag, want.imag)):
                assert abs(got.mean() - exact) <= 3.0 * got.std() / math.sqrt(n), (t, m)


@pytest.mark.parametrize("d1", [0.3, -0.4, 0.0], ids=["d1>0", "d1<0", "d1=0"])
def test_crossing_time_matches_fine_grid_bridge_oracle(rng, d1):
    # Brownian bridges over a unit step from distance 0.5 to d1 on a fine
    # grid: the first grid time within the continuity correction of the
    # barrier, among the bridges that reach it, against _crossing_times
    d0, m, n, batch = 0.5, 2048, 10_000, 1_000
    k = np.arange(1, m + 1) / m
    shift = 0.5826 * math.sqrt(1.0 / m)
    first = []
    for _ in range(n // batch):
        w = np.cumsum(rng.standard_normal((batch, m)) * math.sqrt(1.0 / m), axis=1)
        hit = d0 + (d1 - d0) * k + (w - w[:, -1:] * k) <= shift
        first.append((hit[hit.any(axis=1)].argmax(axis=1) + 1) / m)
    grid = np.concatenate(first)
    taus = simulate._crossing_times(np.full(n * 100, d0), np.full(n * 100, d1), 1.0, 1.0,
                                    RngStream(13).generator())
    assert np.all((taus >= 0.0) & (taus <= 1.0))
    for t in (0.05, 0.1, 0.2, 0.4, 0.7):
        p = float((taus <= t).mean())
        se = math.sqrt(p * (1.0 - p) / grid.size)
        assert abs(float((grid <= t).mean()) - p) <= 3.0 * se + 0.005, t


def test_step_kernel_takes_a_step_length_per_entry(spec20):
    # one length per entry gives the floats and draws of the scalar step
    x = np.linspace(0.001, 0.999, 500)
    z = RngStream(5).generator().standard_normal(500)
    one, each = RngStream(6).generator(), RngStream(6).generator()
    for got, want in zip(_advance(x, spec20, np.full(500, 2e-3), z, each),
                         _advance(x, spec20, 2e-3, z, one)):
        np.testing.assert_array_equal(got, want)
    np.testing.assert_equal(each.bit_generator.state, one.bit_generator.state)


def test_ensemble_extreme_drift_is_refused_at_once():
    start = time.perf_counter()
    with pytest.raises(StepBudgetExceeded):
        ensemble_snapshots(unit_spec(1e12), 0.5, [0.1], 10, 64, 1e-3, RngStream(3))
    assert time.perf_counter() - start < 1.0


def test_near_edge_atom_is_refused_up_front(monkeypatch):
    # an atom 1e-9 L from an edge restarts about 1e9 times per path by t = L^2
    # / sigma^2: 1000 paths are refused before any path moves
    spec = make_spec(a=-1.0, b=2.0, sigma=0.7, atoms=((-1.0 + 3e-9, 1.0),))

    def moved(*args):
        raise AssertionError("the paths moved")
    monkeypatch.setattr(simulate, "_ensemble_positions", moved)
    with pytest.raises(StepBudgetExceeded, match="mean restart time"):
        ensemble_snapshots(spec, 0.5, [spec.length**2 / spec.sigma**2], 1000, 64, 1e-3,
                           RngStream(1))


def test_ensemble_ignores_dt(spec20):
    # steps are sized by the far barrier: a dt of 1e-320 gives the snapshots of 0.1
    tiny = ensemble_snapshots(spec20, 0.25, [0.01, 0.05], 500, 64, 1e-320, RngStream(6))
    coarse = ensemble_snapshots(spec20, 0.25, [0.01, 0.05], 500, 64, 0.1, RngStream(6))
    assert tiny == coarse


def test_repeated_time_is_a_config_error(spec0):
    with pytest.raises(ConfigError, match="requested twice"):
        ensemble_snapshots(spec0, 0.5, [0.02, 0.01, 0.02], 10, 64, 1e-3, RngStream(1))


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(a=st.floats(-1e3, 1e3), length=st.floats(1e-6, 1e3), sigma=st.floats(1e-3, 1e3),
       drift=st.floats(-60.0, 60.0),
       atoms=st.lists(st.tuples(st.floats(0.02, 0.98), st.floats(0.1, 1.0)),
                      min_size=1, max_size=4),
       start=st.one_of(st.floats(0.0, 1.0), st.just("invariant")),
       times=st.lists(st.floats(0.0, 0.2), min_size=1, max_size=5, unique=True),
       n=st.integers(1, 200), seed=st.integers(0, 2**32))
def test_ensemble_histograms_at_the_requested_times(a, length, sigma, drift, atoms, start,
                                                    times, n, seed):
    # drift is mu L / sigma^2 and times are in units of L^2 / sigma^2; atoms
    # keep 2% of L from the edges, where restarts, and so sub-steps, stay few
    scale = length**2 / sigma**2
    times = [t * scale for t in times]
    total = math.fsum(w for _, w in atoms)
    try:
        spec = make_spec(a=a, b=a + length, sigma=sigma, mu=drift * sigma**2 / length,
                         atoms=tuple((a + f * length, w / total) for f, w in atoms))
        x0 = start if isinstance(start, str) else a + start * length
        snaps = ensemble_snapshots(spec, x0, times, n, 32, 1e-3, RngStream(seed))
    except JumpdiffError:
        return
    assert [s.t for s in snaps] == sorted(times)
    for s in snaps:
        assert s.n_paths == n and len(s.histogram) == 32
        assert abs(math.fsum(s.histogram) - 1.0) <= 1e-12


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
