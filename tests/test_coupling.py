import math

import numpy as np
import pytest

from jumpdiff import coupling
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
    OutOfDomain,
    RequiresCenteredDelta,
    RequiresPositiveDrift,
    StageBudgetExceeded,
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
    # 10 pairs from (1/4, 3/4) cannot coalesce within 3 steps of 1e-4
    monkeypatch.setattr(coupling, "STAGE_STEP_BUDGET", 25)
    with pytest.raises(StageBudgetExceeded):
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
    # diffusion: compare against a plain ensemble at t = 1 (same step size,
    # so the discretization bias cancels and the budget is Monte Carlo noise)
    spec = unit_spec(5.0)
    xs = coupling_marginal(spec, 0.25, 0.75, 100_000, 5e-4, 21, 1.0)
    hist = np.histogram(xs, bins=32, range=(0.0, 1.0))[0] / xs.size
    snap = ensemble_snapshots(spec, 0.25, [1.0], 100_000, 32, 5e-4,
                              RngStream(99))[0]
    tv = 0.5 * float(np.abs(hist - np.array(snap.histogram)).sum())
    assert tv < 0.02


def test_coupling_inequality_quick(spec0):
    # empirical TV is below the empirical coalescence survival within errors
    grid = [0.05, 0.1, 0.15, 0.2]
    curve = ensemble_tv(spec0, 0.25, 0.75, grid, 20_000, 64, 2e-4, 11)
    table, _ = coupling_tail(spec0, 0.25, 0.75, 20_000, 2e-4, grid, 12)
    for tv, p, se_p in zip(curve.tv, table.survival, table.standard_errors()):
        combined = math.sqrt(curve.se_scale() ** 2 + se_p**2)
        assert tv <= p + 3.0 * combined


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
