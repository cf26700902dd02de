"""Every sampler entry refuses a bad step, time grid or ensemble size with a
typed error.

A step dt <= 0 raises NonpositiveDt, a negative time or horizon raises
OutOfDomain, and an empty time grid, an empty ensemble (fewer than one path
or pair) or fewer than 32 bins raise ConfigError, before any path is drawn.
A step so small, or an end time so large, that the paths times the steps
exceed the path-step budget (t / dt overflowing to inf included) raises
StepBudgetExceeded, also before any path is drawn, so within a second.  The
exact samplers take no steps of dt: they check dt's sign and otherwise ignore
it, so the same tiny steps give the result of dt = 1e-3 there.
A start outside the open interval (or an unknown start name) raises
OutOfDomain, and the conditioned-path check refuses any spec but a centred
atom with positive drift.
"""

import math
import time

import numpy as np
import pytest

from jumpdiff.coupling import (
    convolution_bound_check,
    coupling_marginal,
    coupling_records,
    coupling_tail,
    mirror_exit_dominance,
    staged_coupling,
)
from jumpdiff.errors import (
    ConfigError,
    NonpositiveDt,
    OutOfDomain,
    RequiresCenteredDelta,
    RequiresPositiveDrift,
    StepBudgetExceeded,
)
from jumpdiff.model import Interval, unit_spec
from jumpdiff.simulate import (
    RngStream,
    ensemble_snapshots,
    ensemble_tv,
    exit_time_ensemble,
    verify_pathwise_lemma,
)
from tests.test_model import make_spec

SPEC = unit_spec(20.0)

# entry -> (call at step dt and time grid ts, the inputs it takes);
# single-time entries read ts[0]; "end" marks a time that must be finite
# (an exit search without a horizon is uncensored, not refused)
ENTRIES = {
    # exact: no steps, so dt is only checked to be positive
    "exit_time_ensemble": (lambda dt, ts: exit_time_ensemble(
        SPEC, 0.5, 10, dt, RngStream(1), horizon=ts[0]), "sign ignored time"),
    # exact in time: steps sized by the far barrier, so dt is only checked
    "ensemble_snapshots": (lambda dt, ts: ensemble_snapshots(
        SPEC, 0.5, ts, 10, 64, dt, RngStream(1)), "sign ignored time end grid"),
    "ensemble_tv": (lambda dt, ts: ensemble_tv(
        SPEC, 0.25, 0.75, ts, 1000, 64, dt, 1), "sign ignored time end grid"),
    "verify_pathwise_lemma": (lambda dt, ts: verify_pathwise_lemma(
        SPEC, 1, 10, dt, 1), "sign dt"),
    "staged_coupling": (lambda dt, ts: staged_coupling(
        SPEC, 0.25, 0.75, dt, RngStream(1)), "sign dt"),
    "coupling_records": (lambda dt, ts: coupling_records(
        SPEC, 0.25, 0.75, 10, dt, 1, ts[0]), "sign dt time end"),
    "coupling_marginal": (lambda dt, ts: coupling_marginal(
        SPEC, 0.25, 0.75, 10, dt, 1, ts[0]), "sign dt time end"),
    "coupling_tail": (lambda dt, ts: coupling_tail(
        SPEC, 0.25, 0.75, 10_000, dt, ts, 1), "sign dt time end grid"),
    # exact: no steps, so dt is ignored and t = inf is a valid grid time
    "mirror_exit_dominance": (lambda dt, ts: mirror_exit_dominance(
        Interval(0.0, 1.0), 0.7, ts, 10, 1, dt=dt), "ignored time grid"),
    "convolution_bound_check": (lambda dt, ts: convolution_bound_check(
        SPEC, None, ts, 10, 1), "time grid"),
}

BAD_INPUTS = {
    "sign": [("dt=0", 0.0, [0.1], NonpositiveDt), ("dt<0", -1e-3, [0.1], NonpositiveDt)],
    # t / dt overflows to inf; and 10 paths of 1e11 steps or more
    "dt": [("dt=1e-320", 1e-320, [0.1], StepBudgetExceeded),
           ("dt=1e-12", 1e-12, [0.1], StepBudgetExceeded)],
    # the same steps where dt is ignored: no error, and the result of dt = 1e-3
    "ignored": [("dt=1e-320", 1e-320, [0.1], None), ("dt=1e-12", 1e-12, [0.1], None)],
    "time": [("t<0", 1e-3, [-0.1, 0.1], OutOfDomain)],
    "end": [("t=inf", 1e-3, [math.inf], StepBudgetExceeded)],
    "grid": [("empty", 1e-3, [], ConfigError)],
}

CASES = [pytest.param(call, dt, ts, exc, id=f"{name}-{label}")
         for name, (call, takes) in ENTRIES.items()
         for kind in takes.split()
         for label, dt, ts, exc in BAD_INPUTS[kind]]


@pytest.mark.parametrize("call, dt, ts, exc", CASES)
def test_bad_step_or_times_raise_typed_errors(call, dt, ts, exc):
    start = time.perf_counter()
    if exc is None:
        np.testing.assert_equal(call(dt, ts), call(1e-3, ts))
    else:
        with pytest.raises(exc):
            call(dt, ts)
    assert time.perf_counter() - start < 1.0


def test_mirror_survival_at_infinity_is_zero():
    rows = mirror_exit_dominance(Interval(0.0, 1.0), 0.7, [0.1, math.inf], 10, 1)
    assert rows[-1] == (math.inf, 0.0, 0.0)


# entry -> call with n paths or pairs; the other inputs are valid
COUNT_ENTRIES = {
    "exit_time_ensemble": lambda n: exit_time_ensemble(
        SPEC, 0.5, n, 1e-3, RngStream(1), horizon=0.1),
    "ensemble_snapshots": lambda n: ensemble_snapshots(
        SPEC, 0.5, [0.1], n, 64, 1e-3, RngStream(1)),
    "ensemble_tv": lambda n: ensemble_tv(SPEC, 0.25, 0.75, [0.1], n, 64, 1e-3, 1),
    "verify_pathwise_lemma": lambda n: verify_pathwise_lemma(SPEC, 1, n, 1e-3, 1),
    "coupling_records": lambda n: coupling_records(SPEC, 0.25, 0.75, n, 1e-3, 1, 0.1),
    "coupling_marginal": lambda n: coupling_marginal(SPEC, 0.25, 0.75, n, 1e-3, 1, 0.1),
    "coupling_tail": lambda n: coupling_tail(SPEC, 0.25, 0.75, n, 1e-3, [0.1], 1),
    "mirror_exit_dominance": lambda n: mirror_exit_dominance(
        Interval(0.0, 1.0), 0.7, [0.1], n, 1, dt=1e-3),
    "convolution_bound_check": lambda n: convolution_bound_check(SPEC, None, [0.1], n, 1),
}


@pytest.mark.parametrize("n", [0, -1])
@pytest.mark.parametrize("name", list(COUNT_ENTRIES))
def test_empty_ensemble_raises_config_error(name, n):
    with pytest.raises(ConfigError):
        COUNT_ENTRIES[name](n)


@pytest.mark.parametrize("bins", [0, 31])
@pytest.mark.parametrize("call", [
    lambda bins: ensemble_snapshots(SPEC, 0.5, [0.1], 10, bins, 1e-3, RngStream(1)),
    lambda bins: ensemble_tv(SPEC, 0.25, 0.75, [0.1], 1000, bins, 1e-3, 1),
], ids=["ensemble_snapshots", "ensemble_tv"])
def test_too_few_bins_raise_config_error(call, bins):
    with pytest.raises(ConfigError):
        call(bins)


@pytest.mark.parametrize("call, exc", [
    (lambda: ensemble_snapshots(SPEC, "centre", [0.1], 10, 64, 1e-3, RngStream(1)),
     OutOfDomain),
    (lambda: mirror_exit_dominance(Interval(0.0, 1.0), 1.5, [0.1], 10, 1, dt=1e-3),
     OutOfDomain),
    (lambda: verify_pathwise_lemma(make_spec(mu=20.0, atoms=((0.4, 1.0),)),
                                   1, 10, 1e-3, 1), RequiresCenteredDelta),
    (lambda: verify_pathwise_lemma(unit_spec(0.0), 1, 10, 1e-3, 1), RequiresPositiveDrift),
], ids=["ensemble_snapshots-start-name", "mirror_exit_dominance-y-outside",
        "verify_pathwise_lemma-off-centre", "verify_pathwise_lemma-mu=0"])
def test_bad_start_or_spec_raises_typed_error(call, exc):
    with pytest.raises(exc):
        call()
