"""Every sampler entry refuses a bad step or time grid with a typed error.

A step dt <= 0 raises NonpositiveDt, a negative time or horizon raises
OutOfDomain and an empty time grid raises ConfigError, before any path is
drawn.
"""

import pytest

from jumpdiff.coupling import (
    convolution_bound_check,
    coupling_marginal,
    coupling_records,
    coupling_tail,
    mirror_exit_dominance,
    staged_coupling,
)
from jumpdiff.errors import ConfigError, NonpositiveDt, OutOfDomain
from jumpdiff.model import Interval, unit_spec
from jumpdiff.simulate import (
    RngStream,
    ensemble_snapshots,
    ensemble_tv,
    exit_time_ensemble,
    verify_pathwise_lemma,
)

SPEC = unit_spec(20.0)

# entry -> (call at step dt and time grid ts, the inputs it takes);
# single-time entries read ts[0]
ENTRIES = {
    "exit_time_ensemble": (lambda dt, ts: exit_time_ensemble(
        SPEC, 0.5, 10, dt, RngStream(1), horizon=ts[0]), "dt time"),
    "ensemble_snapshots": (lambda dt, ts: ensemble_snapshots(
        SPEC, 0.5, ts, 10, 64, dt, RngStream(1)), "dt time grid"),
    "ensemble_tv": (lambda dt, ts: ensemble_tv(
        SPEC, 0.25, 0.75, ts, 1000, 64, dt, 1), "dt time grid"),
    "verify_pathwise_lemma": (lambda dt, ts: verify_pathwise_lemma(
        SPEC, 1, 10, dt, 1), "dt"),
    "staged_coupling": (lambda dt, ts: staged_coupling(
        SPEC, 0.25, 0.75, dt, RngStream(1)), "dt"),
    "coupling_records": (lambda dt, ts: coupling_records(
        SPEC, 0.25, 0.75, 10, dt, 1, ts[0]), "dt time"),
    "coupling_marginal": (lambda dt, ts: coupling_marginal(
        SPEC, 0.25, 0.75, 10, dt, 1, ts[0]), "dt time"),
    "coupling_tail": (lambda dt, ts: coupling_tail(
        SPEC, 0.25, 0.75, 10_000, dt, ts, 1), "dt time grid"),
    "mirror_exit_dominance": (lambda dt, ts: mirror_exit_dominance(
        Interval(0.0, 1.0), 0.7, ts, 10, 1, dt=dt), "dt time grid"),
    "convolution_bound_check": (lambda dt, ts: convolution_bound_check(
        SPEC, None, ts, 10, 1), "time grid"),
}

BAD_INPUTS = {
    "dt": [("dt=0", 0.0, [0.1], NonpositiveDt), ("dt<0", -1e-3, [0.1], NonpositiveDt)],
    "time": [("t<0", 1e-3, [-0.1, 0.1], OutOfDomain)],
    "grid": [("empty", 1e-3, [], ConfigError)],
}

CASES = [pytest.param(call, dt, ts, exc, id=f"{name}-{label}")
         for name, (call, takes) in ENTRIES.items()
         for kind in takes.split()
         for label, dt, ts, exc in BAD_INPUTS[kind]]


@pytest.mark.parametrize("call, dt, ts, exc", CASES)
def test_bad_step_or_times_raise_typed_errors(call, dt, ts, exc):
    with pytest.raises(exc):
        call(dt, ts)
