"""Golden digests of the sampler streams.

Each engine runs once at a small size and its discrete outputs are hashed:
sides, histogram counts, exit and stage times as indices on a step grid and
survival counts.  None of these depends on how the platform's ``exp`` rounds
its last bit, so the digests pin the random-stream layout and the crossing
rule, not the libm.  A change that alters a stream on purpose must update the
digest here and say so in ``CHANGES.md``; ``python -m tests.test_streams``
prints every engine's current digest.
"""

import hashlib
import json

import numpy as np
import pytest

from jumpdiff.coupling import (
    convolution_bound_check,
    coupling_marginal,
    coupling_records,
    mirror_exit_dominance,
)
from jumpdiff.model import Interval, JumpDistribution, ProcessSpec, unit_spec
from jumpdiff.simulate import (
    RngStream,
    ensemble_snapshots,
    exit_time_ensemble,
    verify_pathwise_lemma,
)

TWO_ATOMS = ProcessSpec(Interval(0.0, 1.0), 1.0, 5.0,
                        JumpDistribution(((0.25, 0.5), (0.75, 0.5))))


def _steps(times, dt):
    """Grid times as step indices; censored (infinite) times become -1."""
    times = np.asarray(times, dtype=float)
    return np.where(np.isfinite(times), np.rint(np.nan_to_num(times, posinf=0.0) / dt),
                    -1).astype(int).tolist()


def _digest(*parts) -> str:
    return hashlib.sha256(json.dumps(parts).encode()).hexdigest()[:16]


def _exit_time_ensemble():
    dt = 1e-3
    taus, sides = exit_time_ensemble(unit_spec(5.0), 0.3, 400, dt, RngStream(11))
    cen, cen_sides = exit_time_ensemble(unit_spec(0.0), 0.5, 400, dt, RngStream(12),
                                        horizon=0.05)
    return _steps(taus, dt), sides.tolist(), _steps(cen, dt), cen_sides.tolist()


def _ensemble_snapshots():
    out = []
    for spec, x0, seed in ((unit_spec(20.0), 0.25, 3), (TWO_ATOMS, "invariant", 4)):
        snaps = ensemble_snapshots(spec, x0, [0.0, 0.01, 0.05], 1000, 64, 5e-4,
                                   RngStream(seed))
        out.append([np.rint(np.array(s.histogram) * s.n_paths).astype(int).tolist()
                    for s in snaps])
    return out


def _coupling_records():
    dt = 5e-4
    out = []
    for mu, seed in ((20.0, 5), (0.0, 6)):
        t1, t2, tc, stage = coupling_records(unit_spec(mu), 0.25, 0.75, 1000, dt, seed,
                                             horizon=0.2)
        out.append((_steps(t1, dt), _steps(t2, dt), _steps(tc, dt), stage.tolist()))
    return out


def _coupling_marginal():
    snap = coupling_marginal(unit_spec(20.0), 0.25, 0.75, 1000, 5e-4, 7, 0.1)
    return np.histogram(snap, bins=64, range=(0.0, 1.0))[0].tolist()


def _mirror_exit_dominance():
    n = 1000
    rows = mirror_exit_dominance(Interval(0.0, 1.0), 0.7, [0.02, 0.05, 0.1], n, 8,
                                 dt=1e-3)
    return [(round(s_y * n), round(s_c * n)) for _, s_y, s_c in rows]


def _verify_pathwise_lemma():
    n = 300
    fx, fy = verify_pathwise_lemma(unit_spec(20.0), 1, n, 2e-4, 9)
    return round(fx * n), round(fy * n)


def _convolution_bound_check():
    rows, _ = convolution_bound_check(unit_spec(60.0), None, [0.002, 0.01, 0.02, 0.04],
                                      2000, 10)
    return [r[4] for r in rows]


GOLDEN = {
    "exit_time_ensemble": (_exit_time_ensemble, "c5fa25e016b490d3"),
    "ensemble_snapshots": (_ensemble_snapshots, "c6c89b7d56a9024c"),
    "coupling_records": (_coupling_records, "3bdd0b1404ab4061"),
    "coupling_marginal": (_coupling_marginal, "830d34f96f30bec8"),
    "mirror_exit_dominance": (_mirror_exit_dominance, "79589fcde77cae0b"),
    "verify_pathwise_lemma": (_verify_pathwise_lemma, "9279ed2f92d46c90"),
    "convolution_bound_check": (_convolution_bound_check, "8cbc455c8ef21604"),
}


@pytest.mark.parametrize("engine", sorted(GOLDEN))
def test_sampler_stream_digest(engine):
    run, want = GOLDEN[engine]
    assert _digest(run()) == want


if __name__ == "__main__":
    for name, (run, want) in sorted(GOLDEN.items()):
        got = _digest(run())
        print(f"{name:24} {got}" + ("" if got == want else f"  (pinned {want})"))
