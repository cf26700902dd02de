"""What the benchmark in ``perfbench/`` reaches into, pinned by signature.

The benchmark runs outside this suite, so renaming a parameter or an
attribute it uses would only show up as a crash of a benchmark run.  Each
check binds the call the benchmark makes, or reads the attribute it reads.
"""

import inspect

from jumpdiff import model
from jumpdiff.coupling import coupling_records, mirror_exit_dominance
from jumpdiff.eigensolver import CharDeterminant, find_spectrum
from jumpdiff.experiments import report_corollary3, threshold_locate
from jumpdiff.model import Interval, unit_spec
from jumpdiff.simulate import ensemble_snapshots, exit_time_ensemble


def bound(fn, *args, **kwargs) -> dict:
    """Arguments of the call as the benchmark's tracer sees them."""
    ba = inspect.signature(fn).bind(*args, **kwargs)
    ba.apply_defaults()
    return ba.arguments


def test_solver_config_reaches():
    spec = unit_spec(20.0)
    assert isinstance(model.DEFAULT_CONFIG.newton_residual, float)
    assert isinstance(CharDeterminant(spec).config.im_aspect, float)
    a = bound(find_spectrum, spec, 100.0)
    assert a["config"] is model.DEFAULT_CONFIG
    assert {"spec", "re_max", "im_max"} <= set(a)


def test_traced_sampler_arguments():
    spec = unit_spec(20.0)
    a = bound(ensemble_snapshots, spec, 0.25, [0.1], 100, 64, 1e-3, None)
    assert {"times", "dt", "n_paths"} <= set(a)
    assert {"horizon", "dt"} <= set(bound(exit_time_ensemble, spec, 0.5, 10, 1e-3, 1))
    a = bound(coupling_records, spec, 0.25, 0.75, 10, 1e-3, 1, 1.0)
    assert {"horizon", "dt"} <= set(a)
    a = bound(mirror_exit_dominance, Interval(0.0, 1.0), 0.7, [0.1], 10, 1)
    assert {"t_grid", "dt", "n_paths"} <= set(a)


def test_library_calls_of_the_workloads():
    spec = unit_spec(0.0)
    bound(threshold_locate, spec, tol=1e-4)
    bound(report_corollary3, spec, out="corollary3.csv", mu_grid=[0.0, 20.0])
    bound(mirror_exit_dominance, Interval(0.0, 1.0), y=0.7, t_grid=[0.1],
          n_paths=10, seed=1, dt=1e-3)
