"""What the benchmark in ``perfbench/`` reaches into, pinned by signature.

The benchmark runs outside this suite, so renaming a parameter or an
attribute it uses would only show up as a crash of a benchmark run.  Each
check binds the call the benchmark makes, or reads the attribute it reads.
"""

import importlib
import inspect

import numpy as np
import pytest

from jumpdiff import model
from jumpdiff.coupling import coupling_records, mirror_exit_dominance
from jumpdiff.eigensolver import CharDeterminant, auto_re_max, find_spectrum
from jumpdiff.experiments import report_corollary3, threshold_locate, validate_config
from jumpdiff.model import Interval, unit_spec
from jumpdiff.simulate import RngStream, ensemble_snapshots, exit_time_ensemble


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


def test_micro_measurement_calls():
    spec = unit_spec(20.0)
    re_max = auto_re_max(spec)
    assert re_max > 0.0
    det, mag = CharDeterminant(spec).with_scale(np.array([complex(0.5 * re_max, 1.0)]))
    assert det.shape == mag.shape == (1,)
    assert isinstance(RngStream(1).generator(), np.random.Generator)


@pytest.mark.parametrize("size", [1, 64])
def test_with_scale_returns_two_arrays(size):
    # the tracer wraps it as traced(det, lam_arr) and unpacks two arrays
    lam = np.linspace(1.0, 300.0, size) + 2.0j
    out = CharDeterminant(unit_spec(20.0)).with_scale(lam)
    assert isinstance(out, tuple) and len(out) == 2
    assert all(isinstance(a, np.ndarray) and a.shape == lam.shape for a in out)


def test_setup_calls():
    raw = {"a": 0.0, "b": 1.0, "sigma": 1.0, "mu": 0.0, "nu": [[0.5, 1.0]]}
    spec = model.ProcessSpec.from_json_dict(raw)
    assert spec == unit_spec(0.0)
    validate_config({"spec": raw, "experiment": "gap-sweep", "mu_grid": [0.0, 4.0]})
    assert model.Interval(0.0, 1.0).length == 1.0


@pytest.mark.parametrize("name", [
    "eigensolver.find_spectrum",
    "simulate.ensemble_snapshots",
    "simulate.exit_time_ensemble",
    "coupling.coupling_records",
    "coupling.mirror_exit_dominance",
])
def test_counted_engines_are_public_functions_of_their_module(name):
    # the tracer wraps only public functions defined in the module itself, so
    # a rename or a move would zero its per-layer counts without an error
    short, attr = name.split(".")
    module = importlib.import_module(f"jumpdiff.{short}")
    fn = getattr(module, attr)
    assert inspect.isfunction(fn)
    assert not attr.startswith("_")
    assert fn.__module__ == module.__name__
