import ast
import dataclasses
import math
from pathlib import Path

import pytest

from jumpdiff.errors import (
    AtomOutOfRange,
    ConfigError,
    InvalidInterval,
    NonfiniteDrift,
    NonpositiveSigma,
    WeightsNotNormalized,
)
from jumpdiff.model import (
    Interval,
    JumpDistribution,
    ProcessSpec,
    RateFit,
    SolverConfig,
    unit_spec,
    validate_spec,
)


def make_spec(a=0.0, b=1.0, sigma=1.0, mu=0.0, atoms=((0.5, 1.0),)):
    return ProcessSpec(Interval(a, b), sigma, mu, JumpDistribution(atoms))


def test_well_formed_centered_delta_accepted():
    spec = validate_spec(make_spec())
    assert spec.is_centered_delta
    assert spec.nu.atoms == ((0.5, 1.0),)


def test_reversed_interval_rejected():
    with pytest.raises(InvalidInterval):
        Interval(1.0, 0.0)


def test_atoms_reordered_canonically():
    spec = validate_spec(make_spec(atoms=((0.5, 0.5), (0.25, 0.5))))
    assert spec.nu.locations == (0.25, 0.5)


def test_validate_is_idempotent():
    spec = validate_spec(make_spec(atoms=((0.7, 0.25), (0.2, 0.5), (0.4, 0.25))))
    again = validate_spec(spec)
    assert again == spec


def test_duplicate_atoms_merged():
    spec = validate_spec(make_spec(atoms=((0.5, 0.5), (0.5, 0.5))))
    assert spec.nu.atoms == ((0.5, 1.0),)


def test_atom_on_boundary_rejected():
    with pytest.raises(AtomOutOfRange):
        validate_spec(make_spec(atoms=((1.0, 1.0),)))
    with pytest.raises(AtomOutOfRange):
        validate_spec(make_spec(atoms=((-0.1, 1.0),)))


def test_weights_must_sum_to_one():
    with pytest.raises(WeightsNotNormalized):
        validate_spec(make_spec(atoms=((0.25, 0.4), (0.75, 0.4))))


def test_nearly_normalized_weights_renormalized():
    eps = 4e-10
    spec = validate_spec(make_spec(atoms=((0.25, 0.5 + eps), (0.75, 0.5))))
    assert abs(sum(spec.nu.weights) - 1.0) < 1e-15


def test_nonpositive_weight_rejected():
    with pytest.raises(WeightsNotNormalized):
        validate_spec(make_spec(atoms=((0.25, 0.0), (0.75, 1.0))))


def test_sigma_must_be_positive():
    with pytest.raises(NonpositiveSigma):
        make_spec(sigma=0.0)


@pytest.mark.parametrize("mu", [math.inf, -math.inf, math.nan])
def test_drift_must_be_finite(mu):
    with pytest.raises(NonfiniteDrift):
        make_spec(mu=mu)


@pytest.mark.parametrize("build, exc", [
    (lambda: Interval(0.0, math.inf), InvalidInterval),
    (lambda: JumpDistribution(()), WeightsNotNormalized),
    (lambda: ProcessSpec.from_json_dict({"a": 0, "b": 1, "sigma": 1, "nu": [[0.5, 1.0]]}),
     ConfigError),
], ids=["interval-to-inf", "no-atoms", "json-missing-mu"])
def test_malformed_spec_raises_typed_error(build, exc):
    with pytest.raises(exc):
        build()


def test_centered_delta_predicate():
    assert make_spec(atoms=((0.5, 1.0),)).is_centered_delta
    assert not make_spec(atoms=((0.4, 1.0),)).is_centered_delta
    assert not make_spec(atoms=((0.25, 0.5), (0.75, 0.5))).is_centered_delta


def test_json_round_trip_exact_shape():
    spec = unit_spec(12.0)
    d = spec.to_json_dict()
    assert d == {"a": 0.0, "b": 1.0, "sigma": 1.0, "mu": 12.0, "nu": [[0.5, 1.0]]}
    assert ProcessSpec.from_json_dict(d) == spec


def test_json_unknown_key_rejected():
    with pytest.raises(ConfigError):
        ProcessSpec.from_json_dict({"a": 0, "b": 1, "sigma": 1, "mu": 0,
                                    "nu": [[0.5, 1.0]], "extra": 1})


@pytest.mark.parametrize("key,value", [
    ("a", "0"), ("b", True), ("sigma", "2"), ("mu", True), ("nu", [["0.5", 1.0]]),
    ("nu", [[0.5, True]]),
])
def test_json_spec_number_must_be_a_json_number(key, value):
    d = dict(unit_spec(0.0).to_json_dict(), **{key: value})
    with pytest.raises(ConfigError, match="is not a number"):
        ProcessSpec.from_json_dict(d)


def test_spec_is_immutable():
    spec = unit_spec()
    with pytest.raises(dataclasses.FrozenInstanceError):
        spec.mu = 3.0


def test_rate_fit_invariants():
    with pytest.raises(ValueError):
        RateFit(rate=1.0, intercept=0.0, window=(1.0, 0.5), stderr=0.0, n_points=5)
    with pytest.raises(ValueError):
        RateFit(rate=1.0, intercept=0.0, window=(0.0, 1.0), stderr=0.0, n_points=2)
    with pytest.raises(ValueError):
        RateFit(rate=float("nan"), intercept=0.0, window=(0.0, 1.0), stderr=0.0,
                n_points=5)


def test_every_export_resolves():
    # a deletion must not leave a stale name that breaks `from jumpdiff import *`
    import jumpdiff
    assert [n for n in jumpdiff.__all__ if not hasattr(jumpdiff, n)] == []
    assert len(set(jumpdiff.__all__)) == len(jumpdiff.__all__)


def test_every_config_field_is_read():
    # a field that no `.<field>` in the package reads is a knob that does
    # nothing; attribute loads are parsed, so docstrings and comments do not count
    import jumpdiff
    from jumpdiff.experiments import ExperimentConfig
    read = {node.attr
            for path in Path(jumpdiff.__file__).parent.glob("*.py")
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    for record in (SolverConfig, ExperimentConfig):
        unread = [f.name for f in dataclasses.fields(record) if f.name not in read]
        assert unread == [], f"{record.__name__} fields nobody reads: {unread}"


def test_every_module_constant_is_read():
    # an UPPER_CASE module constant that no Name or Attribute load in the
    # package reads is a knob that does nothing
    import jumpdiff
    trees = [ast.parse(path.read_text(encoding="utf-8"))
             for path in Path(jumpdiff.__file__).parent.glob("*.py")]
    assigned = {target.id
                for tree in trees for node in tree.body
                if isinstance(node, (ast.Assign, ast.AnnAssign))
                for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
                if isinstance(target, ast.Name) and target.id.isupper()}
    loaded = {node.id if isinstance(node, ast.Name) else node.attr
              for tree in trees for node in ast.walk(tree)
              if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)}
    assert assigned, "no module constants found"
    assert sorted(assigned - loaded) == []
