"""Domain vocabulary: problem specifications and result records.

All types are immutable after validation and safe to share between workers.
``validate_spec`` is the single entry point that canonicalizes a
:class:`ProcessSpec` (atom order, weight normalization) and is idempotent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .errors import (
    AtomOutOfRange,
    ConfigError,
    InvalidInterval,
    NonpositiveSigma,
    WeightsNotNormalized,
)

CENTER_TOL = 1e-12
WEIGHT_SUM_TOL = 1e-12
WEIGHT_RENORM_TOL = 1e-9


@dataclass(frozen=True)
class Interval:
    """Open interval (a, b) with a < b."""

    a: float
    b: float

    def __post_init__(self):
        if not (self.a < self.b):
            raise InvalidInterval(f"need a < b, got a={self.a}, b={self.b}")
        if not (math.isfinite(self.a) and math.isfinite(self.b)):
            raise InvalidInterval("interval endpoints must be finite")

    @property
    def length(self) -> float:
        return self.b - self.a

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.a + self.b)

    def contains(self, x: float) -> bool:
        return self.a < x < self.b


@dataclass(frozen=True)
class JumpDistribution:
    """Finite atomic restart measure on the open interval.

    ``atoms`` is a tuple of (location, weight) pairs.  Canonical form
    (strictly increasing locations, weights summing to one) is produced by
    :func:`validate_spec`; the constructor only freezes the data.
    """

    atoms: tuple[tuple[float, float], ...]

    def __post_init__(self):
        object.__setattr__(self, "atoms", tuple((float(x), float(w)) for x, w in self.atoms))
        if not self.atoms:
            raise WeightsNotNormalized("jump distribution needs at least one atom")

    @property
    def locations(self) -> tuple[float, ...]:
        return tuple(x for x, _ in self.atoms)

    @property
    def weights(self) -> tuple[float, ...]:
        return tuple(w for _, w in self.atoms)

    def mass_left_of(self, y: float) -> float:
        """Total weight of atoms at or left of ``y``."""
        return sum(w for x, w in self.atoms if x <= y)

    @classmethod
    def delta(cls, x0: float) -> "JumpDistribution":
        return cls(atoms=((x0, 1.0),))


@dataclass(frozen=True)
class ProcessSpec:
    """Drifted diffusion on (a, b) restarting from ``nu`` at the boundary."""

    interval: Interval
    sigma: float
    mu: float
    nu: JumpDistribution

    def __post_init__(self):
        if not (self.sigma > 0.0) or not math.isfinite(self.sigma):
            raise NonpositiveSigma(f"sigma must be > 0, got {self.sigma}")
        if not math.isfinite(self.mu):
            raise NonpositiveSigma(f"mu must be finite, got {self.mu}")

    @property
    def a(self) -> float:
        return self.interval.a

    @property
    def b(self) -> float:
        return self.interval.b

    @property
    def length(self) -> float:
        return self.interval.length

    @property
    def is_centered_delta(self) -> bool:
        """True iff nu is one atom at the interval midpoint (within 1e-12)."""
        if len(self.nu.atoms) != 1:
            return False
        x0, w = self.nu.atoms[0]
        return abs(x0 - self.interval.midpoint) <= CENTER_TOL and abs(w - 1.0) <= WEIGHT_SUM_TOL

    def with_mu(self, mu: float) -> "ProcessSpec":
        return replace(self, mu=float(mu))

    def to_json_dict(self) -> dict:
        """JSON shape used by the CLI config: {"a","b","sigma","mu","nu"}."""
        return {
            "a": self.a,
            "b": self.b,
            "sigma": self.sigma,
            "mu": self.mu,
            "nu": [[x, w] for x, w in self.nu.atoms],
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "ProcessSpec":
        required = {"a", "b", "sigma", "mu", "nu"}
        unknown = set(d) - required
        if unknown:
            raise ConfigError(f"unknown spec keys: {sorted(unknown)}")
        missing = required - set(d)
        if missing:
            raise ConfigError(f"missing spec keys: {sorted(missing)}")
        spec = cls(
            interval=Interval(float(d["a"]), float(d["b"])),
            sigma=float(d["sigma"]),
            mu=float(d["mu"]),
            nu=JumpDistribution(tuple((float(x), float(w)) for x, w in d["nu"])),
        )
        return validate_spec(spec)


def unit_spec(mu: float = 0.0, sigma: float = 1.0) -> ProcessSpec:
    """(0, 1) with a single restart atom at 1/2; the reference configuration."""
    return ProcessSpec(
        interval=Interval(0.0, 1.0),
        sigma=sigma,
        mu=mu,
        nu=JumpDistribution.delta(0.5),
    )


def validate_spec(spec: ProcessSpec) -> ProcessSpec:
    """Validate and canonicalize a :class:`ProcessSpec`.

    Atoms are sorted by location (exact duplicates merged by summing their
    weights) and weights are renormalized when their sum is within 1e-9 of
    one.  Idempotent: a second pass returns an equal value field for field.

    Raises:
        InvalidInterval: a >= b (raised when the interval was built).
        AtomOutOfRange: an atom lies on or outside (a, b).
        WeightsNotNormalized: nonpositive weight, or sum off by more than 1e-9.
    """
    iv = spec.interval
    for x, w in spec.nu.atoms:
        if not iv.contains(x):
            raise AtomOutOfRange(f"atom at {x} outside open interval ({iv.a}, {iv.b})")
        if not (w > 0.0) or w > 1.0 + WEIGHT_RENORM_TOL:
            raise WeightsNotNormalized(f"atom weight {w} outside (0, 1]")
    total = math.fsum(w for _, w in spec.nu.atoms)
    if abs(total - 1.0) > WEIGHT_RENORM_TOL:
        raise WeightsNotNormalized(f"weights sum to {total!r}, expected 1")

    merged: dict[float, float] = {}
    for x, w in spec.nu.atoms:
        merged[x] = merged.get(x, 0.0) + w
    atoms = tuple(sorted((x, w / total) for x, w in merged.items()))
    return replace(spec, nu=JumpDistribution(atoms))


@dataclass(frozen=True)
class ComplexEigenvalue:
    """Eigenvalue of the negated generator, with its solver residual."""

    value: complex
    multiplicity: int = 1
    residual: float = 0.0

    def __post_init__(self):
        if self.multiplicity < 1:
            raise ValueError("multiplicity must be a positive integer")
        if self.residual < 0.0:
            raise ValueError("residual must be nonnegative")


@dataclass(frozen=True)
class PathRealization:
    """Grid-sampled path with restart bookkeeping.

    ``times`` and ``positions`` share the uniform sampling grid; ``jump_times``
    are the restart instants, with matching boundary labels in ``exited_at``.
    The position recorded at a restart instant is the post-jump state.
    """

    times: tuple[float, ...]
    positions: tuple[float, ...]
    jump_times: tuple[float, ...]
    exited_at: tuple[str, ...]

    def __post_init__(self):
        if len(self.times) != len(self.positions):
            raise ValueError("times and positions length mismatch")
        if len(self.jump_times) != len(self.exited_at):
            raise ValueError("jump_times and exited_at length mismatch")
        if any(t2 <= t1 for t1, t2 in zip(self.jump_times, self.jump_times[1:])):
            raise ValueError("jump_times must be strictly increasing")


@dataclass(frozen=True)
class RateFit:
    """Exponential decay rate fitted on a log-linear window."""

    rate: float
    intercept: float
    window: tuple[float, float]
    stderr: float
    n_points: int

    def __post_init__(self):
        if not math.isfinite(self.rate):
            raise ValueError("rate must be finite")
        if self.window[0] >= self.window[1]:
            raise ValueError("window must satisfy t_min < t_max")
        if self.n_points < 3:
            raise ValueError("fit needs at least 3 points")


@dataclass(frozen=True)
class SolverConfig:
    """Tolerances of the eigensolver: determinant series branch, Newton
    polishing, deduplication, and contour sampling, dilation and bisection.

    Only :mod:`jumpdiff.eigensolver` reads it, through the ``config``
    argument of ``CharDeterminant``, ``characteristic_det``, ``count_zeros``,
    ``find_spectrum`` and ``gap_curve``.  It stays a record because the
    benchmark in ``perfbench/`` reads it there: ``DEFAULT_CONFIG.newton_residual``
    gates spectrum residuals, repeat solves are keyed on the ``config``
    argument of ``find_spectrum``, and ``CharDeterminant(spec).config.im_aspect``
    sizes the timed contour.  Sampler budgets and series constants are
    module constants beside their one user.
    """

    sinch_series_cutoff: float = 1e-4      # |q|*L below which sinh(q d)/q uses its series
    newton_residual: float = 1e-10
    newton_max_iter: int = 50
    fd_step_scale: float = 1e-6
    dedup_tol: float = 1e-7
    imag_tol_scale: float = 1e-6
    winding_int_tol: float = 0.25
    contour_phase_step: float = 0.9
    contour_initial_samples: int = 48
    contour_max_samples: int = 40_000
    contour_min_modulus_rel: float = 1e-9   # |det| / generic magnitude, per point
    contour_dilations: int = 8
    contour_dilation_step: float = 0.00125
    cluster_box_diag: float = 1e-4         # stop bisecting; treat content as one multiple zero
    cluster_rel_diag: float = 1e-5         # scale-relative part of the same cutoff
    im_aspect: float = 4.0                 # default im_max = 4 * re_max


DEFAULT_CONFIG = SolverConfig()
