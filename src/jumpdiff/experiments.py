"""Experiment harness: JSON-configured runs writing CSV tables and SVG plots.

Every experiment is a deterministic function of (config, seed); CSVs are
RFC-4180 with a ``#``-prefixed comment header echoing the full configuration,
12 significant digits throughout, so reruns are byte-identical.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
from dataclasses import MISSING, dataclass, field, fields

import numpy as np

from . import analytic
from .coupling import convolution_bound_check, coupling_tail
from .errors import ConfigError, JumpdiffError, NoPlateauFound
from .eigensolver import auto_re_max, find_spectrum, gap_curve
from .model import ProcessSpec, _json_float
from .simulate import default_dt, ensemble_tv, fit_rate, verify_pathwise_lemma
from .svgplot import line_plot

# fraction of the interval length excluded around each restart atom and ahead
# of the drift-side boundary when comparing against the large-drift limit
# (the finite-drift density has a boundary layer there for every drift)
EDGE_MARGIN = 0.05


# ---------------------------------------------------------------------------
# Config schema: each ExperimentConfig field is one config key, carrying the
# parser of its raw JSON value and the rule that echoes it into CSV headers
# ---------------------------------------------------------------------------

def _number(cast, positive: bool = False):
    """Parser of one finite number, optionally required to be positive."""
    def parse(value):
        val = cast(value)
        if not math.isfinite(val):
            raise ValueError(f"{value!r} is not finite")
        if positive and not val > 0:
            raise ValueError("must be positive")
        return val
    return parse


def _integer(value) -> int:
    """A JSON integer, or a float with an integral value such as 1000.0;
    a bool, a string or any other float is refused, not truncated."""
    integral = isinstance(value, int) or (isinstance(value, float) and value.is_integer())
    if isinstance(value, bool) or not integral:
        raise ValueError(f"{value!r} is not an integer")
    return int(value)


_float = _number(_json_float)
_positive_float = _number(_json_float, positive=True)
_positive_int = _number(_integer, positive=True)


def _experiment(value) -> str:
    if value not in EXPERIMENTS:
        raise ValueError(f"unknown experiment {value!r}; choose from {', '.join(EXPERIMENTS)}")
    return value


def _increasing(value) -> tuple[float, ...]:
    grid = tuple(_float(v) for v in value)
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("must be strictly increasing")
    return grid


def _time_grid(value) -> tuple[float, ...]:
    grid = _increasing(value)
    if any(v <= 0 for v in grid):
        raise ValueError("must be positive")
    return grid


def _start_y(value) -> float | str:
    return value if value == "invariant" else _float(value)


def _out_dir(value) -> str:
    if not isinstance(value, str) or not value:
        raise ValueError(f"{value!r} is not a non-empty string")
    return value


def _n_values(value) -> tuple[int, ...]:
    vals = tuple(_integer(v) for v in value)
    if any(v < 1 for v in vals):
        raise ValueError("must be positive integers")
    return vals


def _fit_window(value) -> tuple[float, float]:
    lo, hi = (_float(v) for v in value)
    if not lo < hi:
        raise ValueError("must satisfy t_min < t_max")
    return (lo, hi)


def _if_set(cfg, value) -> bool:
    # knobs that always carry a value (n_paths, seed, out, ...) are always echoed
    return value is not None and value != ()


def _for_lemma6(cfg, value) -> bool:
    return cfg.experiment == "lemma6-check"


def _key(parse, echo=_if_set, **default):
    return field(metadata={"parse": parse, "echo": echo}, **default)


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment request (strict key set, positive knobs)."""

    spec: ProcessSpec = _key(ProcessSpec.from_json_dict)
    experiment: str = _key(_experiment)
    mu_grid: tuple[float, ...] = _key(_increasing, default=())
    dt: float | None = _key(_positive_float, default=None)
    n_paths: int = _key(_positive_int, default=100_000)
    bins: int = _key(_positive_int, default=64)
    t_grid: tuple[float, ...] = _key(_time_grid, default=())
    seed: int = _key(_integer, default=20240808)
    start_x: float | None = _key(_float, default=None)
    start_y: float | str | None = _key(_start_y, default=None)
    n_values: tuple[int, ...] = _key(_n_values, _for_lemma6, default=(1, 2))
    j_halfwidth: float | None = _key(_positive_float, default=None)
    re_max: float | None = _key(_positive_float, default=None)
    im_max: float | None = _key(_positive_float, default=None)
    grid_points: int = _key(_positive_int, default=256)
    fit_window: tuple[float, float] | None = _key(_fit_window, default=None)
    out: str = _key(_out_dir, default="out")

    def resolved_dt(self) -> float:
        return self.dt if self.dt is not None else default_dt(self.spec)

    def to_json_dict(self) -> dict:
        d = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if f.metadata["echo"](self, value):
                if isinstance(value, ProcessSpec):
                    value = value.to_json_dict()
                d[f.name] = list(value) if isinstance(value, tuple) else value
        return d


CONFIG_KEYS = tuple(f.name for f in fields(ExperimentConfig))


def validate_config(raw: dict) -> ExperimentConfig:
    """Strict-parse a raw config dict; unknown keys are rejected."""
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    unknown = set(raw) - set(CONFIG_KEYS)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    kwargs = {}
    for f in fields(ExperimentConfig):
        if f.name not in raw:
            if f.default is MISSING:
                raise ConfigError(f"missing config key: {f.name}")
            continue
        try:
            kwargs[f.name] = f.metadata["parse"](raw[f.name])
        except (JumpdiffError, TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"invalid {f.name}: {exc}") from exc
    return ExperimentConfig(**kwargs)


@dataclass(frozen=True)
class ThresholdResult:
    """Located plateau-onset drift with the final bisection bracket width."""

    mu: float
    bracket_width: float


# ---------------------------------------------------------------------------
# CSV plumbing
# ---------------------------------------------------------------------------

def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def write_csv(path_or_buf, header: list[str], rows: list[tuple],
              config_echo: dict | None = None):
    """RFC-4180 CSV with a ``#`` comment header carrying the config echo."""
    own = isinstance(path_or_buf, (str, os.PathLike))
    fh = open(path_or_buf, "w", newline="", encoding="utf-8") if own else path_or_buf
    try:
        if config_echo is not None:
            fh.write("# config: " + json.dumps(config_echo, sort_keys=True) + "\r\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])
    finally:
        if own:
            fh.close()


# ---------------------------------------------------------------------------
# Operations built on the sweep
# ---------------------------------------------------------------------------

def threshold_locate(spec_base: ProcessSpec, tol: float) -> ThresholdResult:
    """Search for the smallest drift whose gap sits on the plateau.

    The predicate is |gap(mu) - plateau| < tol * plateau; the bracket is
    [0, 4x the conjectured threshold], shrunk until it is narrower than
    1e-3 of the threshold.  Below the plateau the gap is a smooth curve in
    mu (2 sigma^2 pi^2 / L^2 + mu^2 / (2 sigma^2) for the centred restart),
    so once three off-plateau gaps are known each probe aims at where the
    quadratic through the last three meets (1 - tol) * plateau, the edge of
    the predicate.  It probes a quarter of the stopping width past that
    crossing, on the plateau side, so that no probe sits within rounding of
    the edge and, when the crossing is right, the last two probes straddle
    it; every aimed probe is kept at least half the stopping width inside
    the bracket.  The midpoint is probed instead while fewer than three
    off-plateau gaps are known, when the quadratic has no real crossing
    within half the stopping width of the bracket, and after an aimed probe
    that did not halve the bracket.  The located value is reported as
    conjecture-consistent, not as ground truth.

    Raises:
        ConfigError: tol is not positive (zero, negative or NaN).
        NoPlateauFound: the gap is off-plateau even at the bracket top.
    """
    if not tol > 0.0:
        raise ConfigError(f"tol must be positive, got {tol}")
    target = analytic.theoretical_gap(spec_base)
    upper = 4.0 * analytic.conjectured_threshold(spec_base)
    width = 1e-3 * upper / 4.0
    off: list[tuple[float, float]] = []   # (mu, gap) of every off-plateau probe

    def on_plateau(mu: float) -> bool:
        gap = gap_curve(spec_base, [mu])[0][1]
        if abs(gap - target) < tol * target:
            return True
        off.append((mu, gap))
        return False

    if not on_plateau(upper):
        raise NoPlateauFound(f"gap still off-plateau at mu={upper}")
    lo, hi = 0.0, upper
    if on_plateau(lo):
        return ThresholdResult(mu=0.0, bracket_width=0.0)
    aim = True
    while hi - lo > width:
        crossing = None
        if aim and len(off) >= 3:
            crossing = _quadratic_crossing(off[-3:], (1.0 - tol) * target,
                                           lo - 0.5 * width, hi + 0.5 * width)
        if crossing is None:
            probe = 0.5 * (lo + hi)
        else:
            probe = min(max(crossing + 0.25 * width, lo + 0.5 * width), hi - 0.5 * width)
        before = hi - lo
        if on_plateau(probe):
            hi = probe
        else:
            lo = probe
        aim = crossing is None or hi - lo <= 0.5 * before
    return ThresholdResult(mu=hi, bracket_width=hi - lo)


def _quadratic_crossing(points: list[tuple[float, float]], level: float,
                        lo: float, hi: float) -> float | None:
    """Smallest x in (lo, hi) where the quadratic through three (x, y)
    points equals ``level``, or None if there is none."""
    (x0, y0), (x1, y1), (x2, y2) = points
    d01 = (y1 - y0) / (x1 - x0)
    d12 = (y2 - y1) / (x2 - x1)
    # y = y2 + b t + a t^2 in t = x - x2
    a = (d12 - d01) / (x2 - x0)
    b = d12 + a * (x2 - x1)
    c = y2 - level
    if a == 0.0:
        ts = [-c / b] if b != 0.0 else []
    else:
        disc = b * b - 4.0 * a * c
        if disc < 0.0:
            return None
        half = -0.5 * (b + math.copysign(math.sqrt(disc), b))
        ts = [half / a] + ([c / half] if half != 0.0 else [])
    inside = [x2 + t for t in ts if lo < x2 + t < hi]
    return min(inside, default=None)


def report_corollary3(spec_base: ProcessSpec, mu_grid, out: str | None = None) -> str:
    """Per-drift comparison of the numeric gap against the killed bottom.

    Returns CSV text with a ``gap_below_lambda0`` column; a comment line
    carries the smallest drift at which the inversion first holds.
    """
    rows = []
    first_mu = None
    for mu, gap, _ in gap_curve(spec_base, mu_grid):
        lam0 = analytic.dirichlet_bottom(spec_base.with_mu(mu))
        below = gap < lam0
        if below and first_mu is None:
            first_mu = mu
        rows.append((mu, gap, lam0, below))
    buf = io.StringIO(newline="")
    buf.write(f"# first_mu_gap_below_lambda0: {_fmt(first_mu)}\r\n")
    write_csv(buf, ["mu", "gap", "lambda0", "gap_below_lambda0"], rows,
              config_echo={"spec": spec_base.to_json_dict(), "mu_grid": list(mu_grid)})
    text = buf.getvalue()
    if out:
        with open(out, "w", newline="", encoding="utf-8") as fh:
            fh.write(text)
    return text


def invariant_limit_distance(spec: ProcessSpec, grid_points: int = 256
                             ) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """Grid densities, the large-drift limit, and their sup distance.

    The supremum excludes a margin of EDGE_MARGIN * length around every atom
    (the limit density jumps there) and the same margin ahead of the
    drift-side boundary, where the finite-drift density has a boundary layer
    for every drift value.
    """
    ys = np.linspace(spec.a, spec.b, grid_points + 2)[1:-1]
    dens = analytic.invariant_density_grid(spec, ys)
    lim = np.array([analytic.invariant_density_limit(spec.nu, spec.interval, y)
                    for y in ys])
    margin = EDGE_MARGIN * spec.length
    keep = ys < spec.b - margin
    for x_i, _ in spec.nu.atoms:
        keep &= np.abs(ys - x_i) > margin
    sup = float(np.max(np.abs(dens - lim)[keep]))
    return ys, dens, lim, sup


# ---------------------------------------------------------------------------
# Experiment bodies (each returns header, rows, summary, plot spec)
# ---------------------------------------------------------------------------

def _run_gap_sweep(cfg: ExperimentConfig):
    if not cfg.mu_grid:
        raise ConfigError("gap-sweep needs mu_grid")
    curve = gap_curve(cfg.spec, cfg.mu_grid)
    mus = [mu for mu, _, _ in curve]
    gaps = [gap for _, gap, _ in curve]
    bottoms = [analytic.dirichlet_bottom(cfg.spec.with_mu(mu)) for mu in mus]
    # the plateau and the threshold do not depend on the drift
    centered = cfg.spec.is_centered_delta
    target = analytic.theoretical_gap(cfg.spec) if centered else float("nan")
    thr = analytic.conjectured_threshold(cfg.spec) if centered else float("nan")
    plateau = [gap for mu, gap in zip(mus, gaps) if mu >= 1.4 * thr]
    onset = next((mu for mu, gap in zip(mus, gaps) if abs(gap - target) < 1e-3), None)
    plateau_part = (f"plateau mean {np.mean(plateau):.9g} over {len(plateau)} cells"
                    if plateau else "no cells past 1.4x threshold")
    summary = (f"{plateau_part} (target {target:.9g}); first on-plateau mu = "
               f"{_fmt(onset)} (conjecture check: threshold {thr:.6g})")
    header = ["mu", "gap_numeric", "gap_is_real", "dirichlet_bottom",
              "theoretical_gap", "conjectured_threshold"]
    table = [(mu, gap, is_real, bottom, target, thr)
             for (mu, gap, is_real), bottom in zip(curve, bottoms)]
    plot = ("gap vs drift", mus,
            [("gap", gaps), ("plateau", [target] * len(mus)), ("killed bottom", bottoms)],
            "mu", "rate", False)
    return header, table, summary, plot


def _run_spectrum(cfg: ExperimentConfig):
    spec = cfg.spec
    re_max = cfg.re_max if cfg.re_max is not None else auto_re_max(spec)
    rep = find_spectrum(spec, re_max, cfg.im_max)
    header = ["re", "im", "multiplicity", "residual"]
    table = [(e.value.real, e.value.imag, e.multiplicity, e.residual)
             for e in rep.eigenvalues]
    lead = next(e for e in rep.eigenvalues if e.value.real == rep.gap)
    summary = (f"{len(rep.eigenvalues)} eigenvalues in box; gap {rep.gap:.9g} "
               f"(real: {rep.gap_is_real}); leading |Im| = {abs(lead.value.imag):.6g}")
    return header, table, summary, None


def _run_invariant(cfg: ExperimentConfig):
    if not cfg.mu_grid:
        raise ConfigError("invariant needs mu_grid")
    header = ["mu", "y", "density", "limit_density", "abs_diff"]
    table = []
    sups = []
    ys_all = None
    curves = []
    for mu in cfg.mu_grid:
        spec = cfg.spec.with_mu(mu)
        ys, dens, lim, sup = invariant_limit_distance(spec, cfg.grid_points)
        sups.append(sup)
        ys_all = ys
        curves.append((f"mu={mu:g}", dens.tolist()))
        table.extend((mu, float(y), float(d), float(l), float(abs(d - l)))
                     for y, d, l in zip(ys, dens, lim))
    decreasing = all(s2 <= s1 for s1, s2 in zip(sups, sups[1:]))
    summary = ("sup distance to large-drift limit: "
               + ", ".join(f"mu={mu:g}: {s:.4g}" for mu, s in zip(cfg.mu_grid, sups))
               + f"; decreasing: {decreasing}")
    plot = ("invariant density vs large-drift limit", ys_all.tolist(), curves,
            "y", "density", False)
    return header, table, summary, plot


def _default_t_grid(cfg: ExperimentConfig) -> tuple[float, ...]:
    if cfg.t_grid:
        return cfg.t_grid
    scale = cfg.spec.length**2 / cfg.spec.sigma**2
    return tuple(0.02 * k * scale for k in range(1, 16))


def _starts(cfg: ExperimentConfig) -> tuple:
    """start_x and start_y, by default the quarter points a + L/4 and a + 3L/4."""
    a, length = cfg.spec.a, cfg.spec.length
    return (cfg.start_x if cfg.start_x is not None else a + 0.25 * length,
            cfg.start_y if cfg.start_y is not None else a + 0.75 * length)


def _run_tv_decay(cfg: ExperimentConfig):
    x, y = _starts(cfg)
    grid = _default_t_grid(cfg)
    curve = ensemble_tv(cfg.spec, x, y, grid, cfg.n_paths, cfg.bins,
                        cfg.resolved_dt(), cfg.seed)
    floor = curve.se_scale()
    header = ["t", "tv", "se_scale"]
    table = [(t, v, floor) for t, v in zip(curve.times, curve.tv)]
    summary = _fit_summary(curve.times, curve.tv, cfg.fit_window,
                           hi_cut=0.6, floor=3.0 * floor)
    plot = ("total-variation decay", list(curve.times), [("tv", list(curve.tv))],
            "t", "tv", True)
    return header, table, summary, plot


def _fit_summary(times, values, window, hi_cut: float, floor: float) -> str:
    times = np.asarray(times)
    values = np.asarray(values)
    if window is None:
        ok = (values <= hi_cut) & (values >= floor)
        if ok.sum() < 3:
            return "fit skipped: fewer than 3 resolved points"
        window = (float(times[ok][0]), float(times[ok][-1]))
    try:
        fit = fit_rate((times, values), window, noise_floor=0.0)
    except JumpdiffError as exc:
        return f"fit failed on window [{window[0]:g}, {window[1]:g}]: {exc}"
    return (f"fitted rate {fit.rate:.6g} +- {fit.stderr:.2g} "
            f"on window [{window[0]:g}, {window[1]:g}] ({fit.n_points} points)")


def _run_coupling_tail(cfg: ExperimentConfig):
    x, y = _starts(cfg)
    if isinstance(y, str):
        raise ConfigError("coupling-tail needs a numeric start_y")
    grid = _default_t_grid(cfg)
    table_, fit = coupling_tail(cfg.spec, x, float(y), cfg.n_paths,
                                cfg.resolved_dt(), grid, cfg.seed)
    ses = table_.standard_errors()
    header = ["t", "survival", "se"]
    table = list(zip(table_.thresholds, table_.survival, ses))
    summary = (f"coalescence tail rate {fit.rate:.6g} +- {fit.stderr:.2g} on "
               f"window [{fit.window[0]:g}, {fit.window[1]:g}]")
    if cfg.spec.is_centered_delta:
        summary += f"; certified-bound rate {analytic.coupling_tail_bound_rate(cfg.spec):.6g}"
    plot = ("coalescence-time survival", list(table_.thresholds),
            [("survival", list(table_.survival))], "t", "survival", True)
    return header, table, summary, plot


def _run_lemma6(cfg: ExperimentConfig):
    header = ["n", "t_n", "fraction_x_in_A", "fraction_y_in_A", "n_accepted"]
    table = []
    ok = True
    x0 = cfg.spec.nu.locations[0]
    for n in cfg.n_values:
        fx, fy = verify_pathwise_lemma(cfg.spec, n, cfg.n_paths, cfg.resolved_dt(),
                                       cfg.seed)
        t_n = (cfg.spec.b - x0) * n / cfg.spec.mu
        table.append((n, t_n, fx, fy, cfg.n_paths))
        ok = ok and fx >= 0.99 and fy <= 0.01
    summary = f"conditioned-path squeeze holds at 0.99/0.01: {ok}"
    return header, table, summary, None


def _run_convolution(cfg: ExperimentConfig):
    grid = _default_t_grid(cfg)
    rows, holds = convolution_bound_check(cfg.spec, cfg.j_halfwidth, grid,
                                          cfg.n_paths, cfg.seed)
    header = ["t", "lhs", "rhs", "ratio", "survivors"]
    ratios = [r[3] for r in rows if math.isfinite(r[3])]
    summary = (f"convolution inequality holds on supported grid: {holds}"
               + (f"; max ratio {max(ratios):.4g}" if ratios else "; no supported points"))
    plot = ("convolution-inequality sides", [r[0] for r in rows],
            [("lhs", [r[1] for r in rows]), ("rhs", [r[2] for r in rows])],
            "t", "probability", True)
    return header, rows, summary, plot


_BODIES = {
    "gap-sweep": _run_gap_sweep,
    "spectrum": _run_spectrum,
    "invariant": _run_invariant,
    "tv-decay": _run_tv_decay,
    "coupling-tail": _run_coupling_tail,
    "lemma6-check": _run_lemma6,
    "convolution-check": _run_convolution,
}
EXPERIMENTS = tuple(_BODIES)


def _make_dir(directory: str) -> list[str]:
    """Make the directory and its missing parents; return those made, deepest first."""
    made, path = [], os.path.abspath(directory)
    while not os.path.isdir(path):
        made.append(path)
        path = os.path.dirname(path)
    os.makedirs(directory, exist_ok=True)
    return made


def run(cfg: ExperimentConfig, out_dir: str | None = None) -> int:
    """Dispatch an experiment; write CSV (and SVG where meaningful).

    The output directory is made first, so one that cannot be made is
    reported before any work; if the experiment then fails, the directories
    this call made are removed while they are empty.  Returns 0 on success,
    2 on validation errors (an output directory that cannot be made too), 3
    on solver errors; the one-line summary goes to stdout.
    """
    directory = out_dir if out_dir is not None else cfg.out
    try:
        made = _make_dir(directory)
    except OSError as exc:
        print(f"config error: cannot make output directory {directory!r}: {exc.strerror}")
        return 2
    done = False
    try:
        header, table, summary, plot = _BODIES[cfg.experiment](cfg)
        done = True
    except ConfigError as exc:
        print(f"config error: {exc}")
        return 2
    except JumpdiffError as exc:
        print(f"solver error: {exc}")
        return 3
    finally:
        if not done:
            for path in made:               # rmdir refuses a directory that is not empty
                try:
                    os.rmdir(path)
                except OSError:
                    break
    base = os.path.join(directory, cfg.experiment)
    write_csv(base + ".csv", header, table, config_echo=cfg.to_json_dict())
    if plot is not None:
        title, xs, series, xlabel, ylabel, logy = plot
        line_plot(base + ".svg", xs, series, title, xlabel, ylabel, logy)
    print(f"{cfg.experiment}: {summary}")
    return 0
