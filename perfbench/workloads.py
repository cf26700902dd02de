"""Workload definitions: the inputs each workload feeds jumpdiff, and the
checks its outputs must pass.

A workload is a list of pieces run in order in one fresh interpreter (a
"pass").  A piece is either a CLI experiment (``"cli"``: experiment name,
config dict, output subdirectory) or a library entry point (``"call"``).
Every piece carries a ``timer`` name; pieces sharing a timer add up.

Inputs depend only on ``--seed``: the seed goes into every config's ``seed``
key and every Monte Carlo seed is derived from it.  The eigensolver pieces
are deterministic, so for ``sweep`` and ``spectrum`` the seed changes only
the config echo in the CSV headers, which keeps their cost the same for
every seed.
"""

from __future__ import annotations

import csv
import math
import random

PI2 = math.pi**2
GAP_PLATEAU = 8.0 * PI2
GAP_DRIFTFREE = 2.0 * PI2
THRESHOLD = 2.0 * math.sqrt(3.0) * math.pi
GAP_REL_TOL = 1e-9

UNIT = {"a": 0.0, "b": 1.0, "sigma": 1.0, "mu": 0.0, "nu": [[0.5, 1.0]]}

# Eigenvalue counts of each spectrum case, measured at the commit that
# introduced this benchmark (the automatic box unless re_max is given).
SPECTRUM_CASES = {
    "unit-mu120": ({**UNIT, "mu": 120.0}, {}, 46),
    "unit-mu20-wide": ({**UNIT, "mu": 20.0}, {"re_max": 1500.0}, 17),
    "three-atom-mu-30": ({"a": 0.0, "b": 1.0, "sigma": 1.0, "mu": -30.0,
                          "nu": [[0.2, 0.3], [0.45, 0.5], [0.8, 0.2]]}, {}, 12),
    "interval10-mu5": ({"a": 0.0, "b": 10.0, "sigma": 1.0, "mu": 5.0,
                        "nu": [[5.0, 1.0]]}, {}, 18),
}

# Sizes per scale.  "full" is what the benchmark measures; "tiny" only
# exercises the benchmark's own code (see test_smoke.py).
SIZES = {
    "full": {
        "sweep_grid": [0, 4, 8, 12, 16, 20, 25, 30],
        "spectrum_cases": list(SPECTRUM_CASES),
        "tv_paths": 6_000,
        "mc_dt": 2e-4,
        "coupling_paths": 10_000,
        "mirror_paths": 3_000,
        "lemma_paths": 2_000,
        "conv_paths": 2_500,
    },
    "tiny": {
        "sweep_grid": [0, 4, 16, 20],
        "spectrum_cases": ["unit-mu20-wide", "three-atom-mu-30", "interval10-mu5"],
        "tv_paths": 2_000,
        "mc_dt": 5e-4,
        "coupling_paths": 10_000,
        "mirror_paths": 2_000,
        "lemma_paths": 1_000,
        "conv_paths": 1_000,
    },
}

# One t-grid shared by tv-decay and coupling-tail at mu = 20, so the coupling
# inequality TV(t) <= P(tau_c > t) can be checked point by point.
MU20_GRID = [0.01 * k for k in range(1, 16)]
MU0_GRID = [0.04 * k for k in range(1, 16)]
MIRROR_GRID = [0.05, 0.1, 0.2]
WORKLOADS = ("sweep", "spectrum", "montecarlo")


def _cli(timer, experiment, out, seed, **config):
    config.setdefault("spec", dict(UNIT))
    config.update(experiment=experiment, seed=seed)
    return {"timer": timer, "cli": experiment, "out": out, "config": config}


def build(workload: str, seed: int, scale: str = "full") -> list[dict]:
    """Pieces of one pass of the workload, made from the seed alone."""
    size = SIZES[scale]
    draw = random.Random(seed)

    def mc_seed() -> int:
        return draw.randrange(1, 2**31)

    if workload == "sweep":
        grid = [float(mu) for mu in size["sweep_grid"]]
        return [
            _cli("gap_sweep", "gap-sweep", "gap-sweep", seed, mu_grid=grid),
            {"timer": "threshold", "call": "threshold_locate", "spec": dict(UNIT),
             "kwargs": {"tol": 1e-4}},
            {"timer": "corollary3", "call": "report_corollary3", "spec": dict(UNIT),
             "kwargs": {"mu_grid": grid}, "csv": "corollary3/corollary3.csv"},
            _cli("invariant", "invariant", "invariant", seed, mu_grid=[5.0, 20.0, 60.0]),
        ]
    if workload == "spectrum":
        pieces = []
        for name in size["spectrum_cases"]:
            spec, extra, _ = SPECTRUM_CASES[name]
            pieces.append(_cli("spectrum", "spectrum", name, seed, spec=dict(spec),
                               **extra))
        return pieces
    if workload == "montecarlo":
        dt = size["mc_dt"]
        mu20 = {**UNIT, "mu": 20.0}
        starts = {"start_x": 0.25, "start_y": 0.75}
        return [
            _cli("tv_decay", "tv-decay", "tv-decay", mc_seed(), spec=mu20,
                 t_grid=MU20_GRID, n_paths=size["tv_paths"], bins=64, dt=dt, **starts),
            _cli("coupling_tail", "coupling-tail", "coupling-tail-mu20", mc_seed(),
                 spec=mu20, t_grid=MU20_GRID, n_paths=size["coupling_paths"], dt=dt,
                 **starts),
            _cli("coupling_tail", "coupling-tail", "coupling-tail-mu0", mc_seed(),
                 t_grid=MU0_GRID, n_paths=size["coupling_paths"], dt=dt, **starts),
            {"timer": "mirror", "call": "mirror_exit_dominance", "interval": [0.0, 1.0],
             "kwargs": {"y": 0.7, "t_grid": MIRROR_GRID,
                        "n_paths": size["mirror_paths"], "seed": mc_seed(), "dt": dt}},
            # the squeeze needs dt = 1e-4: at 2e-4 the fractions sit at the gate
            _cli("lemma6_check", "lemma6-check", "lemma6-check", mc_seed(), spec=mu20,
                 dt=1e-4, n_values=[1], n_paths=size["lemma_paths"]),
            _cli("convolution_check", "convolution-check", "convolution-check",
                 mc_seed(), spec={**UNIT, "mu": 60.0}, n_paths=size["conv_paths"]),
        ]
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


# ---------------------------------------------------------------------------
# Checks.  Each returns (name, ok, detail); a failed check is a failed op.
# ---------------------------------------------------------------------------

def read_csv(path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        lines = [line for line in fh if not line.startswith("#")]
    return list(csv.DictReader(lines))


def _rel(value: float, want: float) -> float:
    return abs(value - want) / abs(want)


def _summary(pieces: list[dict], out: str) -> str:
    return next(p["stdout"] for p in pieces if p.get("out") == out)


def _parse_rate(summary: str, label: str) -> float:
    # "<experiment>: ... <label> <rate> +- ..." as printed by the CLI
    tail = summary.split(label, 1)[1].split()
    return float(tail[0])


def check_sweep(pass_dir, pieces: list[dict]) -> list[tuple[str, bool, str]]:
    rows = read_csv(pass_dir / "gap-sweep" / "gap-sweep.csv")
    out = []
    gap0 = float(rows[0]["gap_numeric"])
    out.append(("gap(mu=0) = 2 pi^2", float(rows[0]["mu"]) == 0.0
                and _rel(gap0, GAP_DRIFTFREE) <= GAP_REL_TOL, f"{gap0!r}"))
    for row in rows:
        mu = float(row["mu"])
        if mu >= 1.4 * float(row["conjectured_threshold"]):
            gap = float(row["gap_numeric"])
            out.append((f"plateau gap(mu={mu:g}) = 8 pi^2",
                        _rel(gap, GAP_PLATEAU) <= GAP_REL_TOL, f"{gap!r}"))
    thr = next(p["result"]["mu"] for p in pieces if p.get("call") == "threshold_locate")
    out.append(("threshold within 5% of 2 sqrt(3) pi", _rel(thr, THRESHOLD) < 0.05,
                f"{thr:.6f} vs {THRESHOLD:.6f}"))
    cor = {float(r["mu"]): r for r in read_csv(pass_dir / "corollary3" / "corollary3.csv")}
    for mu, below in ((0.0, "false"), (20.0, "true")):
        row = cor.get(mu)
        ok = (row is not None and row["gap_below_lambda0"] == below
              and (float(row["gap"]) < float(row["lambda0"])) == (below == "true"))
        out.append((f"corollary3 gap_below_lambda0(mu={mu:g}) = {below}", ok,
                    str(row and (row["gap"], row["lambda0"]))))
    sups = _invariant_sups(read_csv(pass_dir / "invariant" / "invariant.csv"))
    out.append(("invariant sup distances decrease",
                all(b < a for a, b in zip(sups, sups[1:])), repr(sups)))
    return out


def _invariant_sups(rows: list[dict]) -> list[float]:
    """Sup |density - limit| per drift on the unit spec, recomputed from the
    CSV with the documented exclusions: 5% of the length around the atom and
    ahead of the drift-side boundary."""
    sups: dict[float, float] = {}
    for r in rows:
        y = float(r["y"])
        if y < 0.95 and abs(y - 0.5) > 0.05:
            mu = float(r["mu"])
            sups[mu] = max(sups.get(mu, 0.0), float(r["abs_diff"]))
    return [sups[mu] for mu in sorted(sups)]


def check_spectrum(pass_dir, pieces: list[dict], newton_residual: float):
    out = []
    for piece in pieces:
        name = piece["out"]
        spec, extra, want = SPECTRUM_CASES[name]
        rows = read_csv(pass_dir / name / "spectrum.csv")
        out.append((f"{name}: {want} eigenvalues", len(rows) == want, f"{len(rows)}"))
        worst = max(float(r["residual"]) for r in rows)
        out.append((f"{name}: residuals <= {newton_residual:g}",
                    worst <= newton_residual, f"{worst:.3g}"))
        centred = (len(spec["nu"]) == 1 and spec["nu"][0][0] == 0.5 * (spec["a"] + spec["b"]))
        length = spec["b"] - spec["a"]
        if centred and spec["mu"] > THRESHOLD * spec["sigma"] ** 2 / length:
            plateau = 8.0 * spec["sigma"] ** 2 * PI2 / length**2
            vals = [complex(float(r["re"]), float(r["im"])) for r in rows]
            gap = min(v.real for v in vals if abs(v) > 1e-6)
            out.append((f"{name}: gap = 8 sigma^2 pi^2 / L^2",
                        _rel(gap, plateau) <= GAP_REL_TOL, f"{gap!r}"))
    return out


def check_montecarlo(pass_dir, pieces: list[dict]):
    out = []
    tv = read_csv(pass_dir / "tv-decay" / "tv-decay.csv")
    surv = read_csv(pass_dir / "coupling-tail-mu20" / "coupling-tail.csv")
    worst = max(float(a["tv"]) - float(b["survival"])
                - 3.0 * math.hypot(float(a["se_scale"]), float(b["se"]))
                for a, b in zip(tv, surv))
    same_grid = [a["t"] for a in tv] == [b["t"] for b in surv]
    out.append(("TV <= coupling survival + 3 SE", same_grid and worst <= 0.0,
                f"max(TV - P - 3 SE) = {worst:.4f}"))
    label = "coalescence tail rate"
    rate20 = _parse_rate(_summary(pieces, "coupling-tail-mu20"), label)
    out.append(("coupling rate(mu=20) in [0.8, 1.2] x 8 pi^2",
                0.8 * GAP_PLATEAU <= rate20 <= 1.2 * GAP_PLATEAU, f"{rate20:.3f}"))
    rate0 = _parse_rate(_summary(pieces, "coupling-tail-mu0"), label)
    out.append(("coupling rate(mu=0) >= 0.8 x 2 pi^2", rate0 >= 0.8 * GAP_DRIFTFREE,
                f"{rate0:.3f}"))
    mirror = next(p for p in pieces if p.get("call") == "mirror_exit_dominance")
    n = mirror["kwargs"]["n_paths"]
    slack = max(p_y - p_c - 3.0 * math.sqrt((p_y * (1 - p_y) + p_c * (1 - p_c)) / n)
                for _, p_y, p_c in mirror["result"])
    out.append(("mirror dominance within 3 SE", slack <= 0.0,
                f"max(P_y - P_c - 3 SE) = {slack:.4f}"))
    for r in read_csv(pass_dir / "lemma6-check" / "lemma6-check.csv"):
        fx, fy = float(r["fraction_x_in_A"]), float(r["fraction_y_in_A"])
        out.append((f"squeeze n={r['n']}: x >= 0.99, y <= 0.01",
                    fx >= 0.99 and fy <= 0.01, f"{fx:.4f}/{fy:.4f}"))
    conv = read_csv(pass_dir / "convolution-check" / "convolution-check.csv")
    rhs = [float(r["rhs"]) for r in conv]
    lhs = [float(r["lhs"]) for r in conv]
    out.append(("convolution sides are probabilities, survival non-increasing",
                all(0.0 <= v <= 1.0 for v in lhs + rhs)
                and all(b <= a for a, b in zip(rhs, rhs[1:])), f"{len(conv)} rows"))
    return out


def info_montecarlo(pieces: list[dict]) -> list[str]:
    """Reported, not gated: no repository test pins either number."""
    return [_summary(pieces, "tv-decay").strip(),
            _summary(pieces, "convolution-check").strip()]
