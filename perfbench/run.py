"""jumpdiff benchmark: run one workload for a fixed time and print its metrics.

Usage (from the root of a jumpdiff checkout):

    python3 perfbench/run.py --workload sweep|spectrum|montecarlo \
        --seed N --seconds S --trace 0|1

Each pass runs the whole workload in a fresh single-threaded interpreter
(``child.py``), closed loop with one client: the next pass starts when the
previous one ends.  Passes repeat while the next one still fits in
``--seconds`` (at least three untraced passes, or one untraced and one
traced pass with ``--trace 1``).  Every output of every pass is checked;
each failed check, failed experiment or CSV that differs between passes is a
failed operation.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end medians over the passes (``setup_s``, ``wall_s``,
``peak_rss_mb``); with ``--trace 1`` they are the per-layer numbers of the
traced pass, the kernel micro-measurements, the per-experiment timings of
the untraced passes and the tracing overhead.  Spans of the last traced pass
are written to ``.perfbench_out/trace-<workload>.json.gz``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
OUT_ROOT = Path(".perfbench_out")
RUN_LIMIT_S = 170.0          # every run ends well inside the 180 s allowance
MICRO_SECONDS = 1.5

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
TIMERS = {
    "sweep": ("gap_sweep", "threshold", "corollary3", "invariant"),
    "spectrum": ("spectrum",),
    "montecarlo": ("tv_decay", "coupling_tail", "mirror", "lemma6_check",
                   "convolution_check"),
}
ALL_TIMERS = tuple(t for w in workloads.WORKLOADS for t in TIMERS[w])
COUNT_METRICS = (
    "eig.solves", "eig.eigenvalues", "eig.det_calls", "eig.det_points",
    "eig.scalar_det_calls", "eig.contour_det_points", "ana.calls", "exp.runs",
    "sim.ensemble.path_steps", "sim.exit.path_steps", "coup.staged.path_steps",
    "coup.mirror.path_steps", "trace.spans",
)
SPECIAL_UNITS = {"eig.det_points_per_s": "1/s", "eig.det_scalar_call_us": "us",
                 "exp.csv_bytes": "B", "exp.svg_bytes": "B"}


def per_layer_unit(name: str) -> str:
    if name in SPECIAL_UNITS:
        return SPECIAL_UNITS[name]
    if name in COUNT_METRICS:
        return "count"
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith("ns_per_step"):
        return "ns"
    return "ratio"


class Ops:
    """Operations attempted and failed, with the failures kept for the log."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: {detail}")


def write_job_inputs(pieces: list[dict], run_dir: Path) -> None:
    """Config files are written once per run; every pass reads the same ones."""
    cfg_dir = run_dir / "configs"
    cfg_dir.mkdir(parents=True)
    for k, piece in enumerate(pieces):
        if "cli" in piece:
            path = cfg_dir / f"{k:02d}-{piece['out']}.json"
            path.write_text(json.dumps(piece["config"], indent=1), encoding="utf-8")
            piece["config_path"] = str(path)


def run_pass(k: int, trace: bool, pieces: list[dict], run_dir: Path, args,
             ensemble_paths: int, timeout: float) -> dict | None:
    pass_dir = run_dir / f"pass{k}"
    pass_dir.mkdir()
    job = {"src": "src", "pieces": pieces, "pass_dir": str(pass_dir), "trace": trace,
           "ensemble_paths": ensemble_paths, "micro_seconds": MICRO_SECONDS,
           "spans_path": str(OUT_ROOT / f"trace-{args.workload}.json.gz")}
    job_path = run_dir / f"job{k}.json"
    result_path = run_dir / f"result{k}.json"
    job_path.write_text(json.dumps(job), encoding="utf-8")
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1", NUMEXPR_NUM_THREADS="1")
    env.pop("PYTHONPATH", None)
    proc = subprocess.run([sys.executable, str(HERE / "child.py"), str(job_path),
                           str(result_path)], env=env, capture_output=True, text=True,
                          timeout=timeout)
    if proc.returncode != 0 or not result_path.exists():
        sys.stderr.write(proc.stdout + proc.stderr)
        return None
    result = json.loads(result_path.read_text(encoding="utf-8"))
    result["pass_dir"] = pass_dir
    result["trace"] = trace
    result["csv"] = {str(p.relative_to(pass_dir)): hashlib.sha256(p.read_bytes()).hexdigest()
                     for p in sorted(pass_dir.rglob("*.csv"))}
    return result


def check_pass(workload: str, res: dict, first: dict | None, ops: Ops) -> list[str]:
    """Record every check of one pass; return the reported-only lines."""
    for piece, done in zip(res["job_pieces"], res["pieces"]):
        label = piece.get("cli") or piece["call"]
        ops.record(f"run {label} ({piece.get('out', piece['timer'])})",
                   done["rc"] == 0, done.get("error") or done["stdout"].strip())
    merged = [dict(piece, **done) for piece, done in zip(res["job_pieces"], res["pieces"])]
    info = []
    try:
        if workload == "sweep":
            checks = workloads.check_sweep(res["pass_dir"], merged)
        elif workload == "spectrum":
            checks = workloads.check_spectrum(res["pass_dir"], merged,
                                              res["newton_residual"])
        else:
            checks = workloads.check_montecarlo(res["pass_dir"], merged)
            info = workloads.info_montecarlo(merged)
    except (OSError, LookupError, ValueError, TypeError) as exc:
        checks = [("outputs readable", False, repr(exc))]
    for name, ok, detail in checks:
        ops.record(name, ok, detail)
    if first is not None:
        for name in sorted(set(first["csv"]) | set(res["csv"])):
            ops.record(f"{name} byte-identical across passes",
                       first["csv"].get(name) == res["csv"].get(name), "differs")
    return info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=tuple(workloads.SIZES), default="full",
                        help="'tiny' shrinks every piece (smoke test of this script)")
    args = parser.parse_args(argv)

    if not Path("src/jumpdiff/__init__.py").is_file():
        print("perfbench: run from the root of a jumpdiff checkout "
              "(src/jumpdiff not found)", file=sys.stderr)
        return 2
    began = time.perf_counter()
    pieces = workloads.build(args.workload, args.seed, args.scale)
    ensemble_paths = workloads.SIZES[args.scale]["tv_paths"]
    trace = bool(args.trace)
    min_passes = 2 if trace or args.scale == "tiny" else 3
    OUT_ROOT.mkdir(exist_ok=True)
    run_dir = OUT_ROOT / f"run-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    ops = Ops()
    passes: list[dict] = []
    info: list[str] = []
    try:
        write_job_inputs(pieces, run_dir)
        while True:
            traced = trace and len(passes) % 2 == 1
            left = RUN_LIMIT_S - (time.perf_counter() - began)
            t = time.perf_counter()
            try:
                res = run_pass(len(passes), traced, pieces, run_dir, args,
                               ensemble_paths, timeout=max(left, 1.0))
            except subprocess.TimeoutExpired:
                res = None
            if res is None:
                if not passes:
                    print("perfbench: the first pass did not complete", file=sys.stderr)
                    return 1
                ops.record(f"pass {len(passes)} completes", False, "crashed or timed out")
                break
            res["elapsed"] = time.perf_counter() - t
            res["job_pieces"] = pieces
            info = check_pass(args.workload, res, passes[0] if passes else None, ops)
            passes.append(res)
            print_pass(len(passes), res)
            # the next pass is of the other kind when tracing
            nxt = [p["elapsed"] for p in passes if p["trace"] == (trace and not traced)]
            estimate = statistics.median(nxt or [p["elapsed"] for p in passes])
            spent = time.perf_counter() - began
            if len(passes) >= min_passes and (spent + estimate > args.seconds
                                              or spent + estimate > RUN_LIMIT_S):
                break
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    plain = [p for p in passes if not p["trace"]]
    traced_passes = [p for p in passes if p["trace"]]
    for line in info:
        print(f"reported (not gated): {line}")
    timers = {name: statistics.median(p["timers"][name] for p in plain)
              for name in TIMERS[args.workload]}
    print(f"per-experiment median over {len(plain)} untraced passes: "
          + ", ".join(f"{name} {secs:.3f} s" for name, secs in timers.items()))
    if trace and traced_passes:
        metrics = layer_metrics(plain, traced_passes, timers, ops)
    else:
        metrics = {name: {"value": statistics.median(p[name] for p in plain), "unit": unit}
                   for name, unit in END_TO_END.items()}
    for failure in ops.failures:
        print(f"FAILED {failure}")
    print(f"ops: {ops.attempted} attempted, {len(ops.failures)} failed")
    print(json.dumps({"correct": not ops.failures, "attempted": ops.attempted,
                      "failed": len(ops.failures), "metrics": metrics}))
    return 0


def layer_metrics(plain: list[dict], traced: list[dict], timers: dict, ops: Ops) -> dict:
    """Per-layer numbers of the traced pass with the median traced wall time."""
    chosen = sorted(traced, key=lambda p: p["wall_s"])[(len(traced) - 1) // 2]
    m = dict(chosen["layers"])
    m.update(chosen["micro"])
    m["exp.csv_bytes"] = chosen["bytes"]["csv"]
    m["exp.svg_bytes"] = chosen["bytes"]["svg"]
    ens = m["sim.ensemble.ns_per_step"]
    m["sim.rng_share"] = m["sim.rng.ns_per_step"] / ens if ens else 0.0
    m["trace.overhead_s"] = (statistics.median(p["wall_s"] for p in traced)
                             - statistics.median(p["wall_s"] for p in plain))
    for name in ALL_TIMERS:
        m[f"exp.{name}_s"] = timers.get(name, 0.0)

    layers = ("ana", "eig", "sim", "coup", "exp")
    print("traced self time: "
          + ", ".join(f"{layer} {m[f'{layer}.self_s']:.4f} s" for layer in layers)
          + f", unattributed {m['trace.unattributed_s']:.4f} s; "
            f"traced wall {m['trace.wall_s']:.4f} s")
    self_sum = sum(m[f"{layer}.self_s"] for layer in layers)
    total = self_sum + m["trace.unattributed_s"]
    ops.record("layer self-times + unattributed = traced wall",
               abs(total - m["trace.wall_s"]) <= 1e-6 * m["trace.wall_s"]
               and m["trace.unattributed_s"] >= 0.0,
               f"{total!r} vs {m['trace.wall_s']!r}")
    for p in traced:
        ops.record("traced counts repeat across passes",
                   all(p["layers"][k] == chosen["layers"][k] for k in COUNT_METRICS),
                   repr({k: p["layers"][k] for k in COUNT_METRICS}))
    return {name: {"value": value, "unit": per_layer_unit(name)}
            for name, value in sorted(m.items())}


def print_pass(n: int, res: dict) -> None:
    kind = "traced" if res["trace"] else "untraced"
    timers = ", ".join(f"{k} {v:.3f}" for k, v in res["timers"].items())
    print(f"pass {n} ({kind}): setup {res['setup_s']:.3f} s, wall {res['wall_s']:.3f} s, "
          f"peak rss {res['peak_rss_mb']:.1f} MB; {timers}", flush=True)


if __name__ == "__main__":
    sys.exit(main())
