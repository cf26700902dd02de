"""One pass of a workload in a fresh interpreter.

Usage: python3 child.py JOB.json RESULT.json

The job names the source tree, the pieces and the pass directory.  Set-up
(import of jumpdiff and validation of every config and spec) is timed as
``setup_s``; the pieces are then run in order and timed as ``wall_s``.  With
``"trace": true`` the pieces run under the span tracer and the kernel
micro-measurements follow the pass.  The result JSON carries the timings, the
outputs the checks need, and for a traced pass the per-layer numbers.
"""

import time

T0 = time.perf_counter()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402


def _setup(job: dict):
    src = os.path.abspath(job["src"])
    sys.path.insert(0, src)
    import jumpdiff
    from jumpdiff import cli, coupling, experiments, model

    if not os.path.abspath(jumpdiff.__file__).startswith(src + os.sep):
        raise SystemExit(f"imported jumpdiff from {jumpdiff.__file__}, not {src}")
    args = []
    for piece in job["pieces"]:
        if "cli" in piece:
            with open(piece["config_path"], encoding="utf-8") as fh:
                experiments.validate_config(json.load(fh))
            args.append(None)
        elif "spec" in piece:
            args.append(model.ProcessSpec.from_json_dict(piece["spec"]))
        else:
            args.append(model.Interval(*piece["interval"]))
    modules = {"cli": cli, "experiments": experiments, "coupling": coupling}
    return modules, args, model.DEFAULT_CONFIG.newton_residual


def _run_piece(piece: dict, arg, modules: dict, pass_dir: str) -> dict:
    """Run one piece as a user would; exceptions are recorded, not raised."""
    done = {"rc": None, "stdout": "", "result": None}
    sink = io.StringIO()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            if "cli" in piece:
                out = os.path.join(pass_dir, piece["out"])
                done["rc"] = modules["cli"].main(
                    [piece["cli"], "--config", piece["config_path"], "--out", out,
                     "--threads", "1"])
            elif piece["call"] == "threshold_locate":
                res = modules["experiments"].threshold_locate(arg, **piece["kwargs"])
                done["result"] = {"mu": res.mu, "bracket_width": res.bracket_width}
                done["rc"] = 0
            elif piece["call"] == "report_corollary3":
                path = os.path.join(pass_dir, piece["csv"])
                os.makedirs(os.path.dirname(path), exist_ok=True)
                modules["experiments"].report_corollary3(arg, out=path, **piece["kwargs"])
                done["rc"] = 0
            elif piece["call"] == "mirror_exit_dominance":
                done["result"] = modules["coupling"].mirror_exit_dominance(
                    arg, **piece["kwargs"])
                done["rc"] = 0
            else:
                raise ValueError(f"unknown call {piece['call']!r}")
    except Exception:  # the pass goes on; the parent counts the failure
        done["error"] = traceback.format_exc()
    done["stdout"] = sink.getvalue()
    return done


def _output_bytes(pass_dir: str) -> dict:
    sizes = {".csv": 0, ".svg": 0}
    for root, _, files in os.walk(pass_dir):
        for name in files:
            ext = os.path.splitext(name)[1]
            if ext in sizes:
                sizes[ext] += os.path.getsize(os.path.join(root, name))
    return {"csv": sizes[".csv"], "svg": sizes[".svg"]}


def main(job_path: str, result_path: str) -> int:
    with open(job_path, encoding="utf-8") as fh:
        job = json.load(fh)
    modules, args, newton_residual = _setup(job)
    setup_s = time.perf_counter() - T0

    tracer = None
    if job["trace"]:
        import spans
        tracer = spans.Tracer()
        tracer.install()
    timers: dict = {}
    results = []
    try:
        start = time.perf_counter()
        for piece, arg in zip(job["pieces"], args):
            if tracer is not None:
                tracer.piece = piece.get("cli") or piece["call"]
            t = time.perf_counter()
            results.append(_run_piece(piece, arg, modules, job["pass_dir"]))
            timers[piece["timer"]] = timers.get(piece["timer"], 0.0) + time.perf_counter() - t
        wall_s = time.perf_counter() - start
    finally:
        if tracer is not None:
            tracer.restore()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    result = {"setup_s": setup_s, "wall_s": wall_s, "peak_rss_mb": peak_rss_mb,
              "timers": timers, "pieces": results, "newton_residual": newton_residual,
              "bytes": _output_bytes(job["pass_dir"])}
    if tracer is not None:
        result["layers"] = spans.summarize(tracer.spans, wall_s)
        result["micro"] = spans.micro(job["ensemble_paths"], job["micro_seconds"])
        tracer.dump(job["spans_path"])
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
