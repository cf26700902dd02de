"""Span tracer over the public functions of jumpdiff's layers, the per-layer
summary computed from its spans, and the kernel micro-measurements.

``Tracer.install`` wraps every public function defined in a layer module,
plus ``CharDeterminant.with_scale``, and rebinds each wrapper in every
jumpdiff module that holds the function by name (``from .x import f``
copies), so internal calls are seen too.  ``restore`` puts the originals
back.  A span is ``[name, start, end, parent, info]``; spans stay in memory
until ``dump`` writes them out.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import math
import statistics
import sys
import time

import numpy as np

# module -> layer prefix; cli and svgplot belong to the experiments layer
LAYER_OF_MODULE = {
    "analytic": "ana",
    "eigensolver": "eig",
    "simulate": "sim",
    "coupling": "coup",
    "experiments": "exp",
    "cli": "exp",
    "svgplot": "exp",
}
LAYERS = ("ana", "eig", "sim", "coup", "exp")
DET = "eigensolver.CharDeterminant.with_scale"


def _steps(taus: np.ndarray, dt: float, max_steps: int) -> int:
    """Path-steps an engine spent on paths that stop at ``taus`` (inf: ran
    to the horizon)."""
    done = np.isfinite(taus)
    k = np.rint(np.where(done, taus, 0.0) / dt)
    return int(np.where(done, np.minimum(k, max_steps), max_steps).sum())


def _count_find_spectrum(tracer, a, result):
    key = (a["spec"], a["re_max"], a["im_max"], a["config"])
    repeat = key in tracer.seen_solves
    tracer.seen_solves.add(key)
    zero_tol = 1e-8 * (1.0 + a["re_max"])
    nonzero = sum(abs(e.value) > zero_tol for e in result.eigenvalues)
    return {"eigs": len(result.eigenvalues), "nonzero": nonzero, "repeat": repeat,
            "gap_only": tracer.piece != "spectrum"}


def _count_ensemble(tracer, a, result):
    steps = [int(round(t / a["dt"])) for t in a["times"]]
    return {"path_steps": a["n_paths"] * max(steps, default=0)}


def _count_exit(tracer, a, result):
    horizon, dt = a["horizon"], a["dt"]
    # unbounded runs stop at the step budget, which no finite exit reaches
    max_steps = int(round(horizon / dt)) if math.isfinite(horizon) else 2**62
    return {"path_steps": _steps(result[0], dt, max_steps)}


def _count_staged(tracer, a, result):
    n_steps = int(round(a["horizon"] / a["dt"]))
    return {"path_steps": _steps(result[2], a["dt"], n_steps)}


def _count_mirror(tracer, a, result):
    n_steps = int(round(max(a["t_grid"]) / a["dt"]))
    return {"path_steps": a["n_paths"] * n_steps}


COUNTERS = {
    "eigensolver.find_spectrum": _count_find_spectrum,
    "simulate.ensemble_snapshots": _count_ensemble,
    "simulate.exit_time_ensemble": _count_exit,
    "coupling.coupling_records": _count_staged,
    "coupling.mirror_exit_dominance": _count_mirror,
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.piece: str | None = None
        self.seen_solves: set = set()
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, None])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, idx: int, info=None) -> None:
        span = self.spans[idx]
        span[2] = time.perf_counter()
        span[4] = info
        self._stack.pop()

    def _wrap(self, name: str, fn):
        count = COUNTERS.get(name)
        sig = inspect.signature(fn) if count else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if count is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                self.spans[idx][4] = count(self, bound.arguments, result)
            return result
        return traced

    def _wrap_det(self, fn):
        @functools.wraps(fn)
        def traced(det, lam_arr):
            idx = self._open(DET)
            try:
                return fn(det, lam_arr)
            finally:
                self._close(idx, lam_arr.size)
        return traced

    def install(self) -> None:
        from jumpdiff.eigensolver import CharDeterminant

        pkg = [m for n, m in sys.modules.items()
               if m is not None and (n == "jumpdiff" or n.startswith("jumpdiff."))]
        for short in LAYER_OF_MODULE:
            modname = "jumpdiff." + short
            mod = sys.modules[modname]
            for name, fn in list(vars(mod).items()):
                if (name.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != modname):
                    continue
                traced = self._wrap(f"{short}.{name}", fn)
                for holder in pkg:
                    for attr, val in list(vars(holder).items()):
                        if val is fn:
                            setattr(holder, attr, traced)
                            self._undo.append((holder, attr, fn))
        orig = CharDeterminant.with_scale
        CharDeterminant.with_scale = self._wrap_det(orig)
        self._undo.append((CharDeterminant, "with_scale", orig))

    def restore(self) -> None:
        while self._undo:
            holder, attr, fn = self._undo.pop()
            setattr(holder, attr, fn)

    def dump(self, path: str) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "info"],
                       "spans": self.spans}, fh)


def _layer(name: str) -> str:
    return LAYER_OF_MODULE[name.split(".", 1)[0]]


def summarize(spans: list[list], wall_s: float) -> dict:
    """Per-layer counts and times of one traced pass.

    Self time is a span's duration minus its children's.  ``unattributed_s``
    is the part of the pass outside every span (the benchmark's own glue);
    with the layer self-times it adds up to ``wall_s``.
    """
    child = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    m = {f"{layer}.self_s": 0.0 for layer in LAYERS}
    m.update(dict.fromkeys(
        ["eig.solves", "eig.eigenvalues", "eig.det_calls", "eig.det_points",
         "eig.scalar_det_calls", "eig.contour_det_points", "ana.calls", "exp.runs",
         "sim.ensemble.path_steps", "sim.exit.path_steps", "coup.staged.path_steps",
         "coup.mirror.path_steps"], 0))
    m.update(dict.fromkeys(
        ["eig.solve_s", "eig.scalar_det_s", "eig.contour_det_s", "ana.s", "sim.lemma.s",
         "sim.fit_s", "exp.write_s"], 0.0))
    engine_s = {"sim.ensemble": 0.0, "sim.exit": 0.0, "coup.staged": 0.0,
                "coup.mirror": 0.0}
    engine_of = {"simulate.ensemble_snapshots": "sim.ensemble",
                 "simulate.exit_time_ensemble": "sim.exit",
                 "coupling.coupling_records": "coup.staged",
                 "coupling.mirror_exit_dominance": "coup.mirror"}
    gap_only = gap_nonzero = repeats = 0
    root_s = 0.0
    for i, (name, start, end, parent, info) in enumerate(spans):
        dur = end - start
        layer = _layer(name)
        m[f"{layer}.self_s"] += dur - child[i]
        parent_name = spans[parent][0] if parent >= 0 else None
        if parent < 0:
            root_s += dur
        if name == DET:
            if parent_name == DET:      # negative drift evaluates via reflection
                continue
            m["eig.det_calls"] += 1
            m["eig.det_points"] += info
            if info == 1:
                m["eig.scalar_det_calls"] += 1
                m["eig.scalar_det_s"] += dur
            else:
                m["eig.contour_det_points"] += info
                m["eig.contour_det_s"] += dur
        elif name == "eigensolver.find_spectrum":
            m["eig.solves"] += 1
            m["eig.solve_s"] += dur
            m["eig.eigenvalues"] += info["eigs"]
            repeats += info["repeat"]
            if info["gap_only"]:
                gap_only += 1
                gap_nonzero += info["nonzero"]
        elif name in engine_of:
            engine = engine_of[name]
            m[f"{engine}.path_steps"] += info["path_steps"]
            engine_s[engine] += dur
        elif name == "simulate.verify_pathwise_lemma":
            m["sim.lemma.s"] += dur
        elif name == "simulate.fit_rate":
            m["sim.fit_s"] += dur
        elif name == "experiments.run":
            m["exp.runs"] += 1
        if name in ("experiments.write_csv", "svgplot.line_plot"):
            m["exp.write_s"] += dur
        if layer == "ana" and (parent_name is None or _layer(parent_name) != "ana"):
            m["ana.calls"] += 1
            m["ana.s"] += dur
    for engine, secs in engine_s.items():
        steps = m[f"{engine}.path_steps"]
        m[f"{engine}.ns_per_step"] = 1e9 * secs / steps if steps else 0.0
    m["eig.gap_yield"] = gap_only / gap_nonzero if gap_nonzero else 0.0
    m["eig.repeat_solve_share"] = repeats / m["eig.solves"] if m["eig.solves"] else 0.0
    m["trace.wall_s"] = wall_s
    m["trace.unattributed_s"] = wall_s - root_s
    m["trace.spans"] = len(spans)
    return m


# ---------------------------------------------------------------------------
# Kernel micro-measurements (untraced, after the pass)
# ---------------------------------------------------------------------------

def _median_rate(fn, reps: int, seconds: float) -> float:
    """Median seconds per call of fn over ``reps`` batches of ``seconds``."""
    fn()
    per_call = []
    for _ in range(reps):
        n = 0
        start = time.perf_counter()
        while True:
            fn()
            n += 1
            elapsed = time.perf_counter() - start
            if elapsed >= seconds:
                break
        per_call.append(elapsed / n)
    return statistics.median(per_call)


def micro(ensemble_paths: int, seconds: float) -> dict:
    """Determinant kernel and Philox draws, timed alone.

    The contour is the automatic search box at mu = 20 sampled at 4096
    points; the scalar call is the size-1 evaluation polishing makes; the
    draws are one normal and two uniforms per path-step at the ensemble size.
    """
    from jumpdiff.eigensolver import CharDeterminant, auto_re_max
    from jumpdiff.model import unit_spec
    from jumpdiff.simulate import RngStream

    spec = unit_spec(20.0)
    det = CharDeterminant(spec)
    re_max = auto_re_max(spec)
    im_max = det.config.im_aspect * re_max
    delta = max(0.5, 0.01 * re_max)
    corners = [complex(-delta, -im_max), complex(re_max, -im_max),
               complex(re_max, im_max), complex(-delta, im_max)]
    ts = np.linspace(0.0, 1.0, 1024, endpoint=False)
    contour = np.concatenate([z0 + (z1 - z0) * ts
                              for z0, z1 in zip(corners, corners[1:] + corners[:1])])
    scalar = np.array([complex(0.5 * re_max, 0.25 * im_max)])
    gen = RngStream(1).generator()

    def draws():
        gen.standard_normal(ensemble_paths)
        gen.random(ensemble_paths)
        gen.random(ensemble_paths)

    batch = seconds / 15.0
    contour_s = _median_rate(lambda: det.with_scale(contour), 5, batch)
    scalar_s = _median_rate(lambda: det.with_scale(scalar), 5, batch)
    rng_s = _median_rate(draws, 5, batch)
    return {"eig.det_points_per_s": contour.size / contour_s,
            "eig.det_scalar_call_us": 1e6 * scalar_s,
            "sim.rng.ns_per_step": 1e9 * rng_s / ensemble_paths}
