"""Command-line entry point: ``jumpdiff <experiment> --config file.json``."""

from __future__ import annotations

import argparse
import json
import sys
import textwrap
from dataclasses import replace

from .errors import ConfigError
from .experiments import CONFIG_KEYS, EXPERIMENTS, run, validate_config

_EPILOG = """\
experiments and their CSV columns (12 significant digits, '#' comment header):
  gap-sweep          mu, gap_numeric, gap_is_real, dirichlet_bottom,
                     theoretical_gap, conjectured_threshold   (needs mu_grid)
  spectrum           re, im, multiplicity, residual (|det| over its
                     generic magnitude at the eigenvalue)
  invariant          mu, y, density, limit_density, abs_diff  (needs mu_grid)
  tv-decay           t, tv, se_scale
  coupling-tail      t, survival, se
  lemma6-check       n, t_n, fraction_x_in_A, fraction_y_in_A, n_accepted
  convolution-check  t, lhs, rhs, ratio, survivors

config JSON: {"spec": {"a": 0.0, "b": 1.0, "sigma": 1.0, "mu": 12.0,
              "nu": [[0.5, 1.0]]}, "experiment": "gap-sweep", ...knobs...}
""" + textwrap.fill("knobs: " + ", ".join(CONFIG_KEYS[2:]) + ".", 79) + """
Unknown keys are rejected (exit code 2).
"""


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="jumpdiff",
        description="Spectral and Monte Carlo experiments for drifted "
                    "diffusions with jump boundary.",
        epilog=_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("experiment", choices=EXPERIMENTS)
    parser.add_argument("--config", required=True, help="JSON config file")
    parser.add_argument("--out", default=None, help="output directory (default: config)")
    parser.add_argument("--seed", type=int, default=None, help="override config seed")
    parser.add_argument("--threads", type=int, default=1,
                        help="accepted for compatibility; has no effect")
    args = parser.parse_args(argv)

    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    # a non-object is left for validate_config to reject
    if isinstance(raw, dict) and "experiment" not in raw:
        raw = dict(raw, experiment=args.experiment)
    try:
        cfg = validate_config(raw)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    if cfg.experiment != args.experiment:
        print(f"config error: config names experiment {cfg.experiment!r}, "
              f"command line says {args.experiment!r}", file=sys.stderr)
        return 2
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)

    return run(cfg, out_dir=args.out)


if __name__ == "__main__":
    sys.exit(main())
