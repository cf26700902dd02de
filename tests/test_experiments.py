import json
import math
import os
import subprocess
import sys
from dataclasses import fields

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from jumpdiff import experiments
from jumpdiff.cli import main
from jumpdiff.errors import ConfigError, NoPlateauFound
from jumpdiff.experiments import (
    CONFIG_KEYS,
    EXPERIMENTS,
    ExperimentConfig,
    invariant_limit_distance,
    report_corollary3,
    threshold_locate,
    validate_config,
)
from jumpdiff.model import unit_spec
from tests.test_model import make_spec

PI2 = math.pi**2

BASE_SPEC = {"a": 0.0, "b": 1.0, "sigma": 1.0, "mu": 0.0, "nu": [[0.5, 1.0]]}


def write_config(tmp_path, name="cfg.json", **overrides):
    cfg = {"spec": dict(BASE_SPEC), "experiment": "gap-sweep"}
    cfg.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


# --- config validation ---------------------------------------------------------

def test_unknown_key_rejected():
    with pytest.raises(ConfigError):
        validate_config({"spec": BASE_SPEC, "experiment": "spectrum", "bogus": 1})


def test_missing_spec_rejected():
    with pytest.raises(ConfigError):
        validate_config({"experiment": "spectrum"})


def test_unknown_experiment_rejected():
    with pytest.raises(ConfigError):
        validate_config({"spec": BASE_SPEC, "experiment": "eigen-party"})


def test_unsorted_mu_grid_rejected():
    with pytest.raises(ConfigError):
        validate_config({"spec": BASE_SPEC, "experiment": "gap-sweep",
                         "mu_grid": [4, 2]})


def test_nonpositive_knob_rejected():
    with pytest.raises(ConfigError):
        validate_config({"spec": BASE_SPEC, "experiment": "tv-decay", "dt": -1e-4})


@pytest.mark.parametrize("key,value", [
    ("n_paths", 1000.7), ("bins", 64.5), ("seed", 1.9), ("n_values", [1.5]),
    ("n_paths", True), ("bins", "12"), ("seed", True), ("seed", "12"),
    ("n_values", [True]), ("grid_points", math.inf),
], ids=["n_paths-1000.7", "bins-64.5", "seed-1.9", "n_values-1.5", "n_paths-true",
        "bins-str", "seed-true", "seed-str", "n_values-true", "grid_points-inf"])
def test_integer_key_refuses_what_it_would_truncate(tmp_path, key, value):
    raw = {"spec": BASE_SPEC, "experiment": "lemma6-check", key: value}
    with pytest.raises(ConfigError, match=f"invalid {key}"):
        validate_config(raw)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    assert main(["lemma6-check", "--config", str(path), "--out", str(tmp_path / "out")]) == 2


def test_integer_key_takes_an_integral_float():
    cfg = validate_config({"spec": BASE_SPEC, "experiment": "lemma6-check",
                           "n_paths": 1000.0, "bins": 64, "seed": -3.0, "n_values": [2.0, 5]})
    assert (cfg.n_paths, cfg.bins, cfg.seed, cfg.n_values) == (1000, 64, -3, (2, 5))
    assert all(type(v) is int for v in (cfg.n_paths, cfg.seed, *cfg.n_values))


@pytest.mark.parametrize("key,value", [
    ("dt", "0.001"), ("start_x", True),
    ("spec", dict(BASE_SPEC, sigma="2", mu=True)),
], ids=["dt-str", "start_x-true", "spec-sigma-str-mu-true"])
def test_float_key_refuses_a_string_or_a_bool(tmp_path, key, value):
    raw = {"spec": BASE_SPEC, "experiment": "tv-decay", key: value}
    with pytest.raises(ConfigError, match=f"invalid {key}"):
        validate_config(raw)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    assert main(["tv-decay", "--config", str(path), "--out", str(tmp_path / "out")]) == 2


@pytest.mark.parametrize("mu", [math.inf, -math.inf, math.nan])
def test_nonfinite_drift_rejected(mu):
    with pytest.raises(ConfigError, match="mu must be finite"):
        validate_config({"spec": dict(BASE_SPEC, mu=mu), "experiment": "spectrum"})


def test_valid_config_roundtrip():
    cfg = validate_config({"spec": BASE_SPEC, "experiment": "gap-sweep",
                           "mu_grid": [0, 10], "seed": 7})
    assert cfg.seed == 7
    assert cfg.mu_grid == (0.0, 10.0)
    assert cfg.spec == unit_spec(0.0)


# any JSON value two levels deep, and values shaped like the keys' own
_LEAF = (st.none() | st.booleans() | st.integers() | st.floats()
         | st.sampled_from(["", "x", "invariant", *EXPERIMENTS]))
_INNER = _LEAF | st.lists(_LEAF, max_size=3)
_JSON = (_INNER | st.lists(_INNER, max_size=3)
         | st.dictionaries(st.sampled_from(["a", "b", "sigma", "mu", "nu", "x"]), _INNER))
_SHAPED = st.one_of(
    st.integers(-2, 10**6), st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=4),
    st.lists(st.integers(1, 5), min_size=1, max_size=3),
    st.fixed_dictionaries({k: st.floats(-2.0, 2.0) for k in ("a", "b", "sigma", "mu")}
                          | {"nu": st.lists(st.tuples(st.floats(-1.0, 2.0), st.just(1.0)),
                                            min_size=1, max_size=1)}))


@settings(max_examples=4000, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(experiment=st.sampled_from(EXPERIMENTS), key=st.sampled_from([*CONFIG_KEYS, "bogus"]),
       value=_JSON | _SHAPED)
def test_any_config_is_refused_or_echoes_to_itself(experiment, key, value):
    # a valid base with any key set to any JSON value: validation refuses it
    # with ConfigError, or the config's echo validates again to the same echo
    raw = {"spec": BASE_SPEC, "experiment": experiment, key: value}
    try:
        cfg = validate_config(raw)
    except ConfigError:
        return
    echo = cfg.to_json_dict()
    assert validate_config(echo).to_json_dict() == echo


FULL_RAW = {"spec": dict(BASE_SPEC, mu=3.0), "mu_grid": [0, 2.5], "dt": 2e-4,
            "n_paths": 1234, "bins": 40, "t_grid": [0.01, 0.02], "seed": 5,
            "start_x": 0.2, "start_y": 0.7, "n_values": [1, 3], "j_halfwidth": 0.1,
            "re_max": 50, "im_max": 60, "grid_points": 17, "fit_window": [0.01, 0.02],
            "out": "somewhere"}
SPEC3_ECHO = '"spec": {"a": 0.0, "b": 1.0, "mu": 3.0, "nu": [[0.5, 1.0]], "sigma": 1.0}'


@pytest.mark.parametrize("raw,echo", [
    (dict(FULL_RAW, experiment="lemma6-check"),
     '{"bins": 40, "dt": 0.0002, "experiment": "lemma6-check", "fit_window": [0.01, 0.02], '
     '"grid_points": 17, "im_max": 60.0, "j_halfwidth": 0.1, "mu_grid": [0.0, 2.5], '
     '"n_paths": 1234, "n_values": [1, 3], "out": "somewhere", "re_max": 50.0, "seed": 5, '
     + SPEC3_ECHO + ', "start_x": 0.2, "start_y": 0.7, "t_grid": [0.01, 0.02]}'),
    # n_values is echoed for lemma6-check only
    (dict(FULL_RAW, experiment="tv-decay"),
     '{"bins": 40, "dt": 0.0002, "experiment": "tv-decay", "fit_window": [0.01, 0.02], '
     '"grid_points": 17, "im_max": 60.0, "j_halfwidth": 0.1, "mu_grid": [0.0, 2.5], '
     '"n_paths": 1234, "out": "somewhere", "re_max": 50.0, "seed": 5, '
     + SPEC3_ECHO + ', "start_x": 0.2, "start_y": 0.7, "t_grid": [0.01, 0.02]}'),
    ({"spec": FULL_RAW["spec"], "experiment": "gap-sweep"},
     '{"bins": 64, "experiment": "gap-sweep", "grid_points": 256, "n_paths": 100000, '
     '"out": "out", "seed": 20240808, ' + SPEC3_ECHO + '}'),
], ids=["lemma6-all-keys", "tv-decay-all-keys", "defaults"])
def test_config_echo_bytes_pinned(raw, echo):
    assert json.dumps(validate_config(raw).to_json_dict(), sort_keys=True) == echo


def test_config_with_every_field_survives_echo_roundtrip():
    cfg = validate_config(dict(FULL_RAW, experiment="lemma6-check"))
    assert all(getattr(cfg, f.name) != f.default for f in fields(cfg))
    echoed = json.loads(json.dumps(cfg.to_json_dict()))
    assert set(echoed) == {f.name for f in fields(cfg)}
    assert validate_config(echoed) == cfg


def test_help_lists_every_config_key(capsys):
    with pytest.raises(SystemExit):
        main(["--help"])
    text = capsys.readouterr().out
    for f in fields(ExperimentConfig):
        assert f.name in text


# --- CLI ------------------------------------------------------------------------

def test_cli_gap_sweep_end_to_end(tmp_path):
    cfg = write_config(tmp_path, mu_grid=[0, 12, 16], out=str(tmp_path / "out"))
    assert main(["gap-sweep", "--config", cfg]) == 0
    csv_path = tmp_path / "out" / "gap-sweep.csv"
    lines = csv_path.read_text().splitlines()
    assert lines[0].startswith("# config:")
    assert lines[1] == ("mu,gap_numeric,gap_is_real,dirichlet_bottom,"
                        "theoretical_gap,conjectured_threshold")
    assert len(lines) == 5
    first = lines[2].split(",")
    assert float(first[1]) == pytest.approx(2 * PI2, abs=1e-6)
    assert (tmp_path / "out" / "gap-sweep.svg").exists()


def test_cli_rejects_unknown_key(tmp_path):
    cfg = write_config(tmp_path, mu_grid=[0.0], zzz=1)
    assert main(["gap-sweep", "--config", cfg]) == 2


def test_cli_rejects_experiment_mismatch(tmp_path):
    cfg = write_config(tmp_path, mu_grid=[0.0])
    assert main(["spectrum", "--config", cfg]) == 2


def test_cli_missing_required_knob(tmp_path):
    cfg = write_config(tmp_path, out=str(tmp_path / "out"))  # no mu_grid
    assert main(["gap-sweep", "--config", cfg]) == 2


TV_SMALL = {"experiment": "tv-decay", "t_grid": [0.01], "dt": 1e-3, "n_paths": 2000}


@pytest.mark.parametrize("experiment,config", [
    ("tv-decay", dict(TV_SMALL, dt="abc")),
    ("tv-decay", dict(TV_SMALL, spec=dict(BASE_SPEC, a="x"))),
    ("tv-decay", dict(TV_SMALL, fit_window=[1, 2, 3])),
    ("tv-decay", dict(TV_SMALL, start_y="foo")),
    ("tv-decay", dict(TV_SMALL, t_grid=5)),
    ("gap-sweep", [1, 2]),
    ("coupling-tail", dict(TV_SMALL, experiment="coupling-tail", n_paths=5000)),
    ("tv-decay", dict(TV_SMALL, n_paths=500)),
    ("tv-decay", dict(TV_SMALL, bins=16)),
    ("gap-sweep", {"mu_grid": [0, float("nan")]}),
    *[("spectrum", {"experiment": "spectrum", "spec": dict(BASE_SPEC, mu=mu)})
      for mu in (math.inf, -math.inf, math.nan)],
    ("invariant", {"experiment": "invariant"}),
    ("coupling-tail", dict(TV_SMALL, experiment="coupling-tail", n_paths=10_000,
                           start_y="invariant")),
], ids=["dt-string", "spec-string", "fit-window-3", "start-y-word", "t-grid-scalar",
        "top-level-list", "coupling-few-pairs", "tv-few-paths", "tv-few-bins",
        "mu-grid-nan", "mu-inf", "mu-minus-inf", "mu-nan", "invariant-no-mu-grid",
        "coupling-start-y-invariant"])
def test_cli_malformed_config_exits_2(tmp_path, experiment, config):
    if isinstance(config, dict):
        config = dict({"spec": BASE_SPEC}, **config)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(config))
    assert main([experiment, "--config", str(path), "--out", str(tmp_path / "out")]) == 2


@pytest.mark.parametrize("text", [None, '{"experiment": "gap-sweep",'],
                         ids=["missing-file", "malformed-json"])
def test_cli_unreadable_config_exits_2(tmp_path, capsys, text):
    path = tmp_path / "cfg.json"
    if text is not None:
        path.write_text(text)
    assert main(["gap-sweep", "--config", str(path)]) == 2
    assert capsys.readouterr().err.startswith("config error:")


@pytest.mark.parametrize("value", [None, "", 5, ["out"]],
                         ids=["null", "empty", "number", "list"])
def test_out_key_takes_only_a_nonempty_string(tmp_path, capsys, value):
    with pytest.raises(ConfigError, match="invalid out"):
        validate_config({"spec": BASE_SPEC, "experiment": "gap-sweep", "out": value})
    cfg = write_config(tmp_path, mu_grid=[0.0, 4.0], out=value)
    assert main(["gap-sweep", "--config", cfg]) == 2
    assert capsys.readouterr().err.startswith("config error:")
    assert not (tmp_path / "None").exists()


def test_cli_empty_out_flag_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, mu_grid=[0.0, 4.0], out=str(tmp_path / "o"))
    assert main(["gap-sweep", "--config", cfg, "--out", ""]) == 2
    out = capsys.readouterr().out
    assert out.startswith("config error: cannot make output directory ''")
    assert out.count("\n") == 1


def test_cli_out_directory_that_cannot_be_made_exits_2(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    cfg = write_config(tmp_path, mu_grid=[0.0, 4.0], out=str(blocker / "sub"))
    assert main(["gap-sweep", "--config", cfg]) == 2
    out = capsys.readouterr().out
    assert out.startswith("config error: cannot make output directory")
    assert out.count("\n") == 1


def test_cli_body_not_run_when_out_directory_cannot_be_made(tmp_path, capsys, monkeypatch):
    # the directory is made before the experiment, so a bad one costs nothing
    ran = []
    monkeypatch.setitem(experiments._BODIES, "gap-sweep", lambda cfg: ran.append(cfg))
    blocker = tmp_path / "file"
    blocker.write_text("")
    cfg = write_config(tmp_path, mu_grid=[0.0, 4.0], out=str(blocker / "sub"))
    assert main(["gap-sweep", "--config", cfg]) == 2
    assert ran == []
    assert capsys.readouterr().out.startswith("config error: cannot make output directory")


@pytest.mark.parametrize("error, code", [(ConfigError, 2), (NoPlateauFound, 3)])
def test_cli_failed_run_leaves_no_new_empty_directory(tmp_path, monkeypatch, error, code):
    def fail(cfg):
        raise error("no result")
    monkeypatch.setitem(experiments._BODIES, "gap-sweep", fail)
    cfg = write_config(tmp_path, mu_grid=[0.0, 4.0])
    # both levels made by the call go; a directory that was there stays
    assert main(["gap-sweep", "--config", cfg, "--out", str(tmp_path / "new" / "sub")]) == code
    assert not (tmp_path / "new").exists()
    (tmp_path / "old").mkdir()
    assert main(["gap-sweep", "--config", cfg, "--out", str(tmp_path / "old" / "sub")]) == code
    assert [p.name for p in tmp_path.iterdir() if p.is_dir()] == ["old"]
    assert not any((tmp_path / "old").iterdir())


def test_tv_and_coupling_share_the_default_starts():
    base = {"spec": dict(BASE_SPEC, a=-1.0, b=2.0), "experiment": "tv-decay"}
    assert experiments._starts(validate_config(base)) == (-0.25, 1.25)
    cfg = validate_config(dict(base, start_x=0.1, start_y="invariant"))
    assert experiments._starts(cfg) == (0.1, "invariant")


def test_cli_seed_override_matches_config_seed(tmp_path):
    small = dict(experiment="tv-decay", t_grid=[0.02, 0.04], n_paths=2000, dt=1e-3)
    in_config = write_config(tmp_path, "c7.json", seed=7, **small)
    overridden = write_config(tmp_path, "c1.json", seed=1, **small)
    assert main(["tv-decay", "--config", in_config, "--out", str(tmp_path / "o")]) == 0
    want = (tmp_path / "o" / "tv-decay.csv").read_bytes()
    assert main(["tv-decay", "--config", overridden, "--seed", "7",
                 "--out", str(tmp_path / "o")]) == 0
    assert (tmp_path / "o" / "tv-decay.csv").read_bytes() == want


@pytest.mark.parametrize("window, head, tail", [
    ([0.01, 0.05], "fitted rate ", " on window [0.01, 0.05] (5 points)"),
    (None, "fit skipped: ", ""),
    ([0.5, 0.9], "fit failed on window [0.5, 0.9]: ", ""),
], ids=["fitted", "skipped", "failed"])
def test_cli_tv_decay_fit_summary(tmp_path, capsys, window, head, tail):
    knobs = dict(experiment="tv-decay", spec=dict(BASE_SPEC, mu=20.0),
                 t_grid=[0.01 * k for k in range(1, 9)], n_paths=20_000, dt=5e-4)
    if window is not None:
        knobs["fit_window"] = window
    cfg = write_config(tmp_path, **knobs)
    assert main(["tv-decay", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    summary = capsys.readouterr().out.rstrip()
    assert summary.startswith("tv-decay: " + head)
    assert summary.endswith(tail)


def test_cli_solver_error_exit_code(tmp_path):
    # re_max below the first nonzero eigenvalue: the solver reports the box
    cfg = write_config(tmp_path, experiment="spectrum", re_max=1.0,
                       out=str(tmp_path / "out"))
    assert main(["spectrum", "--config", cfg]) == 3


def _solver_error_line(tmp_path, experiment, **overrides) -> str:
    """The one stdout line of a CLI run that must end as a solver error."""
    cfg = write_config(tmp_path, experiment=experiment, out=str(tmp_path / "out"),
                       **overrides)
    src = os.path.dirname(os.path.dirname(os.path.abspath(experiments.__file__)))
    proc = subprocess.run([sys.executable, "-m", "jumpdiff.cli", experiment, "--config", cfg],
                          env=dict(os.environ, PYTHONPATH=src), capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 3
    lines = proc.stdout.splitlines()
    assert len(lines) == 1 and lines[0].startswith("solver error:")
    assert proc.stderr == ""
    assert not (tmp_path / "out").exists()
    return lines[0]


@pytest.mark.parametrize("dt", [1e-320, 1e-9])
@pytest.mark.parametrize("experiment, n_paths", [("tv-decay", 1000), ("coupling-tail", 10_000)])
def test_cli_step_budget_is_a_solver_error(tmp_path, experiment, n_paths, dt):
    # coupling-tail: t / dt overflows to inf at 1e-320; at 1e-9 the first
    # default grid time, 0.02, asks for 2e10 path-steps or more.  The drift is
    # positive, since at mu = 0 the coupling takes no steps.  tv-decay ignores
    # dt; its atom 1e-9 from an edge restarts about 3e8 times per path by
    # t = 0.3, so 1000 paths are refused before any draw.  Either way: one
    # line on stdout, no traceback
    nu = [[1e-9, 1.0]] if experiment == "tv-decay" else BASE_SPEC["nu"]
    line = _solver_error_line(tmp_path, experiment, n_paths=n_paths, dt=dt,
                              spec=dict(BASE_SPEC, mu=20.0, nu=nu))
    assert "path-steps" in line


def test_cli_spectrum_driftfree_wide_box(tmp_path):
    # at mu = 0 the real double zeros once broke a split count of this box
    cfg = write_config(tmp_path, experiment="spectrum", re_max=1300.0,
                       out=str(tmp_path / "out"))
    assert main(["spectrum", "--config", cfg]) == 0


def test_cli_underflowing_determinant_exit_code(tmp_path, capsys):
    # det and its magnitude both underflow to 0 near lambda = mu^2 / 2 at
    # gamma L = 2000; 0 / 0 on the contour is a solver error, not a crash
    spec = {"a": 0.0, "b": 10.0, "sigma": 1.0, "mu": 200.0, "nu": [[5.0, 1.0]]}
    cfg = write_config(tmp_path, spec=spec, experiment="spectrum",
                       out=str(tmp_path / "out"))
    assert main(["spectrum", "--config", cfg]) == 3
    assert "determinant not finite on contour" in capsys.readouterr().out


def test_cli_rejects_times_snapping_to_one_step(tmp_path, capsys):
    # snapshots are taken at the requested times themselves, so only a
    # repeated time names one snapshot twice
    cfg = write_config(tmp_path, experiment="tv-decay", t_grid=[0.01, 0.01, 0.02, 0.03],
                       n_paths=1000, dt=2e-4, out=str(tmp_path / "out"))
    assert main(["tv-decay", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "strictly increasing" in err
    assert not (tmp_path / "out").exists()


def test_cli_spectrum_leading_pair_complex(tmp_path):
    spec = dict(BASE_SPEC, mu=20.0)
    cfg = write_config(tmp_path, spec=spec, experiment="spectrum",
                       out=str(tmp_path / "out"))
    assert main(["spectrum", "--config", cfg]) == 0
    rows = [line.split(",") for line in
            (tmp_path / "out" / "spectrum.csv").read_text().splitlines()[2:]]
    nonzero = [r for r in rows if abs(float(r[0])) > 1e-6]
    lead = min(nonzero, key=lambda r: float(r[0]))
    assert abs(float(lead[1])) > 0.0


def test_cli_reruns_byte_identical(tmp_path):
    cfg1 = write_config(tmp_path, "c1.json", experiment="tv-decay",
                        t_grid=[0.02, 0.04, 0.06], n_paths=2000, dt=1e-3,
                        out=str(tmp_path / "o1"))
    cfg2 = write_config(tmp_path, "c2.json", experiment="tv-decay",
                        t_grid=[0.02, 0.04, 0.06], n_paths=2000, dt=1e-3,
                        out=str(tmp_path / "o2"))
    assert main(["tv-decay", "--config", cfg1]) == 0
    assert main(["tv-decay", "--config", cfg2]) == 0
    b1 = (tmp_path / "o1" / "tv-decay.csv").read_bytes()
    b2 = (tmp_path / "o2" / "tv-decay.csv").read_bytes()
    assert b1.replace(b"o1", b"oX") == b2.replace(b"o2", b"oX")


def test_cli_thread_count_does_not_change_output(tmp_path):
    cfg = write_config(tmp_path, mu_grid=[0, 12], out=str(tmp_path / "out"))
    assert main(["gap-sweep", "--config", cfg, "--threads", "1"]) == 0
    single = (tmp_path / "out" / "gap-sweep.csv").read_bytes()
    assert main(["gap-sweep", "--config", cfg, "--threads", "4"]) == 0
    multi = (tmp_path / "out" / "gap-sweep.csv").read_bytes()
    assert single == multi


def test_csv_uses_crlf_and_12_digits(tmp_path):
    cfg = write_config(tmp_path, mu_grid=[0.0], out=str(tmp_path / "out"))
    assert main(["gap-sweep", "--config", cfg]) == 0
    raw = (tmp_path / "out" / "gap-sweep.csv").read_bytes()
    assert b"\r\n" in raw
    assert b"19.7392088022" in raw  # 12 significant digits of the gap


# --- threshold location ----------------------------------------------------------

def test_threshold_locate_matches_conjecture():
    res = threshold_locate(unit_spec(), 1e-4)
    want = 2 * math.sqrt(3) * math.pi
    assert abs(res.mu - want) / want < 0.05
    assert res.bracket_width > 0.0


def test_threshold_locate_monotone_in_tol():
    tight = threshold_locate(unit_spec(), 1e-4)
    loose = threshold_locate(unit_spec(), 0.5)
    assert loose.mu <= tight.mu


def test_threshold_scales_with_interval_length():
    # doubling the interval halves the conjectured threshold
    wide = make_spec(b=2.0, atoms=((1.0, 1.0),))
    res = threshold_locate(wide, 1e-4)
    want = math.sqrt(3) * math.pi
    assert abs(res.mu - want) / want < 0.05


@pytest.mark.parametrize("tol", [1e-4, 1e-2, 0.5])
@pytest.mark.parametrize("length,sigma", [(1.0, 1.0), (3.0, 1.3)])
def test_threshold_brackets_the_closed_form_edge(monkeypatch, length, sigma, tol):
    # below the plateau the centred gap is 2 sigma^2 pi^2 / L^2 + mu^2 /
    # (2 sigma^2) (the branch of coupling_tail_bound_rate), so the predicate
    # turns true where that reaches (1 - tol) of 8 sigma^2 pi^2 / L^2
    spec = make_spec(b=length, sigma=sigma, atoms=((0.5 * length, 1.0),))
    solves = []
    gap_curve = experiments.gap_curve

    def counted_gap_curve(spec_base, mu_grid):
        solves.append(mu_grid)
        return gap_curve(spec_base, mu_grid)

    monkeypatch.setattr(experiments, "gap_curve", counted_gap_curve)
    res = threshold_locate(spec, tol)
    plateau = 8 * sigma**2 * PI2 / length**2
    edge = sigma * math.sqrt(2 * ((1 - tol) * plateau - 2 * sigma**2 * PI2 / length**2))
    assert res.mu - res.bracket_width < edge <= res.mu
    # a blind bisection of the same bracket takes 14 solves
    assert len(solves) <= (8 if tol == 1e-4 else 14)


def test_threshold_rejects_bad_tol():
    for tol in (0.0, -1e-4, math.nan, math.inf):
        with pytest.raises(ConfigError):
            threshold_locate(unit_spec(), tol)


def test_threshold_raises_when_the_bracket_top_is_off_plateau(monkeypatch):
    # a gap stuck at the drift-free 2 pi^2 never reaches the 8 pi^2 plateau
    def flat_gap(spec_base, mu_grid):
        return [(float(mu), 2 * math.pi**2, True) for mu in mu_grid]

    monkeypatch.setattr(experiments, "gap_curve", flat_gap)
    with pytest.raises(NoPlateauFound):
        threshold_locate(unit_spec(), 1e-4)


# --- corollary-3 report -----------------------------------------------------------

def test_corollary3_report(tmp_path):
    out = str(tmp_path / "c3.csv")
    text = report_corollary3(unit_spec(), [0.0, 10.0, 20.0], out=out)
    lines = text.splitlines()
    assert lines[0].startswith("# first_mu_gap_below_lambda0: 20")
    rows = {float(r.split(",")[0]): r.split(",")[3] for r in lines[3:]}
    assert rows[0.0] == "false"
    assert rows[20.0] == "true"
    assert os.path.exists(out)


def test_invariant_distance_decreases():
    sups = [invariant_limit_distance(unit_spec(mu))[3] for mu in (5.0, 20.0, 60.0)]
    assert sups[0] > sups[1] > sups[2]
    assert sups[2] < 0.05


# --- documented sweep example and cross-validation --------------------------------

def test_gap_sweep_full_grid_example(tmp_path, capsys):
    cfg = write_config(tmp_path, mu_grid=list(range(0, 41, 2)),
                       out=str(tmp_path / "out"))
    assert main(["gap-sweep", "--config", cfg]) == 0
    out = capsys.readouterr().out
    lines = (tmp_path / "out" / "gap-sweep.csv").read_text().splitlines()
    assert len(lines) == 2 + 21  # comment, header, 21 cells
    rows = [line.split(",") for line in lines[2:]]
    plateau = [float(r[1]) for r in rows if float(r[0]) >= 16]
    assert abs(sum(plateau) / len(plateau) - 8 * PI2) < 1e-3
    # first grid drift on the plateau sits just above the conjectured onset
    assert "first on-plateau mu = 12" in out


def test_cross_validation_triangle():
    # on the plateau the three independent routes to the gap agree: the
    # deterministic eigensolver (to 1e-3), and the two Monte Carlo rates
    # within 20 percent
    import numpy as np

    from jumpdiff.coupling import coupling_tail
    from jumpdiff.eigensolver import find_spectrum
    from jumpdiff.simulate import ensemble_tv, fit_rate

    spec = unit_spec(20.0)
    gap = find_spectrum(spec, 200.0).gap
    assert abs(gap - 8 * PI2) < 1e-3

    _, coup = coupling_tail(spec, 0.25, 0.75, 50_000, 1e-4,
                            [0.01 * k for k in range(1, 16)], 33)

    # the leading pair is complex, so TV oscillates at period 2 pi / Im;
    # fit across whole half-periods, past the fast transient modes
    times = [0.0025 * k for k in range(2, 28)]
    curve = ensemble_tv(spec, 0.25, 0.6, times, 400_000, 64, 1e-4, 42)
    tv = fit_rate(curve, (0.02, 0.0575), noise_floor=0.0)

    for a, b in ((gap, coup.rate), (gap, tv.rate), (coup.rate, tv.rate)):
        assert abs(a - b) / max(a, b) < 0.20


def test_cli_lemma6_and_convolution_smoke(tmp_path):
    spec20 = {"a": 0.0, "b": 1.0, "sigma": 1.0, "mu": 20.0, "nu": [[0.5, 1.0]]}
    cfg = write_config(tmp_path, "l6.json", spec=spec20,
                       experiment="lemma6-check", n_values=[1], n_paths=400,
                       out=str(tmp_path / "l6"))
    assert main(["lemma6-check", "--config", cfg]) == 0
    assert (tmp_path / "l6" / "lemma6-check.csv").exists()

    spec60 = dict(spec20, mu=60.0)
    cfg = write_config(tmp_path, "cv.json", spec=spec60,
                       experiment="convolution-check",
                       t_grid=[0.02, 0.05], n_paths=5000,
                       out=str(tmp_path / "cv"))
    assert main(["convolution-check", "--config", cfg]) == 0

    cfg = write_config(tmp_path, "inv.json", spec=spec20,
                       experiment="invariant", mu_grid=[5, 20],
                       out=str(tmp_path / "inv"))
    assert main(["invariant", "--config", cfg]) == 0
    assert (tmp_path / "inv" / "invariant.svg").exists()
