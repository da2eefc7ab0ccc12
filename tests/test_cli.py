import inspect
import json
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import torusgp
from torusgp import cli, gp, hyperopt, kernels, simulator, tracking

TOY_CONFIG = {
    "seed": 55,
    "scenario": {"grid": [4, 3], "steps": 40},
    "optimizer": {"budget": 30, "restarts": 1},
    "case1": {"n_train": 10, "curve_points": 41, "periodicity_angles": 8},
    "case2": {"resolution": 13},
    "campaign": {
        "methods": ["HvM", "Parametric"],
        "trajectories": ["T1"],
        "noise_levels": [0.01],
        "runs": 2,
        "opt_budget": 20,
        "opt_restarts": 1,
    },
}


# Scenarios whose geometry the simulator refuses. T1, the circle of radius 9
# around (15, 15), leaves a 20 m arena; T3, the rounded box over [5, 25]^2,
# leaves a 24 m high one; (5.625, 4.5) is a cell centre of the default grid.
ARENA_TOO_SMALL = {"arena": [20, 20], "references": [[5, 5], [15, 5], [10, 15]]}
ARENA_TOO_LOW = {"arena": [30, 24], "references": [[5, 5], [25, 5], [15, 20]]}
REFERENCE_ON_GRID = {"references": [[5.625, 4.5], [25, 5], [15, 25]]}
# One reference gives one-column observations, whose np.cov is a 0-d array.
ONE_REFERENCE = {"references": [[5, 5]], "grid": [4, 3], "steps": 20}


def _write_config(tmp_path, overrides=None):
    cfg = json.loads(json.dumps(TOY_CONFIG))
    if overrides:
        cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


def test_full_pipeline_toy_scale(tmp_path):
    """simulate -> train -> track -> campaign completes and under a minute."""
    cfg = _write_config(tmp_path)
    out = tmp_path / "run"
    t0 = time.monotonic()
    assert cli.main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    assert cli.main(["train", "--config", str(cfg), "--out", str(out), "--method", "all"]) == 0
    assert cli.main(["track", "--config", str(cfg), "--out", str(out), "--method", "HvM"]) == 0
    assert cli.main(["campaign", "--config", str(cfg), "--out", str(out)]) == 0
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0

    for name in (
        "training_set.csv",
        "trajectory.csv",
        "model_hvm.json",
        "model_pvm.json",
        "model_pprd.json",
        "model_pse.json",
        "model_parametric.json",
        "optreport_hvm.json",
        "track_hvm.csv",
        "campaign.csv",
        "manifest_simulate.json",
        "manifest_train_all.json",
        "manifest_track_hvm.json",
        "manifest_campaign.json",
    ):
        assert (out / name).exists(), name

    rows = (out / "campaign.csv").read_text().splitlines()
    assert rows[0] == "method,trajectory,noise_level,seed,rmse,diverged"
    assert len(rows) == 1 + 2 * 2  # header + methods x runs

    track = (out / "track_hvm.csv").read_text().splitlines()
    assert track[0] == "step,truth_x_m,truth_y_m,est_x_m,est_y_m,ape_m"
    assert len(track) == 1 + 40
    for path in out.glob("*.csv"):
        assert b"\r" not in path.read_bytes(), path.name


def test_train_report_trace_nondecreasing(tmp_path):
    cfg = _write_config(tmp_path)
    out = tmp_path / "run"
    cli.main(["simulate", "--config", str(cfg), "--out", str(out)])
    cli.main(["train", "--config", str(cfg), "--out", str(out), "--method", "HvM"])
    report = json.loads((out / "optreport_hvm.json").read_text())
    trace = report["optimization"]["trace"]
    assert all(b >= a for a, b in zip(trace, trace[1:]))
    assert report["method"] == "HvM"


@pytest.mark.parametrize("key, loose", [("rel_tol", 0.5), ("grad_tol", 1e3)])
def test_train_honours_the_optimizer_tolerances(tmp_path, key, loose):
    """A loose optimizer tolerance in the config stops the HvM fit sooner."""
    sim = tmp_path / "sim"
    cli.main(["simulate", "--config", str(_write_config(tmp_path)), "--out", str(sim)])
    iterations = {}
    for tol in (None, loose):
        opts = dict(TOY_CONFIG["optimizer"], **({} if tol is None else {key: tol}))
        cfg = _write_config(tmp_path, {"optimizer": opts})
        out = tmp_path / f"train_{tol}"
        argv = ["train", "--config", str(cfg), "--out", str(out), "--method", "HvM"]
        assert cli.main(argv + ["--trainset", str(sim / "training_set.csv")]) == 0
        report = json.loads((out / "optreport_hvm.json").read_text())
        iterations[tol] = report["optimization"]["iterations"]
    assert iterations[loose] < iterations[None]


RERUN_STAGES = {
    "simulate": [["simulate"]],
    "case1": [["case1"]],
    "case2": [["case2"]],
    "train": [["simulate"], ["train", "--method", "HvM"]],
    "track": [["simulate"], ["train", "--method", "HvM"], ["track", "--method", "HvM"]],
}


@pytest.mark.parametrize("stage", list(RERUN_STAGES))
def test_manifest_rerun_is_bit_exact(tmp_path, stage):
    """Rerunning the last stage from its manifest into a fresh --out
    reproduces every artifact it lists byte for byte."""
    cfg = _write_config(tmp_path)
    a = tmp_path / "a"
    b = tmp_path / "b"
    stages = RERUN_STAGES[stage]
    for argv in stages:
        assert cli.main([*argv, "--config", str(cfg), "--out", str(a)]) == 0
    last = stages[-1]
    method = f"_{last[last.index('--method') + 1].lower()}" if "--method" in last else ""
    manifest = a / f"manifest_{last[0]}{method}.json"
    assert cli.main([*last, "--config", str(manifest), "--out", str(b)]) == 0
    artifacts = json.loads(manifest.read_text())["artifacts"]
    assert artifacts == json.loads((b / manifest.name).read_text())["artifacts"]
    for name in artifacts:
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_manifest_lists_every_artifact(tmp_path):
    cfg = _write_config(tmp_path)
    out = tmp_path / "run"
    cli.main(["simulate", "--config", str(cfg), "--out", str(out)])
    doc = json.loads((out / "manifest_simulate.json").read_text())
    assert doc["format"] == "torusgp-manifest"
    assert set(doc["artifacts"]) == {"training_set.csv", "trajectory.csv"}
    assert doc["seed"] == 55
    assert "wall_clock_s" in doc and "total" in doc["wall_clock_s"]
    assert doc["tool"].startswith("torusgp ")


def test_seed_flag_overrides_config(tmp_path):
    cfg = _write_config(tmp_path)
    a = tmp_path / "a"
    b = tmp_path / "b"
    cli.main(["simulate", "--config", str(cfg), "--out", str(a)])
    cli.main(["simulate", "--config", str(cfg), "--out", str(b), "--seed", "99"])
    assert (a / "training_set.csv").read_text() != (b / "training_set.csv").read_text()
    doc = json.loads((b / "manifest_simulate.json").read_text())
    assert doc["seed"] == 99


def test_default_seed_applies_without_config(tmp_path):
    out = tmp_path / "run"
    assert cli.main(["case2", "--out", str(out)]) == 0
    doc = json.loads((out / "manifest_case2.json").read_text())
    assert doc["seed"] == cli.DEFAULT_SEED == 1234


def test_a_flag_given_to_one_call_does_not_reach_the_next(tmp_path):
    """main builds its parser once per process; a --seed given to one call
    is not the default of the next."""
    assert cli.main(["case1", "--seed", "5", "--out", str(tmp_path / "a")]) == 0
    assert cli.main(["case1", "--out", str(tmp_path / "b")]) == 0
    seeds = [json.loads((tmp_path / d / "manifest_case1.json").read_text())["seed"] for d in "ab"]
    assert seeds == [5, cli.DEFAULT_SEED]


def test_version_flag_exits_0(capsys):
    for _ in range(2):
        with pytest.raises(SystemExit) as done:
            cli.main(["--version"])
        assert done.value.code == 0
        assert capsys.readouterr().out == f"torusgp {torusgp.__version__}\n"


def test_bad_json_exits_2_with_line_info(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"seed": 1,\n  "scenario": }')
    rc = cli.main(["simulate", "--config", str(bad), "--out", str(tmp_path / "x")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "line 2" in err


@pytest.mark.parametrize("command", ["simulate", "case1", "case2"])
def test_unknown_config_key_exits_2(tmp_path, capsys, command):
    """Every section is checked, also by commands that never read it."""
    cfg = tmp_path / "c.json"
    cfg.write_text('{"scenario": {"particle_count": 10}}')
    rc = cli.main([command, "--config", str(cfg), "--out", str(tmp_path / "x")])
    assert rc == 2
    assert "particle_count" in capsys.readouterr().err


COMMANDS = ["case1", "case2", "simulate", "train", "track", "campaign"]
# A campaign that finishes in a second if a bad value gets through.
ONE_PARAMETRIC_RUN = {
    "scenario": {"grid": [4, 3], "steps": 20},
    "campaign": {"methods": ["Parametric"], "trajectories": ["T1"], "runs": 1},
}

BAD_VALUES = [
    (["simulate"], {"scenario": {"arena": 5}}, "arena"),
    (["campaign"], {"scenario": {"arena": 5}}, "arena"),
    (["simulate"], {"scenario": {"references": [1, 2]}}, "references"),
    (["campaign"], {"scenario": {"references": [1, 2]}}, "references"),
    *[([command], {"seed": "abc"}, "seed") for command in COMMANDS],
    (["simulate"], {"seed": -1}, "seed"),
    (["simulate", "--seed", "-1"], {}, "seed"),
    (["case1"], {"optimizer": {"budget": "x"}}, "budget"),
    (["case1"], {"optimizer": {"budget": 2.0}}, "budget"),
    (["case1"], {"case1": {"n_train": "x"}}, "n_train"),
    (["case1"], {"case1": {"density": {"vm_components": 3}}}, "vm_components"),
    (["case1"], {"case1": {"density": {"vm_components": [[0.0]], "vm_weights": [1.0]}}}, "vm_components"),
    (["campaign"], {"campaign": {"noise_levels": ["a"]}}, "noise_levels"),
    (["campaign"], {"campaign": {"runs": "x"}}, "runs"),
    (["case2"], {"case2": {"resolution": None}}, "resolution"),
    (["case2"], {"case2": {"resolution": float("nan")}}, "resolution"),
    (["simulate"], {"scenario": {"noise_xi": float("inf")}}, "noise_xi"),
    (["simulate"], {"scenario": ARENA_TOO_SMALL}, "scenario"),
    (["simulate"], {"scenario": REFERENCE_ON_GRID}, "scenario"),
    *[(["campaign", "--jobs", jobs], ONE_PARAMETRIC_RUN, "--jobs") for jobs in ("0", "-3")],
    (["campaign"], {"campaign": {"trajectories": ["T4"]}}, "campaign.trajectories"),
    (["campaign"], {"campaign": {"noise_levels": [0]}}, "campaign.noise_levels"),
    (["campaign"], {"campaign": {"noise_levels": [-0.01]}}, "campaign.noise_levels"),
    (["campaign"], {"campaign": {"methods": ["GP"]}}, "campaign.methods"),
    (["simulate"], {"scenario": {"arena": [30, 30, 30]}}, "arena must have 2 entries, got 3"),
    (["simulate"], {"scenario": {"grid": [24]}}, "grid must have 2 entries, got 1"),
]


@pytest.mark.parametrize(
    "argv, config, key",
    BAD_VALUES,
    ids=[f"{'_'.join(a)}-{k}-{i}" for i, (a, _, k) in enumerate(BAD_VALUES)],
)
def test_wrong_typed_config_value_exits_2_naming_the_key(tmp_path, capsys, argv, config, key):
    """A wrong-typed or out-of-range value, from the config or the --seed flag,
    is a config error that names its key, never a traceback."""
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(config))
    rc = cli.main([*argv, "--config", str(cfg), "--out", str(tmp_path / "x")])
    assert rc == 2
    assert key in capsys.readouterr().err


def _schema_paths(schema, prefix=()):
    for key, default in schema.items():
        yield prefix + (key,)
        if isinstance(default, dict):
            yield from _schema_paths(default, prefix + (key,))


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=10,
)


@settings(max_examples=400, deadline=None)
@given(path=st.sampled_from(list(_schema_paths(cli.CONFIG_SCHEMA))), value=_JSON_VALUES)
def test_load_config_raises_only_config_error(tmp_path_factory, path, value):
    """Any JSON value under any schema key loads or raises ConfigError."""
    doc = value
    for key in reversed(path):
        doc = {key: doc}
    cfg = tmp_path_factory.getbasetemp() / "property_config.json"
    cfg.write_text(json.dumps(doc))
    try:
        cli.load_config(cfg)
    except cli.ConfigError:
        pass


def test_invalid_scenario_value_exits_2(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text('{"scenario": {"noise_xi": -1.0}}')
    rc = cli.main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "x")])
    assert rc == 2
    assert "noise_xi" in capsys.readouterr().err


# (scenario, campaign overrides, key the error names). Refused scenario
# geometry, and campaign lists that give no useful row: an empty list gives
# none, a repeated method the same row twice, a repeated trajectory or noise
# level a second set of rows under the same label.
CAMPAIGN_REFUSED = {
    "T1-leaves-arena": (ARENA_TOO_SMALL, {"trajectories": ["T1"]}, "scenario"),
    "T3-leaves-arena": (ARENA_TOO_LOW, {"trajectories": ["T1", "T3"]}, "scenario"),
    "reference-on-grid": (REFERENCE_ON_GRID, {"trajectories": ["T1"]}, "scenario"),
    "methods-repeated": ({}, {"methods": ["Parametric", "parametric"]}, "campaign.methods"),
    "methods-empty": ({}, {"methods": []}, "campaign.methods"),
    "trajectories-empty": ({}, {"trajectories": []}, "campaign.trajectories"),
    "trajectories-repeated": ({}, {"trajectories": ["T1", "T1"]}, "campaign.trajectories"),
    "noise_levels-empty": ({}, {"noise_levels": []}, "campaign.noise_levels"),
    "noise_levels-repeated": ({}, {"noise_levels": [0.01, 0.01]}, "campaign.noise_levels"),
}


@pytest.mark.parametrize("scenario, campaign, key", CAMPAIGN_REFUSED.values(), ids=CAMPAIGN_REFUSED.keys())
def test_campaign_refuses_scenario_geometry_before_any_fit(
    tmp_path, capsys, monkeypatch, scenario, campaign, key
):
    """A refused scenario or campaign list exits 2, naming it, before any method is trained."""

    def no_fit(*args, **kwargs):
        raise AssertionError("a method was trained")

    monkeypatch.setattr(tracking, "train_method", no_fit)
    campaign = dict(TOY_CONFIG["campaign"], **campaign)
    cfg = _write_config(tmp_path, {"scenario": scenario, "campaign": campaign})
    rc = cli.main(["campaign", "--config", str(cfg), "--out", str(tmp_path / "x")])
    assert rc == 2
    assert key in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def _library_defaults(owner, *skip):
    params = inspect.signature(owner).parameters.values()
    return {p.name: p.default for p in params if p.default is not p.empty and p.name not in skip}


def test_cli_defaults_are_the_library_defaults():
    """optimizer and case2 take the library's defaults; campaign differs from
    tracking.campaign's only in trajectories and runs, the paper's full grid."""
    config = cli.load_config(None)
    assert config["optimizer"] == _library_defaults(hyperopt.optimize, "seed")
    assert config["case2"] == _library_defaults(simulator.case_study_2_sweep)
    library = _library_defaults(tracking.campaign, "seed", "jobs")
    assert config["campaign"].keys() == library.keys()
    assert {key for key in library if config["campaign"][key] != library[key]} == {"trajectories", "runs"}
    assert config["campaign"]["trajectories"] == simulator.TRAJECTORY_NAMES
    assert config["campaign"]["runs"] == 100


# (command, config, exit code, start of stderr), each refused before it writes anything
REFUSED_RUNS = [
    (
        ["simulate"],
        {"scenario": {"particle_count": 10}},
        2,
        "torusgp: config error: scenario: unknown key(s) particle_count;",
    ),
    (
        ["campaign"],
        {"scenario": ARENA_TOO_SMALL},
        2,
        "torusgp: config error: config section 'scenario': trajectory T1 leaves the arena\n",
    ),
    (
        ["track"],
        {"scenario": {"grid": [4, 3], "steps": 20}},
        3,
        "torusgp: missing artifact: expected a trained HvM model (train stage output) at ",
    ),
    (
        ["track", "--method", "all"],
        {},
        2,
        "torusgp: config error: track runs one method per invocation; pass a single --method\n",
    ),
]


@pytest.mark.parametrize(
    "argv, config, code, message",
    REFUSED_RUNS,
    ids=["bad-config", "refused-geometry", "missing-model", "track-all"],
)
def test_a_refused_run_leaves_no_output_directory(tmp_path, capsys, argv, config, code, message):
    """A run refused with exit 2 or 3 before it writes anything leaves no
    directory it created behind; an --out that existed before is kept."""
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(config))
    fresh = tmp_path / "fresh"
    assert cli.main([*argv, "--config", str(cfg), "--out", str(fresh / "out")]) == code
    assert capsys.readouterr().err.startswith(message)
    assert not fresh.exists()
    fresh.mkdir()
    assert cli.main([*argv, "--config", str(cfg), "--out", str(fresh)]) == code
    assert capsys.readouterr().err.startswith(message)
    assert fresh.is_dir() and not any(fresh.iterdir())


def test_track_refuses_a_trajectory_that_leaves_the_arena(tmp_path, capsys):
    """track regenerates the trajectory when --out holds none; bad geometry exits 2."""
    out = tmp_path / "run"
    out.mkdir()
    model = tracking.ParametricRangeModel(np.zeros(3), np.eye(3))
    tracking.save_parametric(model, out / "model.json")
    cfg = _write_config(tmp_path, {"scenario": ARENA_TOO_SMALL})
    argv = ["track", "--config", str(cfg), "--out", str(out), "--method", "Parametric"]
    assert cli.main(argv + ["--model", str(out / "model.json")]) == 2
    assert "leaves the arena" in capsys.readouterr().err


def test_one_reference_scenario_runs_every_stage(tmp_path):
    cfg = _write_config(tmp_path, {"scenario": ONE_REFERENCE})
    argv = ["--config", str(cfg), "--out", str(tmp_path / "run")]
    assert cli.main(["simulate", *argv]) == 0
    assert cli.main(["train", *argv, "--method", "all"]) == 0
    for method in ("HvM", "Parametric"):
        assert cli.main(["track", *argv, "--method", method]) == 0


@pytest.fixture(scope="module")
def toy_models(tmp_path_factory):
    """The toy scenario's HvM and Parametric model files."""
    out = tmp_path_factory.mktemp("models")
    cfg = _write_config(out)
    for argv in (["simulate"], ["train", "--method", "HvM"], ["train", "--method", "Parametric"]):
        assert cli.main([*argv, "--config", str(cfg), "--out", str(out)]) == 0
    return out


FOUR_REFERENCES = dict(TOY_CONFIG["scenario"], references=[[5, 5], [25, 5], [15, 25], [5, 25]])


@pytest.mark.parametrize(
    "method, model, scenario, text",
    [
        ("Parametric", "hvm", None, "hvm model"),
        ("PvM", "hvm", None, "hvm model"),
        ("HvM", "parametric", None, "parametric model"),
        ("Parametric", "parametric", FOUR_REFERENCES, "scenario has 4"),
    ],
    ids=["gp-as-parametric", "hvm-as-pvm", "parametric-as-gp", "parametric-4-references"],
)
def test_track_refuses_a_model_that_does_not_match(
    tmp_path, capsys, toy_models, method, model, scenario, text
):
    """The model file must hold --method's model, trained for the scenario's references."""
    cfg = _write_config(tmp_path, scenario and {"scenario": scenario})
    argv = ["track", "--config", str(cfg), "--out", str(tmp_path / "x"), "--method", method]
    assert cli.main(argv + ["--model", str(toy_models / f"model_{model}.json")]) == 2
    assert text in capsys.readouterr().err


def test_track_refuses_a_gp_that_predicts_fewer_ranges(tmp_path, capsys, toy_models):
    """A GP on the scenario's three AoA circles with two range outputs exits 2."""
    full = gp.load_model(toy_models / "model_hvm.json")
    two = gp.fit(full.inputs, full.obs[:, :2], full.kernel, full.noise_var[:2], full.coreg[:2, :2])
    gp.save_model(two, tmp_path / "model.json")
    cfg = _write_config(tmp_path)
    argv = ["track", "--config", str(cfg), "--out", str(tmp_path / "x"), "--method", "HvM"]
    assert cli.main(argv + ["--model", str(tmp_path / "model.json")]) == 2
    assert "predicts 2 ranges" in capsys.readouterr().err


@pytest.mark.parametrize(
    "cell", ["0.5", "nan", None], ids=["aoa-off-circle", "aoa-nan", "range-column-dropped"]
)
def test_train_refuses_a_broken_training_set(tmp_path, capsys, toy_models, cell):
    """A training set that train or track would crash on exits 3 naming the file.

    cell replaces the first AoA component of the first point; None drops the
    last range column instead.
    """
    rows = [line.split(",") for line in (toy_models / "training_set.csv").read_text().splitlines()]
    if cell is None:
        rows = [row[:-1] for row in rows]
    else:
        rows[1][2] = cell
    bad = tmp_path / "bad.csv"
    bad.write_text("".join(",".join(row) + "\n" for row in rows))
    cfg = _write_config(tmp_path)
    argv = ["train", "--config", str(cfg), "--out", str(tmp_path / "out"), "--trainset", str(bad)]
    assert cli.main(argv) == 3
    assert str(bad) in capsys.readouterr().err


@pytest.mark.parametrize("method, field", [("HvM", "obs"), ("Parametric", "bias")])
def test_track_refuses_a_model_file_with_a_nan(tmp_path, capsys, toy_models, method, field):
    """A NaN among a model file's numbers exits 3 naming the file, not a silent diverged run."""
    doc = json.loads((toy_models / f"model_{method.lower()}.json").read_text())
    values = doc[field][1] if field == "obs" else doc[field]
    values[0] = float("nan")
    bad = tmp_path / "model.json"
    bad.write_text(json.dumps(doc))
    cfg = _write_config(tmp_path)
    argv = ["track", "--config", str(cfg), "--out", str(tmp_path / "x"), "--method", method]
    assert cli.main(argv + ["--model", str(bad)]) == 3
    assert str(bad) in capsys.readouterr().err


def test_track_refuses_a_model_file_with_an_infinite_noise(tmp_path, capsys, toy_models):
    """A noise variance of Infinity breaks the ICM rule: exit 3 naming the file,
    not a run whose every particle scores -inf."""
    doc = json.loads((toy_models / "model_hvm.json").read_text())
    doc["noise_var"][0] = float("inf")
    bad = tmp_path / "model.json"
    bad.write_text(json.dumps(doc))
    cfg = _write_config(tmp_path)
    argv = ["track", "--config", str(cfg), "--out", str(tmp_path / "x"), "--method", "HvM"]
    assert cli.main(argv + ["--model", str(bad)]) == 3
    err = capsys.readouterr().err
    assert str(bad) in err and "noise must be 3 positive finite numbers" in err


@pytest.mark.parametrize("case", ["cov-too-small", "asymmetric"])
def test_track_refuses_a_malformed_parametric_model(tmp_path, capsys, toy_models, case):
    """A parametric cov that does not match the biases, or is not symmetric, exits 3 naming the file."""
    doc = json.loads((toy_models / "model_parametric.json").read_text())
    if case == "cov-too-small":
        doc["cov"] = [row[:-1] for row in doc["cov"][:-1]]
    else:
        doc["cov"][0][1] += 5.0
    bad = tmp_path / "model.json"
    bad.write_text(json.dumps(doc))
    cfg = _write_config(tmp_path)
    argv = ["track", "--config", str(cfg), "--out", str(tmp_path / "x"), "--method", "Parametric"]
    assert cli.main(argv + ["--model", str(bad)]) == 3
    assert str(bad) in capsys.readouterr().err


def test_track_refuses_a_trajectory_with_a_nan_cell(tmp_path, capsys, toy_models):
    text = (toy_models / "trajectory.csv").read_text().splitlines()
    text[3] = ",".join(text[3].split(",")[:2] + ["nan"])
    bad = tmp_path / "trajectory.csv"
    bad.write_text("\n".join(text) + "\n")
    cfg = _write_config(tmp_path)
    argv = ["track", "--config", str(cfg), "--out", str(tmp_path / "x"), "--method", "Parametric"]
    argv += ["--model", str(toy_models / "model_parametric.json"), "--trajectory", str(bad)]
    assert cli.main(argv) == 3
    assert str(bad) in capsys.readouterr().err


def test_import_torusgp_exposes_the_library_modules():
    """The package root imports its six library modules and nothing else is needed."""
    code = "import torusgp; print(*sorted(m for m in vars(torusgp) if not m.startswith('_')))"
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert done.stdout.split() == ["gp", "hyperopt", "kernels", "manifold", "simulator", "tracking"]


def test_fit_summaries_report_jitter_and_counts(tmp_path):
    cfg = _write_config(tmp_path)
    out = tmp_path / "run"
    assert cli.main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    assert cli.main(["train", "--config", str(cfg), "--out", str(out)]) == 0
    assert cli.main(["campaign", "--config", str(cfg), "--out", str(out)]) == 0
    report = json.loads((out / "optreport_hvm.json").read_text())
    fit = json.loads((out / "manifest_train_hvm.json").read_text())["summary"]["HvM"]
    assert report["jitter_used"] == fit["jitter_used"] >= 0.0
    assert fit["evaluations"] == report["optimization"]["evaluations"] > 0
    assert fit["backtracks"] == report["optimization"]["backtracks"] >= 0
    failures = report["optimization"]["restart_failures"]
    assert fit["failed_restarts"] == report["optimization"]["failed_restarts"] == len(failures)
    fits = json.loads((out / "manifest_campaign.json").read_text())["summary"]["fits"]
    assert [(f["noise_level"], f["method"]) for f in fits] == [(0.01, "HvM")]
    assert fits[0]["evaluations"] > 0 and fits[0]["backtracks"] >= 0
    assert fits[0]["jitter_used"] >= 0.0 and np.isfinite(fits[0]["objective"])


def test_missing_trainset_exits_3(tmp_path, capsys):
    cfg = _write_config(tmp_path)
    out = tmp_path / "empty"
    rc = cli.main(["train", "--config", str(cfg), "--out", str(out)])
    assert rc == 3
    assert "training_set.csv" in capsys.readouterr().err


def test_missing_model_exits_3(tmp_path):
    cfg = _write_config(tmp_path)
    out = tmp_path / "empty"
    rc = cli.main(["track", "--config", str(cfg), "--out", str(out), "--method", "PvM"])
    assert rc == 3


@pytest.mark.parametrize(
    "command, flag, name, text",
    [
        ("train", "--trainset", "bad.csv", "a,b\n1,2\n"),
        ("track", "--model", "model.json", "not json\n"),
        ("track", "--model", "model.json", '{"format": "torusgp-model"}\n'),
        ("track", "--model", "model.json", '{"format": "bogus"}\n'),
        ("track", "--model", "model.json", '{"format": "torusgp-model", "kernel": {"family": 7, "m": 2}}\n'),
    ],
    ids=["csv-header", "not-json", "no-kernel", "unknown-format", "family-not-a-name"],
)
def test_malformed_upstream_artifact_exits_3_naming_it(tmp_path, capsys, command, flag, name, text):
    cfg = _write_config(tmp_path)
    bad = tmp_path / name
    bad.write_text(text)
    argv = [command, "--config", str(cfg), "--out", str(tmp_path / "out"), flag, str(bad)]
    rc = cli.main(argv + (["--method", "HvM"] if command == "track" else []))
    assert rc == 3
    assert str(bad) in capsys.readouterr().err


def test_track_parametric_model(tmp_path):
    cfg = _write_config(tmp_path)
    out = tmp_path / "run"
    cli.main(["simulate", "--config", str(cfg), "--out", str(out)])
    cli.main(["train", "--config", str(cfg), "--out", str(out), "--method", "Parametric"])
    rc = cli.main(["track", "--config", str(cfg), "--out", str(out), "--method", "Parametric"])
    assert rc == 0
    doc = json.loads((out / "manifest_track_parametric.json").read_text())
    assert doc["summary"]["method"] == "Parametric"
    assert np.isfinite(doc["summary"]["rmse"])


def test_runs_of_two_methods_keep_one_manifest_each(tmp_path):
    cfg = _write_config(tmp_path)
    out = tmp_path / "run"
    assert cli.main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    for command in ("train", "track"):
        for method in ("HvM", "Parametric"):
            argv = [command, "--config", str(cfg), "--out", str(out), "--method", method]
            assert cli.main(argv) == 0
    for command in ("train", "track"):
        names = sorted(p.name for p in out.glob(f"manifest_{command}*.json"))
        assert names == [f"manifest_{command}_hvm.json", f"manifest_{command}_parametric.json"]
    for method in ("hvm", "parametric"):
        doc = json.loads((out / f"manifest_track_{method}.json").read_text())
        assert doc["summary"]["method"].lower() == method
        assert doc["artifacts"] == [f"track_{method}.csv"]


def test_model_with_a_kernel_on_another_torus_exits_3(tmp_path, capsys):
    """A model file whose kernel has fewer circles than its inputs is malformed."""
    rng = np.random.default_rng(2)
    theta = rng.uniform(0.0, 2.0 * np.pi, (8, 2))
    X = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
    path = tmp_path / "model.json"
    kernel = kernels.kernel_from_family("hvm", 2)
    gp.save_model(gp.fit(X, rng.standard_normal((8, 3)), kernel, np.full(3, 0.01), np.eye(3)), path)
    doc = json.loads(path.read_text())
    doc["inputs"] = np.concatenate([X, X[:, :1]], axis=1).tolist()
    path.write_text(json.dumps(doc))
    argv = ["track", "--config", str(_write_config(tmp_path)), "--out", str(tmp_path / "out")]
    assert cli.main(argv + ["--method", "HvM", "--model", str(path)]) == 3
    assert "T^2 got inputs with 3 circles" in capsys.readouterr().err


def test_case1_outputs_and_periodicity_report(tmp_path):
    cfg = _write_config(tmp_path)
    out = tmp_path / "run"
    assert cli.main(["case1", "--config", str(cfg), "--out", str(out)]) == 0
    report = json.loads((out / "case1_report.json").read_text())
    assert report["periodicity"]["vm"]["mean_max_abs"] < 1e-8
    assert report["boundary_gap"]["se_mean"] > 0.0
    for fit in report["models"].values():
        opt = fit["optimization"]
        assert opt["failed_restarts"] == len(opt["restart_failures"])
    curves = (out / "case1_curves.csv").read_text().splitlines()
    assert curves[0] == "theta_rad,truth,se_mean,se_var,vm_mean,vm_var"
    assert len(curves) == 1 + 41
    training = (out / "case1_training.csv").read_text().splitlines()
    assert len(training) == 1 + 10
    for name in ("case1_curves.csv", "case1_training.csv"):
        assert b"\r" not in (out / name).read_bytes()


@pytest.mark.parametrize("seed", ["316", "785"])
def test_case1_survives_extreme_line_search_probes(tmp_path, seed):
    """These seeds send a product-kernel line search to omega > 1e154, where
    omega**2 overflows; the probe must count as a rejected step."""
    out = tmp_path / "run"
    assert cli.main(["case1", "--seed", seed, "--out", str(out)]) == 0
    assert (out / "case1_report.json").is_file()


def test_case2_outputs_all_sets(tmp_path):
    cfg = _write_config(tmp_path)
    out = tmp_path / "run"
    assert cli.main(["case2", "--config", str(cfg), "--out", str(out)]) == 0
    report = json.loads((out / "case2_report.json").read_text())
    # (omega, lam, corr) of the four parameter sets
    params = {
        1: (1.0, [0.3, 0.3], [0.0]),
        2: (1.0, [0.3, 0.3], [0.3]),
        3: (1.0, [1.0, 1.0], [0.0]),
        4: (1.0, [1.0, 1.0], [1.0]),
    }
    for idx in range(1, 5):
        assert b"\r" not in (out / f"case2_set{idx}.csv").read_bytes()
        entry = report[f"set{idx}"]
        assert (entry["omega"], entry["lam"], entry["corr"]) == params[idx]
        assert entry["argmax_alpha_rad"] == 0.0
        assert entry["argmax_beta_rad"] == 0.0
    data = (out / "case2_set1.csv").read_text().splitlines()
    assert data[0] == "alpha_rad,beta_rad,k,k_normalized"
    assert len(data) == 1 + 13 * 13
    assert max(float(row.split(",")[3]) for row in data[1:]) == 1.0


@pytest.mark.parametrize("cpus", [1, 2])
def test_train_all_fits_do_not_depend_on_the_thread_count(tmp_path, monkeypatch, toy_models, cpus):
    """train --method all fits its methods on min(methods, usable CPUs)
    threads, and writes the model and report files of a one-thread run and
    of a lone train --method HvM byte for byte; its manifest has one fit clock."""
    argv = ["train", "--config", str(_write_config(tmp_path)), "--trainset", str(toy_models / "training_set.csv")]
    monkeypatch.setattr(tracking, "_usable_cpus", lambda: 1)
    assert cli.main([*argv, "--method", "all", "--out", str(tmp_path / "serial")]) == 0
    monkeypatch.setattr(tracking, "_usable_cpus", lambda: cpus)
    assert cli.main([*argv, "--method", "all", "--out", str(tmp_path / "pooled")]) == 0
    names = sorted(p.name for p in (tmp_path / "serial").glob("*.json") if not p.name.startswith("manifest"))
    assert len(names) == 9
    for name in names:
        assert (tmp_path / "pooled" / name).read_bytes() == (tmp_path / "serial" / name).read_bytes(), name
    for name in ("model_hvm.json", "optreport_hvm.json"):
        assert (tmp_path / "pooled" / name).read_bytes() == (toy_models / name).read_bytes(), name
    manifest = json.loads((tmp_path / "pooled" / "manifest_train_all.json").read_text())
    assert sorted(manifest["wall_clock_s"]) == ["fit", "total"]


def test_campaign_exits_4_on_a_factorization_error_in_a_fit(tmp_path, capsys, monkeypatch):
    """A fit that fails on a worker thread is a numerical failure: exit 4
    with its message, and no output directory is left behind."""
    train = tracking.train_method

    def failing(ts, method, *args, **kwargs):
        if method == "HvM":
            raise gp.FactorizationError("hvm: system matrix not positive definite")
        return train(ts, method, *args, **kwargs)

    monkeypatch.setattr(tracking, "train_method", failing)
    out = tmp_path / "out"
    assert cli.main(["campaign", "--config", str(_write_config(tmp_path)), "--out", str(out)]) == 4
    assert capsys.readouterr().err == "torusgp: numerical failure: hvm: system matrix not positive definite\n"
    assert not out.exists()


def test_campaign_jobs_flag_is_deterministic(tmp_path):
    cfg = _write_config(tmp_path)
    a = tmp_path / "a"
    b = tmp_path / "b"
    assert cli.main(["campaign", "--config", str(cfg), "--out", str(a)]) == 0
    assert cli.main(["campaign", "--config", str(cfg), "--out", str(b), "--jobs", "2"]) == 0
    assert (a / "campaign.csv").read_bytes() == (b / "campaign.csv").read_bytes()


@pytest.mark.parametrize(
    "text, argv, code, message",
    [
        (None, ["simulate"], 3, "torusgp: missing artifact: config file not found: {config}\n"),
        ("<directory>", ["simulate"], 2, "torusgp: config error: {config}: [Errno 21] Is a directory"),
        ("[1, 2]", ["simulate"], 2, "torusgp: config error: {config}: top level must be a JSON object\n"),
        (
            json.dumps({"format": "torusgp-manifest", "resolved_config": [1]}),
            ["simulate"],
            2,
            "torusgp: config error: {config}: manifest resolved_config must be an object\n",
        ),
    ],
    ids=["config-not-found", "config-is-a-directory", "config-not-an-object", "manifest-config-not-an-object"],
)
def test_refused_config_file_exits_with_its_code(tmp_path, capsys, text, argv, code, message):
    """text is the config file's content; None leaves it absent, <directory> makes it a directory."""
    config = tmp_path / "config.json"
    if text == "<directory>":
        config.mkdir()
    elif text is not None:
        config.write_text(text)
    assert cli.main([*argv, "--config", str(config), "--out", str(tmp_path / "out")]) == code
    assert capsys.readouterr().err.startswith(message.format(config=config))


def test_train_refuses_a_training_set_with_another_reference_count(tmp_path, capsys, toy_models):
    cfg = _write_config(tmp_path, {"scenario": FOUR_REFERENCES})
    argv = ["train", "--config", str(cfg), "--out", str(tmp_path / "out")]
    assert cli.main(argv + ["--trainset", str(toy_models / "training_set.csv")]) == 2
    assert capsys.readouterr().err == "torusgp: config error: training set has 3 references, scenario has 4\n"


def test_track_exits_4_when_a_model_file_cannot_be_refitted(tmp_path, capsys, toy_models):
    """A well-formed model file whose mixing matrix is indefinite is a
    numerical failure (exit 4), not a malformed artifact (exit 3)."""
    ts = simulator.load_training_set(toy_models / "training_set.csv")
    doc = {
        "format": "torusgp-model",
        "version": 1,
        "kernel": {"family": "hvm", "m": 3, "params": gp.kernel_params(kernels.kernel_from_family("hvm", 3))},
        "noise_var": [1e-4] * 3,
        "coreg": [[1, 3, 0], [3, 1, 0], [0, 0, 1]],
        "inputs": ts.inputs.tolist(),
        "obs": ts.obs.tolist(),
    }
    path = tmp_path / "model_hvm.json"
    path.write_text(json.dumps(doc))
    argv = ["track", "--config", str(_write_config(tmp_path)), "--out", str(tmp_path / "out")]
    assert cli.main(argv + ["--method", "HvM", "--model", str(path)]) == 4
    message = "torusgp: numerical failure: hvm: system matrix not positive definite;"
    assert capsys.readouterr().err.startswith(message)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("method, label", [("HvM", "hvm"), ("Parametric", "parametric residual")])
def test_train_on_ranges_whose_statistics_overflow_exits_4(tmp_path, capsys, toy_models, method, label):
    """Finite ranges near 1e200 overflow the fit's starting statistics: exit 4
    naming the model, with no traceback and no RuntimeWarning."""
    ts = simulator.load_training_set(toy_models / "training_set.csv")
    ts.obs *= 1e200 / np.max(ts.obs)
    big = tmp_path / "training_set.csv"
    simulator.save_training_set(ts, big)
    argv = ["train", "--config", str(_write_config(tmp_path)), "--out", str(tmp_path / "out")]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(argv + ["--method", method, "--trainset", str(big)]) == 4
    assert capsys.readouterr().err.startswith(f"torusgp: numerical failure: {label}: ")
    assert not (tmp_path / "out").exists()


def test_train_on_one_observation_exits_4_naming_the_reason(tmp_path, capsys, toy_models):
    """A one-row training set has no output covariance to start a multi-output
    fit from: exit 4 saying so, with no RuntimeWarning."""
    one = tmp_path / "training_set.csv"
    one.write_text("".join((toy_models / "training_set.csv").read_text().splitlines(keepends=True)[:2]))
    argv = ["train", "--config", str(_write_config(tmp_path)), "--out", str(tmp_path / "out")]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(argv + ["--method", "HvM", "--trainset", str(one)]) == 4
    message = "torusgp: numerical failure: hvm: a multi-output fit needs 2 or more observations"
    assert capsys.readouterr().err.startswith(message)
