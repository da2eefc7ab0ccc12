import json
import time

import numpy as np
import pytest

from torusgp import cli

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
        "manifest_train.json",
        "manifest_track.json",
        "manifest_campaign.json",
    ):
        assert (out / name).exists(), name

    rows = (out / "campaign.csv").read_text().splitlines()
    assert rows[0] == "method,trajectory,noise_level,seed,rmse,diverged"
    assert len(rows) == 1 + 2 * 2  # header + methods x runs

    track = (out / "track_hvm.csv").read_text().splitlines()
    assert track[0] == "step,truth_x_m,truth_y_m,est_x_m,est_y_m,ape_m"
    assert len(track) == 1 + 40


def test_train_report_trace_nondecreasing(tmp_path):
    cfg = _write_config(tmp_path)
    out = tmp_path / "run"
    cli.main(["simulate", "--config", str(cfg), "--out", str(out)])
    cli.main(["train", "--config", str(cfg), "--out", str(out), "--method", "HvM"])
    report = json.loads((out / "optreport_hvm.json").read_text())
    trace = report["optimization"]["trace"]
    assert all(b >= a for a, b in zip(trace, trace[1:]))
    assert report["method"] == "HvM"


def test_manifest_rerun_is_bit_exact(tmp_path):
    cfg = _write_config(tmp_path)
    a = tmp_path / "a"
    b = tmp_path / "b"
    assert cli.main(["simulate", "--config", str(cfg), "--out", str(a)]) == 0
    manifest = a / "manifest_simulate.json"
    assert cli.main(["simulate", "--config", str(manifest), "--out", str(b)]) == 0
    assert (a / "training_set.csv").read_bytes() == (b / "training_set.csv").read_bytes()
    assert (a / "trajectory.csv").read_bytes() == (b / "trajectory.csv").read_bytes()


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


def test_bad_json_exits_2_with_line_info(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"seed": 1,\n  "scenario": }')
    rc = cli.main(["simulate", "--config", str(bad), "--out", str(tmp_path / "x")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "line 2" in err


def test_unknown_config_key_exits_2(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text('{"scenario": {"particle_count": 10}}')
    rc = cli.main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "x")])
    assert rc == 2
    assert "particle_count" in capsys.readouterr().err


def test_invalid_scenario_value_exits_2(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text('{"scenario": {"noise_xi": -1.0}}')
    rc = cli.main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "x")])
    assert rc == 2
    assert "noise_xi" in capsys.readouterr().err


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


def test_track_parametric_model(tmp_path):
    cfg = _write_config(tmp_path)
    out = tmp_path / "run"
    cli.main(["simulate", "--config", str(cfg), "--out", str(out)])
    cli.main(["train", "--config", str(cfg), "--out", str(out), "--method", "Parametric"])
    rc = cli.main(["track", "--config", str(cfg), "--out", str(out), "--method", "Parametric"])
    assert rc == 0
    doc = json.loads((out / "manifest_track.json").read_text())
    assert doc["summary"]["method"] == "Parametric"
    assert np.isfinite(doc["summary"]["rmse"])


def test_case1_outputs_and_periodicity_report(tmp_path):
    cfg = _write_config(tmp_path)
    out = tmp_path / "run"
    assert cli.main(["case1", "--config", str(cfg), "--out", str(out)]) == 0
    report = json.loads((out / "case1_report.json").read_text())
    assert report["periodicity"]["vm"]["mean_max_abs"] < 1e-8
    assert report["boundary_gap"]["se_mean"] > 0.0
    curves = (out / "case1_curves.csv").read_text().splitlines()
    assert curves[0] == "theta_rad,truth,se_mean,se_var,vm_mean,vm_var"
    assert len(curves) == 1 + 41
    training = (out / "case1_training.csv").read_text().splitlines()
    assert len(training) == 1 + 10


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
    for idx in range(1, 5):
        assert (out / f"case2_set{idx}.csv").exists()
        entry = report[f"set{idx}"]
        assert entry["argmax_alpha_rad"] == 0.0
        assert entry["argmax_beta_rad"] == 0.0
    data = (out / "case2_set1.csv").read_text().splitlines()
    assert data[0] == "alpha_rad,beta_rad,k,k_normalized"
    assert len(data) == 1 + 13 * 13


def test_campaign_jobs_flag_is_deterministic(tmp_path):
    cfg = _write_config(tmp_path)
    a = tmp_path / "a"
    b = tmp_path / "b"
    assert cli.main(["campaign", "--config", str(cfg), "--out", str(a)]) == 0
    assert cli.main(["campaign", "--config", str(cfg), "--out", str(b), "--jobs", "2"]) == 0
    assert (a / "campaign.csv").read_bytes() == (b / "campaign.csv").read_bytes()
