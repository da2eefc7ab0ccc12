"""Command-line pipeline for circular regression and range-only tracking.

Subcommands
-----------
- case1: fit a circle-aware GP and a chart-based squared-exponential GP to
  noisy samples of a circular mixture, export posterior curves over
  [-2 pi, 4 pi], and report the periodicity / seam-discontinuity numbers.
- case2: export the four two-circle kernel sweeps against the zero-angle
  point (raw and normalized) with an argmax and separability report.
- simulate: write the training set and ground-truth trajectory for the
  configured sensor-network scenario.
- train: fit one or all measurement models to a training set file; writes a
  model file and an optimization report per method.
- track: run the particle filter once along a trajectory with a trained
  model; writes the per-step estimate and error table.
- campaign: train per noise level and run the full Monte Carlo grid; writes
  the summary CSV.

Configuration
-------------
One JSON file shared by all subcommands, every section optional:

    {
      "seed": 1234,
      "scenario":  {ScenarioConfig fields},
      "optimizer": {hyperopt.optimize keywords: budget, restarts, rel_tol,
                    grad_tol},
      "case1":     {"n_train": 40, "curve_points": 721,
                    "periodicity_angles": 50, "density": {CircularDensity fields}},
      "case2":     {case_study_2_sweep keyword: resolution},
      "train":     {"trainset": "path.csv"},
      "track":     {"model": "path.json", "trajectory": "path.csv"},
      "campaign":  {tracking.campaign keywords: methods, trajectories,
                    noise_levels, runs, opt_budget, opt_restarts}
    }

A key named after a library field or keyword takes its default from the
library. The campaign section overrides two with the paper's full grid,
trajectories T1-T3 and 100 runs, where tracking.campaign defaults to the
desk campaign of acceptance criterion 7 (T1, 20 runs). Campaign fits use
campaign.opt_budget and opt_restarts with hyperopt.optimize's default
tolerances; the optimizer section is read by case1 and train only.

The --seed flag overrides the config seed everywhere; with neither, the
documented default seed 1234 applies. Every section is checked on every
command, whether or not the command reads it: an unknown key, a wrong-typed
value (a string or a float where an integer belongs, a scalar where a list
belongs, NaN or infinity for a number) and an out-of-range value all exit 2
with the section and key named. A manifest written by any run is itself a
valid --config argument: it carries the fully resolved configuration and
seed, so rerunning a stage from its manifest reproduces the outputs
bit-exactly.

Every stage writes a manifest into the output directory: manifest_<command>.json,
or manifest_<command>_<method>.json for train and track (the method lowercased,
"all" for train --method all), so runs of several methods keep one each. It lists
the resolved configuration, the seed, the artifact files it produced, the
tool version, wall-clock timings, and a summary of the run. Every table is a
headed CSV with LF line ends, written by simulator.write_csv.

Exit codes
----------
0 success; 2 configuration error (unparseable or invalid config, bad flag
values, a scenario whose trajectories or training grid the simulator refuses,
a model file that does not match --method or the scenario); 3 missing or
malformed upstream artifact (an input file another stage should have
produced); 4 numerical failure (a factorization or optimization that did not
survive the jitter policy, a model file among them, or training data whose
statistics overflow or, from one row, do not exist).
"""

import argparse
import functools
import inspect
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from . import gp as gp_mod
from . import hyperopt, tracking
from .manifold import GeometryError, aoa_embedding_batch, embed_angles
from .simulator import (
    CASE2_PARAM_SETS,
    CircularDensity,
    ScenarioConfig,
    TRAJECTORY_NAMES,
    build_training_set,
    case_study_1_observe,
    case_study_2_sweep,
    load_trajectory,
    load_training_set,
    rng_for,
    save_trajectory,
    save_training_set,
    trajectory,
    write_csv,
    write_json,
)

DEFAULT_SEED = 1234

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_MISSING = 3
EXIT_NUMERICAL = 4

_MANIFEST_FORMAT = "torusgp-manifest"

TWO_PI = 2.0 * np.pi


class ConfigError(Exception):
    """Invalid configuration or flag value (exit code 2)."""


class MissingArtifactError(Exception):
    """An upstream stage's output file is absent or malformed (exit code 3)."""


_FAILURES = {  # the failures _run cleans up after and main reports: type -> (exit code, stderr prefix)
    ConfigError: (EXIT_CONFIG, "config error: "),
    GeometryError: (EXIT_CONFIG, "config error: config section 'scenario': "),
    MissingArtifactError: (EXIT_MISSING, "missing artifact: "),
    np.linalg.LinAlgError: (EXIT_NUMERICAL, "numerical failure: "),
}


# ---------------------------------------------------------------------------
# Configuration schema and loading.
# ---------------------------------------------------------------------------


def _defaults(owner, *skip, **overrides) -> dict:
    """A library function's or dataclass's parameter defaults, in order, less skip, with overrides."""
    params = inspect.signature(owner).parameters.values()
    found = {p.name: p.default for p in params if p.default is not p.empty and p.name not in skip}
    return {**found, **overrides}


# Every key with its default; the default's type is the key's type (see _parse).
CONFIG_SCHEMA = {
    "seed": DEFAULT_SEED,
    "scenario": _defaults(ScenarioConfig, "seed"),
    "optimizer": _defaults(hyperopt.optimize, "seed"),
    "case1": {
        "n_train": 40,
        "curve_points": 721,
        "periodicity_angles": 50,
        "density": _defaults(CircularDensity),
    },
    "case2": _defaults(case_study_2_sweep),
    "train": {"trainset": None},
    "track": {"model": None, "trajectory": None},
    "campaign": _defaults(tracking.campaign, "seed", "jobs", trajectories=TRAJECTORY_NAMES, runs=100),
}

# Lower bounds of integer keys and flags; ScenarioConfig and CircularDensity check their own.
_MINIMUM = {
    "seed": 0,
    "--jobs": 1,
    "optimizer.budget": 1,
    "optimizer.restarts": 1,
    "case1.n_train": 2,
    "case1.curve_points": 2,
    "case1.periodicity_angles": 1,
    "case2.resolution": 2,
    "campaign.runs": 1,
    "campaign.opt_budget": 1,
    "campaign.opt_restarts": 1,
}

_FLOAT_MAX = sys.float_info.max


def _show(value) -> str:
    text = json.dumps(value)
    return text if len(text) <= 60 else text[:57] + "..."


def _parse(value, default, where, inner=False):
    """Return value in the type its default implies, or raise ConfigError naming where.

    A dict default is a section: unknown keys are rejected and missing keys
    take their defaults, parsed the same way. A tuple default takes a list
    whose items match its first item; a list nested in a list must have that
    item's length. None takes a path string or null, a str a string, an int
    an integer (at least _MINIMUM[where] where listed), and a float any
    finite number.
    """
    if isinstance(default, dict):
        if isinstance(value, dict):
            unknown = sorted(set(value) - set(default))
            if unknown:
                raise ConfigError(
                    f"{where or 'config'}: unknown key(s) {', '.join(unknown)}; "
                    f"allowed: {sorted(default)}"
                )
            return {
                key: _parse(value.get(key, d), d, f"{where}.{key}".lstrip("."))
                for key, d in default.items()
            }
        expected = "a JSON object"
    elif isinstance(default, tuple):
        if isinstance(value, (list, tuple)) and (not inner or len(value) == len(default)):
            return tuple(_parse(v, default[0], f"{where}[{i}]", True) for i, v in enumerate(value))
        expected = f"a list of {len(default)} items" if inner else "a list"
    elif default is None or isinstance(default, str):
        if isinstance(value, str) or (default is None and value is None):
            return value
        expected = "a string" if default is not None else "a path string or null"
    elif isinstance(default, int):
        low = _MINIMUM.get(where)
        if type(value) is int and (low is None or value >= low):
            return value
        expected = "an integer" if low is None else f"an integer >= {low}"
    else:
        if type(value) in (int, float) and -_FLOAT_MAX <= value <= _FLOAT_MAX:
            return float(value)
        expected = "a finite number"
    raise ConfigError(f"{where}: expected {expected}, got {_show(value)}")


def load_config(path) -> dict:
    """Parse and check a JSON config file; a manifest resolves to its stored config.

    Returns every section of CONFIG_SCHEMA with its defaults filled in, and
    "seed" (DEFAULT_SEED when the file gives none or null). Any invalid key or
    value raises ConfigError.
    """
    data = {}
    if path is not None:
        p = Path(path)
        if not p.exists():
            raise MissingArtifactError(f"config file not found: {p}")
        try:
            data = json.loads(p.read_text())
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{p}: line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"{p}: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError(f"{p}: top level must be a JSON object")
        if data.get("format") == _MANIFEST_FORMAT:
            cfg = data.get("resolved_config", {})
            if not isinstance(cfg, dict):
                raise ConfigError(f"{p}: manifest resolved_config must be an object")
            data = {"seed": data.get("seed"), **cfg}
        if data.get("seed") is None:
            data.pop("seed", None)
    config = _parse(data, CONFIG_SCHEMA, "")

    for where, cls, fields in (
        ("scenario", ScenarioConfig, config["scenario"]),
        ("case1.density", CircularDensity, config["case1"]["density"]),
    ):
        try:
            cls(**fields)
        except ValueError as exc:
            raise ConfigError(f"config section '{where}': {exc}") from exc
    camp = config["campaign"]
    methods = [normalize_method(m, "campaign.methods") for m in camp["methods"]]
    camp["methods"] = tracking.METHODS if "all" in methods else tuple(methods)
    if not set(camp["trajectories"]) <= set(TRAJECTORY_NAMES):
        raise ConfigError(f"campaign.trajectories: choose from {list(TRAJECTORY_NAMES)}")
    if any(x <= 0 for x in camp["noise_levels"]):
        raise ConfigError("campaign.noise_levels: noise levels must be positive")
    try:
        tracking._check_grid(**{key: camp[key] for key in ("methods", "trajectories", "noise_levels")})
    except ValueError as exc:
        raise ConfigError(f"campaign.{exc}") from None
    return config


def normalize_method(name: str, where: str = "--method") -> str:
    lookup = {m.lower(): m for m in tracking.METHODS}
    key = name.lower()
    if key == "all":
        return "all"
    if key not in lookup:
        raise ConfigError(
            f"{where}: unknown method {name!r}; choose from {list(tracking.METHODS)} or 'all'"
        )
    return lookup[key]


# ---------------------------------------------------------------------------
# Output helpers.
# ---------------------------------------------------------------------------


def _hyperparam_dict(kernel) -> dict:
    return {name: float(v) for name, v in zip(kernel.theta_names, kernel.theta)}


def _fit_summary(tm: tracking.TrainedMethod) -> dict:
    """Optimizer outcome, work counts and factorization jitter of one GP fit."""
    opt = tm.opt.summary()
    keys = ("objective", "converged", "stop_reason", "evaluations", "backtracks", "failed_restarts")
    return {**{key: opt[key] for key in keys}, "jitter_used": tm.gp.jitter_used}


def _load_artifact(path: Path, hint: str, load, *args):
    """load(path, *args), reporting a missing or malformed file as MissingArtifactError;
    a numerical failure (a LinAlgError, such as FactorizationError) passes through to exit 4."""
    if not path.exists():
        raise MissingArtifactError(f"expected {hint} at {path}")
    try:
        return load(path, *args)
    except np.linalg.LinAlgError:
        raise
    except (ValueError, KeyError, TypeError, IndexError, AttributeError) as exc:
        raise MissingArtifactError(f"{path} is not {hint}: {exc!r}") from exc


# ---------------------------------------------------------------------------
# Subcommands. Each takes (args, config, cfg, out), cfg being the run's
# ScenarioConfig with the resolved seed, and returns the sections of the
# resolved configuration it used, the artifact names, its clocks (the runner
# adds "total") and the manifest summary.
# ---------------------------------------------------------------------------


def cmd_case1(args, config, cfg, out):
    sec = config["case1"]
    opts = config["optimizer"]
    density = CircularDensity(**sec["density"])
    rng = rng_for(cfg.seed, 0)
    thetas = rng.uniform(0.0, TWO_PI, sec["n_train"])
    z = case_study_1_observe(thetas, rng, density)
    ds = hyperopt.Dataset.from_data(embed_angles(thetas[:, None]), z)
    grid = np.linspace(-TWO_PI, 2.0 * TWO_PI, sec["curve_points"])
    emb = embed_angles(grid[:, None])
    check = np.linspace(0.0, TWO_PI, sec["periodicity_angles"], endpoint=False)
    clocks, reports, curves, gap, per = {}, {}, {}, {}, {}
    for label, family in (("vm", "hvm"), ("se", "pse")):
        t1 = time.perf_counter()
        res = hyperopt.optimize(ds, family, seed=cfg.seed, **opts)
        model = gp_mod.fit(ds.inputs, ds.obs, res.kernel, res.noise_var)
        clocks[f"fit_{label}"] = time.perf_counter() - t1
        reports[label] = {
            "hyperparams": _hyperparam_dict(res.kernel),
            "noise_var": float(res.noise_var[0]),
            "optimization": res.summary(),
        }
        mean, cov = gp_mod.marginals(model, emb)
        curves[label] = (mean[:, 0], cov[:, 0, 0])
        # Seam behavior: the same circle point reached from both chart sides.
        edge, _ = gp_mod.marginals(model, embed_angles(np.array([[0.0], [TWO_PI]])))
        gap[label] = float(abs(edge[0, 0] - edge[1, 0]))
        a_mean, a_cov = gp_mod.marginals(model, embed_angles(check[:, None]))
        b_mean, b_cov = gp_mod.marginals(model, embed_angles(check[:, None] + TWO_PI))
        per[label] = {
            "mean_max_abs": float(np.max(np.abs(a_mean - b_mean))),
            "var_max_abs": float(np.max(np.abs(a_cov - b_cov))),
        }

    truth = density.mean_value(grid)
    train_path = out / "case1_training.csv"
    write_csv(train_path, ["theta_rad", "z"], zip(thetas, z))
    curves_path = out / "case1_curves.csv"
    write_csv(
        curves_path,
        ["theta_rad", "truth", "se_mean", "se_var", "vm_mean", "vm_var"],
        zip(grid, truth, curves["se"][0], curves["se"][1], curves["vm"][0], curves["vm"][1]),
    )
    report = {
        "n_train": sec["n_train"],
        "density": sec["density"],
        "models": reports,
        "boundary_gap": {"se_mean": gap["se"], "vm_mean": gap["vm"]},
        "periodicity": per,
    }
    report_path = out / "case1_report.json"
    write_json(report_path, report, indent=2)
    return (
        {"case1": sec, "optimizer": opts},
        [train_path.name, curves_path.name, report_path.name],
        clocks,
        {"boundary_gap_se": gap["se"], "boundary_gap_vm": gap["vm"]},
    )


def cmd_case2(args, config, cfg, out):
    artifacts = []
    report = {}
    for idx, kernel in enumerate(CASE2_PARAM_SETS, start=1):
        grid, values = case_study_2_sweep(kernel, resolution=config["case2"]["resolution"])
        peak = np.max(values)
        alpha, beta = np.meshgrid(grid, grid, indexing="ij")
        rows = zip(alpha.ravel(), beta.ravel(), values.ravel(), (values / peak).ravel())
        path = out / f"case2_set{idx}.csv"
        write_csv(path, ["alpha_rad", "beta_rad", "k", "k_normalized"], rows)
        artifacts.append(path.name)
        amax = np.unravel_index(int(np.argmax(values)), values.shape)
        svals = np.linalg.svd(np.log(values), compute_uv=False)
        vvals = np.linalg.svd(values, compute_uv=False)
        report[f"set{idx}"] = {
            **gp_mod.kernel_params(kernel),
            "argmax_alpha_rad": float(grid[amax[0]]),
            "argmax_beta_rad": float(grid[amax[1]]),
            "max_value": float(peak),
            "point_symmetry_max_abs": float(np.max(np.abs(values - values[::-1, ::-1]))),
            "log_kernel_sigma2": float(svals[1]),
            "kernel_sigma2_over_sigma1": float(vvals[1] / vvals[0]),
        }
    report_path = out / "case2_report.json"
    write_json(report_path, report, indent=2)
    artifacts.append(report_path.name)
    return {"case2": config["case2"]}, artifacts, {}, None


def cmd_simulate(args, config, cfg, out):
    ts = build_training_set(cfg)
    traj = trajectory(cfg)
    ts_path = out / "training_set.csv"
    traj_path = out / "trajectory.csv"
    save_training_set(ts, ts_path)
    save_trajectory(traj, traj_path)
    return (
        {"scenario": config["scenario"]},
        [ts_path.name, traj_path.name],
        {},
        {"training_points": ts.n, "trajectory_steps": traj.steps},
    )


def cmd_train(args, config, cfg, out):
    opts = config["optimizer"]
    ts_path = Path(args.trainset or config["train"]["trainset"] or out / "training_set.csv")
    ts = _load_artifact(ts_path, "a training set (simulate stage output)", load_training_set)
    # a file that simulate wrote holds these AoA columns bit for bit
    aoa = aoa_embedding_batch(ts.positions, cfg.references_array)
    if ts.inputs.shape != aoa.shape:
        raise ConfigError(f"training set has {ts.inputs.shape[1]} references, scenario has {cfg.m}")
    if not np.allclose(ts.inputs, aoa, rtol=0.0, atol=1e-12):
        raise ConfigError("scenario.references: the training set was simulated with other references")
    method = normalize_method(args.method)
    methods = list(tracking.METHODS) if method == "all" else [method]

    t1 = time.perf_counter()
    fits = [(ts, mth, cfg.references_array, {"seed": cfg.seed, **opts}) for mth in methods]
    fitted = tracking.train_methods(fits)
    clocks = {"fit": time.perf_counter() - t1}
    artifacts = []
    summary = {}
    for mth, tm in zip(methods, fitted):
        model_path = out / f"model_{mth.lower()}.json"
        if tm.gp is not None:
            gp_mod.save_model(tm.gp, model_path)
            report = {
                "method": mth,
                "hyperparams": _hyperparam_dict(tm.opt.kernel),
                "coreg": tm.opt.coreg.tolist(),
                "noise_var": tm.opt.noise_var.tolist(),
                "jitter_used": tm.gp.jitter_used,
                "optimization": tm.opt.summary(),
            }
            report_path = out / f"optreport_{mth.lower()}.json"
            write_json(report_path, report, indent=2)
            artifacts.append(report_path.name)
            summary[mth] = _fit_summary(tm)
        else:
            tracking.save_parametric(tm.model, model_path)
            summary[mth] = {"bias": tm.model.bias.tolist(), "cov": tm.model.cov.tolist()}
        artifacts.append(model_path.name)
    resolved = {"scenario": config["scenario"], "optimizer": opts, "train": {"trainset": str(ts_path)}}
    return resolved, artifacts, clocks, summary


def cmd_track(args, config, cfg, out):
    sec = config["track"]
    method = normalize_method(args.method)
    if method == "all":
        raise ConfigError("track runs one method per invocation; pass a single --method")
    model_path = Path(args.model or sec["model"] or out / f"model_{method.lower()}.json")
    model = _load_artifact(
        model_path, f"a trained {method} model (train stage output)", tracking.load_range_model
    )
    if isinstance(model, tracking.GpRangeModel):
        family, refs, ranges = model.gp.kernel.family, model.gp.m, model.gp.d
    else:
        family, refs, ranges = "parametric", model.bias.size, model.bias.size
    if family != tracking.GP_FAMILIES.get(method, "parametric"):
        raise ConfigError(f"--method {method} cannot track with {model_path}, a {family} model")
    if refs != cfg.m:
        raise ConfigError(f"model was trained with {refs} references, scenario has {cfg.m}")
    if ranges != cfg.m:
        raise ConfigError(f"model predicts {ranges} ranges, scenario has {cfg.m} references")

    traj_arg = args.trajectory or sec["trajectory"]
    traj_path = out / "trajectory.csv" if traj_arg is None else Path(traj_arg)
    if traj_arg is None and not traj_path.exists():
        traj = trajectory(cfg)
    else:
        traj = _load_artifact(traj_path, "a trajectory file", load_trajectory, cfg.trajectory)

    result = tracking.run_tracking(cfg, method, model, cfg.seed, traj=traj)
    track_path = out / f"track_{method.lower()}.csv"
    rows = zip(range(traj.steps), *traj.positions.T, *result.estimates.T, result.ape)
    write_csv(track_path, ["step", "truth_x_m", "truth_y_m", "est_x_m", "est_y_m", "ape_m"], rows)
    return (
        {"scenario": config["scenario"], "track": {"model": str(model_path), "trajectory": traj_arg}},
        [track_path.name],
        {},
        {"method": method, "rmse": result.rmse, "diverged": bool(result.diverged)},
    )


def cmd_campaign(args, config, cfg, out):
    sec = config["campaign"]
    jobs = _parse(args.jobs, 1, "--jobs")
    rows, trained = tracking.campaign(cfg, seed=cfg.seed, jobs=jobs, **sec)
    csv_path = out / "campaign.csv"
    tracking.write_campaign_csv(rows, csv_path)
    fits = [
        {"noise_level": sec["noise_levels"][ni], "method": mth, **_fit_summary(tm)}
        for (ni, mth), tm in trained.items()
        if tm.opt is not None
    ]
    return (
        {"scenario": config["scenario"], "campaign": sec},
        [csv_path.name],
        {},
        {"rows": len(rows), "fits": fits},
    )


# ---------------------------------------------------------------------------
# Runner, parser and entry point.
# ---------------------------------------------------------------------------


def _run(args) -> int:
    """Load the config, resolve the seed and scenario, create --out, run the
    command, write its manifest. A command that exits 2, 3 or 4 before it
    wrote anything removes the directories this run created."""
    out = Path(args.out)
    config = load_config(args.config)
    seed = config["seed"] if args.seed is None else _parse(args.seed, DEFAULT_SEED, "seed")
    cfg = ScenarioConfig(seed=seed, **config["scenario"])
    made = [p for p in (out, *out.parents) if not p.exists()]  # innermost first
    out.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    try:
        resolved, artifacts, clocks, summary = args.func(args, config, cfg, out)
    except tuple(_FAILURES):
        if made and not any(out.iterdir()):
            for p in made:
                p.rmdir()
        raise
    clocks["total"] = time.perf_counter() - t0
    doc = {
        "format": _MANIFEST_FORMAT,
        "version": 1,
        "tool": f"torusgp {__version__}",
        "command": args.command,
        "seed": seed,
        "resolved_config": {"seed": seed, **resolved},
        "artifacts": artifacts,
        "wall_clock_s": {k: round(v, 6) for k, v in clocks.items()},
    }
    if summary is not None:
        doc["summary"] = summary
    method = getattr(args, "method", None)
    name = args.command if method is None else f"{args.command}_{method.lower()}"
    write_json(out / f"manifest_{name}.json", doc, indent=2)
    return EXIT_OK


_COMMON_FLAGS = {
    "--config": {"help": "JSON config file (or a manifest to rerun)"},
    "--seed": {"type": int, "help": f"override config seed (default {DEFAULT_SEED})"},
    "--out": {"default": ".", "help": "output directory (default: current)"},
}

# name -> (function, help, flags beyond the common ones)
_COMMANDS = {
    "case1": (cmd_case1, "circular regression curves and seam report", {}),
    "case2": (cmd_case2, "two-circle kernel sweeps against the zero-angle point", {}),
    "simulate": (cmd_simulate, "write the training set and trajectory files", {}),
    "train": (
        cmd_train,
        "fit measurement models to a training set",
        {
            "--method": {"default": "HvM", "help": "HvM, PvM, PPRD, PSE, Parametric, or all"},
            "--trainset": {"help": "training-set CSV (default: <out>/training_set.csv)"},
        },
    ),
    "track": (
        cmd_track,
        "run the particle filter once with a trained model",
        {
            "--method": {"default": "HvM", "help": "HvM, PvM, PPRD, PSE, or Parametric"},
            "--model": {"help": "model file (default: <out>/model_<method>.json)"},
            "--trajectory": {"help": "trajectory CSV (default: <out>/trajectory.csv if present)"},
        },
    ),
    "campaign": (
        cmd_campaign,
        "Monte Carlo tracking grid with per-noise training",
        {"--jobs": {"type": int, "default": 1, "help": "parallel workers (results seed-exact)"}},
    ),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="torusgp",
        description="GP regression on products of circles and range-only tracking.",
    )
    parser.add_argument("--version", action="version", version=f"torusgp {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, help_text, flags) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag, kwargs in {**_COMMON_FLAGS, **flags}.items():
            p.add_argument(flag, **kwargs)
        p.set_defaults(func=func)
    return parser


# one parser per process: parse_args fills a fresh namespace on every call,
# and no flag default is mutable
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return _run(args)
    except tuple(_FAILURES) as exc:
        code, prefix = next(_FAILURES[t] for t in type(exc).__mro__ if t in _FAILURES)
        print(f"torusgp: {prefix}{exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
