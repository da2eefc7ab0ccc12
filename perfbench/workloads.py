"""The three benchmark workloads.

Each workload has a set-up, a round of fixed operations that is timed, and
checks made outside the timed region. A run repeats whole rounds of the
same operations, so every round of a run must reproduce the first one
bit-exactly.
"""

import json
import statistics
from pathlib import Path

import common
import numpy as np
import oracles
from torusgp import cli, gp, hyperopt, simulator, tracking

FAMILIES = tuple(common.FAMILY_OF.values())
METHODS = tracking.METHODS
TWO_PI = 2.0 * np.pi


class Round:
    """What one timed round produced, as the checks see it."""

    def __init__(self, attempted):
        self.attempted = attempted
        self.failed = 0
        self.problems = []  # check failures among the operations that completed
        self.digest = ""
        self.quality = float("nan")  # HvM RMSE, the workload's accuracy metric
        self.iterations = {fam: 0 for fam in FAMILIES}
        self.restart_failures = 0
        self.diverged_runs = 0
        self.extra = {}


def _check_trace(name, trace, problems):
    if len(trace) == 0 or np.any(np.diff(np.asarray(trace, dtype=float)) < 0.0):
        problems.append(f"{name}: optimizer trace is not nondecreasing")


def _check_close(name, value, reference, rtol, problems):
    err = oracles.rel_err(value, reference)
    if not err <= rtol:
        problems.append(f"{name}: relative error {err:.3e} exceeds {rtol:.0e}")
    return err


def _sample_particles(cfg, traj, rng, count=20, spread=0.4):
    """Particle clouds around random trajectory points, with a measurement taken there."""
    out = []
    for t in rng.integers(1, traj.steps, size=2):
        x = traj.positions[t]
        z = simulator.measure_range(x, cfg, rng)
        out.append((x + spread * rng.standard_normal((count, 2)), z))
    return out


def check_range_model(label, model, cfg, traj, rng, problems, dense=None):
    """Compare model.logpdf with an independent dense predictive density."""
    refs = cfg.references_array
    worst = 0.0
    for particles, z in _sample_particles(cfg, traj, rng):
        got = model.logpdf(particles, z, refs)
        if isinstance(model, tracking.ParametricRangeModel):
            want = oracles.parametric_logpdf(particles, z, refs, model.bias, model.cov)
            tol = oracles.TOL_FACTOR * np.linalg.cond(model.cov) * np.finfo(float).eps
        else:
            want = dense.predictive_logpdf(oracles.aoa_embedding(particles, refs), z)
            tol = dense.tolerance
        worst = max(worst, _check_close(f"{label} logpdf", got, want, max(tol, oracles.TOL_FLOOR), problems))
    return worst


def dense_for(trained: gp.TrainedGp) -> oracles.DenseGp:
    k = trained.kernel
    return oracles.DenseGp(
        k.family, k.theta_names, k.theta, trained.inputs, trained.obs, trained.noise_var, trained.coreg
    )


# ---------------------------------------------------------------------------
# desk_campaign: tracking.campaign at desk scale, training included.
# ---------------------------------------------------------------------------


class DeskCampaign:
    """All five methods, T1, one paired run each, budget 100, 2 restarts, jobs=1.

    The campaign seed is fixed at 1234 (the seed of criteria 7 and 8) for
    every --seed: the optimizer's iteration counts, and with them the
    training time, swing by tens of percent between training sets, far more
    than any bound on run_s could absorb. --seed only picks the particles
    the likelihood oracle samples.
    """

    name = "desk_campaign"
    ops_per_round = 2 * len(METHODS)  # one fit and one filter run per method

    def input_key(self, seed):
        return "fixed"

    def setup(self, seed):
        cfg = common.desk_config()
        return {
            "seed": seed,
            "cfg": cfg,
            "training_set": common.desk_training_set(),
            "trajectory": simulator.trajectory(cfg),
        }

    def run_round(self, state):
        return tracking.campaign(
            state["cfg"],
            methods=METHODS,
            trajectories=("T1",),
            noise_levels=(0.01,),
            runs=1,
            seed=common.CAMPAIGN_SEED,
            opt_budget=common.DESK_BUDGET,
            opt_restarts=common.DESK_RESTARTS,
            jobs=1,
        )

    def examine(self, state, output):
        r = Round(self.ops_per_round)
        if isinstance(output, Exception):
            r.failed = r.attempted
            r.extra["error"] = repr(output)
            return r
        rows, trained = output
        rmse = {row["method"]: row["rmse"] for row in rows}
        parts = [repr(sorted(rmse.items())), repr([(row["seed"], row["diverged"]) for row in rows])]
        for method in common.GP_METHODS:
            opt = trained[(0, method)].opt
            parts += [opt.theta_vector(), [opt.objective]]
            r.iterations[opt.kernel.family] += opt.iterations
            r.restart_failures += sum(1 for v in opt.restart_objectives if v == float("-inf"))
        r.digest = common.digest(*parts)
        r.diverged_runs = sum(int(row["diverged"]) for row in rows)
        if not all(np.isfinite(v) for v in rmse.values()):
            r.problems.append("non-finite RMSE in the campaign rows")
        if not rmse["HvM"] < rmse["Parametric"]:
            r.problems.append(f"T1: HvM RMSE {rmse['HvM']:.4f} does not beat Parametric {rmse['Parametric']:.4f}")
        r.quality = rmse["HvM"]
        r.extra["rmse_by_method"] = rmse
        return r

    def final_checks(self, state, output, rnd):
        if isinstance(output, Exception):
            return {}
        rows, trained = output
        rng = simulator.rng_for(state["seed"], 7)
        worst_f, worst_ll = 0.0, 0.0
        for method in common.GP_METHODS:
            tm = trained[(0, method)]
            _check_trace(method, tm.opt.trace, rnd.problems)
            dense = dense_for(tm.gp)
            worst_f = max(worst_f, _check_close(f"{method} objective", tm.opt.objective, dense.objective(),
                                                dense.tolerance, rnd.problems))
            worst_ll = max(worst_ll, check_range_model(method, tm.model, state["cfg"], state["trajectory"], rng,
                                                       rnd.problems, dense))
        check_range_model("Parametric", trained[(0, "Parametric")].model, state["cfg"], state["trajectory"], rng,
                          rnd.problems)
        # A second filter run with the HvM row's seed must repeat it bit-exactly.
        row = next(row for row in rows if row["method"] == "HvM")
        again = tracking.run_tracking(state["cfg"], "HvM", trained[(0, "HvM")].model, row["seed"])
        if again.rmse != row["rmse"]:
            rnd.problems.append("HvM filter run does not repeat bit-exactly")
        return {"objective_rel_err": worst_f, "logpdf_rel_err": worst_ll}

    def report(self, state, rnd, run_s):
        rmse = rnd.extra.get("rmse_by_method", {})
        return {
            "fits_per_s": (len(METHODS) / run_s, "1/s"),
            "filter_steps_per_s": (len(METHODS) * (common.DESK_STEPS - 1) / run_s, "1/s"),
            **{f"rmse_m.{m}": (v, "m") for m, v in rmse.items()},
        }


# ---------------------------------------------------------------------------
# desk_track: particle filtering only, models conditioned from stored values.
# ---------------------------------------------------------------------------


class DeskTrack:
    """All five methods on T1, T2 and T3, one paired filter run each."""

    name = "desk_track"
    trajectories = simulator.TRAJECTORY_NAMES
    ops_per_round = len(METHODS) * len(simulator.TRAJECTORY_NAMES)

    def input_key(self, seed):
        return str(seed)

    def setup(self, seed):
        hp = common.load_hyperparams()
        ts = common.desk_training_set()
        cfg = common.desk_config()
        models, gps = {}, {}
        for method in common.GP_METHODS:
            entry = hp["methods"][method]
            kern = common.kernel_from_entry(entry, cfg.m)
            gps[method] = gp.fit(ts.inputs, ts.obs, kern, np.asarray(entry["noise_var"]),
                                 coreg=np.asarray(entry["coreg"]))
            models[method] = tracking.GpRangeModel(gps[method])
        models["Parametric"] = tracking.fit_parametric(ts, cfg.references_array)
        cfgs = {name: cfg.with_(trajectory=name) for name in self.trajectories}
        trajs = {name: simulator.trajectory(c) for name, c in cfgs.items()}
        # paired seeds: every method sees the same measurements on one trajectory
        seeds = np.random.SeedSequence(entropy=seed, spawn_key=(3,)).generate_state(len(cfgs))
        return {
            "seed": seed,
            "hp": hp,
            "training_set": ts,
            "models": models,
            "gps": gps,
            "cfgs": cfgs,
            "trajs": trajs,
            "run_seeds": {name: int(s) for name, s in zip(cfgs, seeds)},
        }

    def run_round(self, state):
        out = {}
        for name, cfg in state["cfgs"].items():
            for method in METHODS:
                try:
                    out[(name, method)] = tracking.run_tracking(
                        cfg, method, state["models"][method], state["run_seeds"][name], traj=state["trajs"][name]
                    )
                except Exception as exc:  # counted as a failed operation
                    out[(name, method)] = exc
        return out

    def examine(self, state, output):
        r = Round(self.ops_per_round)
        done = {k: v for k, v in output.items() if not isinstance(v, Exception)}
        r.failed = len(output) - len(done)
        r.digest = common.digest(*(np.concatenate([v.estimates.ravel(), [v.rmse]]) for v in done.values()))
        r.diverged_runs = sum(int(v.diverged) for v in done.values())
        for key, res in done.items():
            if not (np.all(np.isfinite(res.estimates)) and np.isfinite(res.rmse)):
                r.problems.append(f"{key}: non-finite estimates")
        hvm = []
        for name in self.trajectories:
            a, b = done.get((name, "HvM")), done.get((name, "Parametric"))
            if a is not None and b is not None:
                hvm.append(a.rmse)
                if not a.rmse < b.rmse:
                    r.problems.append(f"{name}: HvM RMSE {a.rmse:.4f} does not beat Parametric {b.rmse:.4f}")
        r.quality = float(np.median(hvm)) if hvm else float("nan")
        r.extra["rmse_by_method"] = {
            m: float(np.median([v.rmse for (t, mm), v in done.items() if mm == m]))
            for m in METHODS
            if any(mm == m for (_, mm) in done)
        }
        return r

    def final_checks(self, state, output, rnd):
        rng = simulator.rng_for(state["seed"], 7)
        ts = state["training_set"]
        worst_f, worst_ll = 0.0, 0.0
        for method in common.GP_METHODS:
            entry = state["hp"]["methods"][method]
            dense = dense_for(state["gps"][method])
            # the stored values are a trained optimum: the program's objective
            # there must match both the stored value and the dense oracle
            F = hyperopt.objective((ts.inputs, ts.obs), state["gps"][method].kernel,
                                   np.sqrt(entry["noise_var"]), coreg=np.asarray(entry["coreg"]))
            worst_f = max(worst_f, _check_close(f"{method} objective", F, dense.objective(), dense.tolerance,
                                                rnd.problems))
            _check_close(f"{method} stored objective", entry["objective"], dense.objective(), dense.tolerance,
                         rnd.problems)
            for name in self.trajectories:
                worst_ll = max(worst_ll, check_range_model(f"{method} {name}", state["models"][method],
                                                           state["cfgs"][name], state["trajs"][name], rng,
                                                           rnd.problems, dense))
        check_range_model("Parametric", state["models"]["Parametric"], state["cfgs"]["T1"], state["trajs"]["T1"],
                          rng, rnd.problems)
        first = output.get(("T1", "HvM"))
        if not isinstance(first, Exception):
            again = tracking.run_tracking(state["cfgs"]["T1"], "HvM", state["models"]["HvM"],
                                          state["run_seeds"]["T1"], traj=state["trajs"]["T1"])
            if not np.array_equal(again.estimates, first.estimates):
                rnd.problems.append("HvM filter run on T1 does not repeat bit-exactly")
        return {"objective_rel_err": worst_f, "logpdf_rel_err": worst_ll}

    def report(self, state, rnd, run_s):
        steps = sum(t.steps - 1 for t in state["trajs"].values()) * len(METHODS)
        return {
            "filter_steps_per_s": (steps / run_s, "1/s"),
            **{f"rmse_m.{m}": (v, "m") for m, v in rnd.extra["rmse_by_method"].items()},
        }


# ---------------------------------------------------------------------------
# circle_fit: case study 1 through `torusgp case1`, in-process.
# ---------------------------------------------------------------------------

# Case-1 seeds 0..1039 were each run once; `torusgp case1` raises an
# uncaught OverflowError for seeds 316 and 785 (see CHANGES.md, FOUND).
# A failure that only some seeds hit would make the failed share differ
# between runs, so those two seeds are left out of the pool.
CASE1_POOL = tuple(s for s in range(1040) if s not in (316, 785))
CASE1_PER_ROUND = 40
CASE1_WARMUP_SEED = 77


def _density_truth(theta, density):
    """The case-1 mixture density, evaluated with scipy's Bessel function."""
    from scipy.special import i0

    out = np.zeros_like(theta)
    for (mu, kappa), w in zip(density["vm_components"], density["vm_weights"]):
        out += w * np.exp(kappa * np.cos(theta - mu)) / (TWO_PI * i0(kappa))
    half = 0.5 * density["axial_conc"]
    axial = np.exp(-half * np.cos(2.0 * (theta - density["axial_angle"]))) / (TWO_PI * i0(half))
    return out + density["axial_weight"] * axial


class CircleFit:
    """40 case-1 runs per round (hvm and pse fits, n=40, m=1, plus the 721-point curves)."""

    name = "circle_fit"
    ops_per_round = CASE1_PER_ROUND

    def input_key(self, seed):
        return str(seed)

    def setup(self, seed):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(4,)))
        picks = [int(s) for s in rng.choice(CASE1_POOL, size=CASE1_PER_ROUND, replace=False)]
        out = common.RESULTS / "case1"
        dirs = {s: out / str(s) for s in picks}
        for d in dirs.values():
            d.mkdir(parents=True, exist_ok=True)
        warm = out / "warmup"
        warm.mkdir(parents=True, exist_ok=True)
        # one untimed-by-the-round call so first-call costs land in set-up
        cli.main(["case1", "--seed", str(CASE1_WARMUP_SEED), "--out", str(warm)])
        return {"seed": seed, "picks": picks, "dirs": dirs}

    def run_round(self, state):
        codes = {}
        for s in state["picks"]:
            try:
                codes[s] = cli.main(["case1", "--seed", str(s), "--out", str(state["dirs"][s])])
            except Exception as exc:  # counted as a failed operation
                codes[s] = exc
        return codes

    def examine(self, state, output):
        r = Round(self.ops_per_round)
        parts, errs, seam, worst_f = [], [], [], 0.0
        for s, code in output.items():
            if code != 0:
                r.failed += 1
                continue
            d = Path(state["dirs"][s])
            raw = (d / "case1_curves.csv").read_bytes()
            report = json.loads((d / "case1_report.json").read_text())
            curves = np.loadtxt(d / "case1_curves.csv", delimiter=",", skiprows=1)
            train = np.loadtxt(d / "case1_training.csv", delimiter=",", skiprows=1)
            theta = curves[:, 0]
            # grid over [-2 pi, 4 pi]: index i and i + 240 are theta and theta + 2 pi
            shift = int(round(TWO_PI / (theta[1] - theta[0])))
            for col, what in ((4, "mean"), (5, "variance")):
                gap = float(np.max(np.abs(curves[:-shift, col] - curves[shift:, col])))
                if not gap <= 1e-8:
                    r.problems.append(f"seed {s}: von Mises posterior {what} differs at theta and theta + 2 pi by {gap:.2e}")
            zero = int(np.argmin(np.abs(theta)))
            seam.append(abs(curves[zero, 2] - curves[zero + shift, 2]))
            truth = _density_truth(theta, report["density"])
            errs.append(float(np.sqrt(np.mean((curves[:, 4] - truth) ** 2))))
            X = np.stack([np.cos(train[:, 0]), np.sin(train[:, 0])], axis=-1)[:, None, :]
            for label, family in (("vm", "hvm"), ("se", "pse")):
                model = report["models"][label]
                opt = model["optimization"]
                _check_trace(f"seed {s} {family}", opt["trace"], r.problems)
                names, theta_k = zip(*model["hyperparams"].items())
                dense = oracles.DenseGp(family, names, theta_k, X, train[:, 1], model["noise_var"])
                worst_f = max(worst_f, _check_close(f"seed {s} {family} objective", opt["objective"],
                                                    dense.objective(), dense.tolerance, r.problems))
                r.iterations[family] += opt["iterations"]
                r.restart_failures += sum(1 for v in opt["restart_objectives"] if v == float("-inf"))
            parts += [raw, (d / "case1_report.json").read_bytes()]
        if seam and not statistics.median(seam) > 1e-3:
            r.problems.append(f"chart SE seam gap median {statistics.median(seam):.2e} is not above 1e-3")
        r.digest = common.digest(*parts)
        r.quality = float(np.median(errs)) if errs else float("nan")
        r.extra.update(objective_rel_err=worst_f, seam_gap_median=float(statistics.median(seam)) if seam else None,
                       seam_gap_min=float(min(seam)) if seam else None)
        return r

    def final_checks(self, state, output, rnd):
        return {"objective_rel_err": rnd.extra["objective_rel_err"]}

    def report(self, state, rnd, run_s):
        out = {"fits_per_s": (2 * CASE1_PER_ROUND / run_s, "1/s")}
        if rnd.extra["seam_gap_median"] is not None:
            out["seam_gap_median"] = (rnd.extra["seam_gap_median"], "1/rad")
            out["seam_gap_min"] = (rnd.extra["seam_gap_min"], "1/rad")
        return out


WORKLOADS = {w.name: w for w in (DeskCampaign, DeskTrack, CircleFit)}
