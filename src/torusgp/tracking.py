"""Particle-filter tracking with learned range models.

The filter propagates a particle cloud through the random-walk process model,
reweights every particle by the likelihood of the incoming range vector under
a measurement model, normalizes in log space, and resamples systematically at
every step. Divergence (no particle with a finite log weight) resets the
cloud to uniform weights and flags the run.

Two measurement-model families are supported:

- GpRangeModel: a trained multi-output GP over angle-of-arrival embeddings.
  A particle's observation covariance R^1/2 Q diag(q) Q^T R^1/2, q = 1 + S o v
  (torusgp.gp, R = noise_var + jitter_used), is diagonal in the GP's ICM factor:
  with w = (z - mean) P, all particles of a step are scored at once as
  -(sum w^2 / q + sum log q + sum log R + d log 2 pi) / 2, to about
  eps k(x, x) / v relative error (2e-6 for the desk HvM model).
- ParametricRangeModel: ranges as known geometry plus a constant Gaussian
  residual fitted to the training set, N(z; h(x) + bias, Sigma). It ignores
  where in the arena the residual was collected, which is exactly its
  weakness.

The campaign driver trains every requested method on the same per-noise-level
training set, runs seeded Monte Carlo repetitions, and emits one summary row
per (method, trajectory, noise, run).
"""

import json
import os
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular

from . import gp as gp_mod
from . import hyperopt
from .gp import LOG2PI
from .manifold import AOA_SINGULARITY_TOL, aoa_directions
from .simulator import (
    ScenarioConfig,
    TrainingSet,
    Trajectory,
    build_training_set,
    measure_range,
    range_function,
    rng_for,
    simulate_dynamics,
    trajectory,
    write_csv,
    write_json,
)

__all__ = [
    "METHODS",
    "ParticleSet",
    "TrackingResult",
    "TrainedMethod",
    "GpRangeModel",
    "ParametricRangeModel",
    "systematic_resample",
    "fit_parametric",
    "save_parametric",
    "load_range_model",
    "train_method",
    "train_methods",
    "step",
    "run_tracking",
    "campaign",
    "write_campaign_csv",
    "CAMPAIGN_HEADER",
]

METHODS = ("HvM", "PvM", "PPRD", "PSE", "Parametric")
GP_FAMILIES = {"HvM": "hvm", "PvM": "pvm", "PPRD": "pprd", "PSE": "pse"}

CAMPAIGN_HEADER = ["method", "trajectory", "noise_level", "seed", "rmse", "diverged"]


@dataclass
class ParticleSet:
    """Particle positions with normalized weights."""

    positions: np.ndarray
    weights: np.ndarray
    diverged: bool = False

    def __post_init__(self):
        self.positions = np.asarray(self.positions, dtype=float)
        self.weights = np.asarray(self.weights, dtype=float)
        if self.positions.ndim != 2 or self.positions.shape[1] != 2:
            raise ValueError("positions must be (N, 2)")
        if self.weights.shape != (self.positions.shape[0],):
            raise ValueError("one weight per particle")
        if np.any(self.weights < 0) or abs(float(np.sum(self.weights)) - 1.0) > 1e-9:
            raise ValueError("weights must be nonnegative and sum to one")

    @property
    def n(self) -> int:
        return self.positions.shape[0]

    def mean(self) -> np.ndarray:
        return self.weights @ self.positions


def systematic_resample(weights: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Indices drawn on the systematic comb u0/N, (u0+1)/N, ... with u0 ~ U[0,1)."""
    w = np.asarray(weights, dtype=float)
    N = w.size
    pts = (rng.uniform() + np.arange(N)) / N
    cum = np.cumsum(w)
    cum[-1] = 1.0
    return np.minimum(np.searchsorted(cum, pts, side="left"), N - 1)


# ---------------------------------------------------------------------------
# Measurement models.
# ---------------------------------------------------------------------------


class GpRangeModel:
    """Batched per-particle predictive likelihood under a trained GP.

    A model fitted with jitter scores with R = noise_var + jitter_used, the R
    of its factor, and a particle with some q <= 0 scores -inf.
    """

    def __init__(self, trained: gp_mod.TrainedGp):
        if not trained.multi_output:
            raise ValueError("tracking needs a multi-output range model")
        self.gp = trained

    def logpdf(self, positions: np.ndarray, z: np.ndarray, references: np.ndarray) -> np.ndarray:
        positions = np.asarray(positions, dtype=float)
        out = np.full(positions.shape[0], -np.inf)
        units, dist = aoa_directions(positions, references)
        ok = np.min(dist, axis=1) >= AOA_SINGULARITY_TOL
        if not np.any(ok):
            return out
        gp = self.gp
        means, v = gp_mod.eigen_moments(gp, units[ok])
        q = 1.0 + gp.factor.S * v
        w = (z[None, :] - means) @ gp.factor.P
        logdet_R = np.sum(np.log(gp.noise_var + gp.jitter_used))
        # log q is NaN or -inf where q <= 0, so those particles fail the finiteness test
        with np.errstate(divide="ignore", invalid="ignore"):
            ll = -0.5 * (np.sum(w * w / q, axis=1) + np.sum(np.log(q), axis=1) + logdet_R + gp.d * LOG2PI)
        out[ok] = np.where(np.isfinite(ll), ll, -np.inf)
        return out


class ParametricRangeModel:
    """Known geometry plus a constant Gaussian residual: bias (r,), symmetric cov (r, r)."""

    def __init__(self, bias: np.ndarray, cov: np.ndarray):
        self.bias = np.asarray(bias, dtype=float)
        self.cov = np.asarray(cov, dtype=float)
        r = self.bias.size
        if self.bias.ndim != 1 or self.cov.shape != (r, r):
            raise ValueError(f"need bias (r,) and cov (r, r), got {self.bias.shape} and {self.cov.shape}")
        if not (np.all(np.isfinite(self.bias)) and np.all(np.isfinite(self.cov))):
            raise ValueError("residual bias and covariance must be finite")
        if not np.allclose(self.cov, self.cov.T, atol=1e-10):
            raise ValueError("residual covariance must be symmetric")
        self.chol, _ = gp_mod.cholesky_with_jitter(self.cov, label="parametric residual")
        self.logdet = 2.0 * float(np.sum(np.log(np.diag(self.chol))))

    def logpdf(self, positions: np.ndarray, z: np.ndarray, references: np.ndarray) -> np.ndarray:
        h = range_function(np.asarray(positions, dtype=float), references)
        r = z[None, :] - (h + self.bias[None, :])
        y = solve_triangular(self.chol, r.T, lower=True)
        quad = np.sum(y * y, axis=0)
        return -0.5 * (quad + self.logdet + self.bias.size * LOG2PI)


def fit_parametric(ts: TrainingSet, references) -> ParametricRangeModel:
    """Bias and covariance of the training residuals z - h(x); FactorizationError
    on fewer than 2 training rows or if they overflow."""
    if ts.n < 2:
        raise gp_mod.FactorizationError("parametric residual: a covariance needs 2 or more training rows")
    h = range_function(ts.positions, np.asarray(references, dtype=float))
    with np.errstate(over="ignore", invalid="ignore"):
        res = ts.obs - h
        bias, cov = res.mean(axis=0), np.atleast_2d(np.cov(res.T))
    if not (np.all(np.isfinite(bias)) and np.all(np.isfinite(cov))):
        raise gp_mod.FactorizationError("parametric residual: the residuals' mean or covariance overflows")
    return ParametricRangeModel(bias=bias, cov=cov)


_PARAMETRIC_FORMAT = "torusgp-parametric"


def save_parametric(model: ParametricRangeModel, path) -> None:
    """Write the residual bias and covariance to a structured text file."""
    doc = {
        "format": _PARAMETRIC_FORMAT,
        "version": 1,
        "bias": model.bias.tolist(),
        "cov": model.cov.tolist(),
    }
    write_json(path, doc)


def load_range_model(path):
    """Load a parametric model file by its format marker, any other as a GP model file."""
    with open(path) as fh:
        doc = json.load(fh)
    if doc.get("format") == _PARAMETRIC_FORMAT:
        return ParametricRangeModel(bias=doc["bias"], cov=doc["cov"])
    return GpRangeModel(gp_mod.load_model(path))


@dataclass
class TrainedMethod:
    """A ready-to-track measurement model plus its training byproducts."""

    model: object
    gp: gp_mod.TrainedGp | None = None
    opt: hyperopt.OptResult | None = None


def train_method(ts: TrainingSet, method: str, references, **opt) -> TrainedMethod:
    """Fit one method's measurement model on a training set.

    opt (budget, restarts, seed, rel_tol, grad_tol) passes on to
    hyperopt.optimize, whose defaults apply when they are left out.
    """
    if method == "Parametric":
        return TrainedMethod(fit_parametric(ts, references))
    if method not in GP_FAMILIES:
        raise ValueError(f"unknown method {method!r}; choose from {METHODS}")
    ds = hyperopt.Dataset.from_data(ts.inputs, ts.obs)
    res = hyperopt.optimize(ds, GP_FAMILIES[method], **opt)
    trained = gp_mod.fit(ts.inputs, ts.obs, res.kernel, res.noise_var, coreg=res.coreg)
    return TrainedMethod(GpRangeModel(trained), gp=trained, opt=res)


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API (macOS, Windows)
        return os.cpu_count() or 1


def train_methods(fits) -> list:
    """train_method(ts, method, references, **opt) for each (ts, method,
    references, opt) of fits, the results in the order of fits.

    The fits share nothing, so they run concurrently on min(len(fits),
    usable CPUs) threads: a GP probe is almost all LAPACK and BLAS time,
    which releases the GIL. Each fit's arithmetic is the serial one, so no
    result depends on the thread count. The exception of the first failed
    fit, in the order of fits, is raised with its type; fits not yet started
    are cancelled, and every thread is joined before this returns or raises.
    """
    with ThreadPoolExecutor(max_workers=min(len(fits), _usable_cpus())) as pool:
        return list(pool.map(lambda fit: train_method(*fit[:3], **fit[3]), fits))


# ---------------------------------------------------------------------------
# Filtering.
# ---------------------------------------------------------------------------


def step(
    particles: ParticleSet,
    z: np.ndarray,
    model,
    cfg: ScenarioConfig,
    rng: np.random.Generator,
) -> ParticleSet:
    """One filter update: propagate, reweight, normalize, resample.

    If no particle has a finite log weight (every likelihood is -inf, or one
    is NaN or +inf), the weights reset to uniform and the returned set is
    marked diverged. Otherwise the largest weight is exp(0) = 1 before
    normalizing, so their sum cannot underflow.
    """
    prop = simulate_dynamics(particles.positions, cfg, rng)
    ll = model.logpdf(prop, np.asarray(z, dtype=float), cfg.references_array)
    with np.errstate(divide="ignore"):
        logw = np.log(particles.weights) + ll
    N = particles.n
    shift = np.max(logw)
    diverged = not np.isfinite(shift)
    if diverged:
        w = np.full(N, 1.0 / N)
    else:
        w = np.exp(logw - shift)
        w = w / float(np.sum(w))
    idx = systematic_resample(w, rng)
    return ParticleSet(prop[idx], np.full(N, 1.0 / N), diverged=diverged)


@dataclass
class TrackingResult:
    """One filtering pass: per-step estimates, errors, and summary; the truth is the Trajectory's."""

    method: str
    estimates: np.ndarray
    ape: np.ndarray
    rmse: float
    diverged: bool


def run_tracking(
    cfg: ScenarioConfig,
    method: str,
    model,
    seed: int,
    traj: Trajectory | None = None,
) -> TrackingResult:
    """Filter one measurement sequence along the configured trajectory.

    The measurement stream (drawn for the whole run before filtering) and the
    filter's randomness are derived from seed through fixed subkeys, so
    identical (cfg, method, model, seed) arguments reproduce the result
    exactly. The particle cloud starts from a unit Gaussian around the true
    initial position; the estimate is the weighted particle mean (uniform
    after resampling).
    """
    if traj is None:
        traj = trajectory(cfg)
    truth = traj.positions
    meas_rng = rng_for(seed, 1)
    filt_rng = rng_for(seed, 2)
    N = cfg.particles
    cloud = truth[0] + filt_rng.standard_normal((N, 2))
    particles = ParticleSet(cloud, np.full(N, 1.0 / N))
    estimates = np.empty_like(truth)
    estimates[0] = particles.mean()
    diverged = False
    for t, z in enumerate(measure_range(truth[1:], cfg, meas_rng), start=1):
        particles = step(particles, z, model, cfg, filt_rng)
        diverged = diverged or particles.diverged
        estimates[t] = particles.mean()
    ape = np.linalg.norm(estimates - truth, axis=1)
    rmse = float(np.sqrt(np.mean(ape**2)))
    return TrackingResult(method=method, estimates=estimates, ape=ape, rmse=rmse, diverged=diverged)


# ---------------------------------------------------------------------------
# Monte Carlo campaign.
# ---------------------------------------------------------------------------


def _int_seed(base_seed: int, *key: int) -> int:
    """Integer seed drawn from the (seed, purpose...) tuple, as rng_for keys generators."""
    ss = np.random.SeedSequence(entropy=int(base_seed), spawn_key=key)
    return int(ss.generate_state(1)[0])


_WORKER = {}  # a campaign pool worker's copy of the campaign state


def _init_worker(state):
    _WORKER.update(state)


def _run_row(task, state=None):
    """One campaign row; a pool worker passes no state and reads its _WORKER."""
    ni, ti, run, method = task
    state = state or _WORKER
    cfg = state["cfgs"][ni]
    traj = state["trajs"][ti]
    model = state["models"][(ni, method)]
    seed = _int_seed(state["seed"], 2, ni, ti, run)
    result = run_tracking(cfg, method, model, seed, traj=traj)
    return {
        "method": method,
        "trajectory": traj.name,
        "noise_level": cfg.noise_xi,
        "seed": seed,
        "rmse": result.rmse,
        "diverged": int(result.diverged),
    }


def _check_grid(**lists):
    """Raise ValueError, naming the list, if a campaign list is empty or names an entry twice."""
    for key, values in lists.items():
        if len(values) == 0 or len(set(values)) < len(values):
            raise ValueError(f"{key}: list at least one entry and none twice, got {list(values)}")


def campaign(
    cfg: ScenarioConfig,
    *,
    methods=METHODS,
    trajectories=("T1",),
    noise_levels=(0.01,),
    runs: int = 20,
    seed: int = 0,
    opt_budget: int = 100,
    opt_restarts: int = 2,
    jobs: int = 1,
):
    """Train per noise level and run the full (method x trajectory x run) grid.

    Returns (rows, trained) where rows is the ordered list of summary dicts
    (one per tracking run, CAMPAIGN_HEADER fields) and trained maps
    (noise_index, method) to the TrainedMethod used, in noise-then-method
    order. The fits run concurrently (train_methods) and are all done
    before any row runs; the rows run in this process (jobs <= 1) or in a
    pool of min(jobs, rows) processes. Results are identical for a fixed
    seed, whatever jobs and the CPU count. A serial campaign keeps its state
    to itself, so several may run in threads at once.

    The defaults are acceptance criterion 7's desk campaign (T1, 20 runs);
    the campaign command's are the paper's full grid (T1-T3, 100 runs). An
    unknown method, an empty or repeated list entry, runs < 1 or a noise
    level ScenarioConfig refuses raises ValueError before any work starts.
    """
    methods = list(methods)
    for mth in methods:
        if mth not in METHODS:
            raise ValueError(f"unknown method {mth!r}; choose from {METHODS}")
    _check_grid(methods=methods, trajectories=trajectories, noise_levels=noise_levels)
    if runs < 1:
        raise ValueError("runs must be >= 1")
    # Every scenario is built before any training, so a bad noise level or a
    # trajectory that leaves the arena fails before the fits are paid for. A
    # trajectory depends on its name and the geometry, not on the noise level.
    cfgs = [cfg.with_(noise_xi=float(xi), seed=seed) for xi in noise_levels]
    trajs = [trajectory(cfg.with_(trajectory=tname)) for tname in trajectories]
    keys, fits = [], []
    for ni, cfg_n in enumerate(cfgs):
        ts = build_training_set(cfg_n, rng_for(seed, 0, ni))
        for mi, method in enumerate(methods):
            opt = dict(budget=opt_budget, restarts=opt_restarts, seed=_int_seed(seed, 1, ni, mi))
            keys.append((ni, method))
            fits.append((ts, method, cfg_n.references_array, opt))
    trained = dict(zip(keys, train_methods(fits)))
    tasks = [
        (ni, ti, run, method)
        for ni in range(len(noise_levels))
        for ti in range(len(trajectories))
        for run in range(runs)
        for method in methods
    ]
    models = {key: tm.model for key, tm in trained.items()}
    state = {"cfgs": cfgs, "trajs": trajs, "models": models, "seed": seed}
    if jobs <= 1:
        rows = [_run_row(t, state) for t in tasks]
    else:
        with ProcessPoolExecutor(
            max_workers=min(jobs, len(tasks)), initializer=_init_worker, initargs=(state,)
        ) as ex:
            rows = list(ex.map(_run_row, tasks))
    return rows, trained


def write_campaign_csv(rows, path) -> None:
    """Summary table: method, trajectory, noise_level, seed, rmse, diverged."""
    write_csv(path, CAMPAIGN_HEADER, ([row[key] for key in CAMPAIGN_HEADER] for row in rows))
