"""Per-layer probes: timed calls into each module's public functions.

The same probes run in the traced run of every workload, on fixed inputs:
the desk training set with the stored hyperparameters (n=240, m=3, d=3),
100 particles around a point of T1, and the case-1 data of seed 77. Each
timing is the median of several calls.
"""

import statistics
import time

import common
import numpy as np
from torusgp import cli, gp, hyperopt, manifold, simulator, tracking

REPEATS = 5
FIT_REPEATS = 3
CIRCLE_SEED = 77


def _median_ms(fn, repeats=REPEATS):
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return 1e3 * statistics.median(times)


def run(tracer) -> dict:
    """Probe every layer; returns metric name -> (value, unit)."""
    out = {}
    hp = common.load_hyperparams()
    cfg = common.desk_config()
    refs = cfg.references_array
    ts = common.desk_training_set()
    X, obs = ts.inputs, ts.obs
    traj = simulator.trajectory(cfg)
    rng = simulator.rng_for(CIRCLE_SEED, 5)
    x0 = traj.positions[50]
    particles = x0 + rng.standard_normal((cfg.particles, 2))
    z = simulator.measure_range(x0, cfg, rng)
    emb = manifold.aoa_embedding_batch(particles, refs)

    models = {"Parametric": tracking.fit_parametric(ts, refs)}
    for method, fam in common.FAMILY_OF.items():
        entry = hp["methods"][method]
        kern = common.kernel_from_entry(entry, cfg.m)
        B = np.asarray(entry["coreg"])
        noise = np.asarray(entry["noise_var"])
        sigma = np.sqrt(noise)
        out[f"kernels.gram_partials_ms.{fam}"] = _median_ms(lambda: kern.gram_and_partials(X))
        out[f"kernels.cross_gram_ms.{fam}"] = _median_ms(lambda: kern.gram(emb, X))
        out[f"gp.system_ms.{fam}"] = _median_ms(lambda: gp.system_matrix(kern, X, noise, B))
        K = gp.system_matrix(kern, X, noise, B)
        out[f"gp.cholesky_ms.{fam}"] = _median_ms(lambda: gp.cholesky_with_jitter(K))
        _, jitter = gp.cholesky_with_jitter(K)
        out[f"gp.jitter_used.{fam}"] = jitter / float(np.mean(np.diag(K)))
        out[f"hyperopt.objective_ms.{fam}"] = _median_ms(
            lambda: hyperopt.objective((X, obs), kern, sigma, coreg=B))
        out[f"hyperopt.gradient_ms.{fam}"] = _median_ms(
            lambda: hyperopt.gradient((X, obs), kern, sigma, coreg=B))
        models[method] = tracking.GpRangeModel(gp.fit(X, obs, kern, noise, coreg=B))

    out["manifold.embed_ms"] = _median_ms(lambda: manifold.aoa_embedding_batch(particles, refs))
    cloud = tracking.ParticleSet(particles, np.full(cfg.particles, 1.0 / cfg.particles))
    for method in tracking.METHODS:
        model = models[method]
        with tracer.span(f"probe.logpdf.{method}") as index:
            out[f"tracking.logpdf_ms.{method}"] = _median_ms(lambda: model.logpdf(particles, z, refs))
        selfs = tracer.self_times()
        out[f"tracking.logpdf_self_ms.{method}"] = 1e3 * statistics.median(
            selfs[i] for i in tracer.children(index))
        out[f"tracking.step_ms.{method}"] = _median_ms(
            lambda: tracking.step(cloud, z, model, cfg, simulator.rng_for(CIRCLE_SEED, 6)))

    out["simulator.training_set_ms"] = _median_ms(
        lambda: simulator.build_training_set(cfg, simulator.rng_for(CIRCLE_SEED, 0)))
    out["simulator.trajectory_ms"] = _median_ms(lambda: simulator.trajectory(cfg))

    # case study 1: the two fits, the 721-point curve, and the whole command
    crng = simulator.rng_for(CIRCLE_SEED, 0)
    thetas = crng.uniform(0.0, 2.0 * np.pi, 40)
    zc = simulator.case_study_1_observe(thetas, crng)
    ds = hyperopt.Dataset.from_data(np.stack([np.cos(thetas), np.sin(thetas)], -1)[:, None, :], zc)
    fitted = {}
    for fam in ("hvm", "pse"):
        out[f"hyperopt.fit_ms.circle.{fam}"] = _median_ms(
            lambda: fitted.__setitem__(fam, hyperopt.optimize(ds, fam, budget=150, restarts=4, seed=CIRCLE_SEED)),
            FIT_REPEATS)
    res = fitted["hvm"]
    model = gp.fit(ds.inputs, ds.obs, res.kernel, res.noise_var)
    grid = np.linspace(-2.0 * np.pi, 4.0 * np.pi, 721)
    curve = np.stack([np.cos(grid), np.sin(grid)], -1)[:, None, :]
    out["gp.predict_ms.curve"] = _median_ms(lambda: gp.predict(model, curve))

    outdir = common.RESULTS / "case1" / "probe"
    outdir.mkdir(parents=True, exist_ok=True)
    totals, cli_self = [], []
    for _ in range(FIT_REPEATS):
        with tracer.span("probe.case1") as index:
            code = cli.main(["case1", "--seed", str(CIRCLE_SEED), "--out", str(outdir)])
        if code != 0:
            raise RuntimeError(f"probe: torusgp case1 exited with {code}")
        totals.append(tracer.duration(index))
        cli_self.append(tracer.layer_self_seconds(index)["cli"])
    out["cli.case1_ms"] = 1e3 * statistics.median(totals)
    out["cli.case1_self_ms"] = 1e3 * statistics.median(cli_self)

    return {k: (v, "ratio" if ".jitter_used." in k else "ms") for k, v in out.items()}
