"""Self-check of the benchmark's oracles on small problems.

    python3 perfbench/run.py --selfcheck

On small desk-like problems (n=20 positions, m=3 references, d=3 ranges)
it compares the dense log marginal likelihood with hyperopt.objective and
the dense predictive density with GpRangeModel.logpdf, for every kernel
family: once on a grid spread over the arena with noise variance 1e-2
(well conditioned), and once on a 4 m x 3 m patch with noise variance 1e-8,
where the HvM and PvM systems reach cond(K) >= 1e10 like the trained desk
systems.
For the multi-output HvM cases a 50-digit mpmath evaluation of the
objective shows how far each double-precision route is from the exact
value. Negative controls perturb one hyperparameter by 1% and require the
oracle to notice. The tolerance is the one the workloads use:
TOL_FACTOR * cond(K) * eps relative, never below TOL_FLOOR. Exits 0 when every comparison holds.
"""

import common  # noqa: F401  (thread pins and import path)
import mpmath
import numpy as np
import oracles
from torusgp import gp, hyperopt, kernels, manifold, simulator, tracking

THETA = {
    "hvm": [1.3, 0.8, 1.1, 0.6, 0.2, 0.1, 0.3],
    "pvm": [1.1, 0.9, 0.7, 1.2],
    "pprd": [1.2, 1.5, 1.1, 0.9],
    "pse": [0.9, 1.4, 2.0, 1.7],
}
# name: (family, positions, noise variance per output, must be ill conditioned)
SPREAD = [(x, y) for y in (4.5, 11.5, 18.5, 25.5) for x in (3.0, 9.0, 15.0, 21.0, 27.0)]
PATCH = [(13.0 + x, 13.0 + y) for y in np.linspace(0.0, 3.0, 4) for x in np.linspace(0.0, 4.0, 5)]
CASES = {fam: (fam, SPREAD, 1e-2, False) for fam in THETA}
CASES.update({f"{fam}_ill": (fam, PATCH, 1e-8, fam in ("hvm", "pvm")) for fam in THETA})


def _exact_objective(dense: oracles.DenseGp) -> float:
    """F at 50 significant digits (mpmath LU on the same kernel entries)."""
    mpmath.mp.dps = 50
    K = oracles.system(
        oracles.gram(dense.family, dense.names, dense.theta, dense.X, dense.X), dense.noise_var, dense.coreg
    )
    Km = mpmath.matrix(K.tolist())
    zm = mpmath.matrix(dense.z.tolist())
    alpha = mpmath.lu_solve(Km, zm)
    quad = sum(zm[i] * alpha[i] for i in range(len(dense.z)))
    return float(-quad - mpmath.log(mpmath.det(Km)) - len(dense.z) * mpmath.log(2 * mpmath.pi))


def main() -> int:
    cfg = simulator.ScenarioConfig()
    refs = cfg.references_array
    rng = np.random.default_rng(11)
    failures = 0
    print(f"{'case':9s} {'cond(K)':>9s} {'tolerance':>9s} {'F rel err':>10s} {'exact gap':>10s} "
          f"{'logpdf rel':>10s} {'control':>9s}")
    for name, (family, positions, noise, ill) in CASES.items():
        positions = np.asarray(positions)
        X = manifold.aoa_embedding_batch(positions, refs)
        obs = np.array([simulator.measure_range(x, cfg, rng) for x in positions])
        B = np.cov(obs.T) + 0.1 * np.eye(cfg.m)
        kern = kernels.kernel_from_family(family, cfg.m).with_theta(np.asarray(THETA[family]))
        noise_var = np.full(cfg.m, noise)
        dense = oracles.DenseGp(family, kern.theta_names, kern.theta, X, obs, noise_var, B)
        F_prog = hyperopt.objective((X, obs), kern, np.sqrt(noise_var), coreg=B)
        f_err = oracles.rel_err(F_prog, dense.objective())
        exact_gap = None
        if family == "hvm":
            exact = _exact_objective(dense)
            exact_gap = max(oracles.rel_err(F_prog, exact), oracles.rel_err(dense.objective(), exact))
        model = tracking.GpRangeModel(gp.fit(X, obs, kern, noise_var, coreg=B))
        ll_err = 0.0
        for x in positions[rng.integers(0, len(positions), size=3)]:
            z = simulator.measure_range(x, cfg, rng)
            particles = x + 0.4 * rng.standard_normal((20, 2))
            got = model.logpdf(particles, z, refs)
            want = dense.predictive_logpdf(oracles.aoa_embedding(particles, refs), z)
            ll_err = max(ll_err, oracles.rel_err(got, want))
        # negative control: a 1% change of the first length scale or
        # concentration must be visible to the objective comparison
        theta_bad = np.array(kern.theta)
        theta_bad[1] *= 1.01
        wrong = oracles.DenseGp(family, kern.theta_names, theta_bad, X, obs, noise_var, B)
        control = oracles.rel_err(F_prog, wrong.objective())
        tol = dense.tolerance
        ok = (
            f_err <= tol
            and ll_err <= tol
            and control > tol
            and (exact_gap is None or exact_gap <= tol)
            and (not ill or dense.cond >= 1e10)
        )
        failures += not ok
        gap = "-" if exact_gap is None else f"{exact_gap:.2e}"
        print(f"{name:9s} {dense.cond:9.2e} {tol:9.2e} {f_err:10.2e} {gap:>10s} {ll_err:10.2e} {control:9.2e}  "
              f"{'ok' if ok else 'FAIL'}")
    print("selfcheck:", "all oracles agree within tolerance" if not failures else f"{failures} case(s) failed")
    return 1 if failures else 0
