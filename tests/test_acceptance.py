"""Shipping acceptance suite: one test per release criterion.

Each test_criterion_* function exercises one end-to-end requirement at its
stated tolerance. conftest.py collects the outcomes and prints a one-line
[PASS]/[FAIL] verdict per criterion after the run. Criteria 7 and 8 run the
full desk-scale tracking campaign twice, about 40 s each with one BLAS
thread on a shared 2-core Xeon; everything else finishes in seconds.
"""

import time

import numpy as np
import pytest
from kernel_oracles import BaselineKernelParams, k_hvm, k_pvm

from torusgp import gp, hyperopt, kernels, simulator, tracking
from torusgp.hyperopt import _Problem

TWO_PI = 2.0 * np.pi


def _random_inputs(rng, n, m):
    """n uniform random points on the m-torus as an (n, m, 2) embedding."""
    ang = rng.uniform(0.0, TWO_PI, (n, m))
    return np.stack([np.cos(ang), np.sin(ang)], axis=-1)


def _embed_angles(theta):
    theta = np.asarray(theta, dtype=float)
    return np.stack([np.cos(theta), np.sin(theta)], axis=-1)[:, None, :]


# ---------------------------------------------------------------------------
# 1. Gradient correctness
# ---------------------------------------------------------------------------


def test_criterion_1_gradients_match_finite_differences(record_detail):
    """criterion 1: analytic objective gradients match central differences (rel 1e-5, 10 problems, < 30 s)"""
    t0 = time.perf_counter()
    h = 1e-6
    worst = 0.0
    n, m, d = 12, 3, 2
    for trial in range(10):
        rng = np.random.default_rng(900 + trial)
        X = _random_inputs(rng, n, m)
        Z = rng.standard_normal((n, d)) * rng.uniform(0.5, 2.0)
        ds = hyperopt.Dataset.from_data(X, Z)
        q = m * (m - 1) // 2  # pair weights
        theta = np.r_[rng.uniform(0.6, 1.4), rng.uniform(0.3, 1.5, m), rng.uniform(0.05, 0.5, q)]
        kern = kernels.ExpLinearKernel("hvm", m, theta)
        A = rng.standard_normal((d, d))
        G = np.linalg.cholesky(A @ A.T + d * np.eye(d))
        sigma = rng.uniform(0.2, 0.6, d)
        prob = _Problem(ds, kern)
        phi = prob.pack(kern, G, sigma)
        _, grad = prob.value_and_grad(phi)
        for i in range(phi.size):
            step = np.zeros_like(phi)
            step[i] = h
            F_plus, F_minus = prob.value_and_grad(phi + step)[0], prob.value_and_grad(phi - step)[0]
            fd = (F_plus - F_minus) / (2.0 * h)
            rel = abs(grad[i] - fd) / max(abs(grad[i]), abs(fd), 1.0)
            worst = max(worst, rel)
    elapsed = time.perf_counter() - t0
    record_detail(f"max rel err {worst:.2e} in {elapsed:.1f}s")
    assert worst < 1e-5
    assert elapsed < 30.0


# ---------------------------------------------------------------------------
# 2. Kernel degeneration to the uncoupled product
# ---------------------------------------------------------------------------


def test_criterion_2_zero_coupling_equals_product_kernel(record_detail):
    """criterion 2: coupled kernel with zero pair weights equals the product kernel (abs 1e-12, 1000 pairs)"""
    rng = np.random.default_rng(41)
    m = 3
    worst = 0.0
    for _ in range(1000):
        omega = rng.uniform(0.6, 1.4, m)
        lam = rng.uniform(0.0, 1.5, m)
        coupled = kernels.ExpLinearKernel("hvm", m, np.r_[np.prod(omega), lam, np.zeros(m * (m - 1) // 2)])
        product = BaselineKernelParams(tuple(omega), tuple(lam))
        u, v = _random_inputs(rng, 2, m)
        diff = abs(k_hvm(u, v, coupled) - k_pvm(u, v, product))
        worst = max(worst, diff)
    record_detail(f"max abs diff {worst:.2e}")
    assert worst < 1e-12


# ---------------------------------------------------------------------------
# 3. Periodicity of the circular regression
# ---------------------------------------------------------------------------


def test_criterion_3_posterior_periodicity_and_seam_gap(record_detail):
    """criterion 3: circular posterior agrees at theta and theta + 2 pi (1e-8); chart model has a seam gap"""
    rng = simulator.rng_for(77, 0)
    thetas = rng.uniform(0.0, TWO_PI, 40)
    z = simulator.case_study_1_observe(thetas, rng)
    ds = hyperopt.Dataset.from_data(_embed_angles(thetas), z)

    models = {}
    for family in ("hvm", "pse"):
        res = hyperopt.optimize(ds, family, budget=100, restarts=2, seed=77)
        models[family] = gp.fit(ds.inputs, ds.obs, res.kernel, res.noise_var)

    test_angles = np.linspace(0.0, TWO_PI, 50, endpoint=False)
    base_mean, base_cov = gp.predict(models["hvm"], _embed_angles(test_angles))
    wrapped_mean, wrapped_cov = gp.predict(models["hvm"], _embed_angles(test_angles + TWO_PI))
    mean_gap = float(np.max(np.abs(base_mean - wrapped_mean)))
    var_gap = float(np.max(np.abs(np.diag(base_cov) - np.diag(wrapped_cov))))

    edge_mean, _ = gp.predict(models["pse"], _embed_angles(np.array([0.0, TWO_PI])))
    seam_gap = float(abs(edge_mean[0] - edge_mean[1]))

    record_detail(
        f"circular mean/var gaps {mean_gap:.2e}/{var_gap:.2e}, chart seam gap {seam_gap:.3f}"
    )
    assert mean_gap < 1e-8
    assert var_gap < 1e-8
    # The chart-based model sees 0 and 2 pi as distant inputs, so its posterior
    # jumps across the seam; the gap must be decisively nonzero.
    assert seam_gap > 1e-3


# ---------------------------------------------------------------------------
# 4. Kernel sweep geometry
# ---------------------------------------------------------------------------


def test_criterion_4_sweep_argmax_and_coupling_rank(record_detail):
    """criterion 4: all four sweeps peak at the origin; coupled sweeps are non-separable (sigma2 > 1e-6)"""
    sigma2_coupled = []
    for idx, kernel in enumerate(simulator.CASE2_PARAM_SETS):
        grid, values = simulator.case_study_2_sweep(kernel, resolution=181)
        peak = np.unravel_index(np.argmax(values), values.shape)
        assert peak == (90, 90), f"set {idx + 1} peaks at grid index {peak}"
        assert grid[peak[0]] == 0.0 and grid[peak[1]] == 0.0
        if kernel.theta[3] > 0.0:  # corr_12
            s = np.linalg.svd(np.log(values), compute_uv=False)
            sigma2_coupled.append(float(s[1]))
    record_detail(
        "peaks at (0, 0); coupled log-sweep sigma2 = "
        + ", ".join(f"{v:.2e}" for v in sigma2_coupled)
    )
    assert len(sigma2_coupled) == 2
    assert all(v > 1e-6 for v in sigma2_coupled)


# ---------------------------------------------------------------------------
# 5. Multi-output consistency
# ---------------------------------------------------------------------------


def test_criterion_5_identity_mixing_matches_independent_gps(record_detail):
    """criterion 5: identity mixing with diagonal noise equals independent per-output fits (1e-10)"""
    rng = np.random.default_rng(53)
    n, m, d, t = 20, 3, 3, 7
    X = _random_inputs(rng, n, m)
    Z = rng.standard_normal((n, d))
    kern = kernels.ExpLinearKernel("hvm", 3, (1.1, 0.8, 0.5, 1.2, 0.2, 0.1, 0.3))
    noise = np.array([0.04, 0.09, 0.02])
    joint = gp.fit(X, Z, kern, noise, coreg=np.eye(d))
    T = _random_inputs(rng, t, m)
    post_mean, post_cov = gp.predict(joint, T)

    worst = 0.0
    for i in range(d):
        solo_mean, solo_cov = gp.predict(gp.fit(X, Z[:, i], kern, float(noise[i])), T)
        mean_gap = np.max(np.abs(post_mean[i * t : (i + 1) * t] - solo_mean))
        cov_gap = np.max(
            np.abs(post_cov[i * t : (i + 1) * t, i * t : (i + 1) * t] - solo_cov)
        )
        worst = max(worst, float(mean_gap), float(cov_gap))
        for j in range(d):
            if j != i:
                cross = post_cov[i * t : (i + 1) * t, j * t : (j + 1) * t]
                worst = max(worst, float(np.max(np.abs(cross))))
    record_detail(f"max deviation {worst:.2e}")
    assert worst < 1e-10


# ---------------------------------------------------------------------------
# 6. Optimizer contract
# ---------------------------------------------------------------------------


def test_criterion_6_monotone_traces_and_convergence_rule(record_detail):
    """criterion 6: 20 seeded fits have nondecreasing traces; converged ends with small gradient"""
    converged_count = 0
    for run in range(20):
        rng = np.random.default_rng(300 + run)
        if run % 2 == 0:
            ds = hyperopt.Dataset.from_data(
                _random_inputs(rng, 30, 2), rng.standard_normal(30)
            )
        else:
            ds = hyperopt.Dataset.from_data(
                _random_inputs(rng, 15, 3), rng.standard_normal((15, 2))
            )
        res = hyperopt.optimize(ds, "hvm", budget=60, restarts=1, seed=run)
        trace = np.asarray(res.trace)
        assert trace.size >= 1
        assert np.all(np.diff(trace) >= 0.0), f"run {run}: trace decreased"
        if res.converged:
            converged_count += 1
            bound = hyperopt.GRAD_CONVERGED_FACTOR * (1.0 + abs(res.objective))
            assert res.grad_norm < bound, (
                f"run {run}: converged with grad norm {res.grad_norm:.3e} >= {bound:.3e}"
            )
    record_detail(f"20 monotone traces, {converged_count} converged runs")


# ---------------------------------------------------------------------------
# 7 and 8. Desk-scale tracking study and its reproducibility
# ---------------------------------------------------------------------------

CAMPAIGN_SEED = 1234
CAMPAIGN_RUNS = 20


def _run_campaign():
    cfg = simulator.ScenarioConfig(steps=200)
    rows, _ = tracking.campaign(
        cfg,
        methods=tracking.METHODS,
        trajectories=("T1",),
        noise_levels=(0.01,),
        runs=CAMPAIGN_RUNS,
        seed=CAMPAIGN_SEED,
        opt_budget=100,
        opt_restarts=2,
        jobs=1,
    )
    return rows


@pytest.fixture(scope="module")
def campaign_first():
    t0 = time.perf_counter()
    rows = _run_campaign()
    return {"rows": rows, "elapsed": time.perf_counter() - t0}


def test_criterion_7_tracking_accuracy_ordering(campaign_first, record_detail):
    """criterion 7: coupled-kernel tracker beats the baselines at desk scale in under 15 minutes"""
    rows = campaign_first["rows"]
    elapsed = campaign_first["elapsed"]
    assert len(rows) == CAMPAIGN_RUNS * len(tracking.METHODS)

    med = {}
    for method in tracking.METHODS:
        vals = [r["rmse"] for r in rows if r["method"] == method]
        assert len(vals) == CAMPAIGN_RUNS
        med[method] = float(np.median(vals))
    pse_diverged = float(
        np.mean([r["diverged"] for r in rows if r["method"] == "PSE"])
    )

    record_detail(
        "median RMSE "
        + ", ".join(f"{m} {med[m]:.3f}" for m in tracking.METHODS)
        + f"; PSE diverged {pse_diverged:.2f}; {elapsed:.0f}s"
    )
    assert med["HvM"] <= med["PvM"]
    assert med["HvM"] <= med["Parametric"]
    assert med["Parametric"] - med["HvM"] > 0.0
    low, high = sorted((med["PvM"], med["PPRD"]))
    assert high - low <= 0.15 * low, "periodic baselines differ by more than 15%"
    assert pse_diverged >= 0.5 or med["PSE"] >= 2.0 * med["HvM"]
    assert elapsed < 900.0


def test_criterion_8_campaign_is_bit_reproducible(campaign_first, record_detail, tmp_path):
    """criterion 8: rerunning the campaign with the same seed reproduces every row bit-exactly"""
    rows_again = _run_campaign()
    first = campaign_first["rows"]
    assert len(rows_again) == len(first)
    for a, b in zip(first, rows_again):
        assert a == b, f"row differs: {a} vs {b}"

    path_a = tmp_path / "a.csv"
    path_b = tmp_path / "b.csv"
    tracking.write_campaign_csv(first, path_a)
    tracking.write_campaign_csv(rows_again, path_b)
    same = path_a.read_bytes() == path_b.read_bytes()
    record_detail(f"{len(first)} rows identical, CSV bytes equal: {same}")
    assert same


# ---------------------------------------------------------------------------
# 9. Factorization robustness
# ---------------------------------------------------------------------------


def test_criterion_9_factorization_robustness(record_detail):
    """criterion 9: 100 random coupled-kernel fits (n = 240) succeed with jitter <= 1e-6 of the diagonal"""
    rng = np.random.default_rng(7)
    n, m = 240, 3
    small_jitter = 0
    clean_failures = 0
    for trial in range(100):
        X = _random_inputs(rng, n, m)
        z = rng.standard_normal(n)
        q = m * (m - 1) // 2  # pair weights
        theta = np.r_[rng.uniform(0.5, 2.0), rng.uniform(0.1, 3.0, m), rng.uniform(0.0, 1.0, q)]
        kern = kernels.ExpLinearKernel("hvm", m, theta)
        try:
            model = gp.fit(X, z, kern, 1e-8)
        except gp.FactorizationError:
            clean_failures += 1
            continue
        except Exception as exc:
            pytest.fail(f"trial {trial}: unexpected {type(exc).__name__}: {exc}")
        scale = kern.prior_variance() + 1e-8
        if model.jitter_used <= 1e-6 * scale:
            small_jitter += 1
    record_detail(
        f"{small_jitter}/100 under the jitter bound, {clean_failures} clean failures"
    )
    assert small_jitter >= 95
