import re
import threading
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kernel_oracles import dense_icm, mp_hvm_icm, reference_probe
from torusgp import gp, hyperopt, simulator
from torusgp.kernels import ExpLinearKernel, kernel_from_family
from torusgp.manifold import embed_angles


def _inputs(rng, n, m):
    theta = rng.uniform(0, 2 * np.pi, (n, m))
    return np.stack([np.cos(theta), np.sin(theta)], axis=-1)


def _dense_objective(K, z):
    sign, logdet = np.linalg.slogdet(K)
    assert sign > 0
    return float(-z @ np.linalg.solve(K, z) - logdet - z.size * np.log(2 * np.pi))


def test_objective_single_output_matches_dense():
    rng = np.random.default_rng(0)
    X = _inputs(rng, 12, 2)
    z = rng.standard_normal(12)
    kernel = ExpLinearKernel("hvm", 2, (1.2, 0.9, 0.5, 0.2))
    sigma = 0.3
    ds = hyperopt.Dataset.from_data(X, z)
    got = hyperopt.objective(ds, kernel, sigma)
    K = kernel.gram(X, X) + sigma**2 * np.eye(12)
    assert got == pytest.approx(_dense_objective(K, z), abs=1e-9)


def test_objective_multi_output_matches_dense():
    rng = np.random.default_rng(1)
    n, d = 10, 3
    X = _inputs(rng, n, 3)
    Z = rng.standard_normal((n, d))
    kernel = ExpLinearKernel("hvm", 3, (0.9, 1.1, 0.4, 0.7, 0.15, 0.05, 0.3))
    B = np.cov(rng.standard_normal((7, d)).T) + np.eye(d)
    sigma = np.array([0.2, 0.4, 0.3])
    ds = hyperopt.Dataset.from_data(X, Z)
    got = hyperopt.objective(ds, kernel, sigma, coreg=B)
    K = np.kron(B, kernel.gram(X, X)) + np.kron(np.diag(sigma**2), np.eye(n))
    zvec = np.ravel(Z, order="F")
    assert got == pytest.approx(_dense_objective(K, zvec), abs=1e-8)


def test_objective_at_zero_pair_weight_matches_dense():
    """Explicit hyperparameters are evaluated as given, zeros included."""
    rng = np.random.default_rng(4)
    X = _inputs(rng, 30, 2)
    z = rng.standard_normal(30)
    kernel = ExpLinearKernel("hvm", 2, (1.0, 1.0, 1.0, 0.0))
    got = hyperopt.objective((X, z), kernel, 0.1)
    K = kernel.gram(X, X) + 0.01 * np.eye(30)
    assert got == pytest.approx(_dense_objective(K, z), abs=1e-9)
    names, grads = hyperopt.gradient((X, z), kernel, 0.1)
    assert names[3] == "corr_12" and np.isfinite(grads[3])


def _icm_problem(rng, family, n, d, m=3):
    X = _inputs(rng, n, m)
    Z = rng.standard_normal((n, d))
    template = kernel_from_family(family, m)
    kernel = template.with_theta(template.theta * rng.uniform(0.6, 1.4, template.theta.size))
    A = rng.standard_normal((d, d))
    B = A @ A.T + 0.3 * np.eye(d)
    sigma = rng.uniform(0.2, 0.5, d)
    return X, Z, kernel, B, sigma


# Relative to the largest entry of each block (or 1). The test systems have
# cond(K) from 3 to 6e3, and the two evaluations agree to 2e-12 or better;
# a wrong term in any closed form moves a block by far more than 1e-9.
ICM_RTOL = 1e-9


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize(
    "family, m",
    [("hvm", 3), ("hvm", 1), ("hvm", 4), ("pvm", 3), ("pprd", 3), ("pse", 3)],
    ids=["hvm", "hvm_T1", "hvm_T4", "pvm", "pprd", "pse"],
)
def test_icm_objective_and_gradient_match_the_dense_oracle(family, m, d):
    """The eigen factorization against the dense N x N inverse, block by block."""
    rng = np.random.default_rng(["hvm", "pvm", "pprd", "pse"].index(family) * 10 + d)
    X, Z, kernel, B, sigma = _icm_problem(rng, family, 30, d, m)
    F_ref, g_theta, g_B, g_sigma = dense_icm(kernel, X, Z, B, sigma)
    F = hyperopt.objective((X, Z), kernel, sigma, coreg=B)
    _, grads = hyperopt.gradient((X, Z), kernel, sigma, coreg=B)
    k = kernel.theta.size
    blocks = {
        "F": (np.array([F]), np.array([F_ref])),
        "theta": (grads[:k], g_theta),
        "vec(B)": (grads[k : k + d * d], np.ravel(g_B, order="F")),
        "sigma": (grads[k + d * d :], g_sigma),
    }
    for name, (got, ref) in blocks.items():
        scale = max(1.0, float(np.max(np.abs(ref))))
        assert np.max(np.abs(got - ref)) <= ICM_RTOL * scale, name


def test_icm_precision_against_a_50_digit_reference():
    """F, dF/dB and dF/dsigma within 4 cond(K) eps of an mpmath evaluation."""
    rng = np.random.default_rng(31)
    n, d = 20, 3
    # clustered on a small patch of T^3, with little noise: cond(K) >= 1e9
    ang = 1.0 + 0.3 * rng.uniform(0.0, 1.0, (n, 3))
    X = np.stack([np.cos(ang), np.sin(ang)], axis=-1)
    kernel = ExpLinearKernel("hvm", 3, (1.3, 1.1, 0.7, 0.9, 0.2, 0.1, 0.15))
    A = rng.standard_normal((d, d))
    B = A @ A.T + 0.5 * np.eye(d)
    sigma = np.array([3e-4, 5e-4, 4e-4])
    K = np.kron(B, kernel.gram(X, X)) + np.kron(np.diag(sigma**2), np.eye(n))
    Z = (np.linalg.cholesky(K) @ rng.standard_normal(n * d)).reshape(d, n).T
    cond = np.linalg.cond(K)
    assert cond >= 1e9
    F_ref, gB_ref, gs_ref = mp_hvm_icm(X, kernel, Z, B, sigma)
    F = hyperopt.objective((X, Z), kernel, sigma, coreg=B)
    _, grads = hyperopt.gradient((X, Z), kernel, sigma, coreg=B)
    k = kernel.theta.size
    tol = 4.0 * cond * np.finfo(float).eps
    for got, ref in [
        (F, F_ref),
        *zip(grads[k : k + d * d], np.ravel(gB_ref, order="F")),
        *zip(grads[k + d * d :], gs_ref),
    ]:
        assert abs(got - ref) <= tol * max(1.0, abs(ref)), (got, ref)


def test_objective_with_an_indefinite_system_raises_the_typed_error():
    rng = np.random.default_rng(41)
    X = _inputs(rng, 25, 2)
    Z = rng.standard_normal((25, 2))
    kernel = ExpLinearKernel("hvm", 2, (1.0, 0.8, 0.6, 0.1))
    B = np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues 3 and -1
    sigma = np.array([0.1, 0.1])
    with pytest.raises(gp.FactorizationError, match="^hvm: system matrix not positive definite; "):
        hyperopt.objective((X, Z), kernel, sigma, coreg=B)


@pytest.mark.parametrize("family", ["hvm", "pvm", "pprd", "pse"])
def test_objective_with_a_singular_one_output_system_raises_the_typed_error(family):
    """Every input twice and noise 1e-12: K = K_x + 1e-24 I is singular to
    working precision, so its Cholesky factorization fails."""
    rng = np.random.default_rng(5)
    X = _inputs(rng, 10, 2)
    z = rng.standard_normal(20)
    kernel = kernel_from_family(family, 2)
    with pytest.raises(gp.FactorizationError, match=f"^{family}: system matrix not positive definite$"):
        hyperopt.objective((np.concatenate([X, X]), z), kernel, 1e-12)


def test_indefinite_coreg_with_a_positive_definite_system_gives_the_dense_value():
    """An indefinite B is fine as long as B kron K_x + R kron I stays positive definite."""
    rng = np.random.default_rng(42)
    n = 25
    X = _inputs(rng, n, 2)
    Z = rng.standard_normal((n, 2))
    kernel = ExpLinearKernel("hvm", 2, (1.0, 0.8, 0.6, 0.1))
    lam_max = np.linalg.eigvalsh(kernel.gram(X, X))[-1]
    B = np.diag([1.0, -0.5 / lam_max])
    sigma = np.array([1.0, 1.0])
    K = np.kron(B, kernel.gram(X, X)) + np.eye(2 * n)
    assert np.linalg.eigvalsh(K)[0] > 0.0
    got = hyperopt.objective((X, Z), kernel, sigma, coreg=B)
    assert got == pytest.approx(dense_icm(kernel, X, Z, B, sigma)[0], rel=1e-12)
    assert got == pytest.approx(_dense_objective(K, np.ravel(Z, order="F")), rel=1e-12)


@pytest.mark.parametrize("m", [2, 4], ids=["fewer-circles", "more-circles"])
def test_optimize_rejects_a_kernel_on_another_torus(m):
    rng = np.random.default_rng(6)
    X = _inputs(rng, 10, 3)
    with pytest.raises(ValueError, match=f"T\\^{m} got inputs with 3 circles"):
        hyperopt.objective((X, rng.standard_normal(10)), kernel_from_family("hvm", m), 0.1)


@pytest.mark.parametrize(
    "family", [kernel_from_family("hvm", 3), "hvmm", None], ids=["kernel", "unknown-name", "none"]
)
def test_optimize_takes_a_family_name_only(family):
    """A kernel instance, an unknown name or a non-string is a typed error naming the families."""
    ds = _toy_dataset(seed=3)
    with pytest.raises(ValueError, match=r"unknown kernel family .*\['hvm', 'pvm', 'pprd', 'pse'\]"):
        hyperopt.optimize(ds, family, budget=5, restarts=1)


def test_gradient_kernel_and_noise_coords_match_fd():
    """Central differences on the public objective, coordinate by coordinate."""
    rng = np.random.default_rng(2)
    n, d = 9, 3
    X = _inputs(rng, n, 3)
    Z = rng.standard_normal((n, d))
    kernel = ExpLinearKernel("hvm", 3, (1.1, 0.8, 0.6, 1.2, 0.2, 0.1, 0.25))
    B = np.cov(rng.standard_normal((8, d)).T) + np.eye(d)
    sigma = np.array([0.3, 0.5, 0.4])
    ds = hyperopt.Dataset.from_data(X, Z)

    names, grads = hyperopt.gradient(ds, kernel, sigma, coreg=B)
    assert len(names) == len(grads) == kernel.theta.size + d * d + d
    h = 1e-6

    for idx in range(kernel.theta.size):
        up, dn = kernel.theta.copy(), kernel.theta.copy()
        up[idx] += h
        dn[idx] -= h
        fd = (
            hyperopt.objective(ds, kernel.with_theta(up), sigma, coreg=B)
            - hyperopt.objective(ds, kernel.with_theta(dn), sigma, coreg=B)
        ) / (2 * h)
        assert grads[idx] == pytest.approx(fd, rel=2e-5, abs=1e-7), names[idx]

    for s in range(d):
        up, dn = sigma.copy(), sigma.copy()
        up[s] += h
        dn[s] -= h
        fd = (
            hyperopt.objective(ds, kernel, up, coreg=B)
            - hyperopt.objective(ds, kernel, dn, coreg=B)
        ) / (2 * h)
        assert grads[kernel.theta.size + d * d + s] == pytest.approx(fd, rel=2e-5), names[-d + s]


def test_gradient_coreg_coords_match_symmetric_fd():
    # entries of the mixing matrix are treated independently, so a symmetric
    # finite-difference bump must match the sum of the paired entry gradients
    rng = np.random.default_rng(3)
    n, d = 8, 2
    X = _inputs(rng, n, 2)
    Z = rng.standard_normal((n, d))
    kernel = ExpLinearKernel("hvm", 2, (1.0, 0.7, 0.9, 0.2))
    B = np.array([[1.5, 0.4], [0.4, 1.1]])
    sigma = np.array([0.3, 0.4])
    ds = hyperopt.Dataset.from_data(X, Z)
    names, grads = hyperopt.gradient(ds, kernel, sigma, coreg=B)
    k = kernel.theta.size
    G = np.asarray(grads[k : k + 4]).reshape(2, 2, order="F")
    h = 1e-6

    def f(Bmat):
        K = np.kron(Bmat, kernel.gram(X, X)) + np.kron(np.diag(sigma**2), np.eye(n))
        return _dense_objective(K, np.ravel(Z, order="F"))

    for i in range(d):
        for j in range(i, d):
            up, dn = B.copy(), B.copy()
            up[i, j] += h
            up[j, i] = up[i, j]
            dn[i, j] -= h
            dn[j, i] = dn[i, j]
            fd = (f(up) - f(dn)) / (2 * h)
            analytic = G[i, j] if i == j else G[i, j] + G[j, i]
            assert analytic == pytest.approx(fd, rel=2e-5, abs=1e-7), (i, j)


def _toy_dataset(seed=0, n=30):
    rng = np.random.default_rng(seed)
    X = _inputs(rng, n, 3)
    truth = ExpLinearKernel("hvm", 3, (1.2, 1.0, 0.8, 0.5, 0.2, 0.1, 0.15))
    K = truth.gram(X, X) + 0.01 * np.eye(n)
    z = np.linalg.cholesky(K) @ rng.standard_normal(n)
    return hyperopt.Dataset.from_data(X, z)


def test_optimize_trace_is_nondecreasing():
    ds = _toy_dataset()
    res = hyperopt.optimize(ds, "hvm", budget=50, restarts=2, seed=4)
    trace = res.trace
    assert len(trace) >= 2
    assert all(b >= a for a, b in zip(trace, trace[1:]))
    assert res.objective == trace[-1]
    assert res.objective > trace[0]


@settings(max_examples=25, deadline=None)
@given(
    family=st.sampled_from(["hvm", "pvm", "pprd", "pse"]),
    d=st.sampled_from([0, 1, 2]),
    n=st.integers(4, 14),
    seed=st.integers(0, 2**32 - 1),
)
def test_optimize_trace_is_nondecreasing_on_random_problems(family, d, n, seed):
    """Random small problems, one output (d = 0, 1-D observations) or several."""
    rng = np.random.default_rng(seed)
    X = _inputs(rng, n, 2)
    obs = rng.standard_normal(n) if d == 0 else rng.standard_normal((n, d))
    res = hyperopt.optimize((X, obs), family, budget=12, restarts=2, seed=seed)
    trace = res.trace
    assert all(b >= a for a, b in zip(trace, trace[1:]))
    assert res.objective == trace[-1]


def test_optimize_is_deterministic_for_a_seed():
    ds = _toy_dataset(seed=5)
    a = hyperopt.optimize(ds, "hvm", budget=30, restarts=2, seed=9)
    b = hyperopt.optimize(ds, "hvm", budget=30, restarts=2, seed=9)
    assert a.objective == b.objective
    assert np.array_equal(a.kernel.theta, b.kernel.theta)
    assert np.array_equal(a.noise_sigma, b.noise_sigma)


def test_optimize_converged_flag_implies_small_gradient():
    ds = _toy_dataset(seed=6)
    res = hyperopt.optimize(ds, "hvm", budget=400, restarts=1, seed=0, grad_tol=1e-5)
    if res.converged:
        assert res.grad_norm < 1e-4 * (1.0 + abs(res.objective))
    assert res.stop_reason in {"gradient_norm", "objective_change", "step_failure", "budget"}


@pytest.mark.parametrize("d", [1, 3])
def test_hvm_with_zero_pair_weights_is_the_product_vm_objective(d):
    """HvM with every pair weight at 0 is PvM: the same F, and the same
    omega, lam, B and noise entries of its gradient, for one output and three."""
    rng = np.random.default_rng(8)
    X = _inputs(rng, 25, 3)
    Z = rng.standard_normal(25) if d == 1 else rng.standard_normal((25, d))
    A = rng.standard_normal((d, d))
    coreg = None if d == 1 else A @ A.T + 0.3 * np.eye(d)
    sigma = rng.uniform(0.2, 0.5, d)
    pvm = ExpLinearKernel("pvm", 3, (1.3, 0.9, 0.6, 1.2))
    hvm = ExpLinearKernel("hvm", 3, (*pvm.theta, 0.0, 0.0, 0.0))
    F_h, F_p = (hyperopt.objective((X, Z), k, sigma, coreg) for k in (hvm, pvm))
    assert F_h == pytest.approx(F_p, rel=1e-12)
    (names_h, g_h), (names_p, g_p) = (hyperopt.gradient((X, Z), k, sigma, coreg) for k in (hvm, pvm))
    by_name = dict(zip(names_h, g_h))
    assert not any(nm.startswith("corr") for nm in names_p)
    np.testing.assert_allclose([by_name[nm] for nm in names_p], g_p, rtol=1e-12, atol=0.0)


def test_multi_output_optimize_returns_valid_mixing_matrix():
    rng = np.random.default_rng(11)
    n, d = 18, 3
    X = _inputs(rng, n, 3)
    Z = rng.standard_normal((n, d)) * np.array([1.0, 2.0, 0.5]) + np.array([0.0, 1.0, -1.0])
    ds = hyperopt.Dataset.from_data(X, Z)
    res = hyperopt.optimize(ds, "hvm", budget=40, restarts=1, seed=2)
    assert res.coreg.shape == (d, d)
    assert np.allclose(res.coreg, res.coreg.T)
    assert np.all(np.linalg.eigvalsh(res.coreg) > 0)
    assert res.noise_var.shape == (d,)
    model = gp.fit(ds.inputs, ds.obs, res.kernel, res.noise_var, coreg=res.coreg)
    assert model.multi_output


def test_concentration_recovery_from_generated_data():
    """Fitting data drawn from a known kernel recovers the concentrations.

    The smaller concentration is weakly identified below ~100 points, so the
    check runs at n=150 where the likelihood pins both down. Every fit must
    also reach at least the generating parameters' own objective value.
    """
    truth = np.array([1.2, 0.6])
    n = 150
    errors = []
    for trial in range(6):
        rng = np.random.default_rng(100 + trial)
        X = _inputs(rng, n, 2)
        kern = ExpLinearKernel("hvm", 2, (1.5, *truth, 0.2))
        K = kern.gram(X, X) + 0.0025 * np.eye(n)
        z = np.linalg.cholesky(K) @ rng.standard_normal(n)
        ds = hyperopt.Dataset.from_data(X, z)
        res = hyperopt.optimize(ds, "hvm", budget=120, restarts=2, seed=trial)
        assert res.objective >= hyperopt.objective(ds, kern, 0.05) - 1e-6
        fit_lam = np.array(
            [dict(zip(res.kernel.theta_names, res.kernel.theta))[f"lam_{s + 1}"] for s in (0, 1)]
        )
        errors.append(np.abs(fit_lam - truth) / truth)
    med = np.median(np.stack(errors), axis=0)
    assert np.all(med < 0.25), med


def test_default_initialization_uses_data_scale():
    rng = np.random.default_rng(13)
    X = _inputs(rng, 16, 2)
    z = 3.0 * rng.standard_normal(16)
    kernel, sigma, coreg = hyperopt.default_initialization(
        hyperopt.Dataset.from_data(X, z), "hvm"
    )
    assert np.array_equal(coreg, [[1.0]])
    assert kernel.theta[0] == pytest.approx(np.std(z), rel=1e-12)
    assert sigma[0] == pytest.approx(0.1 * np.std(z), rel=1e-12)


def test_summary_carries_the_trace():
    """evaluations counts the start, each accepted step and each halving,
    for one output (Cholesky) and for two (ICM factor)."""
    single = _toy_dataset(seed=14)
    two = hyperopt.Dataset.from_data(single.inputs, np.stack([single.obs, np.roll(single.obs, 5)], 1))
    for ds in (single, two):
        res = hyperopt.optimize(ds, "pprd", budget=25, restarts=1, seed=0)
        doc = res.summary()
        assert doc["objective"] == res.objective
        assert doc["trace"][-1] == pytest.approx(res.objective)
        assert doc["stop_reason"] == res.stop_reason
        assert doc["evaluations"] == res.evaluations == 1 + res.iterations + res.backtracks
        assert doc["backtracks"] == res.backtracks >= 0
        assert res.iterations > 0


def test_failed_restarts_are_reported():
    """A perturbed restart that fails at its start keeps -inf in
    restart_objectives, and its error message reaches summary(). The
    overflowing probes stay silent: no RuntimeWarning escapes the run."""
    ds = _toy_dataset(seed=21)
    # observations scaled so that the default omega^2 times the Gram diagonal
    # sits at half the float range: a start perturbed upward in omega
    # overflows the system matrix
    unit = kernel_from_family("hvm", 3)
    omega = np.sqrt(0.5 * np.finfo(float).max / unit.prior_variance())
    ds = hyperopt.Dataset.from_data(ds.inputs, ds.obs * (omega / np.std(ds.obs)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = hyperopt.optimize(ds, "hvm", restarts=3, budget=10, seed=4)
    assert res.restart == 0
    assert res.restart_objectives[1] == -np.inf
    assert np.all(np.isfinite(res.restart_objectives[::2]))
    assert res.restart_failures == [
        "restart 1: hvm: system matrix overflowed at the evaluated coordinates"
    ]
    doc = res.summary()
    assert doc["failed_restarts"] == 1
    assert doc["restart_failures"] == res.restart_failures
    assert doc["restart_objectives"] == res.restart_objectives


@pytest.mark.parametrize("columns", ["equal", "independent"])
def test_two_output_fit_near_the_float_range_warns_nothing(columns):
    """Gradients of two-output data near 1e151 overflow the BFGS curvature
    test; the update is skipped and no RuntimeWarning reaches the caller."""
    rng = np.random.default_rng(1)
    X = _inputs(rng, 20, 2)
    Z = rng.standard_normal((20, 2))
    if columns == "equal":
        Z[:, 1] = Z[:, 0]
    ds = hyperopt.Dataset.from_data(X, Z * (7.0e151 / np.max(np.abs(Z))))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = hyperopt.optimize(ds, "hvm", restarts=3, budget=30, seed=0)
    assert np.isfinite(res.objective)


def _assert_record_is_the_winning_restart(ds, res):
    """restart_objectives is indexed by restart, the trace holds the start and
    each accepted step, and grad_norm is the gradient norm at the returned
    hyperparameters. Packing them again (log of exp, Cholesky of G G^T)
    can move phi by a few ulps, so the fresh norm is compared at rel 1e-9."""
    assert res.restart_objectives[res.restart] == res.objective
    assert len(res.trace) == res.iterations + 1
    assert res.trace[-1] == res.objective
    prob = hyperopt._Problem(ds, res.kernel)
    _, grad = prob.value_and_grad(prob.pack(res.kernel, np.linalg.cholesky(res.coreg), res.noise_sigma))
    assert np.linalg.norm(grad) == pytest.approx(res.grad_norm, rel=1e-9)


def _case_1_dataset(seed=77):
    rng = simulator.rng_for(seed, 0)
    thetas = rng.uniform(0.0, 2.0 * np.pi, 40)
    z = simulator.case_study_1_observe(thetas, rng)
    return hyperopt.Dataset.from_data(embed_angles(thetas[:, None]), z)


def test_case_1_fit_record_is_the_winning_restart():
    ds = _case_1_dataset()
    res = hyperopt.optimize(ds, "hvm", restarts=3, budget=60, seed=77)
    assert res.restart_failures == [] and res.iterations > 0
    _assert_record_is_the_winning_restart(ds, res)


def _two_output_toy_dataset():
    single = _toy_dataset(seed=14, n=20)
    return hyperopt.Dataset.from_data(single.inputs, np.stack([single.obs, np.roll(single.obs, 5)], 1))


def _restart_starts(ds, family, restarts, seed):
    """The phi each restart of optimize(ds, family, restarts=, seed=) starts from."""
    kern0, sig0, B0 = hyperopt.default_initialization(ds, family)
    phi0 = hyperopt._Problem(ds, kern0).pack(kern0, np.linalg.cholesky(hyperopt._psd_project(B0)), sig0)
    rng = np.random.default_rng(seed)
    return [phi0] + [phi0 + rng.normal(0.0, 0.5, size=phi0.shape) for _ in range(1, restarts)]


def test_two_output_fit_record_skips_a_failed_restart(monkeypatch):
    """Restart 0's start is scored as a FactorizationError, so the winner is
    a later restart and restart_objectives keeps -inf at index 0. The
    failure is injected at start 0's row of value_and_grad_many, recognized
    by its point, not by its place in the call."""
    ds = _two_output_toy_dataset()
    start0 = _restart_starts(ds, "hvm", 1, 0)[0]
    score, failed = hyperopt._Problem.value_and_grad_many, []

    def fail_start0(prob, phis):
        out = score(prob, phis)
        for r, phi in enumerate(phis):
            if np.array_equal(phi, start0):
                failed.append(r)
                out[r] = gp.FactorizationError("objective not finite at the starting point")
        return out

    monkeypatch.setattr(hyperopt._Problem, "value_and_grad_many", fail_start0)
    res = hyperopt.optimize(ds, "hvm", restarts=3, budget=25, seed=0)
    assert failed == [0] and res.restart in (1, 2)
    assert res.restart_objectives[0] == -np.inf
    assert res.restart_failures == ["restart 0: objective not finite at the starting point"]
    _assert_record_is_the_winning_restart(ds, res)


@pytest.mark.parametrize("d", [1, 2])
def test_no_fit_starts_a_thread(monkeypatch, d):
    """Every probe of a fit, one output or two, is scored on the calling
    thread with no other thread alive, and the first call scores every
    restart's start."""
    ds = _toy_dataset(seed=14, n=20) if d == 1 else _two_output_toy_dataset()
    score, ran = hyperopt._Problem.value_and_grad_many, []

    def recording(prob, phis):
        ran.append((len(phis), threading.get_ident(), threading.active_count()))
        return score(prob, phis)

    monkeypatch.setattr(hyperopt._Problem, "value_and_grad_many", recording)
    before = threading.active_count()
    hyperopt.optimize(ds, "hvm", restarts=3, budget=25, seed=0)
    assert ran[0][0] == 3
    assert {(ident, alive) for _, ident, alive in ran} == {(threading.get_ident(), before)}


def test_extreme_probe_coordinates_raise_the_typed_error():
    """Probe points that overflow or underflow exp() must fail as
    FactorizationError (a rejected step), never as a constructor crash or
    NaN, for one output and for two. G's
    off-diagonal entry is a raw coordinate, not a log: at +-800 it is a
    finite B, so the probe evaluates to a finite F."""
    single = _toy_dataset(seed=21)
    two = hyperopt.Dataset.from_data(single.inputs, np.stack([single.obs, np.roll(single.obs, 3)], 1))
    for ds in (single, two):
        kern0, sig0, B0 = hyperopt.default_initialization(ds, "hvm")
        prob = hyperopt._Problem(ds, kern0)
        phi = prob.pack(kern0, np.linalg.cholesky(B0), sig0)
        # G's lower triangle follows theta, row by row: log G_11, G_21, log G_22
        nk = kern0.theta.size
        logs = [0, 1, phi.size - 1] + ([nk, nk + 2] if ds.multi_output else [])
        # omega = exp(400) passes unpack and overflows the Gram matrix instead
        probes = [(i, bad) for i in logs for bad in (800.0, -800.0)]
        for i, bad in probes + [(0, 400.0)]:
            phi_bad = phi.copy()
            phi_bad[i] = bad
            with pytest.raises(gp.FactorizationError):
                prob.value_and_grad(phi_bad)
        for raw in (800.0, -800.0) if ds.multi_output else ():
            phi_raw = phi.copy()
            phi_raw[nk + 1] = raw
            F, _ = prob.value_and_grad(phi_raw)
            assert np.isfinite(F)


def _probe_dataset(m, d, n=40, seed=3):
    """n points on T^m with d smooth noisy outputs: the size of case study 1's fits."""
    rng = np.random.default_rng(seed)
    a = rng.uniform(0, 2 * np.pi, (n, m))
    z = np.sin(a).sum(axis=1) + 0.5 * np.cos(2 * a[:, 0]) + 0.1 * rng.standard_normal(n)
    obs = z if d == 1 else np.stack([z, np.roll(z, 3) + 0.2 * rng.standard_normal(n)], 1)
    return hyperopt.Dataset.from_data(np.stack([np.cos(a), np.sin(a)], axis=-1), obs)


_PROBE_CASES = [(fam, m, 1) for fam in ("hvm", "pvm", "pprd", "pse") for m in (1, 2)] + [("hvm", 2, 2)]


# the "-None" suffix is the empty pinned-coordinate slot these cases once had;
# it keeps their ids stable
@pytest.mark.parametrize("family, m, d", _PROBE_CASES, ids=[f"{f}-{m}-{d}-None" for f, m, d in _PROBE_CASES])
def test_probe_matches_the_plain_reference_bit_for_bit(family, m, d):
    """The optimizer's probe, F and its gradient in phi, is bit-identical to
    reference_probe (per-group exp, a freshly built kernel, scipy's
    cho_solve) at n = 40: every family, and two outputs through the ICM
    path. Identical probes keep every seeded fit identical."""
    ds = _probe_dataset(m, d)
    kern0, sig0, B0 = hyperopt.default_initialization(ds, family)
    prob = hyperopt._Problem(ds, kern0)
    phi0 = prob.pack(kern0, np.linalg.cholesky(B0), sig0)
    rng = np.random.default_rng(17)
    for phi in [phi0] + [phi0 + rng.normal(0.0, 0.5, phi0.shape) for _ in range(12)]:
        F, grad = prob.value_and_grad(phi)
        F_ref, grad_ref = reference_probe(ds, kern0, phi)
        assert np.float64(F).tobytes() == np.float64(F_ref).tobytes()
        assert grad.shape == grad_ref.shape and grad.tobytes() == grad_ref.tobytes()


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("family", ["hvm", "pvm", "pprd", "pse"])
def test_stacked_one_output_evaluation_matches_the_dense_oracle(family, m):
    """The stacked evaluator, one row through objective and gradient and four
    rows through value_and_grad_many, against dense_icm's N x N inverse with
    B = [[1]], block by block at 1e-9 of each block's scale."""
    rng = np.random.default_rng(["hvm", "pvm", "pprd", "pse"].index(family) + 10 * m)
    X, Z, _, _, _ = _icm_problem(rng, family, 30, 1, m)
    template = kernel_from_family(family, m)
    ds = hyperopt.Dataset.from_data(X, Z[:, 0])
    prob = hyperopt._Problem(ds, template)
    phis = [np.log(np.r_[template.theta * rng.uniform(0.6, 1.4, template.theta.size), rng.uniform(0.2, 0.5)])]
    phis += [phis[0] + rng.normal(0.0, 0.3, phis[0].size) for _ in range(3)]
    k = template.theta.size
    for phi, (F_row, grad_row) in zip(phis, prob.value_and_grad_many(phis)):
        kernel, sigma = template.with_theta(np.exp(phi[:k])), np.exp(phi[k:])
        F_ref, g_theta, _, g_sigma = dense_icm(kernel, X, Z, np.ones((1, 1)), sigma)
        names, grads = hyperopt.gradient(ds, kernel, sigma)
        assert names == (*kernel.theta_names, "sigma_r_1")
        blocks = {
            "F": ([hyperopt.objective(ds, kernel, sigma), F_row], [F_ref, F_ref]),
            "theta": (np.r_[grads[:k], grad_row[:k] / kernel.theta], np.r_[g_theta, g_theta]),
            "sigma": (np.r_[grads[k:], grad_row[k:] / sigma], np.r_[g_sigma, g_sigma]),
        }
        for name, (got, ref) in blocks.items():
            scale = max(1.0, float(np.max(np.abs(ref))))
            assert np.max(np.abs(np.subtract(got, ref))) <= ICM_RTOL * scale, name


def test_a_stacked_row_is_its_batch_of_one_and_bad_rows_fail_typed():
    """Good probes share one stacked call with a probe whose system
    overflows, one whose system is singular (every input twice, noise
    1e-12) and one outside the float range. Each good row equals its batch
    of one bit for bit, each bad row is its typed rejection, and no warning
    escapes. n = 30 puts the rows of each (rows, n, n) array at different
    alignments. Two-output rows, scored one at a time, keep the same
    contract: each good row is value_and_grad at its point, bit for bit."""
    rng = np.random.default_rng(23)
    X = _inputs(rng, 15, 2)
    ds = hyperopt.Dataset.from_data(np.concatenate([X, X]), rng.standard_normal(30))
    kern0, sig0, _ = hyperopt.default_initialization(ds, "hvm")
    prob = hyperopt._Problem(ds, kern0)
    phi0 = prob.pack(kern0, np.eye(1), sig0)
    good = [phi0 + rng.normal(0.0, 0.3, phi0.size) for _ in range(4)]
    overflow, singular, outside = phi0.copy(), phi0.copy(), phi0.copy()
    overflow[0] = 400.0
    singular[-1] = np.log(1e-12)
    outside[1] = 800.0
    batch = [good[0], overflow, good[1], singular, good[2], outside, good[3]]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        scored = prob.value_and_grad_many(batch)
        alone = [prob.value_and_grad_many([phi])[0] for phi in good]
    rejected = {
        1: "hvm: system matrix overflowed at the evaluated coordinates",
        3: "hvm: system matrix not positive definite",
        5: "hvm: hyperparameter coordinates left the representable positive range",
    }
    for r, message in rejected.items():
        assert isinstance(scored[r], gp.FactorizationError) and str(scored[r]) == message
    for (F, grad), (F1, grad1) in zip([scored[r] for r in (0, 2, 4, 6)], alone):
        assert np.float64(F).tobytes() == np.float64(F1).tobytes() and grad.tobytes() == grad1.tobytes()

    two = _two_output_toy_dataset()
    kern0, sig0, B0 = hyperopt.default_initialization(two, "hvm")
    prob = hyperopt._Problem(two, kern0)
    phi0 = prob.pack(kern0, np.linalg.cholesky(B0), sig0)
    good = [phi0 + rng.normal(0.0, 0.3, phi0.size) for _ in range(3)]
    overflow, outside = phi0.copy(), phi0.copy()
    overflow[0] = 400.0
    outside[1] = 800.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        scored = prob.value_and_grad_many([good[0], overflow, good[1], outside, good[2]])
        alone = [prob.value_and_grad(phi) for phi in good]
    for r, message in {1: rejected[1], 3: rejected[5]}.items():
        assert isinstance(scored[r], gp.FactorizationError) and str(scored[r]) == message
    for (F, grad), (F1, grad1) in zip([scored[r] for r in (0, 2, 4)], alone):
        assert np.float64(F).tobytes() == np.float64(F1).tobytes() and grad.tobytes() == grad1.tobytes()


@pytest.mark.parametrize(
    "family, d",
    [("hvm", 1), ("pse", 1), ("hvm", 2), ("pse", 2)],
    ids=["hvm", "pse", "hvm-two-outputs", "pse-two-outputs"],
)
def test_restart_0_of_a_one_output_fit_does_not_depend_on_the_restart_count(family, d):
    """Lockstep restarts share the calls that score their probes, and
    restart 0 ends at the same objective, bit for bit, whether 1, 2 or 4
    restarts run beside it: for one output (stacked rows) and for two
    (rows scored one at a time)."""
    ds = _case_1_dataset() if d == 1 else _two_output_toy_dataset()
    objectives = {
        restarts: hyperopt.optimize(ds, family, restarts=restarts, seed=77).restart_objectives[0]
        for restarts in (1, 2, 4)
    }
    assert len({np.float64(v).tobytes() for v in objectives.values()}) == 1, objectives


@pytest.mark.parametrize("rows", [1, 3])
def test_a_lower_stack_cap_gives_the_same_fit_bit_for_bit(monkeypatch, rows):
    """Capping the stacked arrays at one or three rows splits each round of
    four probes over more calls and leaves the OptResult unchanged."""
    ds = _case_1_dataset(seed=5)
    fits = [hyperopt.optimize(ds, "hvm", restarts=4, seed=5)]
    monkeypatch.setattr(hyperopt, "_STACK_BYTES", rows * 8 * ds.n * ds.n)
    fits.append(hyperopt.optimize(ds, "hvm", restarts=4, seed=5))
    a, b = fits
    for field in ("objective", "trace", "restart_objectives", "restart", "iterations", "evaluations",
                  "backtracks", "grad_norm", "stop_reason", "converged", "restart_failures"):
        assert getattr(a, field) == getattr(b, field), field
    for field in ("coreg", "noise_sigma"):
        assert getattr(a, field).tobytes() == getattr(b, field).tobytes(), field
    assert a.kernel.theta.tobytes() == b.kernel.theta.tobytes()


def test_cholesky_and_one_column_icm_evaluations_agree():
    """The two factorizations of one output: 1-D data z (Cholesky, B pinned)
    and the one column z[:, None] with B = [[1]] (ICM factor) give the same
    F, dF/dtheta, dF/dB and dF/dsigma, to 1e-9 relative at n = 30."""
    solo = _toy_dataset(seed=5, n=30)
    col = hyperopt.Dataset.from_data(solo.inputs, solo.obs[:, None])
    kernel = ExpLinearKernel("hvm", 3, (1.1, 0.9, 0.7, 0.6, 0.15, 0.1, 0.2))
    B, sigma = np.ones((1, 1)), np.array([0.3])
    a = hyperopt._Problem(solo, kernel).evaluate(kernel, B, sigma)
    b = hyperopt._Problem(col, kernel).evaluate(kernel, B, sigma)
    assert np.linalg.cond(kernel.gram(solo.inputs, solo.inputs) + sigma[0] ** 2 * np.eye(30)) < 1e4
    assert a[0] == pytest.approx(b[0], rel=1e-9)
    for x, y in zip(a[1:], b[1:]):
        assert x.shape == y.shape
        np.testing.assert_allclose(x, y, rtol=1e-9, atol=0.0)


def test_one_output_result_carries_the_pinned_mixing_matrix():
    """A 1-D optimize result has B = [[1]] and a (1,) noise vector; fitting
    with either noise form predicts bit for bit alike, and the public
    gradient still lists no b_11 for 1-D data."""
    ds = _toy_dataset(seed=9, n=20)
    res = hyperopt.optimize(ds, "pvm", budget=20, restarts=1, seed=0)
    assert np.array_equal(res.coreg, [[1.0]])
    assert res.noise_var.shape == (1,)
    assert res.theta_vector()[res.kernel.theta.size] == 1.0
    T = _inputs(np.random.default_rng(10), 6, 3)
    a_mean, a_cov = gp.predict(gp.fit(ds.inputs, ds.obs, res.kernel, res.noise_var), T)
    b_mean, b_cov = gp.predict(gp.fit(ds.inputs, ds.obs, res.kernel, float(res.noise_var[0])), T)
    assert np.array_equal(a_mean, b_mean) and np.array_equal(a_cov, b_cov)
    names, values = hyperopt.gradient(ds, res.kernel, res.noise_sigma)
    assert "b_11" not in names
    assert names == (*res.kernel.theta_names, "sigma_r_1") and values.size == len(names)


@pytest.mark.parametrize("d", [1, 2], ids=["coreg-for-1d", "no-coreg-for-2d"])
def test_objective_refuses_coreg_against_the_output_count(d):
    """coreg is given for multi-output observations, and only then."""
    rng = np.random.default_rng(6)
    ds = hyperopt.Dataset.from_data(_inputs(rng, 6, 2), rng.standard_normal(6 if d == 1 else (6, d)))
    coreg = np.eye(1) if d == 1 else None
    with pytest.raises(ValueError, match="^coreg must be given for multi-output "):
        hyperopt.objective(ds, kernel_from_family("hvm", 2), 0.1, coreg=coreg)


NOISE_RULE = "^noise must be {} positive finite numbers$"


@pytest.mark.parametrize(
    "d, noise, coreg, match",
    [
        (2, [0.1, -0.1], np.eye(2), NOISE_RULE.format(2)),
        (2, [0.1, np.inf], np.eye(2), NOISE_RULE.format(2)),
        (2, [0.1, 0.1, 0.1], np.eye(2), NOISE_RULE.format(2)),
        (2, 0.1, [[1.0, 0.5], [0.0, 1.0]], "^coreg must be finite and symmetric$"),
        (1, 0.0, None, NOISE_RULE.format(1)),
        (1, [0.1, 0.1], None, NOISE_RULE.format(1)),
    ],
    ids=[
        "2d-negative-noise",
        "2d-infinite-noise",
        "2d-noise-of-3",
        "2d-asymmetric-coreg",
        "1d-zero-noise",
        "1d-noise-of-2",
    ],
)
def test_objective_and_gradient_refuse_hyperparameters_that_break_the_icm_rule(d, noise, coreg, match):
    """Dataset.hyperparameters' rule holds for explicit hyperparameters, as in
    gp.fit: no NaN, -inf or lower-triangle value comes back."""
    rng = np.random.default_rng(17)
    ds = hyperopt.Dataset.from_data(_inputs(rng, 6, 2), rng.standard_normal(6 if d == 1 else (6, d)))
    for evaluate in (hyperopt.objective, hyperopt.gradient):
        with pytest.raises(ValueError, match=match):
            evaluate(ds, kernel_from_family("hvm", 2), noise, coreg=coreg)


def test_a_multi_output_fit_on_one_observation_fails_typed_without_a_warning():
    """One row has no sample covariance: the start fails as a FactorizationError
    naming the family, before np.cov can warn."""
    rng = np.random.default_rng(18)
    ds = hyperopt.Dataset.from_data(_inputs(rng, 1, 3), rng.standard_normal((1, 3)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(gp.FactorizationError, match="^hvm: a multi-output fit needs 2 or more observations"):
            hyperopt.optimize(ds, "hvm", budget=5, restarts=2, seed=0)


def test_a_failed_eigendecomposition_is_the_typed_error(monkeypatch):
    """LAPACK's eigh can fail to converge: gp.fit raises FactorizationError, and
    a 2-D probe comes back as a rejected row."""
    rng = np.random.default_rng(19)
    X, Z = _inputs(rng, 8, 2), rng.standard_normal((8, 2))
    kernel = kernel_from_family("hvm", 2)
    prob = hyperopt._Problem(hyperopt.Dataset.from_data(X, Z), kernel)
    phi = prob.pack(kernel, np.eye(2), np.full(2, 0.1))

    def fail(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", fail)
    message = "hvm: eigendecomposition failed (Eigenvalues did not converge)"
    with pytest.raises(gp.FactorizationError, match=f"^{re.escape(message)}$"):
        gp.fit(X, Z, kernel, 0.1, coreg=np.eye(2))
    (row,) = prob.value_and_grad_many(phi[None])
    assert isinstance(row, gp.FactorizationError) and str(row) == message


def test_optimize_raises_the_last_failure_when_every_restart_fails(monkeypatch):
    failures = []

    def fail(self, phis):
        for _ in phis:
            failures.append(len(failures) + 1)
        return [gp.FactorizationError(f"probe {k} failed") for k in failures[-len(phis) :]]

    monkeypatch.setattr(hyperopt._Problem, "value_and_grad_many", fail)
    with pytest.raises(gp.FactorizationError, match="^probe 3 failed$"):
        hyperopt.optimize(_toy_dataset(seed=14), "hvm", restarts=3, seed=0)
    assert failures == [1, 2, 3]


def test_default_initialization_starts_omega_at_1_on_constant_observations():
    X = _inputs(np.random.default_rng(15), 8, 2)
    kernel, sigma, _ = hyperopt.default_initialization(hyperopt.Dataset.from_data(X, np.full(8, 2.5)), "hvm")
    assert kernel.theta[0] == 1.0
    assert np.array_equal(sigma, [0.1])


@pytest.mark.parametrize("top", [1e200, 1e300])
@pytest.mark.parametrize("d", [1, 3])
def test_observations_whose_statistics_overflow_fail_typed_without_a_warning(top, d):
    """Observations above about 1e154 overflow np.std and np.cov; the start
    fails as a FactorizationError naming the family, and no RuntimeWarning
    escapes (numpy attributes it to its own modules)."""
    rng = np.random.default_rng(16)
    Z = np.abs(rng.standard_normal(12 if d == 1 else (12, d))) + 1.0
    ds = hyperopt.Dataset.from_data(_inputs(rng, 12, 3), Z * (top / np.max(Z)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(gp.FactorizationError, match="^pvm: "):
            hyperopt.default_initialization(ds, "pvm")
        with pytest.raises(gp.FactorizationError, match="^hvm: "):
            hyperopt.optimize(ds, "hvm", budget=5, restarts=2, seed=0)
