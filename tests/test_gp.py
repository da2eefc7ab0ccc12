import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.linalg import cho_solve, lu_factor, lu_solve

from kernel_oracles import dense_observation_logpdf, dense_observation_posterior
from torusgp import gp, tracking
from torusgp.kernels import ExpLinearKernel, kernel_from_family
from torusgp.manifold import aoa_embedding_batch


def _inputs(rng, n, m):
    theta = rng.uniform(0, 2 * np.pi, (n, m))
    return np.stack([np.cos(theta), np.sin(theta)], axis=-1)


def _kernel(m=2):
    if m == 2:
        return ExpLinearKernel("hvm", 2, (1.1, 0.8, 1.3, 0.25))
    return ExpLinearKernel("hvm", 3, (1.1, 0.8, 1.3, 0.5, 0.25, 0.1, 0.3))


def test_single_output_posterior_matches_dense_formula():
    """Mean and covariance against the textbook dense-solve expressions."""
    rng = np.random.default_rng(42)
    n, t = 15, 6
    X = _inputs(rng, n, 2)
    T = _inputs(rng, t, 2)
    z = rng.standard_normal(n)
    kernel = _kernel()
    noise = 0.05

    model = gp.fit(X, z, kernel, noise)
    post_mean, post_cov = gp.predict(model, T)

    K = kernel.gram(X, X) + noise * np.eye(n)
    Ks = kernel.gram(T, X)
    Kss = kernel.gram(T, T)
    Kinv = np.linalg.inv(K)
    mean = Ks @ Kinv @ z
    cov = Kss - Ks @ Kinv @ Ks.T
    assert np.max(np.abs(post_mean - mean)) < 1e-8
    assert np.max(np.abs(post_cov - cov)) < 1e-8


def test_predict_observation_adds_noise_to_diagonal():
    rng = np.random.default_rng(1)
    X = _inputs(rng, 10, 2)
    z = rng.standard_normal(10)
    model = gp.fit(X, z, _kernel(), 0.3)
    T = _inputs(rng, 4, 2)
    f_mean, f_cov = gp.predict(model, T)
    y_mean, y_cov = dense_observation_posterior(model, T)
    assert np.allclose(y_mean, f_mean, atol=0)
    assert np.allclose(y_cov, f_cov + 0.3 * np.eye(4), atol=1e-12)


def test_small_noise_interpolates_training_data():
    rng = np.random.default_rng(3)
    X = _inputs(rng, 12, 2)
    z = rng.standard_normal(12)
    model = gp.fit(X, z, _kernel(), 1e-10)
    post_mean, _ = gp.predict(model, X)
    assert np.max(np.abs(post_mean - z)) < 1e-5


def test_multi_output_posterior_matches_dense_kron_formula():
    rng = np.random.default_rng(7)
    n, t, d = 9, 5, 3
    X = _inputs(rng, n, 3)
    T = _inputs(rng, t, 3)
    Z = rng.standard_normal((n, d))
    kernel = _kernel(3)
    A = rng.standard_normal((d, d))
    B = A @ A.T + 0.5 * np.eye(d)
    noise = np.array([0.04, 0.09, 0.01])

    model = gp.fit(X, Z, kernel, noise, coreg=B)
    post_mean, post_cov = gp.predict(model, T)

    Kx = kernel.gram(X, X)
    K = np.kron(B, Kx) + np.kron(np.diag(noise), np.eye(n))
    Ks = np.kron(B, kernel.gram(T, X))
    Kss = np.kron(B, kernel.gram(T, T))
    zvec = np.ravel(Z, order="F")
    Kinv = np.linalg.inv(K)
    mean = Ks @ Kinv @ zvec
    cov = Kss - Ks @ Kinv @ Ks.T
    assert post_mean.shape == (t * d,)
    assert np.max(np.abs(post_mean - mean)) < 1e-8
    assert np.max(np.abs(post_cov - cov)) < 1e-8


def test_identity_mixing_reduces_to_independent_gps():
    """B = I with diagonal noise must reproduce d separate single-output fits."""
    rng = np.random.default_rng(19)
    n, d = 20, 3
    X = _inputs(rng, n, 3)
    Z = rng.standard_normal((n, d))
    kernel = _kernel(3)
    noise = np.array([0.02, 0.05, 0.11])
    model = gp.fit(X, Z, kernel, noise, coreg=np.eye(d))
    T = _inputs(rng, 7, 3)
    post_mean, post_cov = gp.predict(model, T)
    for i in range(d):
        solo = gp.fit(X, Z[:, i], kernel, float(noise[i]))
        ref_mean, ref_cov = gp.predict(solo, T)
        mean_i = post_mean[i * 7 : (i + 1) * 7]
        cov_ii = post_cov[i * 7 : (i + 1) * 7, i * 7 : (i + 1) * 7]
        assert np.max(np.abs(mean_i - ref_mean)) < 1e-10
        assert np.max(np.abs(cov_ii - ref_cov)) < 1e-10


@pytest.mark.parametrize("d", [1, 3])
@pytest.mark.parametrize("family", ["hvm", "pvm", "pprd", "pse"])
def test_marginals_are_the_diagonal_blocks_of_predict(family, d):
    """The per-point moments, from the constants fixed at fit time, against the joint posterior."""
    rng = np.random.default_rng(31)
    n, t = 16, 6
    X, T = _inputs(rng, n, 3), _inputs(rng, t, 3)
    Z = rng.standard_normal((n, d))
    A = rng.standard_normal((d, d))
    B = A @ A.T + 0.3 * np.eye(d)
    kernel = kernel_from_family(family, 3)
    model = gp.fit(X, Z, kernel, np.array([0.02, 0.05, 0.01])[:d], coreg=B)
    means, covs = gp.marginals(model, T)
    post_mean, post_cov = gp.predict(model, T)
    # output-major layout: entry (i, p) of the joint posterior sits at i * t + p
    idx = np.arange(d)[:, None] * t + np.arange(t)[None, :]
    assert np.allclose(means, post_mean[idx].T, rtol=0, atol=1e-12)
    want = post_cov[idx[:, None, :], idx[None, :, :]].transpose(2, 0, 1)
    assert np.allclose(covs, want, rtol=0, atol=1e-12 * np.abs(want).max())


@pytest.mark.parametrize("dup", [1, 3], ids=["distinct", "duplicated-jittered"])
def test_one_output_is_the_one_column_icm_model(dup):
    """1-D observations and the same data as one column with B = [[1]] take one path, bit for bit."""
    rng = np.random.default_rng(12)
    X = np.repeat(_inputs(rng, 12, 2), dup, axis=0)
    z = rng.standard_normal(X.shape[0])
    noise = 0.05 if dup == 1 else 1e-20
    T = _inputs(rng, 5, 2)
    solo = gp.fit(X, z, _kernel(), noise)
    col = gp.fit(X, z[:, None], _kernel(), np.array([noise]), coreg=[[1.0]])
    assert solo.jitter_used == col.jitter_used and (solo.jitter_used > 0.0) == (dup > 1)
    (a_mean, a_cov), (b_mean, b_cov) = gp.predict(solo, T), gp.predict(col, T)
    assert a_mean.shape == (5,) and a_cov.shape == (5, 5)
    assert np.array_equal(a_mean, b_mean) and np.array_equal(a_cov, b_cov)
    for x, y in zip(gp.marginals(solo, T), gp.marginals(col, T)):
        assert np.array_equal(x, y)


def test_zvec_is_output_major():
    rng = np.random.default_rng(2)
    X = _inputs(rng, 4, 2)
    Z = rng.standard_normal((4, 2))
    model = gp.fit(X, Z, _kernel(), 0.1, coreg=np.eye(2))
    assert np.array_equal(model.zvec[:4], Z[:, 0])
    assert np.array_equal(model.zvec[4:], Z[:, 1])


def test_log_likelihood_matches_dense_gaussian():
    rng = np.random.default_rng(23)
    X = _inputs(rng, 14, 3)
    Z = rng.standard_normal((14, 3))
    B = np.cov(rng.standard_normal((6, 3)).T) + np.eye(3)
    noise = np.array([0.03, 0.02, 0.05])
    model = gp.fit(X, Z, _kernel(3), noise, coreg=B)
    point = _inputs(rng, 1, 3)
    z = rng.standard_normal(3)

    post_mean, post_cov = gp.predict(model, point)
    expected = stats.multivariate_normal(post_mean, post_cov + np.diag(noise)).logpdf(z)
    assert dense_observation_logpdf(model, point, z) == pytest.approx(expected, abs=1e-9)


def test_cholesky_with_jitter_reports_zero_on_clean_matrix():
    A = np.eye(4) * 2.0
    L, used = gp.cholesky_with_jitter(A)
    assert used == 0.0
    assert np.allclose(L @ L.T, A)


def test_cholesky_with_jitter_rescues_singular_psd():
    v = np.ones((3, 1))
    A = v @ v.T  # rank one, singular
    L, used = gp.cholesky_with_jitter(A)
    assert used > 0.0
    assert np.allclose(L @ L.T, A + used * np.eye(3), atol=1e-12)
    assert np.array_equal(L, np.linalg.cholesky(A + used * np.eye(3)))
    assert np.array_equal(A, v @ v.T)  # the jittered copy leaves the input alone


@pytest.mark.parametrize("d", [1, 3])
def test_system_matrix_adds_noise_on_the_diagonal_bit_exactly(d):
    """The diagonal noise update equals the kron(R, I) formula entry for entry."""
    rng = np.random.default_rng(60 + d)
    n = 20
    X = _inputs(rng, n, 2)
    kernel = _kernel()
    if d == 1:
        noise, coreg = 0.05, None
        expected = kernel.gram(X, X) + noise * np.eye(n)
    else:
        A = rng.standard_normal((d, d))
        coreg = A @ A.T + np.eye(d)
        noise = rng.uniform(0.01, 0.1, d)
        expected = np.kron(coreg, kernel.gram(X, X)) + np.kron(np.diag(noise), np.eye(n))
    K = gp.system_matrix(kernel, X, noise, coreg)
    assert np.array_equal(K, expected)
    L, used = gp.cholesky_with_jitter(K)
    assert used == 0.0
    assert np.array_equal(L, np.linalg.cholesky(expected + 0.0 * np.eye(n * d)))


def test_cholesky_with_jitter_raises_on_a_non_finite_matrix():
    A = np.eye(3)
    A[0, 1] = A[1, 0] = np.nan
    with pytest.raises(gp.FactorizationError, match="^test matrix: .*non-finite"):
        gp.cholesky_with_jitter(A, label="test matrix")


def test_cholesky_with_jitter_raises_on_indefinite():
    A = np.diag([1.0, -5.0, 2.0])
    with pytest.raises(gp.FactorizationError) as exc:
        gp.cholesky_with_jitter(A, label="test matrix")
    msg = str(exc.value)
    assert "test matrix" in msg
    assert "smallest eigenvalue -5.000000e+00" in msg


def test_fit_validates_coreg_and_noise():
    rng = np.random.default_rng(4)
    X = _inputs(rng, 5, 2)
    Z = rng.standard_normal((5, 2))
    with pytest.raises(ValueError):
        gp.fit(X, Z, _kernel(), 0.1, coreg=np.array([[1.0, 0.5], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        gp.fit(X, Z[:, 0], _kernel(), 0.0)
    with pytest.raises(ValueError):
        gp.fit(X, Z, _kernel(), 0.1)  # matrix obs need a mixing matrix
    with pytest.raises(ValueError, match=r"^coreg must be \(2, 2\), got \(3, 3\)$"):
        gp.fit(X, Z, _kernel(), 0.1, coreg=np.eye(3))
    with pytest.raises(ValueError, match=r"^noise must be 2 positive finite numbers$"):
        gp.fit(X, Z, _kernel(), [0.1, 0.2, 0.3], coreg=np.eye(2))
    with pytest.raises(ValueError, match=r"^noise must be 2 positive finite numbers$"):
        gp.fit(X, Z, _kernel(), [0.1, np.inf], coreg=np.eye(2))
    with pytest.raises(ValueError, match="^coreg must be finite and symmetric$"):
        gp.fit(X, Z, _kernel(), 0.1, coreg=np.array([[np.inf, 0.5], [0.5, 1.0]]))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_dataset_rejects_non_finite_observations(bad):
    rng = np.random.default_rng(5)
    X = _inputs(rng, 6, 2)
    for obs in (rng.standard_normal(6), rng.standard_normal((6, 2))):
        obs.flat[3] = bad
        with pytest.raises(ValueError, match="finite"):
            gp.Dataset.from_data(X, obs)
        with pytest.raises(ValueError, match="finite"):
            gp.fit(X, obs, _kernel(), 0.1, coreg=None if obs.ndim == 1 else np.eye(2))


@pytest.mark.parametrize("m", [2, 4], ids=["fewer-circles", "more-circles"])
def test_fit_rejects_a_kernel_on_another_torus(m):
    rng = np.random.default_rng(6)
    X = _inputs(rng, 10, 3)
    with pytest.raises(ValueError, match=f"T\\^{m} got inputs with 3 circles"):
        gp.fit(X, rng.standard_normal(10), kernel_from_family("hvm", m), 0.01)


@settings(max_examples=40, deadline=None)
@given(
    family=st.sampled_from(["hvm", "pvm", "pprd", "pse"]),
    d=st.sampled_from([0, 1, 3]),
    seed=st.integers(0, 2**32 - 1),
)
def test_model_save_load_roundtrip(tmp_path_factory, family, d, seed):
    """Every family, one output (d = 0, 1-D observations) or several: the
    reloaded model predicts bit for bit the same and saves the same bytes."""
    rng = np.random.default_rng(seed)
    n = 10
    X = _inputs(rng, n, 3)
    template = kernel_from_family(family, 3)
    kernel = template.with_theta(template.theta * rng.uniform(0.5, 2.0, template.theta.size))
    if d == 0:
        obs, noise, B = rng.standard_normal(n), rng.uniform(0.01, 0.1), None
    else:
        obs, noise = rng.standard_normal((n, d)), rng.uniform(0.01, 0.1, d)
        A = rng.standard_normal((d, d))
        B = A @ A.T + 0.5 * np.eye(d)
    model = gp.fit(X, obs, kernel, noise, coreg=B)
    path = tmp_path_factory.getbasetemp() / "roundtrip_model.json"
    again = path.with_name("roundtrip_model_again.json")
    gp.save_model(model, path)
    back = gp.load_model(path)
    T = _inputs(rng, 5, 3)
    a_mean, a_cov = gp.predict(model, T)
    b_mean, b_cov = gp.predict(back, T)
    assert np.array_equal(a_mean, b_mean)
    assert np.array_equal(a_cov, b_cov)
    gp.save_model(back, again)
    assert again.read_bytes() == path.read_bytes()


def test_load_model_rejects_foreign_file(tmp_path):
    path = tmp_path / "other.json"
    path.write_text('{"format": "something-else"}\n')
    with pytest.raises(ValueError):
        gp.load_model(path)


def test_single_output_kernel_families_all_fit():
    rng = np.random.default_rng(31)
    X = _inputs(rng, 12, 2)
    z = rng.standard_normal(12)
    for family in ("hvm", "pvm", "pprd", "pse"):
        kernel = kernel_from_family(family, 2)
        model = gp.fit(X, z, kernel, 0.05)
        post_mean, post_cov = gp.predict(model, X[:3])
        assert post_mean.shape == (3,)
        assert np.all(np.isfinite(post_mean))
        assert np.all(np.diag(post_cov) > -1e-12)


@pytest.mark.parametrize("d", [1, 3])
def test_multi_output_jitter_escalates_and_matches_the_jittered_dense_posterior(d):
    """Duplicated inputs with 1e-20 noise make some D <= 0 until the first jitter step.

    d = 1 is the single-output fit: 1-D observations, B = [[1]].
    """
    rng = np.random.default_rng(88)
    X = np.repeat(_inputs(rng, 10, 2), 3, axis=0)
    n = X.shape[0]
    kernel = _kernel()
    A = rng.standard_normal((d, d))
    B = A @ A.T + 0.5 * np.eye(d) if d > 1 else np.eye(1)
    noise = np.full(d, 1e-20)
    Kx = kernel.gram(X, X)
    z = np.linalg.cholesky(np.kron(B, Kx[::3, ::3]) + 1e-9 * np.eye(10 * d)) @ rng.standard_normal(10 * d)
    Z = np.repeat(z.reshape(d, 10).T, 3, axis=0) + 1e-6 * rng.standard_normal((n, d))
    with pytest.raises(gp.FactorizationError):
        gp.icm_factor(Kx, B, np.sqrt(noise))  # no jitter: some entry of D <= 0
    model = gp.fit(X, Z, kernel, noise, coreg=B) if d > 1 else gp.fit(X, Z[:, 0], kernel, noise)
    scale = float(np.mean(np.diag(gp.system_matrix(kernel, X, noise, B))))
    assert model.jitter_used == pytest.approx(gp.JITTER_START_FACTOR * scale, rel=1e-12)

    K = np.kron(B, Kx) + np.kron(np.diag(noise + model.jitter_used), np.eye(n))
    lu = lu_factor(K)
    T = _inputs(rng, 4, 2)
    Kc = np.kron(B, kernel.gram(T, X))
    alpha = lu_solve(lu, np.ravel(Z, order="F"))
    mean = Kc @ alpha
    cov = np.kron(B, kernel.gram(T, T)) - Kc @ lu_solve(lu, Kc.T)
    post_mean, post_cov = gp.predict(model, T)
    tol = 4.0 * np.linalg.cond(K) * np.finfo(float).eps
    model_alpha = np.ravel(model.A, order="F")
    assert np.max(np.abs(model_alpha - alpha)) <= tol * max(1.0, np.max(np.abs(alpha)))
    assert np.max(np.abs(post_mean - mean)) <= tol * max(1.0, np.max(np.abs(mean)))
    assert np.max(np.abs(post_cov - cov)) <= tol * max(1.0, np.max(np.abs(cov)))

    if d > 1:
        # The likelihood path scores with R + jitter_used, the R of the factor: at two
        # training inputs, where the jitter dominates the predictive covariance, and at
        # two fresh points. A particle at the origin with reference s at 5 u_s has
        # embedding u (to rounding).
        ll_model = tracking.GpRangeModel(model)
        origin = np.zeros((1, 2))
        for u in np.concatenate([X[:6:3], T[:2]]):
            e = aoa_embedding_batch(origin, 5.0 * u)
            Ke = np.kron(B, kernel.gram(e, X))
            mean_e = Ke @ alpha
            cov_e = np.kron(B, kernel.gram(e, e)) - Ke @ lu_solve(lu, Ke.T)
            cov_e += np.diag(noise + model.jitter_used)
            r = 1e-4 * rng.standard_normal(d)
            sign, logdet = np.linalg.slogdet(cov_e)
            assert sign > 0
            want = -0.5 * (r @ np.linalg.solve(cov_e, r) + logdet + d * np.log(2 * np.pi))
            z_e = mean_e + r
            got = ll_model.logpdf(origin, z_e, 5.0 * u)[0]
            assert abs(got - want) <= tol * max(1.0, abs(want)), (got, want)
        with pytest.raises(gp.FactorizationError, match="^hvm: "):
            gp.fit(X[::3], Z[::3, :2], kernel, np.full(2, 1e-20), coreg=np.diag([1.0, -0.5]))


def test_multi_output_alpha_is_as_accurate_as_a_dense_cholesky_solve():
    """The eigen-form alpha plus one residual correction, against a longdouble-refined solve."""
    rng = np.random.default_rng(3)
    n, d = 60, 3
    # clustered on a small patch of T^3, with little noise: cond(K) ~ 4e11
    ang = 1.0 + 0.3 * rng.uniform(0.0, 1.0, (n, 3))
    X = np.stack([np.cos(ang), np.sin(ang)], axis=-1)
    kernel = _kernel(3)
    A = rng.standard_normal((d, d))
    B = A @ A.T + 0.5 * np.eye(d)
    noise = np.array([1e-7, 2e-7, 1.5e-7])
    K = np.kron(B, kernel.gram(X, X)) + np.kron(np.diag(noise), np.eye(n))
    z = np.linalg.cholesky(K) @ rng.standard_normal(n * d)
    ref = np.linalg.solve(K, z).astype(np.longdouble)
    for _ in range(4):
        ref += np.linalg.solve(K, (z - K.astype(np.longdouble) @ ref).astype(float))
    model = gp.fit(X, z.reshape(d, n).T, kernel, noise, coreg=B)
    assert model.jitter_used == 0.0
    err = np.linalg.norm(np.ravel(model.A, order="F") - ref) / np.linalg.norm(ref)
    dense = cho_solve((np.linalg.cholesky(K), True), z)
    assert err <= np.linalg.norm(dense - ref) / np.linalg.norm(ref)


def test_dataset_refuses_an_observation_row_count_that_does_not_match():
    X = _inputs(np.random.default_rng(4), 5, 2)
    with pytest.raises(ValueError, match=r"^observations of shape \(4, 2\) do not match 5 inputs$"):
        gp.Dataset.from_data(X, np.zeros((4, 2)))
