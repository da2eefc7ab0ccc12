import gc
import os
import sys
import threading
import warnings
import weakref
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from kernel_oracles import dense_observation_logpdf, dense_observation_posterior, mp_icm_logpdf
from torusgp import gp, hyperopt, tracking
from torusgp.kernels import ExpLinearKernel, kernel_from_family
from torusgp.manifold import AOA_SINGULARITY_TOL, GeometryError, aoa_embedding_batch
from torusgp.simulator import ScenarioConfig, TrainingSet, build_training_set, measure_range, rng_for, trajectory

TOY = ScenarioConfig(grid=(6, 4), steps=40, seed=3)


@pytest.fixture(scope="module")
def toy_trainset():
    return build_training_set(TOY, rng_for(8, 0))


@pytest.fixture(scope="module")
def toy_gp_model(toy_trainset):
    ds = hyperopt.Dataset.from_data(toy_trainset.inputs, toy_trainset.obs)
    res = hyperopt.optimize(ds, "hvm", budget=40, restarts=1, seed=0)
    trained = gp.fit(toy_trainset.inputs, toy_trainset.obs, res.kernel, res.noise_var, coreg=res.coreg)
    return tracking.GpRangeModel(trained)


def test_particle_set_validates_weights():
    pos = np.zeros((4, 2))
    with pytest.raises(ValueError):
        tracking.ParticleSet(pos, np.array([0.5, 0.5, 0.5, 0.5]))
    with pytest.raises(ValueError):
        tracking.ParticleSet(pos, np.array([-0.5, 0.5, 0.5, 0.5]))
    ps = tracking.ParticleSet(pos, np.full(4, 0.25))
    assert ps.n == 4


def test_systematic_resample_count_brackets():
    """Each index is drawn either floor(N w) or ceil(N w) times."""
    rng = np.random.default_rng(0)
    for trial in range(50):
        w = rng.uniform(0, 1, 8)
        w /= w.sum()
        idx = tracking.systematic_resample(w, rng)
        counts = np.bincount(idx, minlength=8)
        expected = 8 * w
        assert np.all(counts >= np.floor(expected) - 1e-9)
        assert np.all(counts <= np.ceil(expected) + 1e-9)


def test_systematic_resample_unbiased():
    w = np.array([0.05, 0.1, 0.15, 0.3, 0.4])
    rng = np.random.default_rng(1)
    total = np.zeros(5)
    trials = 10000
    for _ in range(trials):
        total += np.bincount(tracking.systematic_resample(w, rng), minlength=5)
    freq = total / (trials * 5)
    # systematic resampling has at most multinomial variance per index
    bound = 3 * np.sqrt(w * (1 - w) / (trials * 5))
    assert np.all(np.abs(freq - w) <= bound)


def test_systematic_resample_deterministic_for_seed():
    w = np.full(10, 0.1)
    a = tracking.systematic_resample(w, rng_for(5, 0))
    b = tracking.systematic_resample(w, rng_for(5, 0))
    assert np.array_equal(a, b)


def test_gp_model_logpdf_matches_reference(toy_gp_model):
    """Batched per-particle scores against the dense per-point Gaussian density."""
    rng = np.random.default_rng(4)
    pos = rng.uniform(2, 28, (12, 2))
    z = np.array([14.0, 15.0, 13.0])
    got = toy_gp_model.logpdf(pos, z, TOY.references_array)
    emb = aoa_embedding_batch(pos, TOY.references_array)
    for i in range(12):
        want = dense_observation_logpdf(toy_gp_model.gp, emb[i : i + 1], z)
        assert got[i] == pytest.approx(want, abs=1e-6)


_FAMILY_THETAS = {
    "hvm": (1.3, 1.1, 0.7, 0.9, 0.2, 0.1, 0.15),
    "pvm": (1.3, 1.1, 0.7, 0.9),
    "pprd": (1.3, 0.9, 1.4, 1.1),
    "pse": (1.3, 1.2, 0.8, 1.5),
}


def test_particle_log_density_against_a_50_digit_reference():
    """logpdf and the dense oracle within 4 cond(K) eps of an mpmath evaluation, every family."""
    refs = TOY.references_array
    rng = np.random.default_rng(17)
    n, d, p = 20, 3, 6
    # training and test particles clustered on a 2 m patch, little noise: cond(K) >= 1e9
    pos = np.array([12.0, 11.0]) + 2.0 * rng.uniform(0.0, 1.0, (n + p, 2))
    E = aoa_embedding_batch(pos, refs)
    X, T = E[:n], E[n:]
    A = rng.standard_normal((d, d))
    B = A @ A.T + 0.5 * np.eye(d)
    sigma = np.array([3e-4, 5e-4, 4e-4])
    for family, theta in _FAMILY_THETAS.items():
        kernel = ExpLinearKernel(family, 3, theta)
        K_all = np.kron(B, kernel.gram(E, E)) + np.kron(np.diag(sigma**2), np.eye(n + p))
        Y = (np.linalg.cholesky(K_all) @ rng.standard_normal((n + p) * d)).reshape(d, n + p).T
        Z, zs = Y[:n], Y[n:]
        cond = np.linalg.cond(np.kron(B, kernel.gram(X, X)) + np.kron(np.diag(sigma**2), np.eye(n)))
        assert cond >= 1e9, family
        ref = mp_icm_logpdf(X, kernel, Z, B, sigma, T, zs)
        model = tracking.GpRangeModel(gp.fit(X, Z, kernel, sigma**2, coreg=B))
        tol = 4.0 * cond * np.finfo(float).eps
        for i in range(p):
            got = model.logpdf(pos[n + i : n + i + 1], zs[i], refs)[0]
            assert abs(got - ref[i]) <= tol * max(1.0, abs(ref[i])), (family, i, got, ref[i])
            got = dense_observation_logpdf(model.gp, T[i : i + 1], zs[i])
            assert abs(got - ref[i]) <= tol * max(1.0, abs(ref[i])), (family, i, got, ref[i])


@pytest.mark.parametrize("family", ["hvm", "pvm", "pprd", "pse"])
def test_gp_model_adds_the_noise_to_the_latent_marginals(family):
    """logpdf scores each particle under the diagonal block of predict plus R."""
    refs = TOY.references_array
    rng = np.random.default_rng(31)
    n, p, d = 16, 6, 3
    pos = rng.uniform(2, 28, (n + p, 2))
    E = aoa_embedding_batch(pos, refs)
    Z = rng.standard_normal((n, d))
    A = rng.standard_normal((d, d))
    B = A @ A.T + 0.3 * np.eye(d)
    noise = np.array([0.02, 0.05, 0.01])
    model = tracking.GpRangeModel(gp.fit(E[:n], Z, kernel_from_family(family, 3), noise, coreg=B))
    z = rng.standard_normal(d)
    got = model.logpdf(pos[n:], z, refs)
    for i in range(p):
        want = dense_observation_logpdf(model.gp, E[n + i : n + i + 1], z)
        assert abs(got[i] - want) <= 1e-10 * max(1.0, abs(want)), (i, got[i], want)


def test_gp_model_scores_an_indefinite_predictive_covariance_minus_inf():
    """A particle with some 1 + S v <= 0 (covariance not positive definite) scores -inf, never NaN.

    B = diag(1, -0.5) passes the fit, since every entry of D is positive, but
    the second output's predictive variance is negative near the training
    point; far from it the covariance is positive definite again.
    """
    refs = np.array([[5.0, 5.0], [25.0, 5.0]])
    kernel = ExpLinearKernel("hvm", 2, (np.sqrt(1.9) * np.exp(-5.0), 5.0, 5.0, 0.0))  # k(x, x) = 1.9
    X = aoa_embedding_batch(np.array([[15.0, 12.0]]), refs)
    model = gp.fit(X, np.zeros((1, 2)), kernel, np.array([0.1, 1.0]), coreg=np.diag([1.0, -0.5]))
    pos = np.array([[15.0, 12.0], [15.0, -10.0], [40.0, 5.0]])
    E = aoa_embedding_batch(pos, refs)
    q = 1.0 + model.factor.S * gp.eigen_moments(model, E)[1]
    assert np.min(q[0]) <= 0.0 and np.all(q[1:] > 0.0)
    assert np.linalg.eigvalsh(dense_observation_posterior(model, E[:1])[1])[0] < 0.0
    z = np.array([0.3, -0.2])
    ll = tracking.GpRangeModel(model).logpdf(pos, z, refs)
    assert ll[0] == -np.inf and not np.any(np.isnan(ll))
    for i in (1, 2):
        assert ll[i] == pytest.approx(dense_observation_logpdf(model, E[i : i + 1], z), rel=1e-10)


def test_gp_model_rejects_particles_on_references(toy_gp_model):
    refs = TOY.references_array
    near = refs[2] + [0.0, 0.5 * AOA_SINGULARITY_TOL]
    pos = np.vstack([refs[0], [10.0, 10.0], near])
    z = np.array([1.0, 2.0, 3.0])
    ll = toy_gp_model.logpdf(pos, z, refs)
    assert ll[0] == -np.inf
    assert np.isfinite(ll[1])
    assert ll[2] == -np.inf
    # a cloud with every particle on a reference scores all -inf, and a step on it
    # (no process noise, so the particles stay there) resets to uniform weights
    cloud = np.vstack([refs, near])
    assert np.all(toy_gp_model.logpdf(cloud, z, refs) == -np.inf)
    still = replace(TOY, process_cov=((0.0, 0.0), (0.0, 0.0)))
    out = tracking.step(tracking.ParticleSet(cloud, np.full(4, 0.25)), z, toy_gp_model, still, rng_for(5, 1))
    assert out.diverged and np.all(out.weights == 0.25)


def test_parametric_model_matches_scipy(toy_trainset):
    model = tracking.fit_parametric(toy_trainset, TOY.references_array)
    rng = np.random.default_rng(6)
    pos = rng.uniform(2, 28, (5, 2))
    z = np.array([12.0, 16.0, 14.0])
    got = model.logpdf(pos, z, TOY.references_array)
    from torusgp.simulator import range_function

    for i in range(5):
        mean = range_function(pos[i], TOY.references_array) + model.bias
        want = stats.multivariate_normal.logpdf(z, mean=mean, cov=model.cov)
        assert got[i] == pytest.approx(want, abs=1e-8)


def test_fit_parametric_recovers_offset(toy_trainset):
    from torusgp.simulator import range_function

    model = tracking.fit_parametric(toy_trainset, TOY.references_array)
    h = range_function(toy_trainset.positions, TOY.references_array)
    # residual bias should be about 5% of the mean range in each channel
    assert np.allclose(model.bias, 0.05 * h.mean(axis=0), atol=0.02)


def test_parametric_file_roundtrip(tmp_path, toy_trainset):
    model = tracking.fit_parametric(toy_trainset, TOY.references_array)
    path = tmp_path / "par.json"
    tracking.save_parametric(model, path)
    back = tracking.load_range_model(path)
    assert isinstance(back, tracking.ParametricRangeModel)
    assert np.array_equal(model.bias, back.bias)
    assert np.array_equal(model.cov, back.cov)


@pytest.mark.parametrize("field", ["bias", "cov"])
def test_parametric_model_refuses_non_finite_values(field):
    parts = {"bias": np.zeros(3), "cov": np.eye(3)}
    parts[field][1] = np.nan
    with pytest.raises(ValueError, match="finite"):
        tracking.ParametricRangeModel(**parts)


@pytest.mark.parametrize(
    "bias, cov, text",
    [
        (np.zeros(3), np.eye(2), r"got \(3,\) and \(2, 2\)"),
        (np.zeros((1, 3)), np.eye(3), r"got \(1, 3\) and \(3, 3\)"),
        (np.zeros(3), np.eye(3) + 5.0 * np.eye(3, k=1), "symmetric"),
    ],
    ids=["cov-too-small", "bias-not-1d", "asymmetric"],
)
def test_parametric_model_validates_shapes_and_symmetry(bias, cov, text):
    with pytest.raises(ValueError, match=text):
        tracking.ParametricRangeModel(bias, cov)


class _FixedModel:
    """Scores the i-th particle ll[i], wherever it is."""

    def __init__(self, ll):
        self.ll = np.asarray(ll, dtype=float)

    def logpdf(self, positions, z, references):
        return self.ll


def test_step_divergence_resets_to_uniform():
    """No finite log weight, or a NaN or +inf one among finite ones, resets the cloud."""
    particles = tracking.ParticleSet(np.full((20, 2), 10.0), np.full(20, 0.05))
    for ll in (np.full(20, -np.inf), np.r_[np.zeros(19), np.nan], np.r_[np.zeros(19), np.inf]):
        out = tracking.step(particles, np.ones(3), _FixedModel(ll), TOY, rng_for(1, 0))
        assert out.diverged
        assert np.allclose(out.weights, 0.05)


def test_step_takes_its_constants_from_the_config_once(toy_trainset):
    """step matches, bit for bit, an update that rebuilds every constant from
    the config's tuples on every step; the config computes each once, read-only."""
    cfg = TOY.with_(seed=4)
    assert not cfg.references_array.flags.writeable
    assert np.array_equal(cfg.references_array, np.asarray(cfg.references, dtype=float))
    assert not cfg.process_noise_root.flags.writeable
    assert cfg.process_noise_root is cfg.process_noise_root
    model = tracking.fit_parametric(toy_trainset, TOY.references_array)
    truth = trajectory(cfg).positions[:8]
    rng_a, rng_b = rng_for(4, 0), rng_for(4, 0)
    a = b = tracking.ParticleSet(truth[0] + rng_for(4, 2).standard_normal((30, 2)), np.full(30, 1 / 30))
    for z in measure_range(truth[1:], cfg, rng_for(4, 1)):
        a = tracking.step(a, z, model, cfg, rng_a)
        w, V = np.linalg.eigh(np.asarray(cfg.process_cov, dtype=float))
        prop = b.positions + rng_b.standard_normal(b.positions.shape) @ ((V * np.sqrt(np.clip(w, 0.0, None))) @ V.T).T
        logw = np.log(b.weights) + model.logpdf(prop, z, np.asarray(cfg.references, dtype=float))
        w = np.exp(logw - np.max(logw))
        idx = tracking.systematic_resample(w / float(np.sum(w)), rng_b)
        b = tracking.ParticleSet(prop[idx], np.full(30, 1 / 30))
        assert np.array_equal(a.positions, b.positions)


def test_step_resamples_every_step(toy_gp_model):
    rng = rng_for(2, 0)
    particles = tracking.ParticleSet(
        np.array([[14.0, 6.0]]) + rng.standard_normal((50, 2)), np.full(50, 0.02)
    )
    z = 1.05 * np.linalg.norm(TOY.references_array - np.array([14.0, 6.0]), axis=1)
    out = tracking.step(particles, z, toy_gp_model, TOY, rng)
    assert np.allclose(out.weights, 1.0 / 50)
    assert not out.diverged


def test_run_tracking_reproducible(toy_gp_model):
    traj = trajectory(TOY)
    a = tracking.run_tracking(TOY, "HvM", toy_gp_model, seed=12, traj=traj)
    b = tracking.run_tracking(TOY, "HvM", toy_gp_model, seed=12, traj=traj)
    assert np.array_equal(a.estimates, b.estimates)
    assert a.rmse == b.rmse
    assert a.ape.shape == (TOY.steps,)
    assert a.rmse == pytest.approx(float(np.sqrt(np.mean(a.ape**2))))
    c = tracking.run_tracking(TOY, "HvM", toy_gp_model, seed=13, traj=traj)
    assert not np.array_equal(a.estimates, c.estimates)
    # without traj the run draws the configured trajectory itself
    d = tracking.run_tracking(TOY, "HvM", toy_gp_model, seed=12)
    assert np.array_equal(a.estimates, d.estimates) and np.array_equal(a.ape, d.ape) and a.rmse == d.rmse


def test_train_method_rejects_unknown(toy_trainset):
    with pytest.raises(ValueError):
        tracking.train_method(toy_trainset, "Kalman", TOY.references_array)


def test_train_method_parametric_has_no_gp(toy_trainset):
    tm = tracking.train_method(toy_trainset, "Parametric", TOY.references_array)
    assert tm.gp is None and tm.opt is None
    assert isinstance(tm.model, tracking.ParametricRangeModel)


def test_training_grid_on_a_reference_is_rejected():
    # a 5x3 grid over 30x30 has a cell center exactly on reference (15, 25)
    cfg = ScenarioConfig(grid=(5, 3), seed=0)
    with pytest.raises(ValueError, match="reference"):
        build_training_set(cfg)


def test_campaign_rows_and_determinism():
    cfg = ScenarioConfig(grid=(5, 4), steps=30, seed=0)
    kwargs = dict(
        methods=("HvM", "Parametric"),
        trajectories=("T1",),
        noise_levels=(0.01,),
        runs=2,
        seed=21,
        opt_budget=25,
        opt_restarts=1,
    )
    rows1, trained = tracking.campaign(cfg, **kwargs)
    rows2, _ = tracking.campaign(cfg, **kwargs)
    assert rows1 == rows2
    assert len(rows1) == 2 * 2  # methods x runs
    assert (0, "HvM") in trained and (0, "Parametric") in trained
    # paired design: both methods see the same per-run seed
    seeds = {}
    for row in rows1:
        seeds.setdefault(row["seed"], set()).add(row["method"])
    for methods_seen in seeds.values():
        assert methods_seen == {"HvM", "Parametric"}


def test_campaign_refuses_a_trajectory_before_any_training(monkeypatch):
    """A trajectory that leaves the arena fails before a single method is trained."""
    calls = []
    monkeypatch.setattr(tracking, "train_method", lambda *args, **kwargs: calls.append(args))
    cfg = ScenarioConfig(arena=(20.0, 20.0), references=((5.0, 5.0), (15.0, 5.0), (10.0, 15.0)))
    with pytest.raises(GeometryError, match="T1 leaves the arena"):
        tracking.campaign(cfg, methods=("Parametric",), noise_levels=(0.01, 0.02), runs=1)
    assert calls == []


@pytest.mark.parametrize(
    "grid, message",
    [
        (dict(methods=("Parametric", "Parametric")), "methods"),
        (dict(methods=()), "methods"),
        (dict(trajectories=()), "trajectories"),
        (dict(trajectories=("T2", "T2")), "trajectories"),
        (dict(noise_levels=()), "noise_levels"),
        (dict(noise_levels=(0.01, 0.01)), "noise_levels"),
        (dict(noise_levels=(0.01, -0.01)), "noise_xi"),
        (dict(runs=0), "runs"),
        (dict(methods=("Parametric", "GP")), "^unknown method 'GP'; choose from "),
    ],
    ids=["methods-repeated", "methods-empty", "trajectories-empty", "trajectories-repeated",
         "noise_levels-empty", "noise_levels-repeated", "noise_level-negative", "no-runs",
         "methods-unknown"],
)
def test_campaign_refuses_a_grid_with_no_useful_row_before_any_work(monkeypatch, grid, message):
    """An empty or repeated list, an unknown method, no runs or a bad noise level
    is refused before any trajectory is built or any method trained."""

    def no_work(*args, **kwargs):
        raise AssertionError("the campaign started work")

    monkeypatch.setattr(tracking, "trajectory", no_work)
    monkeypatch.setattr(tracking, "train_method", no_work)
    cfg = ScenarioConfig(grid=(4, 3), steps=10, seed=0)
    with pytest.raises(ValueError, match=message):
        tracking.campaign(cfg, **{"methods": ("Parametric",), "runs": 1, **grid})


def test_serial_campaign_releases_its_models_when_a_run_fails(monkeypatch):
    """Once the exception is dropped, nothing holds the trained models."""
    models = []
    train = tracking.train_method

    def spied_train(*args, **kwargs):
        tm = train(*args, **kwargs)
        models.append(weakref.ref(tm.model))
        return tm

    def broken_run(*args, **kwargs):
        raise RuntimeError("filter failed")

    monkeypatch.setattr(tracking, "train_method", spied_train)
    monkeypatch.setattr(tracking, "run_tracking", broken_run)
    cfg = ScenarioConfig(grid=(5, 4), steps=10, seed=0)
    with pytest.raises(RuntimeError, match="filter failed"):
        tracking.campaign(cfg, methods=("Parametric",), runs=1)
    assert tracking._WORKER == {}
    gc.collect()
    assert len(models) == 1 and models[0]() is None


def test_serial_campaign_leaves_the_pool_worker_state_alone(monkeypatch):
    """tracking._WORKER is a pool worker's copy: it stays empty while a serial campaign's rows run."""
    seen = []
    run = tracking.run_tracking

    def watched_run(*args, **kwargs):
        seen.append(dict(tracking._WORKER))
        return run(*args, **kwargs)

    monkeypatch.setattr(tracking, "run_tracking", watched_run)
    cfg = ScenarioConfig(grid=(5, 4), steps=10, seed=0)
    rows, _ = tracking.campaign(cfg, methods=("Parametric",), runs=3)
    assert len(rows) == len(seen) == 3 and seen == [{}, {}, {}]


def test_serial_campaigns_in_two_threads_each_return_their_solo_rows():
    """Two serial campaigns at once, with different noise levels and seeds,
    each return exactly the rows it returns when run alone."""
    cfg = ScenarioConfig(grid=(5, 4), steps=20, seed=0)
    setups = [dict(noise_levels=(0.01,), seed=5), dict(noise_levels=(0.05,), seed=6)]

    def run(setup, barrier=None):
        if barrier is not None:
            barrier.wait(timeout=60)
        return tracking.campaign(cfg, methods=("Parametric",), runs=30, jobs=1, **setup)[0]

    solo = [run(setup) for setup in setups]
    assert solo[0] != solo[1]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)
    try:
        for trial in range(4):
            barrier = threading.Barrier(len(setups))
            with ThreadPoolExecutor(len(setups)) as ex:
                futures = [ex.submit(run, setup, barrier) for setup in setups]
                assert [f.result(timeout=120) for f in futures] == solo, trial
    finally:
        sys.setswitchinterval(interval)


def test_campaign_parallel_matches_serial():
    cfg = ScenarioConfig(grid=(5, 4), steps=25, seed=0)
    kwargs = dict(
        methods=("PPRD", "Parametric"),
        trajectories=("T1",),
        noise_levels=(0.01,),
        runs=2,
        seed=33,
        opt_budget=20,
        opt_restarts=1,
    )
    serial, _ = tracking.campaign(cfg, jobs=1, **kwargs)
    parallel, _ = tracking.campaign(cfg, jobs=2, **kwargs)
    assert serial == parallel


POOL_CAMPAIGN = dict(methods=("HvM", "PvM", "Parametric"), runs=1, seed=33, opt_budget=20, opt_restarts=2)


def _recording_train_method(monkeypatch, fail=None):
    """Replace train_method by a stand-in that records the method and thread
    of each call and raises fail[1] for method fail[0]. Returns the records."""
    train, ran = tracking.train_method, []

    def recording(ts, method, *args, **kwargs):
        ran.append((method, threading.get_ident()))
        if fail is not None and method == fail[0]:
            raise fail[1]
        return train(ts, method, *args, **kwargs)

    monkeypatch.setattr(tracking, "train_method", recording)
    return ran


@pytest.mark.parametrize("cpus", [1, 2])
def test_campaign_fits_do_not_depend_on_the_thread_count(monkeypatch, cpus):
    """The fits run on min(fits, usable CPUs) worker threads, never on the
    caller, and the campaign equals the one-thread campaign bit for bit;
    every worker is joined before the campaign returns."""
    cfg = ScenarioConfig(grid=(5, 4), steps=20, seed=0)
    monkeypatch.setattr(tracking, "_usable_cpus", lambda: 1)
    serial_rows, serial = tracking.campaign(cfg, **POOL_CAMPAIGN)
    monkeypatch.setattr(tracking, "_usable_cpus", lambda: cpus)
    ran = _recording_train_method(monkeypatch)
    before = threading.active_count()
    rows, trained = tracking.campaign(cfg, **POOL_CAMPAIGN)
    assert threading.active_count() == before
    assert sorted(method for method, _ in ran) == sorted(POOL_CAMPAIGN["methods"])
    threads = {ident for _, ident in ran}
    assert threading.get_ident() not in threads and len(threads) <= cpus
    assert rows == serial_rows
    assert list(trained) == list(serial) == [(0, method) for method in POOL_CAMPAIGN["methods"]]
    for key, tm in trained.items():
        if tm.opt is None:
            assert tm.model.cov.tobytes() == serial[key].model.cov.tobytes()
            continue
        assert tm.opt.theta_vector().tobytes() == serial[key].opt.theta_vector().tobytes(), key
        assert tm.opt.trace == serial[key].opt.trace and tm.opt.restart == serial[key].opt.restart, key


@pytest.mark.parametrize(
    "error",
    [gp.FactorizationError("pvm: broke"), RuntimeError("pvm: broke")],
    ids=["FactorizationError", "RuntimeError"],
)
def test_an_exception_in_a_pooled_fit_reaches_the_caller_typed(monkeypatch, error):
    """A fit that raises on a worker thread raises the same exception, type
    and message, from the campaign, and every worker is joined first."""
    monkeypatch.setattr(tracking, "_usable_cpus", lambda: 2)
    ran = _recording_train_method(monkeypatch, fail=("PvM", error))
    before = threading.active_count()
    cfg = ScenarioConfig(grid=(5, 4), steps=20, seed=0)
    with pytest.raises(type(error), match="^pvm: broke$"):
        tracking.campaign(cfg, **POOL_CAMPAIGN)
    assert threading.active_count() == before
    assert ("PvM", threading.get_ident()) not in ran and "PvM" in [method for method, _ in ran]


def test_usable_cpus_falls_back_to_the_cpu_count_without_an_affinity_api(monkeypatch):
    """Where os has no sched_getaffinity (macOS, Windows), the CPU count
    bounds the fit threads, and 1 when the count is unknown."""
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert tracking._usable_cpus() == 3
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert tracking._usable_cpus() == 1


def _recording_row_pool(monkeypatch):
    """Replace the campaign's process pool by one that records its
    max_workers and the threads alive when it is made. Returns the records."""
    made = []

    class Recording(ProcessPoolExecutor):
        def __init__(self, max_workers, **kwargs):
            made.append((max_workers, threading.active_count()))
            super().__init__(max_workers, **kwargs)

    monkeypatch.setattr(tracking, "ProcessPoolExecutor", Recording)
    return made


def test_the_row_pool_starts_no_more_workers_than_rows(monkeypatch):
    """jobs=8 on a campaign of 2 rows makes a pool of 2 processes, not 8."""
    made = _recording_row_pool(monkeypatch)
    cfg = ScenarioConfig(grid=(5, 4), steps=20, seed=0)
    rows, _ = tracking.campaign(cfg, methods=("Parametric",), runs=2, jobs=8)
    assert len(rows) == 2 and [workers for workers, _ in made] == [2]


def test_no_fit_thread_is_alive_when_the_rows_fork(monkeypatch):
    """The fit threads are joined before the row pool forks: a jobs=2
    campaign raises no DeprecationWarning (Python 3.12 warns when a
    multi-threaded process forks), and the pool is made with no thread
    alive beside the caller's."""
    made = _recording_row_pool(monkeypatch)
    monkeypatch.setattr(tracking, "_usable_cpus", lambda: 2)
    before = threading.active_count()
    cfg = ScenarioConfig(grid=(5, 4), steps=20, seed=0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        rows, _ = tracking.campaign(cfg, **{**POOL_CAMPAIGN, "runs": 2}, jobs=2)
    assert len(rows) == 6 and made == [(2, before)]


def test_campaign_csv_format(tmp_path):
    rows = [
        {
            "method": "HvM",
            "trajectory": "T1",
            "noise_level": 0.01,
            "seed": 42,
            "rmse": 0.125,
            "diverged": 0,
        }
    ]
    path = tmp_path / "campaign.csv"
    tracking.write_campaign_csv(rows, path)
    assert path.read_bytes() == (
        b"method,trajectory,noise_level,seed,rmse,diverged\n" b"HvM,T1,0.01,42,0.125,0\n"
    )


@pytest.mark.parametrize(
    "positions, weights, message",
    [
        (np.zeros((4, 3)), np.full(4, 0.25), r"^positions must be \(N, 2\)$"),
        (np.zeros((4, 2)), np.full(3, 1.0 / 3.0), "^one weight per particle$"),
    ],
    ids=["positions", "weights"],
)
def test_particle_set_refuses_bad_shapes(positions, weights, message):
    with pytest.raises(ValueError, match=message):
        tracking.ParticleSet(positions, weights)


def test_gp_range_model_refuses_a_one_output_model(toy_trainset):
    one = gp.fit(toy_trainset.inputs, toy_trainset.obs[:, 0], kernel_from_family("hvm", 3), 0.01)
    with pytest.raises(ValueError, match="^tracking needs a multi-output range model$"):
        tracking.GpRangeModel(one)


def test_fit_parametric_refuses_residuals_whose_statistics_overflow(toy_trainset):
    """Ranges near 1e200 overflow the residual covariance: a typed numerical
    failure naming the model, with no RuntimeWarning."""
    big = replace(toy_trainset, obs=toy_trainset.obs * (1e200 / np.max(toy_trainset.obs)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(gp.FactorizationError, match="^parametric residual: "):
            tracking.fit_parametric(big, TOY.references_array)


def test_fit_parametric_refuses_one_training_row(toy_trainset):
    """One row has no residual covariance: a typed numerical failure saying
    so, raised before numpy divides by zero degrees of freedom."""
    one = TrainingSet(toy_trainset.positions[:1], toy_trainset.inputs[:1], toy_trainset.obs[:1])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(gp.FactorizationError, match="^parametric residual: .*2 or more training rows"):
            tracking.fit_parametric(one, TOY.references_array)
