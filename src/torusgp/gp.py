"""Exact Gaussian process regression, single and multi-output.

Observations get a zero prior mean and are used raw. The single-output system
matrix is K = Kxx + sigma_r^2 I. Multi-output regression couples d outputs
through a PSD mixing matrix B (intrinsic coregionalization):

    K = B kron Kxx + R kron I_n,    R = diag(sigma_r1^2, ..., sigma_rd^2),

with observations vectorized output-major: z = (z^1_1..z^1_n, z^2_1.., ...),
so block (i, j) of K holds B_ij * Kxx. At a test point the cross-covariance
row is B kron k_row and the prior block is k(x, x) * B; predictions over t
test points keep the same output-major layout with length t*d.

All solves go through one cached triangular factorization, obtained with an
escalating-jitter policy (zero first, then 1e-9 * mean(diag K) growing
tenfold up to 1e-3 * mean(diag K)).
"""

import json
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_solve, solve_triangular

from . import kernels
from .manifold import as_input_array

__all__ = [
    "FactorizationError",
    "PosteriorGaussian",
    "TrainedGp",
    "fit",
    "predict",
    "predict_observation",
    "log_likelihood",
    "save_model",
    "load_model",
]

JITTER_START_FACTOR = 1e-9
JITTER_MAX_FACTOR = 1e-3


class FactorizationError(np.linalg.LinAlgError):
    """Raised when the system matrix is not positive definite under the jitter policy."""


@dataclass
class PosteriorGaussian:
    """A finite-dimensional Gaussian: mean vector and symmetric covariance."""

    mean: np.ndarray
    cov: np.ndarray


@dataclass
class TrainedGp:
    """A fitted GP: data, kernel, noise, and the cached factorization.

    noise_var is a scalar variance (single output) or a (d,) vector of
    per-output variances; coreg is the (d, d) mixing matrix or None.
    alpha caches K^-1 z for the stored output-major observation vector.
    """

    kernel: object
    inputs: np.ndarray
    obs: np.ndarray
    noise_var: object
    coreg: np.ndarray | None
    chol: np.ndarray
    alpha: np.ndarray
    jitter_used: float

    @property
    def n(self) -> int:
        return self.inputs.shape[0]

    @property
    def m(self) -> int:
        return self.inputs.shape[1]

    @property
    def d(self) -> int:
        return 1 if self.obs.ndim == 1 else self.obs.shape[1]

    @property
    def multi_output(self) -> bool:
        return self.obs.ndim == 2

    @property
    def zvec(self) -> np.ndarray:
        """Observations as a flat vector, output-major for multi-output."""
        return self.obs if self.obs.ndim == 1 else np.ravel(self.obs, order="F")


def cholesky_with_jitter(K: np.ndarray, label: str = "kernel"):
    """Lower-triangular factor of K (+ jitter * I) under the escalating policy.

    Tries jitter 0 first, then 1e-9 * mean(diag K) escalating tenfold until
    1e-3 * mean(diag K). Returns (L, jitter_used); raises FactorizationError
    naming the kernel and the smallest pivot once the ceiling is passed.
    """
    scale = float(np.mean(np.diag(K)))
    jitters = [0.0] + [
        JITTER_START_FACTOR * scale * 10.0**k
        for k in range(int(np.log10(JITTER_MAX_FACTOR / JITTER_START_FACTOR)) + 1)
    ]
    for jitter in jitters:
        K_j = K
        if jitter > 0.0:
            K_j = K.copy()
            K_j.flat[:: K.shape[0] + 1] += jitter
        try:
            return np.linalg.cholesky(K_j), jitter
        except np.linalg.LinAlgError:
            continue
    min_pivot = float(np.linalg.eigvalsh(K)[0])
    raise FactorizationError(
        f"{label}: system matrix not positive definite; smallest pivot "
        f"{min_pivot:.6e} even after jitter {jitters[-1]:.6e} "
        f"(ceiling {JITTER_MAX_FACTOR:.0e} * mean diag {scale:.6e})"
    )


def system_matrix(kernel, X: np.ndarray, noise_var, coreg: np.ndarray | None) -> np.ndarray:
    """Assemble the full training covariance including observation noise."""
    K = kernel.gram(X, X)
    n = X.shape[0]
    if coreg is not None:
        K = np.kron(coreg, K)
    K.flat[:: K.shape[0] + 1] += np.repeat(np.asarray(noise_var, dtype=float), n)
    return K


def fit(inputs, obs, kernel, noise_var, coreg=None) -> TrainedGp:
    """Condition a GP on training data.

    Parameters
    ----------
    inputs : (n, m, 2) array or sequence of TorusPoint
    obs : (n,) array for a single output, (n, d) for d outputs
    kernel : a kernel object from torusgp.kernels
    noise_var : scalar observation-noise variance, or (d,) vector (one per
        output) in the multi-output case; all entries must be positive
    coreg : (d, d) PSD mixing matrix, required iff obs is 2-d

    Returns
    -------
    TrainedGp with the cached factorization and alpha = K^-1 z.
    """
    X = as_input_array(inputs)
    Y = np.asarray(obs, dtype=float)
    if Y.shape[0] != X.shape[0]:
        raise ValueError(f"{X.shape[0]} inputs but {Y.shape[0]} observation rows")
    if Y.ndim == 1:
        if coreg is not None:
            raise ValueError("coreg given but observations are single-output")
        noise_var = float(noise_var)
        if not noise_var > 0.0:
            raise ValueError("noise variance must be positive")
    elif Y.ndim == 2:
        d = Y.shape[1]
        if coreg is None:
            raise ValueError("multi-output observations need a coreg matrix")
        coreg = np.asarray(coreg, dtype=float)
        if coreg.shape != (d, d):
            raise ValueError(f"coreg must be ({d}, {d}), got {coreg.shape}")
        if not np.allclose(coreg, coreg.T, atol=1e-10):
            raise ValueError("coreg must be symmetric")
        noise_var = np.asarray(noise_var, dtype=float) * np.ones(d)
        if not np.all(noise_var > 0.0):
            raise ValueError("noise variances must be positive")
    else:
        raise ValueError("obs must be 1-d or 2-d")
    K = system_matrix(kernel, X, noise_var, coreg)
    L, jitter = cholesky_with_jitter(K, label=kernel.family)
    z = Y if Y.ndim == 1 else np.ravel(Y, order="F")
    alpha = cho_solve((L, True), z)
    return TrainedGp(
        kernel=kernel,
        inputs=X,
        obs=Y,
        noise_var=noise_var,
        coreg=coreg,
        chol=L,
        alpha=alpha,
        jitter_used=jitter,
    )


def _cross_and_prior(gp: TrainedGp, T: np.ndarray):
    Ktn = gp.kernel.gram(T, gp.inputs)
    Ktt = gp.kernel.gram(T, T)
    if not gp.multi_output:
        return Ktn, Ktt
    return np.kron(gp.coreg, Ktn), np.kron(gp.coreg, Ktt)


def predict(gp: TrainedGp, tests) -> PosteriorGaussian:
    """Joint posterior of the latent function at the test points.

    Single output: mean (t,), cov (t, t). Multi-output: mean (t*d,) and cov
    (t*d, t*d) in output-major order; for a single test point that is the
    length-d mean and (d, d) covariance.
    """
    T = as_input_array(tests, m=gp.m)
    Kc, Kp = _cross_and_prior(gp, T)
    mean = Kc @ gp.alpha
    V = cho_solve((gp.chol, True), Kc.T)
    cov = Kp - Kc @ V
    return PosteriorGaussian(mean=mean, cov=0.5 * (cov + cov.T))


def predict_observation(gp: TrainedGp, tests) -> PosteriorGaussian:
    """Posterior of noisy observations at the test points (adds the noise)."""
    post = predict(gp, tests)
    T = as_input_array(tests, m=gp.m)
    t = T.shape[0]
    if not gp.multi_output:
        noise = float(gp.noise_var) * np.eye(t)
    else:
        noise = np.kron(np.diag(gp.noise_var), np.eye(t))
    return PosteriorGaussian(mean=post.mean, cov=post.cov + noise)


def log_likelihood(gp: TrainedGp, point, z) -> float:
    """Log density of an observation vector z at a single test point."""
    post = predict_observation(gp, point)
    z = np.atleast_1d(np.asarray(z, dtype=float))
    if z.shape != post.mean.shape:
        raise ValueError(f"observation has shape {z.shape}, expected {post.mean.shape}")
    L, _ = cholesky_with_jitter(post.cov, label="predictive covariance")
    r = solve_triangular(L, z - post.mean, lower=True)
    logdet = 2.0 * float(np.sum(np.log(np.diag(L))))
    return float(-0.5 * (r @ r + logdet + z.size * np.log(2.0 * np.pi)))


# ---------------------------------------------------------------------------
# Serialization: structured text, full float precision, exact round trip.
# ---------------------------------------------------------------------------

_MODEL_FORMAT = "torusgp-model"
_MODEL_VERSION = 1


def _kernel_to_dict(kernel) -> dict:
    # omega as a number, every other coordinate group (lam, corr, ell) as a list
    params = {"omega": float(kernel.theta[0])}
    for name, value in zip(kernel.theta_names[1:], kernel.theta[1:].tolist()):
        params.setdefault(name.split("_")[0], []).append(value)
    return {"family": kernel.family, "m": kernel.m, "params": params}


def _kernel_from_dict(doc: dict):
    template = kernels.kernel_from_family(doc["family"], doc["m"])
    groups = dict.fromkeys(name.split("_")[0] for name in template.theta_names[1:])
    p = doc["params"]
    return template.with_theta([p["omega"]] + [x for g in groups for x in p[g]])


def save_model(gp: TrainedGp, path) -> None:
    """Write a fitted model to a structured text file (JSON).

    The file carries kernel family and hyperparameters, training inputs,
    observations, noise, and the mixing matrix; floats keep full precision so
    a reload reproduces predictions exactly.
    """
    doc = {
        "format": _MODEL_FORMAT,
        "version": _MODEL_VERSION,
        "kernel": _kernel_to_dict(gp.kernel),
        "noise_var": (
            float(gp.noise_var) if not gp.multi_output else np.asarray(gp.noise_var).tolist()
        ),
        "coreg": None if gp.coreg is None else gp.coreg.tolist(),
        "inputs": gp.inputs.tolist(),
        "obs": gp.obs.tolist(),
    }
    with open(path, "w") as fh:
        json.dump(doc, fh)
        fh.write("\n")


def load_model(path) -> TrainedGp:
    """Load a model file written by save_model and refit the factorization."""
    with open(path) as fh:
        doc = json.load(fh)
    if doc.get("format") != _MODEL_FORMAT:
        raise ValueError(f"{path}: not a {_MODEL_FORMAT} file")
    kernel = _kernel_from_dict(doc["kernel"])
    coreg = None if doc["coreg"] is None else np.asarray(doc["coreg"], dtype=float)
    return fit(
        np.asarray(doc["inputs"], dtype=float),
        np.asarray(doc["obs"], dtype=float),
        kernel,
        doc["noise_var"],
        coreg=coreg,
    )
