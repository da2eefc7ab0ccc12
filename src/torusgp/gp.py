"""Exact Gaussian process regression, single and multi-output.

Observations get a zero prior mean and are used raw. The single-output system
matrix is K = Kxx + sigma_r^2 I, factored by Cholesky. Multi-output regression
couples d outputs through a PSD mixing matrix B (intrinsic coregionalization):

    K = B kron Kxx + R kron I_n,    R = diag(sigma_r1^2, ..., sigma_rd^2),

with observations vectorized output-major, z = vec(Z) for the n x d matrix Z,
so block (i, j) of K holds B_ij * Kxx; predictions over t test points keep
the same layout with length t*d. K has the exact Kronecker-eigen factor
IcmFactor (Bonilla et al. 2008; Rakitsch et al. 2013): with
Kxx = U diag(lam) U^T, R^-1/2 B R^-1/2 = Q diag(S) Q^T, P = R^-1/2 Q and the
n x d matrix D = lam S^T + 1, K^-1 = (P kron U) diag(vec D)^-1 (P kron U)^T,
and K is positive definite exactly when every entry of D is. fit, predict,
the filter's per-point moments and torusgp.hyperopt all use this factor.

Both factorizations follow one escalating-jitter policy: zero first, then
1e-9 * mean(diag K) growing tenfold up to 1e-3 * mean(diag K). For ICM,
K + eps I = B kron Kxx + (R + eps I) kron I, so a step redoes only the d x d
eigh.
"""

import json
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_solve

from . import kernels
from .manifold import as_input_array

__all__ = [
    "Dataset",
    "FactorizationError",
    "IcmFactor",
    "PosteriorGaussian",
    "TrainedGp",
    "icm_factor",
    "fit",
    "predict",
    "observation_moments",
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
class IcmFactor:
    """Kronecker-eigen factor of an ICM system (names as in the module docstring).

    G = B P and Dinv = 1 / D are the per-model constants of predict and
    observation_moments.
    """

    U: np.ndarray
    lam: np.ndarray
    Q: np.ndarray
    S: np.ndarray
    P: np.ndarray
    D: np.ndarray
    G: np.ndarray
    Dinv: np.ndarray

    def solve(self, Z: np.ndarray) -> np.ndarray:
        """The n x d matrix A with vec(A) = K^-1 vec(Z)."""
        return self.U @ ((self.U.T @ Z @ self.P) / self.D) @ self.P.T


@dataclass
class Dataset:
    """Training data: embedded inputs and raw observations (output-major zvec)."""

    inputs: np.ndarray
    obs: np.ndarray

    @classmethod
    def from_data(cls, inputs, obs) -> "Dataset":
        X = as_input_array(inputs)
        Y = np.asarray(obs, dtype=float)
        if Y.ndim not in (1, 2) or Y.shape[0] != X.shape[0]:
            raise ValueError(f"observations of shape {Y.shape} do not match {X.shape[0]} inputs")
        return cls(X, Y)

    @property
    def n(self) -> int:
        return self.inputs.shape[0]

    @property
    def m(self) -> int:
        return self.inputs.shape[1]

    @property
    def multi_output(self) -> bool:
        return self.obs.ndim == 2

    @property
    def d(self) -> int:
        return 1 if self.obs.ndim == 1 else self.obs.shape[1]

    @property
    def zvec(self) -> np.ndarray:
        return self.obs if self.obs.ndim == 1 else np.ravel(self.obs, order="F")


@dataclass
class TrainedGp(Dataset):
    """A fitted GP: data, kernel, noise, and the cached factorization.

    noise_var is a scalar variance (single output) or a (d,) vector of
    per-output variances; coreg is the (d, d) mixing matrix or None. chol
    factors K + jitter_used * I: lower Cholesky factor for one output,
    IcmFactor for several. alpha caches (K + jitter_used * I)^-1 zvec. With
    several outputs, Alpha is alpha as the n x d matrix and prior_cov is
    k(x, x) B, the latent covariance at any single point; both are None for
    one output. lifted is kernel.lift(inputs).
    """

    kernel: object
    noise_var: object
    coreg: np.ndarray | None
    chol: np.ndarray | IcmFactor
    alpha: np.ndarray
    jitter_used: float
    lifted: np.ndarray
    Alpha: np.ndarray | None
    prior_cov: np.ndarray | None


def _jitters(scale: float) -> list:
    """The jitter policy for a system matrix whose mean diagonal is scale."""
    steps = int(np.log10(JITTER_MAX_FACTOR / JITTER_START_FACTOR)) + 1
    return [0.0] + [JITTER_START_FACTOR * scale * 10.0**k for k in range(steps)]


def cholesky_with_jitter(K: np.ndarray, label: str = "kernel"):
    """Lower-triangular factor of K (+ jitter * I) under the escalating policy.

    Tries jitter 0 first, then 1e-9 * mean(diag K) escalating tenfold until
    1e-3 * mean(diag K). Returns (L, jitter_used); raises FactorizationError
    naming the kernel and the smallest pivot once the ceiling is passed.
    """
    scale = float(np.mean(np.diag(K)))
    jitters = _jitters(scale)
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


def icm_factor(K_x, B, sigma, label: str = "kernel", jitters=(0.0,)):
    """IcmFactor of B kron K_x + (R + jitter I) kron I with R = diag(sigma^2).

    sigma holds the per-output noise deviations. Returns (factor, jitter) for
    the first of jitters at which every entry of D is positive; raises
    FactorizationError naming label on non-finite input, an eigh failure, or
    D <= 0 at the last jitter.
    """
    r = 1.0 / sigma
    if not (np.all(np.isfinite(K_x)) and np.all(np.isfinite(B * np.outer(r, r)))):
        raise FactorizationError(f"{label}: system matrix overflowed at the evaluated coordinates")
    try:
        lam, U = np.linalg.eigh(K_x)
        for jitter in jitters:
            r = 1.0 / (sigma if jitter == 0.0 else np.sqrt(sigma**2 + jitter))
            S, Q = np.linalg.eigh(B * np.outer(r, r))
            D = np.outer(lam, S) + 1.0
            if np.all(D > 0.0):
                P = Q * r[:, None]
                return IcmFactor(U, lam, Q, S, P, D, B @ P, 1.0 / D), jitter
    except np.linalg.LinAlgError as err:
        raise FactorizationError(f"{label}: eigendecomposition failed ({err})") from None
    raise FactorizationError(
        f"{label}: system matrix not positive definite; smallest entry of D "
        f"{float(np.min(D)):.6e} even after jitter {jitter:.6e}"
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
    inputs : (n, m, 2) array of per-circle unit vectors (manifold.as_input_array)
    obs : (n,) array for a single output, (n, d) for d outputs
    kernel : a kernel object from torusgp.kernels
    noise_var : scalar observation-noise variance, or (d,) vector (one per
        output) in the multi-output case; all entries must be positive
    coreg : (d, d) PSD mixing matrix, required iff obs is 2-d

    Returns
    -------
    TrainedGp with the cached factorization and alpha = K^-1 z. Several
    outputs take Alpha from the IcmFactor and refine it by one
    residual-correction step against K Alpha = K_x Alpha B + Alpha R.
    """
    data = Dataset.from_data(inputs, obs)
    X, Y = data.inputs, data.obs
    lifted = kernel.lift(X)
    K_x = kernel.gram_lifted(lifted)
    if Y.ndim == 1:
        if coreg is not None:
            raise ValueError("coreg given but observations are single-output")
        noise_var = float(noise_var)
        if not noise_var > 0.0:
            raise ValueError("noise variance must be positive")
        K_x.flat[:: data.n + 1] += noise_var  # the system matrix, in place
        factor, jitter = cholesky_with_jitter(K_x, label=kernel.family)
        alpha = cho_solve((factor, True), Y)
        Alpha = prior_cov = None
    else:
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
        scale = float(np.mean(np.outer(np.diag(K_x), np.diag(coreg)) + noise_var))
        factor, jitter = icm_factor(K_x, coreg, np.sqrt(noise_var), kernel.family, _jitters(scale))
        A = factor.solve(Y)
        A += factor.solve(Y - K_x @ A @ coreg - A * (noise_var + jitter))
        alpha = np.ravel(A, order="F")
        Alpha = alpha.reshape(d, -1).T
        prior_cov = kernel.prior_variance() * coreg
    return TrainedGp(
        kernel=kernel,
        inputs=X,
        obs=Y,
        noise_var=noise_var,
        coreg=coreg,
        chol=factor,
        alpha=alpha,
        jitter_used=jitter,
        lifted=lifted,
        Alpha=Alpha,
        prior_cov=prior_cov,
    )


def predict(gp: TrainedGp, tests) -> PosteriorGaussian:
    """Joint posterior of the latent function at the test points.

    Single output: mean (t,), cov (t, t). Multi-output: mean (t*d,) and cov
    (t*d, t*d) in output-major order; for a single test point that is the
    length-d mean and (d, d) covariance. With the cross-Gram Ktn,
    Kt = Ktn U and G = B P, the mean is vec(Ktn Alpha B) and block (i, j)
    of the covariance is B_ij Ktt - sum_s G_is G_js Kt diag(1/D[:, s]) Kt^T.
    """
    LT = gp.kernel.lift(as_input_array(tests, m=gp.m))
    Ktn, Ktt = gp.kernel.gram_lifted(LT, gp.lifted), gp.kernel.gram_lifted(LT)
    if not gp.multi_output:
        mean = Ktn @ gp.alpha
        cov = Ktt - Ktn @ cho_solve((gp.chol, True), Ktn.T)
    else:
        Kt, G, M = Ktn @ gp.chol.U, gp.chol.G, Ktn @ gp.Alpha @ gp.coreg
        W = (Kt / gp.chol.D.T[:, None, :]) @ Kt.T  # W[s] = Kt diag(1/D[:, s]) Kt^T
        cov = gp.coreg[:, None, :, None] * Ktt[None, :, None, :]
        cov -= np.einsum("is,js,sab->iajb", G, G, W)
        mean, cov = np.ravel(M, order="F"), cov.reshape(M.size, M.size)
    return PosteriorGaussian(mean=mean, cov=0.5 * (cov + cov.T))


def observation_moments(gp: TrainedGp, tests):
    """Per-point moments of the noisy observation vector, multi-output only.

    Returns means (t, d) and covariances (t, d, d): the diagonal blocks of
    the joint posterior from predict, plus R. With the names of predict,
    point p has covariance k(x, x) B - G diag(c_p) G^T + R with
    c_p = (Kt_p o Kt_p) D^-1. Only the cross-Gram and what follows from it
    are computed here; the lifted inputs, G, 1/D, Alpha and k(x, x) B were
    formed when the model was fitted.
    """
    Ktn = gp.kernel.gram_lifted(gp.kernel.lift(as_input_array(tests, m=gp.m)), gp.lifted)
    Kt = Ktn @ gp.chol.U
    mean = Ktn @ gp.Alpha @ gp.coreg
    c = (Kt * Kt) @ gp.chol.Dinv
    G = gp.chol.G  # sum_s G_is c_ps G_js in s order, as einsum would sum it
    cov = gp.prior_cov - sum(G[:, None, s] * c[:, None, None, s] * G[None, :, s] for s in range(gp.d))
    cov[:, np.arange(gp.d), np.arange(gp.d)] += gp.noise_var
    return mean, cov


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
