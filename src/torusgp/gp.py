"""Exact Gaussian process regression, single and multi-output.

Observations get a zero prior mean and are used raw. d outputs couple
through a PSD mixing matrix B (intrinsic coregionalization):

    K = B kron Kxx + R kron I_n,    R = diag(sigma_r1^2, ..., sigma_rd^2),

with observations vectorized output-major, z = vec(Z) for the n x d matrix Z,
so block (i, j) of K holds B_ij * Kxx; predictions over t test points keep
the same layout with length t*d. A single output is the case d = 1,
B = [[1]], R = sigma_r^2. K has the exact Kronecker-eigen factor
IcmFactor (Bonilla et al. 2008; Rakitsch et al. 2013): with
Kxx = U diag(lam) U^T, R^-1/2 B R^-1/2 = Q diag(S) Q^T, P = R^-1/2 Q and the
n x d matrix D = lam S^T + 1, K^-1 = (P kron U) diag(vec D)^-1 (P kron U)^T,
and K is positive definite exactly when every entry of D is; the factor
stores only what its readers use, so Q is there only as part of P. fit,
predict and marginals use this factor for every d, one included;
torusgp.hyperopt uses it for 2-D observations.

At test point p, with Kt = Ktn U, G = B P and c_p = (Kt_p o Kt_p) D^-1, the
variances v_p = k(x, x) - S o c_p give the latent covariance
G diag(v_p) (R P)^T and the observation covariance
R^1/2 Q diag(1 + S o v_p) Q^T R^1/2; a jittered fit has R = noise_var +
jitter_used. v carries about eps k(x, x) / v relative error (desk HvM:
v = 6.1e-10 at a training input against k(x, x) = 5.57, so 2e-6).

Factorizations follow one escalating-jitter policy: zero first, then
1e-9 * mean(diag K) growing tenfold up to 1e-3 * mean(diag K). For ICM,
K + eps I = B kron Kxx + (R + eps I) kron I, so a step redoes only the d x d
eigh; cholesky_with_jitter applies the same policy to a dense matrix.
"""

import json
from dataclasses import dataclass

import numpy as np

from . import kernels
from .manifold import as_input_array
from .simulator import write_json

__all__ = [
    "Dataset",
    "FactorizationError",
    "IcmFactor",
    "TrainedGp",
    "icm_factor",
    "fit",
    "predict",
    "eigen_moments",
    "marginals",
    "kernel_params",
    "save_model",
    "load_model",
]

JITTER_START_FACTOR = 1e-9
JITTER_MAX_FACTOR = 1e-3

LOG2PI = float(np.log(2.0 * np.pi))


class FactorizationError(np.linalg.LinAlgError):
    """Raised when the system matrix is not positive definite under the jitter policy."""


@dataclass
class IcmFactor:
    """Kronecker-eigen factor of an ICM system (names as in the module docstring).

    It stores only what its readers use: Q reaches them through P = R^-1/2 Q
    alone, so it is not kept. G = B P and Dinv = 1 / D are the per-model
    constants of predict and marginals.
    """

    U: np.ndarray
    lam: np.ndarray
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
        if not np.all(np.isfinite(Y)):
            raise ValueError("observations must be finite")
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

    def mixing(self, coreg) -> np.ndarray:
        """coreg as the (d, d) mixing matrix B, given for multi-output observations only; [[1]] for 1-D."""
        if (coreg is None) == self.multi_output:
            raise ValueError("coreg must be given for multi-output observations, and only then")
        B = np.ones((1, 1)) if coreg is None else np.asarray(coreg, dtype=float)
        if B.shape != (self.d, self.d):
            raise ValueError(f"coreg must be ({self.d}, {self.d}), got {B.shape}")
        return B


@dataclass
class TrainedGp(Dataset):
    """A fitted GP: data, kernel, noise, and the cached factorization.

    d is 1 for 1-D observations, fitted as B = [[1]]. noise_var is the (d,)
    vector of per-output variances and coreg the (d, d) mixing matrix B.
    factor is the IcmFactor of K + jitter_used * I, and A the n x d matrix
    with vec(A) = (K + jitter_used * I)^-1 zvec; lifted is kernel.lift(inputs).
    """

    kernel: object
    noise_var: np.ndarray
    coreg: np.ndarray
    factor: IcmFactor
    A: np.ndarray
    jitter_used: float
    lifted: np.ndarray


def _jitters(scale: float) -> list:
    """The jitter policy for a system matrix whose mean diagonal is scale."""
    steps = int(np.log10(JITTER_MAX_FACTOR / JITTER_START_FACTOR)) + 1
    return [0.0] + [JITTER_START_FACTOR * scale * 10.0**k for k in range(steps)]


def cholesky_with_jitter(K: np.ndarray, label: str = "kernel"):
    """Lower-triangular factor of K (+ jitter * I) under the escalating policy.

    Tries jitter 0 first, then 1e-9 * mean(diag K) escalating tenfold until
    1e-3 * mean(diag K). Returns (L, jitter_used); raises FactorizationError
    naming the kernel on a non-finite K, or with the smallest eigenvalue once
    the ceiling is passed.
    """
    if not np.all(np.isfinite(K)):
        raise FactorizationError(f"{label}: system matrix has non-finite entries")
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
    min_eig = float(np.linalg.eigvalsh(K)[0])
    raise FactorizationError(
        f"{label}: system matrix not positive definite; smallest eigenvalue "
        f"{min_eig:.6e} even after jitter {jitters[-1]:.6e} "
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
                return IcmFactor(U, lam, S, P, D, B @ P, 1.0 / D), jitter
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
    noise_var : observation-noise variance, scalar or (d,) vector (one per
        output); all entries must be positive
    coreg : (d, d) PSD mixing matrix, required iff obs is 2-d; a single
        output has B = [[1]]

    Returns
    -------
    TrainedGp with the cached IcmFactor and the n x d matrix A with
    vec(A) = K^-1 zvec, taken from the factor and refined by one
    residual-correction step against K A = K_x A B + A R.
    """
    data = Dataset.from_data(inputs, obs)
    X, d = data.inputs, data.d
    coreg = data.mixing(coreg)
    if not np.allclose(coreg, coreg.T, atol=1e-10):
        raise ValueError("coreg must be symmetric")
    noise_var = np.asarray(noise_var, dtype=float)
    if noise_var.shape not in ((), (1,), (d,)) or not np.all(noise_var > 0.0):
        raise ValueError(f"noise variances must be {d} positive numbers")
    noise_var = noise_var * np.ones(d)
    Y = data.obs.reshape(data.n, d)
    lifted = kernel.lift(X)
    K_x = kernel.gram_lifted(lifted)
    scale = float(np.mean(np.outer(np.diag(K_x), np.diag(coreg)) + noise_var))
    factor, jitter = icm_factor(K_x, coreg, np.sqrt(noise_var), kernel.family, _jitters(scale))
    A = factor.solve(Y)
    A += factor.solve(Y - K_x @ A @ coreg - A * (noise_var + jitter))
    return TrainedGp(
        kernel=kernel,
        inputs=X,
        obs=data.obs,
        noise_var=noise_var,
        coreg=coreg,
        factor=factor,
        # column-major: matmul rounding depends on the layout, and stored outputs use this one
        A=np.asfortranarray(A),
        jitter_used=jitter,
        lifted=lifted,
    )


def predict(gp: TrainedGp, tests):
    """Joint posterior (mean, cov) of the latent function at the test points.

    Mean (t*d,) and symmetric cov (t*d, t*d) in output-major order: (t,)
    and (t, t) for one output, the length-d mean and (d, d) covariance for
    a single test point. With the cross-Gram Ktn, Kt = Ktn U and G = B P,
    the mean is vec(Ktn A B) and block (i, j) of the covariance is
    B_ij Ktt - sum_s G_is G_js Kt diag(1/D[:, s]) Kt^T.
    """
    LT = gp.kernel.lift(as_input_array(tests, m=gp.m))
    Ktn, Ktt = gp.kernel.gram_lifted(LT, gp.lifted), gp.kernel.gram_lifted(LT)
    Kt, G, M = Ktn @ gp.factor.U, gp.factor.G, Ktn @ gp.A @ gp.coreg
    W = (Kt / gp.factor.D.T[:, None, :]) @ Kt.T  # W[s] = Kt diag(1/D[:, s]) Kt^T
    cov = gp.coreg[:, None, :, None] * Ktt[None, :, None, :]
    cov -= np.einsum("is,js,sab->iajb", G, G, W)
    cov = cov.reshape(M.size, M.size)
    return np.ravel(M, order="F"), 0.5 * (cov + cov.T)


def eigen_moments(gp: TrainedGp, tests):
    """Per-point latent means (t, d) and eigenbasis variances v (t, d), from the cross-Gram alone."""
    Ktn = gp.kernel.gram_lifted(gp.kernel.lift(as_input_array(tests, m=gp.m)), gp.lifted)
    Kt = Ktn @ gp.factor.U
    v = gp.kernel.prior_variance() - gp.factor.S * ((Kt * Kt) @ gp.factor.Dinv)
    return Ktn @ gp.A @ gp.coreg, v


def marginals(gp: TrainedGp, tests):
    """Per-point latent means (t, d) and covariances (t, d, d): the diagonal blocks of predict."""
    mean, v = eigen_moments(gp, tests)
    RP = gp.factor.P * (gp.noise_var + gp.jitter_used)[:, None]
    return mean, (gp.factor.G * v[:, None, :]) @ RP.T


# ---------------------------------------------------------------------------
# Serialization: structured text, full float precision, exact round trip.
# ---------------------------------------------------------------------------

_MODEL_FORMAT = "torusgp-model"
_MODEL_VERSION = 1


def kernel_params(kernel) -> dict:
    """Hyperparameters by group: omega as a number, every other group (lam, corr, ell) as a list."""
    params = {"omega": float(kernel.theta[0])}
    for name, value in zip(kernel.theta_names[1:], kernel.theta[1:].tolist()):
        params.setdefault(name.split("_")[0], []).append(value)
    return params


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
        "kernel": {"family": gp.kernel.family, "m": gp.kernel.m, "params": kernel_params(gp.kernel)},
        "noise_var": gp.noise_var.tolist() if gp.multi_output else float(gp.noise_var[0]),
        "coreg": gp.coreg.tolist() if gp.multi_output else None,
        "inputs": gp.inputs.tolist(),
        "obs": gp.obs.tolist(),
    }
    write_json(path, doc)


def load_model(path) -> TrainedGp:
    """Load a model file written by save_model and refit the factorization."""
    with open(path) as fh:
        doc = json.load(fh)
    if doc.get("format") != _MODEL_FORMAT:
        raise ValueError(f"{path}: not a {_MODEL_FORMAT} file")
    kernel = _kernel_from_dict(doc["kernel"])
    return fit(doc["inputs"], doc["obs"], kernel, doc["noise_var"], coreg=doc["coreg"])
