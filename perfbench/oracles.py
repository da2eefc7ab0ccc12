"""Independent dense references for the program's likelihoods.

Nothing here calls torusgp: kernels are evaluated from angle differences
(atan2 of the embedded inputs) instead of the program's embedded dot
products, the system matrix is assembled block by block, and every solve
and determinant goes through an LU factorization (scipy.linalg.lu_factor)
instead of the program's Cholesky factor.
"""

import numpy as np
from scipy.linalg import lu_factor, lu_solve

LOG2PI = float(np.log(2.0 * np.pi))

# Two double-precision evaluations of one quantity through a system of
# condition number cond, each rounding the kernel entries its own way, can
# differ by about cond * eps relative; the trained desk systems reach cond
# 3e11. The checks therefore allow TOL_FACTOR * cond(K) * eps relative to
# max(1, |value|), and never less than TOL_FLOOR.
TOL_FACTOR = 4.0
TOL_FLOOR = 1e-10


def _angles(X: np.ndarray) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    return np.arctan2(X[..., 1], X[..., 0])


def gram(family: str, names, theta, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Kernel matrix between (n, m, 2) and (p, m, 2) embedded inputs."""
    th = dict(zip(names, np.asarray(theta, dtype=float)))
    a, b = _angles(A), _angles(B)
    m = a.shape[1]
    diff = a[:, None, :] - b[None, :, :]
    expo = np.zeros(diff.shape[:2])
    if family in ("hvm", "pvm"):
        c = np.cos(diff)
        for s in range(m):
            expo += th[f"lam_{s + 1}"] * c[..., s]
        for name, val in th.items():
            if name.startswith("corr_"):
                i, j = int(name[5]) - 1, int(name[6]) - 1
                expo += 2.0 * val * c[..., i] * c[..., j]
    elif family == "pprd":
        for s in range(m):
            expo -= 2.0 * np.sin(0.5 * diff[..., s]) ** 2 / th[f"ell_{s + 1}"] ** 2
    elif family == "pse":
        ca, cb = np.mod(a, 2.0 * np.pi), np.mod(b, 2.0 * np.pi)
        for s in range(m):
            expo -= (ca[:, None, s] - cb[None, :, s]) ** 2 / (2.0 * th[f"ell_{s + 1}"] ** 2)
    else:
        raise ValueError(f"unknown family {family!r}")
    return th["omega"] ** 2 * np.exp(expo)


def system(Kx: np.ndarray, noise_var, coreg) -> np.ndarray:
    """B kron Kx + R kron I, assembled block by block (Kx + s2 I for one output)."""
    n = Kx.shape[0]
    if coreg is None:
        return Kx + float(noise_var) * np.eye(n)
    B = np.asarray(coreg, dtype=float)
    d = B.shape[0]
    K = np.empty((d * n, d * n))
    for i in range(d):
        for j in range(d):
            K[i * n : (i + 1) * n, j * n : (j + 1) * n] = B[i, j] * Kx
    K[np.diag_indices(d * n)] += np.repeat(np.asarray(noise_var, dtype=float) * np.ones(d), n)
    return K


class DenseGp:
    """LU-factored dense GP on (X, z) with explicit hyperparameters."""

    def __init__(self, family, names, theta, X, obs, noise_var, coreg=None):
        self.family, self.names, self.theta = family, tuple(names), np.asarray(theta, dtype=float)
        self.X = np.asarray(X, dtype=float)
        obs = np.asarray(obs, dtype=float)
        self.z = obs if obs.ndim == 1 else np.ravel(obs, order="F")
        self.coreg = None if coreg is None else np.asarray(coreg, dtype=float)
        self.noise_var = noise_var
        self.d = 1 if self.coreg is None else self.coreg.shape[0]
        self.n = self.X.shape[0]
        K = system(gram(family, names, theta, self.X, self.X), noise_var, coreg)
        self.lu = lu_factor(K)
        self.alpha = lu_solve(self.lu, self.z)
        self.cond = float(np.linalg.cond(K))
        self.tolerance = max(TOL_FLOOR, TOL_FACTOR * self.cond * np.finfo(float).eps)
        diag = np.diag(self.lu[0])
        swaps = int(np.count_nonzero(self.lu[1] != np.arange(diag.size)))
        if np.prod(np.sign(diag)) * (-1) ** swaps <= 0:
            raise np.linalg.LinAlgError("dense system has a nonpositive determinant")
        self.logdet = float(np.sum(np.log(np.abs(diag))))

    def objective(self) -> float:
        """Twice the log marginal likelihood, the program's objective F."""
        return float(-self.z @ self.alpha - self.logdet - self.z.size * LOG2PI)

    def predictive_logpdf(self, T: np.ndarray, z_obs: np.ndarray) -> np.ndarray:
        """Log density of the observation vector z_obs at each test input (multi-output)."""
        B, d, n = self.coreg, self.d, self.n
        k = gram(self.family, self.names, self.theta, T, self.X)  # (p, n)
        prior = gram(self.family, self.names, self.theta, T[:1], T[:1])[0, 0]
        p = k.shape[0]
        # column (q, t) of the cross-covariance is B[:, t] kron k_q
        cross = np.einsum("ut,qa->uaqt", B, k).reshape(d * n, p * d)
        V = lu_solve(self.lu, cross)
        out = np.empty(p)
        noise = np.diag(np.asarray(self.noise_var, dtype=float) * np.ones(d))
        for q in range(p):
            C = cross[:, q * d : (q + 1) * d]
            mean = C.T @ self.alpha
            cov = prior * B - C.T @ V[:, q * d : (q + 1) * d] + noise
            cov = 0.5 * (cov + cov.T)
            r = np.asarray(z_obs, dtype=float) - mean
            sign, logdet = np.linalg.slogdet(cov)
            if sign <= 0:
                out[q] = -np.inf
                continue
            out[q] = -0.5 * (r @ np.linalg.solve(cov, r) + logdet + d * LOG2PI)
        return out


def aoa_embedding(positions: np.ndarray, references: np.ndarray) -> np.ndarray:
    """Unit vectors from each position toward each reference, via angles."""
    pos = np.asarray(positions, dtype=float)
    refs = np.asarray(references, dtype=float)
    ang = np.arctan2(refs[None, :, 1] - pos[:, None, 1], refs[None, :, 0] - pos[:, None, 0])
    return np.stack([np.cos(ang), np.sin(ang)], axis=-1)


def parametric_logpdf(positions, z_obs, references, bias, cov) -> np.ndarray:
    """Gaussian residual model N(z; |ref - x| + bias, cov) per position."""
    pos = np.asarray(positions, dtype=float)
    refs = np.asarray(references, dtype=float)
    h = np.sqrt(((refs[None, :, :] - pos[:, None, :]) ** 2).sum(axis=2))
    r = np.asarray(z_obs, dtype=float)[None, :] - (h + np.asarray(bias)[None, :])
    sign, logdet = np.linalg.slogdet(cov)
    quad = np.einsum("pi,pi->p", r, np.linalg.solve(cov, r.T).T)
    return -0.5 * (quad + logdet + refs.shape[0] * LOG2PI)


def rel_err(a, b) -> float:
    """Largest |a - b| / max(1, |b|) over finite entries; inf if finiteness differs."""
    a, b = np.atleast_1d(np.asarray(a, dtype=float)), np.atleast_1d(np.asarray(b, dtype=float))
    if a.shape != b.shape or np.any(np.isfinite(a) != np.isfinite(b)):
        return float("inf")
    ok = np.isfinite(a)
    if not np.any(ok):
        return 0.0
    return float(np.max(np.abs(a[ok] - b[ok]) / np.maximum(1.0, np.abs(b[ok]))))
