"""Reference kernels and reference marginal-likelihood evaluations.

The scalar kernels are the textbook per-pair formulas the vectorized
torusgp.kernels.ExpLinearKernel is checked against: the von Mises kernel on
S^1, the coupled kernel on T^m, and the three per-circle product baselines
with one signal scale per circle. A circle point is a (2,) unit vector and a
torus point an (m, 2) array of them; the oracles read chart angles with
their own arctan2, not through torusgp. ``gram`` fills a matrix from any of
them by a plain double loop. An hvm kernel is read from its theta
(omega, lam_1..lam_m, corr in pair order); ``interaction_matrix`` forms the
paper's hollow symmetric matrix Lam from the pair weights.

The multi-output objective F and its gradient (torusgp.hyperopt) have two
references: ``dense_icm`` assembles the N x N ICM system from the scalar
kernels (``scalar_kernel``) and per-point feature values
(``feature_values``), never from torusgp's own Gram, and inverts it in
double precision, and ``mp_hvm_icm`` repeats the algebra in 50-digit
arithmetic for small hvm problems. ``reference_probe`` is a bit-identity
guard, not an accuracy reference: it is the optimizer's probe, F and its
gradient in the unconstrained coordinates, written plainly, so a leaner
torusgp.hyperopt._Problem.value_and_grad must match it bit for bit. The
predictive log-density that scores
filter particles (torusgp.tracking.GpRangeModel.logpdf) has two as well:
``dense_observation_logpdf`` is the plain dense Gaussian formula over
``dense_observation_posterior``, the joint posterior of torusgp.gp.predict
with the noise added, and ``mp_icm_logpdf`` is the 50-digit reference for
every kernel family.
"""

from dataclasses import dataclass

import mpmath
import numpy as np
from scipy.linalg import cho_solve, cholesky
from scipy.linalg.lapack import dpotri

from torusgp import gp
from torusgp.kernels import ExpLinearKernel, pair_order
from torusgp.manifold import as_input_array


@dataclass(frozen=True)
class VmHyperparams:
    """Scalar von Mises kernel parameters: signal scale and concentration."""

    omega: float
    lam: float

    def __post_init__(self):
        if not (self.omega > 0.0 and np.isfinite(self.omega)):
            raise ValueError(f"omega must be positive, got {self.omega}")
        if not (self.lam > 0.0 and np.isfinite(self.lam)):
            raise ValueError(f"lam must be strictly positive, got {self.lam}")


@dataclass(frozen=True)
class BaselineKernelParams:
    """Per-circle parameters of the product baselines.

    omega: per-circle signal scales, shape (m,), > 0.
    scale: per-circle lengthscale (squared exponential, periodic) or
           concentration (von Mises), shape (m,), > 0.
    """

    omega: tuple
    scale: tuple

    def __post_init__(self):
        object.__setattr__(self, "omega", tuple(float(x) for x in np.atleast_1d(self.omega)))
        object.__setattr__(self, "scale", tuple(float(x) for x in np.atleast_1d(self.scale)))
        if len(self.omega) != len(self.scale):
            raise ValueError("omega and scale must have equal length")
        if any(not (x > 0.0 and np.isfinite(x)) for x in self.omega + self.scale):
            raise ValueError("baseline parameters must be finite and positive")

    @property
    def m(self) -> int:
        return len(self.omega)


def k_vm(u, v, p: VmHyperparams) -> float:
    """von Mises kernel on S^1 between (2,) points: omega^2 * exp(lam * u.v)."""
    d = u[0] * v[0] + u[1] * v[1]
    return float(p.omega**2 * np.exp(p.lam * d))


def hvm_parts(kernel):
    """(omega, lam, corr) of an hvm kernel, as Python floats."""
    if kernel.family != "hvm":
        raise ValueError(f"expected an hvm kernel, got {kernel.family}")
    theta = kernel.theta.tolist()
    return theta[0], theta[1 : 1 + kernel.m], theta[1 + kernel.m :]


def interaction_matrix(kernel) -> np.ndarray:
    """The paper's Lam: hollow symmetric (m, m), an hvm kernel's corr off the diagonal."""
    m = kernel.m
    L = np.zeros((m, m))
    for c, (i, j) in zip(hvm_parts(kernel)[2], pair_order(m)):
        L[i, j] = L[j, i] = c
    return L


def k_hvm(u, v, kernel) -> float:
    """Coupled-torus kernel omega^2 * exp(lam . d + 2 sum_t corr_t d_i d_j)."""
    if len(u) != kernel.m or len(v) != kernel.m:
        raise ValueError(f"points have {len(u)}/{len(v)} circles, the kernel expects {kernel.m}")
    omega, lam, corr = hvm_parts(kernel)
    d = np.sum(u * v, axis=1)
    quad = 2.0 * sum(c * d[i] * d[j] for c, (i, j) in zip(corr, pair_order(kernel.m)))
    return float(omega**2 * np.exp(float(np.dot(lam, d)) + quad))


def _angles(u) -> np.ndarray:
    """Chart angles in [0, 2*pi) of an (m, 2) torus point."""
    return np.mod(np.arctan2(u[:, 1], u[:, 0]), 2.0 * np.pi)


def k_pse(u, v, p: BaselineKernelParams) -> float:
    """Product of squared-exponential factors on unwrapped chart differences.

    Both angles are first mapped into [0, 2*pi); the factor uses the raw
    difference of the chart values, so the kernel is aperiodic across the
    chart seam by construction.
    """
    _check_m(u, v, p)
    a, b = _angles(u), _angles(v)
    om = np.asarray(p.omega)
    ell = np.asarray(p.scale)
    return float(np.prod(om**2 * np.exp(-((a - b) ** 2) / (2.0 * ell**2))))


def k_pprd(u, v, p: BaselineKernelParams) -> float:
    """Product of periodic factors exp(-2 sin^2((a - b)/2) / l^2) per circle."""
    _check_m(u, v, p)
    a, b = _angles(u), _angles(v)
    om = np.asarray(p.omega)
    ell = np.asarray(p.scale)
    return float(np.prod(om**2 * np.exp(-2.0 * np.sin((a - b) / 2.0) ** 2 / ell**2)))


def k_pvm(u, v, p: BaselineKernelParams) -> float:
    """Product of von Mises factors omega_s^2 * exp(lam_s * u_s.v_s)."""
    _check_m(u, v, p)
    d = np.sum(u * v, axis=1)
    om = np.asarray(p.omega)
    lam = np.asarray(p.scale)
    return float(np.prod(om**2 * np.exp(lam * d)))


def _check_m(u, v, p) -> None:
    if len(u) != len(v):
        raise ValueError(f"torus dimensions differ: {len(u)} vs {len(v)}")
    if len(u) != p.m:
        raise ValueError(f"points have {len(u)} circles, parameters expect {p.m}")


def component_distances(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Componentwise inner products: (n, m, 2) and (p, m, 2) -> (m, n, p), D[s, i, j] = A_is . B_js."""
    if A.shape[1] != B.shape[1]:
        raise ValueError(f"input sets have {A.shape[1]} and {B.shape[1]} circles")
    return np.einsum("isk,jsk->sij", A, B)


def gram(inputs_a, inputs_b, kernel) -> np.ndarray:
    """Cross-covariance matrix of a scalar kernel k(u, v) by a double loop."""
    A = as_input_array(inputs_a)
    B = as_input_array(inputs_b, m=A.shape[1])
    out = np.empty((A.shape[0], B.shape[0]))
    for i in range(A.shape[0]):
        for j in range(B.shape[0]):
            out[i, j] = kernel(A[i], B[j])
    return out


def scalar_kernel(kernel):
    """The scalar oracle k(u, v) of an exp-linear kernel, at its theta.

    hvm goes to k_hvm; the product baselines carry omega on their first
    circle and 1 on the others, so their product of signal scales is omega^2.
    """
    if kernel.family == "hvm":
        return lambda u, v: k_hvm(u, v, kernel)
    theta = kernel.theta.tolist()
    params = BaselineKernelParams((theta[0],) + (1.0,) * (kernel.m - 1), theta[1:])
    oracle = {"pvm": k_pvm, "pprd": k_pprd, "pse": k_pse}[kernel.family]
    return lambda u, v: oracle(u, v, params)


def feature_values(kernel, u, v) -> np.ndarray:
    """F_f(u, v) for every theta coordinate after omega, from the textbook forms.

    d_s = u_s . v_s (hvm then adds d_i d_j in pair order), pprd's
    -2 sin^2((a - b)/2) and pse's -(a - b)^2/2 on chart angles a, b.
    """
    if kernel.family in ("pprd", "pse"):
        gap = _angles(u) - _angles(v)
        return -2.0 * np.sin(gap / 2.0) ** 2 if kernel.family == "pprd" else -(gap**2) / 2.0
    d = np.sum(u * v, axis=1)
    pairs = [d[i] * d[j] for i, j in pair_order(kernel.m)] if kernel.family == "hvm" else []
    return np.r_[d, pairs]


def coefficient_slopes(kernel) -> np.ndarray:
    """dc_f/dtheta_f: 1 per concentration, 2 per pair weight, -2 ell^-3 per length scale."""
    t = kernel.theta[1:]
    if kernel.family in ("pprd", "pse"):
        return -2.0 / t**3
    return np.r_[np.ones(kernel.m), np.full(t.size - kernel.m, 2.0)]


def dense_icm(kernel, X, Z, B, sigma):
    """F, dF/dtheta, dF/dB and dF/dsigma through the dense ICM system.

    K_x comes from the scalar oracle by a double loop, and dK_x/dtheta from
    dK/domega = 2K/omega and dK/dtheta_f = c_f' K F_f with per-point feature
    values. Assembles K = B kron K_x + R kron I_n (N = n d, output-major),
    factors it, forms K^-1 = cho_solve(L, I) and contracts the n x n blocks
    A_ij of A = alpha alpha^T - K^-1: dF/dtheta_k = sum_ij B_ij sum(A_ij * dK_x/dtheta_k),
    dF/dB_ij = sum(A_ij * K_x), dF/dsigma_s = 2 sigma_s tr(A_ss).
    """
    n, d = Z.shape
    N = n * d
    K_x = gram(X, X, scalar_kernel(kernel))
    F = np.array([[feature_values(kernel, u, v) for v in X] for u in X]).transpose(2, 0, 1)
    slopes = coefficient_slopes(kernel)[:, None, None]
    dK = np.concatenate([[(2.0 / kernel.theta[0]) * K_x], slopes * K_x * F])
    K = np.kron(B, K_x) + np.kron(np.diag(sigma**2), np.eye(n))
    L = np.linalg.cholesky(K)
    z = np.ravel(Z, order="F")
    alpha = cho_solve((L, True), z)
    F = float(-z @ alpha - 2.0 * np.sum(np.log(np.diag(L))) - N * np.log(2.0 * np.pi))
    A4 = (np.outer(alpha, alpha) - cho_solve((L, True), np.eye(N))).reshape(d, n, d, n)
    A2 = A4.transpose(0, 2, 1, 3).reshape(d * d, n * n)  # row (i, j) is block A_ij
    g_B = (A2 @ K_x.ravel()).reshape(d, d)
    g_theta = dK.reshape(dK.shape[0], -1) @ (B.ravel() @ A2)
    g_sigma = 2.0 * sigma * np.einsum("ipip->i", A4)
    return F, g_theta, g_B, g_sigma


def reference_probe(dataset, template, phi):
    """F and dF/dphi at the optimizer's unconstrained coordinates phi, written plainly.

    phi is [log theta, G's lower triangle row by row (log on its
    diagonal), log sigma], G empty for 1-D data. Each coordinate group is
    exponentiated on its own and the kernel is built afresh from the full
    theta. Two-output data goes through the kernel's Gram, gp.icm_factor and
    the kernel's feature sums. 1-D data forms the exponent sum_f c_f F_f
    from the kernel's self-feature stack, factors K with scipy's cholesky,
    solves for alpha with cho_solve, takes K^-1 from LAPACK's potri and
    contracts W with each feature. The kernel's own parts are checked
    elsewhere against the scalar oracles, so this pins the probe's own
    arithmetic, not the kernel's.
    """
    phi = np.asarray(phi, dtype=float)
    n, d, N = dataset.n, dataset.d, dataset.zvec.size
    tril = np.tril_indices(d if dataset.multi_output else 0)
    diag = tril[0] == tril[1]
    nk, ng = template.theta.size, diag.size
    theta = np.exp(phi[:nk])
    g = phi[nk : nk + ng].copy()
    g[diag] = np.exp(g[diag])
    sigma = np.exp(phi[nk + ng :])
    kernel = ExpLinearKernel(template.family, template.m, theta)
    G = np.eye(d)
    G[tril] = g
    B = G @ G.T
    lifted = kernel.lift(dataset.inputs)
    log2pi = float(np.log(2.0 * np.pi))
    c, dc = kernel.coefficients()
    if dataset.multi_output:
        K_x = kernel.gram_lifted(lifted)
        f, _ = gp.icm_factor(K_x, B, sigma, kernel.family)
        Zt = f.U.T @ dataset.obs @ f.P
        M = Zt / f.D
        logdet = 2.0 * n * np.sum(np.log(sigma)) + np.sum(np.log(f.D))
        F = float(-np.sum(Zt * M) - logdet - N * log2pi)
        Alpha = f.U @ M @ f.P.T
        Abar = Alpha @ B @ Alpha.T - (f.U * (f.Dinv @ f.S)) @ f.U.T
        g_B = f.P @ (M.T @ (f.lam[:, None] * M) - np.diag(f.lam @ f.Dinv)) @ f.P.T
        g_sigma = 2.0 * sigma * (np.sum(Alpha**2, axis=0) - f.P**2 @ f.Dinv.sum(axis=0))
        W = Abar * K_x
        sums = kernel.feature_sums(lifted, W)
    else:
        features = kernel.self_features(lifted)
        K_x = theta[0] ** 2 * np.exp(sum(c_f * F_f for c_f, F_f in zip(c, features)))
        K = K_x.copy()
        K.flat[:: n + 1] += sigma**2
        L = cholesky(K, lower=True)
        z = dataset.zvec
        alpha = cho_solve((L, True), z)
        F = float(-z @ alpha - 2.0 * np.sum(np.log(np.diag(L))) - N * log2pi)
        inverse, _ = dpotri(L, lower=1)
        Abar = np.outer(alpha, alpha) - (np.tril(inverse) + np.tril(inverse, -1).T)
        g_B = np.zeros((1, 1))  # B = [[1]] is pinned, not a coordinate
        g_sigma = 2.0 * sigma * np.trace(Abar)
        W = Abar * K_x
        sums = features.reshape(len(features), -1) @ W.ravel()
    g_theta = np.concatenate([[(2.0 / theta[0]) * W.sum()], dc * sums])
    g_G = ((g_B + g_B.T) @ G)[tril]
    g_G[diag] *= np.diag(G)
    return F, np.concatenate([g_theta * theta, g_G, g_sigma * sigma])


def dense_observation_posterior(model, tests):
    """Joint posterior (mean, cov) of the noisy observations: gp.predict plus R on the diagonal."""
    mean, cov = gp.predict(model, tests)
    return mean, cov + np.diag(np.repeat(model.noise_var, mean.size // model.d))


def dense_observation_logpdf(model, point, z) -> float:
    """Log density of the observation vector z at one test point, by slogdet and solve."""
    mean, cov = dense_observation_posterior(model, point)
    r = np.atleast_1d(np.asarray(z, dtype=float)) - mean
    sign, logdet = np.linalg.slogdet(cov)
    assert sign > 0, "predictive covariance is not positive definite"
    return float(-0.5 * (r @ np.linalg.solve(cov, r) + logdet + r.size * np.log(2.0 * np.pi)))


def _mp_chart_angle(e):
    """Chart angle in [0, 2*pi) of a float 2-vector taken as exact."""
    a = mpmath.atan2(mpmath.mpf(e[1]), mpmath.mpf(e[0]))
    return a + 2 * mpmath.pi if a < 0 else a


def _mp_exponent(kernel, u, v):
    """The exponent log(k(u, v) / omega^2) of any exp-linear kernel, in mpmath.

    u and v are (m, 2) lists of floats taken as exact. hvm is
    lam . d + 2 sum_t corr_t d_i d_j with d_s = u_s . v_s, pvm is hvm with
    corr = 0, pprd is sum (d_s - 1) / ell_s^2 and pse is
    -sum (chart difference on circle s)^2 / (2 ell_s^2).
    """
    m = kernel.m
    t = [mpmath.mpf(x) for x in kernel.theta.tolist()[1:]]
    if kernel.family == "pse":
        gaps = [_mp_chart_angle(u[s]) - _mp_chart_angle(v[s]) for s in range(m)]
        return -sum(g**2 / (2 * ell**2) for g, ell in zip(gaps, t))
    d = [mpmath.mpf(u[s][0]) * mpmath.mpf(v[s][0]) + mpmath.mpf(u[s][1]) * mpmath.mpf(v[s][1]) for s in range(m)]
    if kernel.family == "pprd":
        return sum((ds - 1) / ell**2 for ds, ell in zip(d, t))
    corr = t[m:] if kernel.family == "hvm" else []
    return sum(lv * ds for lv, ds in zip(t, d)) + 2 * sum(
        c * d[i] * d[j] for c, (i, j) in zip(corr, pair_order(m))
    )


def _mp_gram(A, C, kernel):
    """Cross-Gram matrix of (n, m, 2) and (p, m, 2) float inputs, in mpmath."""
    omega2 = mpmath.mpf(float(kernel.theta[0])) ** 2
    K = mpmath.matrix(A.shape[0], C.shape[0])
    for a, u in enumerate(A.tolist()):
        for b, v in enumerate(C.tolist()):
            K[a, b] = omega2 * mpmath.exp(_mp_exponent(kernel, u, v))
    return K


def _mp_icm_system(K_x, B, sigma):
    """B kron K_x + diag(sigma^2) kron I in mpmath, with the float B and sigma taken as exact."""
    n, d = K_x.rows, B.shape[0]
    K = mpmath.matrix(n * d, n * d)
    for i in range(d):
        for j in range(d):
            for a in range(n):
                for b in range(n):
                    K[i * n + a, j * n + b] = mpmath.mpf(float(B[i, j])) * K_x[a, b]
        for a in range(n):
            K[i * n + a, i * n + a] += mpmath.mpf(float(sigma[i])) ** 2
    return K


def mp_hvm_icm(X, kernel, Z, B, sigma, dps=50):
    """F, dF/dB and dF/dsigma of the ICM model in dps-digit arithmetic.

    Every float input is taken as exact; the hvm Gram matrix, the system
    matrix, its Cholesky factor and its inverse are all formed in mpmath.
    Returns float arrays (F, dF/dB, dF/dsigma).
    """
    with mpmath.workdps(dps):
        mpf = mpmath.mpf
        n, d = Z.shape
        N = n * d
        K_x = _mp_gram(X, X, kernel)
        K = _mp_icm_system(K_x, B, sigma)
        z = mpmath.matrix([mpf(float(Z[a, i])) for i in range(d) for a in range(n)])
        L = mpmath.cholesky(K)
        alpha = mpmath.cholesky_solve(K, z)
        Kinv = mpmath.inverse(K)
        logdet = 2 * sum(mpmath.log(L[k, k]) for k in range(N))
        F = -sum(z[k] * alpha[k] for k in range(N)) - logdet - N * mpmath.log(2 * mpmath.pi)
        g_B = np.empty((d, d))
        for i in range(d):
            for j in range(d):
                g_B[i, j] = float(
                    sum(
                        (alpha[i * n + a] * alpha[j * n + b] - Kinv[i * n + a, j * n + b]) * K_x[a, b]
                        for a in range(n)
                        for b in range(n)
                    )
                )
        g_sigma = np.array(
            [
                float(
                    2 * mpf(float(sigma[i]))
                    * sum(alpha[i * n + a] ** 2 - Kinv[i * n + a, i * n + a] for a in range(n))
                )
                for i in range(d)
            ]
        )
        return float(F), g_B, g_sigma


def mp_icm_logpdf(X, kernel, Z, B, sigma, T, zs, dps=50):
    """Predictive log-density of each observation zs[p] at test input T[p], in mpmath.

    The density is that of an ICM GP with any exp-linear kernel conditioned
    on (X, Z): mean (B kron k)^T K^-1 z and covariance
    k(x, x) B - (B kron k)^T K^-1 (B kron k) + R, with k the cross-covariance column of the test point and k(x, x) taken
    at the test point itself. Every float input is taken as exact. Returns a
    float array, one value per test point.
    """
    with mpmath.workdps(dps):
        mpf = mpmath.mpf
        n, d = Z.shape
        Bm = mpmath.matrix([[mpf(float(b)) for b in row] for row in B])
        K = _mp_icm_system(_mp_gram(X, X, kernel), B, sigma)
        Kinv = mpmath.inverse(K)
        alpha = Kinv * mpmath.matrix([mpf(float(Z[a, i])) for i in range(d) for a in range(n)])
        out = []
        for p in range(T.shape[0]):
            k = _mp_gram(X, T[p : p + 1], kernel)
            c0 = _mp_gram(T[p : p + 1], T[p : p + 1], kernel)[0, 0]
            C = mpmath.matrix(n * d, d)  # (B kron k)^T
            for u in range(d):
                for a in range(n):
                    for t in range(d):
                        C[u * n + a, t] = Bm[t, u] * k[a, 0]
            mean = C.T * alpha
            S = c0 * Bm - C.T * (Kinv * C)
            for i in range(d):
                S[i, i] += mpf(float(sigma[i])) ** 2
            r = mpmath.matrix([mpf(float(zs[p][i])) for i in range(d)]) - mean
            quad = (r.T * mpmath.lu_solve(S, r))[0, 0]
            out.append(float(-(quad + mpmath.log(mpmath.det(S)) + d * mpmath.log(2 * mpmath.pi)) / 2))
        return np.array(out)
