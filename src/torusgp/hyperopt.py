"""Marginal-likelihood hyperparameter fitting.

The training objective is twice the log marginal likelihood of the observed
data under the GP prior plus noise,

    F(theta) = -z^T K^-1 z - log|K| - N log(2 pi),

with N the length of the (output-major) observation vector and K the system
matrix B kron K_x + R kron I_n from torusgp.gp. B is always a (d, d) array
and the noise a (d,) vector: 1-D observations are d = 1, with B = [[1]]
pinned, not fitted. With alpha = K^-1 z and A = alpha alpha^T - K^-1 in
n x n blocks A_ij, the gradient in a coordinate is sum(A * dK/dtheta_i).
Every kernel is K_x = omega^2 exp(sum_f c_f F_f) (torusgp.kernels), so
with Abar = sum_ij B_ij A_ij one contraction serves all kernel coordinates:

    d omega:   (2/omega) * sum(Abar * K_x)
    d theta_f: c_f' * sum(Abar * K_x * F_f)
    d B_ij:    sum(A_ij * K_x)                  (each entry independent)
    d sigma_s: 2 sigma_s * tr(A_ss)

Each dataset is lifted once (kernel.lift), and kernel.feature_sums takes
the theta_f sums from that lift. How K is factored depends on the outputs.

1-D observations: K = K_x + sigma^2 I is n x n, and its Cholesky factor gives
F and, for the gradient, A = alpha alpha^T - K^-1. The optimizer evaluates
F and its gradient at every line-search probe, and at n = 40 (case study 1,
hvm and pse, one BLAS thread) a probe through the ICM factor (which
torusgp.gp.fit uses for any number of outputs) cost 2.2 to 2.6 times as
much as one through Cholesky, so this path stays on Cholesky.

2-D observations, one column included: K is factored by
torusgp.gp.icm_factor (U, lam, S, P and D as defined there), and with
Alpha = U ((U^T Z P) / D) P^T = K^-1 Z,

    log|K|  = n sum_s log sigma_s^2 + sum log D
    Abar    = Alpha B Alpha^T - U diag(D^-1 S) U^T
    dF/dB   = Alpha^T K_x Alpha - P diag(lam^T D^-1) P^T
    dF/dsigma_s = 2 sigma_s (|Alpha_s|^2 - (Q^2 colsum(D^-1))_s / sigma_s^2)

so an evaluation costs one n x n and one d x d eigh and forms no (nd) x (nd)
matrix. A failed factorization raises FactorizationError.

Optimization runs in unconstrained coordinates phi:

    omega, lam, corr, lengthscales, sigma  ->  log(.)
    B = G G^T with G lower triangular      ->  log on diag(G), raw off-diagonal
                                              (2-D observations only)

from a family's default start, which has no coordinate at 0, and ascends
with BFGS directions under monotone backtracking acceptance (only improving
steps are ever accepted, so the trace of accepted objective values is
nondecreasing by construction). Termination: gradient norm below
grad_tol * (1 + |F|), relative objective change below rel_tol, or the
iteration budget. A run counts as converged when the gradient rule fired, or
when it stalled with a final gradient norm below 1e-4 * (1 + |F|).
"""

from dataclasses import dataclass
from math import inf, isfinite, sqrt

import numpy as np
from scipy.linalg.lapack import dpotrs as _potrs

from . import kernels
from .gp import Dataset, FactorizationError, icm_factor

__all__ = [
    "Dataset",
    "OptResult",
    "objective",
    "gradient",
    "default_initialization",
    "optimize",
    "GRAD_CONVERGED_FACTOR",
]

# A stalled run still counts as converged if it ends this close to stationary.
GRAD_CONVERGED_FACTOR = 1e-4

_LOG2PI = float(np.log(2.0 * np.pi))


@dataclass
class OptResult:
    """Outcome of one optimize() call (best restart).

    coreg is the (d, d) mixing matrix, [[1.0]] and not fitted for 1-D
    observations; noise_sigma and noise_var are (d,). trace holds the
    accepted objective values of the winning restart, in order; converged
    follows the rule in the module docstring. evaluations counts that
    restart's evaluations of F and its gradient, failed ones included: the
    start, one per accepted step and one per line-search step halving
    (backtracks). restart_objectives has -inf for each restart that failed
    at its start, and restart_failures the error message of each.
    """

    kernel: object
    noise_sigma: np.ndarray
    coreg: np.ndarray
    objective: float
    iterations: int
    converged: bool
    stop_reason: str
    grad_norm: float
    trace: list
    restart: int
    evaluations: int
    backtracks: int
    restart_objectives: list
    restart_failures: list

    @property
    def noise_var(self) -> np.ndarray:
        return self.noise_sigma**2

    def theta_vector(self):
        """[kernel theta, vec(B) column-major, sigma]; vec(B) is [1.0] for 1-D observations."""
        return _constrained(self.kernel.theta, self.coreg, self.noise_sigma)

    def summary(self) -> dict:
        return {
            "objective": self.objective,
            "iterations": self.iterations,
            "converged": self.converged,
            "stop_reason": self.stop_reason,
            "grad_norm": self.grad_norm,
            "restart": self.restart,
            "evaluations": self.evaluations,
            "backtracks": self.backtracks,
            "restart_objectives": list(self.restart_objectives),
            "failed_restarts": len(self.restart_failures),
            "restart_failures": list(self.restart_failures),
            "trace": [float(v) for v in self.trace],
        }


class _Problem:
    """Objective/gradient in unconstrained coordinates for one dataset.

    kernel_template fixes the family and torus; every kernel coordinate is
    fitted. Everything a probe shares with the next is formed once here: the
    kernel's lift of the training inputs, the positions of phi's log
    coordinates and, for 1-D observations, the identity that K^-1 is solved
    from.
    """

    def __init__(self, dataset: Dataset, kernel_template):
        self.data = dataset
        self.template = kernel_template
        self.lifted = kernel_template.lift(dataset.inputs)
        self.d = dataset.d
        self.multi = dataset.multi_output
        self.n = dataset.n
        self.z = dataset.zvec
        self.N = self.z.size
        # free entries of the mixing-matrix factor G, as flat positions in G:
        # its lower triangle, row by row, for 2-D observations; none for 1-D
        # ones, where B = [[1]] is pinned
        rows, cols = np.tril_indices(self.d if self.multi else 0)
        self.tril, self.diag = rows * self.d + cols, rows == cols
        self.G0 = np.eye(self.d)
        # phi is [log theta, G's free entries, log sigma]; the entries of G off
        # its diagonal are raw, every other coordinate is a log
        nk, ng = kernel_template.theta.size, self.diag.size
        self.split = (nk, nk + ng)
        self.logs = np.concatenate(
            [np.arange(nk), nk + np.flatnonzero(self.diag), np.arange(nk + ng, nk + ng + self.d)]
        )
        self.eye = None if self.multi else np.eye(self.n)  # solved against, never overwritten

    # -- packing ------------------------------------------------------------

    def pack(self, kernel, G: np.ndarray, sigma: np.ndarray) -> np.ndarray:
        g = np.ravel(G)[self.tril]
        g[self.diag] = np.log(g[self.diag])
        return np.concatenate([np.log(kernel.theta), g, np.log(np.atleast_1d(sigma))])

    def unpack(self, phi: np.ndarray):
        """(kernel, G, B = G G^T, sigma, exp of phi's log coordinates) at phi.

        G is the identity off the free entries. Callers run it, and evaluate,
        under np.errstate(all="ignore"), as value_and_grad does.
        """
        phi = np.asarray(phi, dtype=float)
        grown = np.exp(phi[self.logs])
        if not (all(map(isfinite, phi.tolist())) and all(0.0 < v < inf for v in grown.tolist())):
            raise FactorizationError(
                f"{self.template.family}: hyperparameter coordinates "
                "left the representable positive range"
            )
        v = phi.copy()
        v[self.logs] = grown
        a, b = self.split
        kernel = self.template.with_theta(v[:a])
        G = self.G0.copy()
        G.put(self.tril, v[a:b])
        return kernel, G, G @ G.T, v[b:], grown

    # -- evaluation ---------------------------------------------------------

    def evaluate(self, kernel, B, sigma):
        """(F, dF/dtheta, dF/dB, dF/dsigma) at constrained hyperparameters.

        B and dF/dB are (d, d), B's entries counting as independent. A
        system matrix that overflows or is not positive definite raises
        FactorizationError.
        """
        K_x = kernel.gram_lifted(self.lifted)
        if self.multi:
            F, Abar, g_B, g_sigma = self._icm(K_x, B, sigma)
        else:
            F, Abar, g_B, g_sigma = self._cholesky(K_x, sigma)
        W = Abar * K_x
        g_theta = np.empty(kernel.theta.size)
        g_theta[0] = (2.0 / kernel.theta[0]) * W.sum()
        g_theta[1:] = kernel.coefficients()[1] * kernel.feature_sums(self.lifted, W)
        return F, g_theta, g_B, g_sigma

    def _cholesky(self, K_x, sigma):
        """(F, Abar, dF/dB, dF/dsigma) for 1-D observations: K = K_x + sigma^2 I."""
        K = K_x.copy()
        K.reshape(-1)[:: self.n + 1] += sigma**2
        if not np.isfinite(K).all():
            raise FactorizationError(
                f"{self.template.family}: system matrix overflowed at the evaluated coordinates"
            )
        try:
            L = np.linalg.cholesky(K)
        except np.linalg.LinAlgError:
            raise FactorizationError(
                f"{self.template.family}: system matrix not positive definite"
            ) from None
        # the lower factor in LAPACK's column-major order, copied once for both
        # solves; K was checked finite above, so its factor is too
        Lf = np.asfortranarray(L)
        z = self.z
        alpha = _cho_solve(Lf, z)
        F = -float(z @ alpha) - 2.0 * float(np.log(L.diagonal()).sum()) - self.N * _LOG2PI
        A = alpha[:, None] * alpha  # np.outer(alpha, alpha)
        A -= _cho_solve(Lf, self.eye)
        # dF/dB = sum(A * K_x), as one dot product
        return F, A, np.array([[np.vdot(A, K_x)]]), 2.0 * sigma * np.einsum("ii->", A)

    def _icm(self, K_x, B, sigma):
        """(F, Abar, dF/dB, dF/dsigma) for d outputs from the ICM factor."""
        f, _ = icm_factor(K_x, B, sigma, self.template.family)
        Zt = f.U.T @ self.data.obs @ f.P
        M = Zt / f.D
        logdet = 2.0 * self.n * np.sum(np.log(sigma)) + np.sum(np.log(f.D))
        F = float(-np.sum(Zt * M) - logdet - self.N * _LOG2PI)
        Alpha = f.U @ M @ f.P.T
        Abar = Alpha @ B @ Alpha.T - (f.U * (f.Dinv @ f.S)) @ f.U.T
        g_B = f.P @ (M.T @ (f.lam[:, None] * M) - np.diag(f.lam @ f.Dinv)) @ f.P.T
        g_sigma = 2.0 * sigma * (np.sum(Alpha**2, axis=0) - f.P**2 @ f.Dinv.sum(axis=0))
        return F, Abar, g_B, g_sigma

    def value_and_grad(self, phi: np.ndarray):
        """(F, dF/dphi) at phi; FactorizationError if phi cannot be evaluated."""
        # A line-search probe can push exp(), and ell^-2 with it, past the float
        # range either way. unpack reports that as a FactorizationError, so the
        # caller backs off instead of crashing inside a parameter constructor,
        # and evaluate raises the same error on an overflowed or indefinite
        # system: a rejected step, whose gradient the optimizer never reads.
        with np.errstate(all="ignore"):
            kernel, G, B, sigma, grown = self.unpack(phi)
            F, g_theta, g_B, g_sigma = self.evaluate(kernel, B, sigma)
        grad = np.concatenate([g_theta, ((g_B + g_B.T) @ G).take(self.tril), g_sigma])
        grad[self.logs] *= grown  # d exp(phi_i) / d phi_i on the log coordinates
        return F, grad


def _cho_solve(Lf, b):
    """K^-1 b from K's lower Cholesky factor Lf in column-major order.

    The LAPACK potrs call that scipy.linalg.cho_solve makes, without its
    argument checks; b is copied, never overwritten.
    """
    x, info = _potrs(Lf, b, lower=1)
    if info != 0:
        raise ValueError(f"illegal value in {-info}th argument of internal potrs")
    return x


def _constrained(theta, B, sigma) -> np.ndarray:
    """[kernel theta, vec(B) column-major, sigma]."""
    return np.concatenate([theta, np.ravel(B, order="F"), sigma])


def _at_hyperparameters(dataset, kernel, noise_sigma, coreg):
    dataset = _as_dataset(dataset)
    if (coreg is not None) != dataset.multi_output:
        raise ValueError("coreg must be given for multi-output data, and only then")
    sigma = np.asarray(noise_sigma, dtype=float) * np.ones(dataset.d)
    B = np.ones((1, 1)) if coreg is None else np.asarray(coreg, dtype=float)
    with np.errstate(all="ignore"):
        return _Problem(dataset, kernel).evaluate(kernel, B, sigma)


def objective(dataset, kernel, noise_sigma, coreg=None) -> float:
    """F(theta) for explicit hyperparameters (see the module docstring).

    noise_sigma is the noise standard deviation (scalar, or one per output).
    Raises FactorizationError if K is not positive definite.
    """
    return _at_hyperparameters(dataset, kernel, noise_sigma, coreg)[0]


def gradient(dataset, kernel, noise_sigma, coreg=None):
    """Constrained-space gradient of F, as (names, values).

    Coordinate order: kernel theta, then vec(B) column-major (multi-output
    only, each entry independent), then the per-output noise deviations.
    """
    _, g_theta, g_B, g_sigma = _at_hyperparameters(dataset, kernel, noise_sigma, coreg)
    if coreg is None:  # 1-D observations: B = [[1]] is pinned, not a coordinate
        g_B = np.empty((0, 0))
    d = g_B.shape[0]
    names = list(kernel.theta_names) + [f"b_{i + 1}{j + 1}" for j in range(d) for i in range(d)]
    names += [f"sigma_r_{s + 1}" for s in range(g_sigma.size)]
    return tuple(names), _constrained(g_theta, g_B, g_sigma)


def _as_dataset(dataset) -> Dataset:
    if isinstance(dataset, Dataset):
        return dataset
    return Dataset.from_data(*dataset)


def _psd_project(B: np.ndarray, floor: float = 1e-10) -> np.ndarray:
    """Nearest-in-spirit PSD version of a symmetric matrix (eigenvalue clip)."""
    B = 0.5 * (B + B.T)
    w, V = np.linalg.eigh(B)
    w = np.maximum(w, max(floor, floor * np.max(np.abs(w))))
    return (V * w) @ V.T


def default_initialization(dataset, family):
    """Data-driven starting point of a family: (kernel, noise_sigma (d,), coreg (d, d)).

    family is one of "hvm", "pvm", "pprd", "pse". omega starts at the sample
    deviation of the observations (1 where that is 0), concentrations at 1,
    pair weights at 0.1, length scales at 1 (pprd) or 2 (pse), noise at a
    tenth of the per-output deviation (0.1 where that is 0), and the mixing
    matrix at the PSD-projected sample output covariance for 2-D
    observations; 1-D ones have the pinned B = [[1]]. No coordinate starts
    at 0, so every one has a log.
    """
    dataset = _as_dataset(dataset)
    kernel = kernels.kernel_from_family(family, dataset.m)
    scale = float(np.std(dataset.obs))
    if not scale > 0.0:
        scale = 1.0
    kernel = kernel.with_theta(np.concatenate([[scale], kernel.theta[1:]]))
    sig = np.atleast_1d(0.1 * np.std(dataset.obs, axis=0))
    sig[sig <= 0.0] = 0.1
    if not dataset.multi_output:
        return kernel, sig, np.ones((1, 1))
    return kernel, sig, _psd_project(np.atleast_2d(np.cov(dataset.obs.T)), floor=1e-6)


def optimize(
    dataset,
    family,
    *,
    restarts=4,
    budget=150,
    seed=0,
    rel_tol=1e-6,
    grad_tol=1e-5,
) -> OptResult:
    """Fit hyperparameters by monotone ascent on F from multiple starts.

    Restart 0 starts from default_initialization of the family. Further
    restarts perturb its unconstrained coordinates with seeded Gaussian
    noise. Every kernel coordinate is fitted; the product von Mises kernel,
    HvM with zero pair weights, is its own family, "pvm".

    Parameters
    ----------
    dataset : Dataset or (inputs, obs) pair
    family : one of "hvm", "pvm", "pprd", "pse"; anything else raises
        ValueError
    restarts, budget, seed : multi-start count, iteration cap, RNG seed
    rel_tol, grad_tol : termination thresholds (see the module docstring)

    Returns
    -------
    OptResult for the best restart. Identical arguments give a bitwise
    identical result. Raises FactorizationError if every restart fails at
    its starting point.
    """
    dataset = _as_dataset(dataset)
    kern0, sig0, B0 = default_initialization(dataset, family)
    prob = _Problem(dataset, kern0)
    G0 = np.linalg.cholesky(_psd_project(B0))
    phi0 = prob.pack(kern0, G0, sig0)

    rng = np.random.default_rng(seed)
    best = None
    restart_objectives, restart_failures = [], []
    last_error = None
    for r in range(max(1, restarts)):
        phi_start = phi0 if r == 0 else phi0 + rng.normal(0.0, 0.5, size=phi0.shape)
        try:
            run = _ascend(prob, phi_start, budget, rel_tol, grad_tol)
        except FactorizationError as err:
            last_error = err
            restart_objectives.append(float("-inf"))
            restart_failures.append(f"restart {r}: {err}")
            continue
        restart_objectives.append(run["objective"])
        if best is None or run["objective"] > best["objective"]:
            best = run
            best["restart"] = r
    if best is None:
        raise last_error
    with np.errstate(all="ignore"):
        kernel, _, B, sigma, _ = prob.unpack(best.pop("phi"))
    return OptResult(
        kernel=kernel,
        noise_sigma=sigma,
        coreg=B,
        restart_objectives=restart_objectives,
        restart_failures=restart_failures,
        **best,
    )


def _norm(x: np.ndarray) -> float:
    """np.linalg.norm of a vector, the same sqrt of the same dot product, without its dispatch."""
    return sqrt(x.dot(x))


def _ascend(prob: _Problem, phi0: np.ndarray, budget: int, rel_tol: float, grad_tol: float):
    """BFGS ascent with backtracking; accepts only strictly improving steps.

    Returns the restart's record, keyed by OptResult's field names, and phi.
    """
    phi = np.asarray(phi0, dtype=float).copy()
    F, g = prob.value_and_grad(phi)
    if not isfinite(F):
        raise FactorizationError("objective not finite at the starting point")
    p = phi.size
    H = np.eye(p)
    trace = [F]
    stop_reason = "budget"
    iterations = backtracks = 0
    first_update = True
    # gradients near the float range overflow _norm and the BFGS products;
    # such a step skips the update, and no warning reaches the caller
    with np.errstate(all="ignore"):
        for it in range(budget):
            gnorm = _norm(g)
            if gnorm < grad_tol * (1.0 + abs(F)):
                stop_reason = "gradient_norm"
                break
            direction = H @ g
            if float(direction @ g) <= 0.0:
                H = np.eye(p)
                direction = g
            accepted = False
            for attempt in range(2):
                slope = float(direction @ g)
                t = 1.0 if it > 0 else min(1.0, 1.0 / max(1.0, gnorm))
                for _ in range(40):
                    phi_new = phi + t * direction
                    try:
                        F_new, g_new = prob.value_and_grad(phi_new)
                    except FactorizationError:
                        F_new = -inf
                    if isfinite(F_new) and F_new > F + 1e-4 * t * slope:
                        accepted = True
                        break
                    t *= 0.5
                    backtracks += 1
                if accepted or attempt == 1:
                    break
                # quasi-Newton direction failed outright: fall back to steepest
                H = np.eye(p)
                direction = g
            if not accepted:
                stop_reason = "step_failure"
                break
            s = phi_new - phi
            y = -(g_new - g)  # gradient change of -F (minimization form)
            sy = float(s @ y)
            if sy > 1e-10 * _norm(s) * _norm(y):
                if first_update:
                    H = (sy / float(y @ y)) * np.eye(p)
                    first_update = False
                rho = 1.0 / sy
                Hy = H @ y
                sHy = s[:, None] * Hy  # np.outer(s, Hy); its transpose is np.outer(Hy, s)
                H = H - rho * (sHy + sHy.T) + rho * (rho * float(y @ Hy) + 1.0) * (s[:, None] * s)
            delta = F_new - F
            phi, F, g = phi_new, F_new, g_new
            trace.append(F)
            iterations = it + 1
            if abs(delta) < rel_tol * max(1.0, abs(F)):
                stop_reason = "objective_change"
                break
        gnorm = _norm(g)
    converged = stop_reason == "gradient_norm" or (
        stop_reason in ("objective_change", "step_failure")
        and gnorm < GRAD_CONVERGED_FACTOR * (1.0 + abs(F))
    )
    return {
        "phi": phi,
        "objective": F,
        "iterations": iterations,
        "converged": converged,
        "stop_reason": stop_reason,
        "grad_norm": gnorm,
        "trace": trace,
        "evaluations": 1 + iterations + backtracks,
        "backtracks": backtracks,
    }
