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

Each dataset is lifted once (kernel.lift). How K is factored, and how the
theta_f sums are taken, depends on the outputs.

1-D observations: K = K_x + sigma^2 I is n x n. The kernel's self-feature
stack F_f (kernel.self_features, coincident diagonal exact) is formed once
per dataset, and the probes of a fit are scored together, R at a time: their
exponents sum_f c_f F_f, the exp, omega^2, sigma^2 and the finiteness test
run on the (R, n, n) stack. Each row is then factored on its own with
LAPACK's potrf, alpha = K^-1 z comes from potrs and K^-1 from potri, and
sum(W), the sums <W, F_f> (one matrix-vector product with the stack) and
tr(A) are taken on that row alone, so a row's result does not depend on the
rows scored beside it. dF/dB = sum(A * K_x) = sum(W). A row whose system
overflows or is not positive definite is that row's FactorizationError. Each
(R, n, n) array stays within 2 MB (_STACK_BYTES): 163 rows at n = 40, one
row from n = 363 up. At n = 40 a probe's cost is almost all numpy and
LAPACK call overhead, which the stack shares among its rows.

2-D observations, one column included: K is factored by
torusgp.gp.icm_factor (U, lam, S, P and D as defined there), and with
Alpha = U ((U^T Z P) / D) P^T = K^-1 Z,

    log|K|  = n sum_s log sigma_s^2 + sum log D
    Abar    = Alpha B Alpha^T - U diag(D^-1 S) U^T
    dF/dB   = Alpha^T K_x Alpha - P diag(lam^T D^-1) P^T
    dF/dsigma_s = 2 sigma_s (|Alpha_s|^2 - (Q^2 colsum(D^-1))_s / sigma_s^2)

so an evaluation costs one n x n and one d x d eigh and forms no (nd) x (nd)
matrix; kernel.feature_sums takes the theta_f sums from the lift. A failed
factorization raises FactorizationError.

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

The restarts of a fit share nothing but the dataset, and every start is
drawn before any restart runs. Each restart is a generator (_steps) that
yields the point it wants scored, and one driver (_lockstep) runs every
restart: each round it scores the pending probe of each restart still
running in one _Problem.value_and_grad_many call. For 1-D observations all
restarts run in one _lockstep on the calling thread, so each round's probes
share one stacked evaluation. For 2-D observations each restart is a
_lockstep of its own, and the restarts run concurrently: the calling thread
runs restart 0, and up to min(restarts, usable CPUs) - 1 helper threads run
the others. An ICM probe is almost all LAPACK and BLAS time (the n x n eigh
in icm_factor), which releases the GIL. Every helper is joined before
optimize returns or raises. Either way the winner is picked in restart
order and each restart's arithmetic is the serial one, so the result is
bit-identical to a serial run.
"""

import os
import threading
from dataclasses import dataclass
from math import inf, isfinite, sqrt

import numpy as np
from scipy.linalg.lapack import dpotrf as _potrf
from scipy.linalg.lapack import dpotri as _potri
from scipy.linalg.lapack import dpotrs as _potrs

from . import kernels
from .gp import LOG2PI, Dataset, FactorizationError, icm_factor

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

# Each (rows, n, n) array of a stacked one-output evaluation stays within this
# many bytes: 163 rows at n = 40, one row from n = 363 up.
_STACK_BYTES = 2 * 2**20


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
    coordinates and, for 1-D observations, the (nf, n, n) feature stack.
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
        # 1-D observations: the exponent of every probe's K_x is sum_f c_f F_f over this stack
        self.features = None if self.multi else kernel_template.self_features(self.lifted)

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
            raise self._out_of_range()
        v = phi.copy()
        v[self.logs] = grown
        a, b = self.split
        kernel = self.template.with_theta(v[:a])
        G = self.G0.copy()
        G.put(self.tril, v[a:b])
        return kernel, G, G @ G.T, v[b:], grown

    def _out_of_range(self):
        return FactorizationError(
            f"{self.template.family}: hyperparameter coordinates left the representable positive range"
        )

    # -- evaluation ---------------------------------------------------------

    def evaluate(self, kernel, B, sigma):
        """(F, dF/dtheta, dF/dB, dF/dsigma) at constrained hyperparameters.

        B and dF/dB are (d, d), B's entries counting as independent. A
        system matrix that overflows or is not positive definite raises
        FactorizationError.
        """
        if not self.multi:  # one row of the stacked evaluator; dF/dB is sum(A * K_x) = sum(W)
            F, grad, sum_w, failed = self._score(kernel.theta[None], np.atleast_1d(sigma))
            if failed[0] is not None:
                raise failed[0]
            k = kernel.theta.size
            return float(F[0]), grad[0, :k], sum_w[:, None], grad[0, k:]
        K_x = kernel.gram_lifted(self.lifted)
        F, Abar, g_B, g_sigma = self._icm(K_x, B, sigma)
        W = Abar * K_x
        g_theta = np.empty(kernel.theta.size)
        g_theta[0] = (2.0 / kernel.theta[0]) * W.sum()
        g_theta[1:] = kernel.coefficients()[1] * kernel.feature_sums(self.lifted, W)
        return F, g_theta, g_B, g_sigma

    def _score(self, theta, sigma):
        """(F, [dF/dtheta, dF/dsigma], sum(W), failed) at each row of theta
        (rows, nk) and sigma (rows,), for 1-D observations (module docstring).

        failed[r] is None, or the FactorizationError of row r, whose other
        entries are then meaningless. Callers run it under
        np.errstate(all="ignore").
        """
        n, R, family = self.n, len(sigma), self.template.family
        c, dc = self.template.coefficients(theta[:, 1:])
        K_x = c[:, 0, None, None] * self.features[0]
        for f in range(1, len(self.features)):
            K_x += c[:, f, None, None] * self.features[f]
        np.exp(K_x, out=K_x)
        K_x *= (theta[:, 0] ** 2)[:, None, None]
        K = K_x.copy()
        K.reshape(R, -1)[:, :: n + 1] += (sigma**2)[:, None]
        finite = np.isfinite(K.reshape(R, -1)).all(axis=1)
        F, alpha, failed = np.zeros(R), np.zeros((R, n)), [None] * R
        z = self.z
        for r in range(R):
            if not finite[r]:
                failed[r] = FactorizationError(f"{family}: system matrix overflowed at the evaluated coordinates")
                continue
            # K[r] is symmetric, so its transpose is K in LAPACK's column-major
            # order: the factor, and then K^-1, overwrite K[r]'s upper triangle
            L, info = _potrf(K[r].T, lower=1, clean=1, overwrite_a=1)
            if info > 0:
                failed[r] = FactorizationError(f"{family}: system matrix not positive definite")
                continue
            alpha[r], info_s = _potrs(L, z, lower=1)
            F[r] = -float(z @ alpha[r]) - 2.0 * float(np.log(L.diagonal()).sum()) - self.N * LOG2PI
            _, info_i = _potri(L, lower=1, overwrite_c=1)
            if min(info, info_s, info_i) < 0:
                raise ValueError(f"illegal argument to LAPACK: potrf {info}, potrs {info_s}, potri {info_i}")
        # clean=1 zeroed K[r] below its diagonal, so K + K^T holds each entry of
        # K^-1 off the diagonal exactly, and the diagonal is copied back
        inverse = K + K.swapaxes(1, 2)
        inverse.reshape(R, -1)[:, :: n + 1] = K.reshape(R, -1)[:, :: n + 1]
        A = alpha[:, :, None] * alpha[:, None, :]
        A -= inverse
        W = np.multiply(A, K_x, out=K_x)
        sums, trace = np.zeros((R, len(self.features) + 1)), np.zeros(R)
        flat = self.features.reshape(len(self.features), -1)
        for r in range(R):
            if failed[r] is None:
                sums[r, 0] = W[r].sum()
                sums[r, 1:] = flat @ W[r].ravel()
                trace[r] = A[r].trace()
        grad = np.empty((R, theta.shape[1] + 1))
        grad[:, 0] = (2.0 / theta[:, 0]) * sums[:, 0]
        grad[:, 1:-1] = dc * sums[:, 1:]
        grad[:, -1] = 2.0 * sigma * trace
        return F, grad, sums[:, 0], failed

    def _icm(self, K_x, B, sigma):
        """(F, Abar, dF/dB, dF/dsigma) for d outputs from the ICM factor."""
        f, _ = icm_factor(K_x, B, sigma, self.template.family)
        Zt = f.U.T @ self.data.obs @ f.P
        M = Zt / f.D
        logdet = 2.0 * self.n * np.sum(np.log(sigma)) + np.sum(np.log(f.D))
        F = float(-np.sum(Zt * M) - logdet - self.N * LOG2PI)
        Alpha = f.U @ M @ f.P.T
        Abar = Alpha @ B @ Alpha.T - (f.U * (f.Dinv @ f.S)) @ f.U.T
        g_B = f.P @ (M.T @ (f.lam[:, None] * M) - np.diag(f.lam @ f.Dinv)) @ f.P.T
        g_sigma = 2.0 * sigma * (np.sum(Alpha**2, axis=0) - f.P**2 @ f.Dinv.sum(axis=0))
        return F, Abar, g_B, g_sigma

    def value_and_grad(self, phi: np.ndarray):
        """(F, dF/dphi) at phi; FactorizationError if phi cannot be evaluated."""
        (out,) = self.value_and_grad_many(np.asarray(phi, dtype=float)[None])
        if isinstance(out, FactorizationError):
            raise out
        return out

    def value_and_grad_many(self, phis) -> list:
        """(F, dF/dphi) at each row of phis, or the FactorizationError that
        rejects the row; any other error is raised.

        A line-search probe can push exp(), and ell^-2 with it, past the float
        range either way. That is the row's FactorizationError, as is an
        overflowed or indefinite system: a rejected step, whose gradient the
        optimizer never reads. 1-D rows are scored in stacked calls of
        _STACK_BYTES at most, 2-D rows one at a time through the ICM factor.
        """
        phis = np.asarray(phis, dtype=float)
        out = []
        with np.errstate(all="ignore"):
            if self.multi:
                for phi in phis:
                    try:
                        kernel, G, B, sigma, grown = self.unpack(phi)
                        F, g_theta, g_B, g_sigma = self.evaluate(kernel, B, sigma)
                    except FactorizationError as err:
                        # dropped: its traceback holds this frame, and out with it,
                        # a cycle that would keep each rejected probe's arrays alive
                        out.append(err.with_traceback(None))
                        continue
                    grad = np.concatenate([g_theta, ((g_B + g_B.T) @ G).take(self.tril), g_sigma])
                    grad[self.logs] *= grown  # d exp(phi_i) / d phi_i on the log coordinates
                    out.append((F, grad))
                return out
            step = max(1, _STACK_BYTES // (8 * self.n * self.n))
            for i in range(0, len(phis), step):
                grown = np.exp(phis[i : i + step])  # every coordinate of a 1-D fit is a log
                F, grad, _, failed = self._score(grown[:, :-1], grown[:, -1])
                grad *= grown
                for r, ok in enumerate(((0.0 < grown) & (grown < inf)).all(axis=1).tolist()):
                    if not ok:
                        failed[r] = self._out_of_range()
                    out.append((float(F[r]), grad[r]) if failed[r] is None else failed[r])
        return out


def _constrained(theta, B, sigma) -> np.ndarray:
    """[kernel theta, vec(B) column-major, sigma]."""
    return np.concatenate([theta, np.ravel(B, order="F"), sigma])


def _at_hyperparameters(dataset, kernel, noise_sigma, coreg):
    dataset = _as_dataset(dataset)
    B, sigma = dataset.hyperparameters(coreg, noise_sigma)
    with np.errstate(all="ignore"):
        return _Problem(dataset, kernel).evaluate(kernel, B, sigma)


def objective(dataset, kernel, noise_sigma, coreg=None) -> float:
    """F(theta) for explicit hyperparameters (see the module docstring).

    noise_sigma holds the noise deviations, a scalar or one per output, each positive and finite; coreg,
    for 2-D observations only, is finite and symmetric (Dataset.hyperparameters), else ValueError.
    Raises FactorizationError if K is not positive definite.
    """
    return _at_hyperparameters(dataset, kernel, noise_sigma, coreg)[0]


def gradient(dataset, kernel, noise_sigma, coreg=None):
    """Constrained-space gradient of F, as (names, values), at objective's arguments and rule.

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
    return dataset if isinstance(dataset, Dataset) else Dataset.from_data(*dataset)


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
    at 0, so every one has a log. Observations whose statistics overflow
    (above about 1e154) raise FactorizationError naming the family.
    """
    dataset = _as_dataset(dataset)
    kernel = kernels.kernel_from_family(family, dataset.m)
    if dataset.multi_output and dataset.n < 2:
        raise FactorizationError(f"{family}: a multi-output fit needs 2 or more observations for their covariance")
    with np.errstate(over="ignore", invalid="ignore"):
        scale = float(np.std(dataset.obs))
        sig = np.atleast_1d(0.1 * np.std(dataset.obs, axis=0))
        cov = np.atleast_2d(np.cov(dataset.obs.T)) if dataset.multi_output else np.ones((1, 1))
    if not (isfinite(scale) and np.all(np.isfinite(sig)) and np.all(np.isfinite(cov))):
        raise FactorizationError(f"{family}: the observations' deviation or covariance overflows")
    if not scale > 0.0:
        scale = 1.0
    kernel = kernel.with_theta(np.concatenate([[scale], kernel.theta[1:]]))
    sig[sig <= 0.0] = 0.1
    return kernel, sig, _psd_project(cov, floor=1e-6) if dataset.multi_output else cov


def optimize(
    dataset,
    family,
    *,
    budget=150,
    restarts=4,
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
    budget, restarts, seed : iteration cap, multi-start count, RNG seed
    rel_tol, grad_tol : termination thresholds (see the module docstring)

    Returns
    -------
    OptResult for the best restart. Identical arguments give a bitwise
    identical result. Raises FactorizationError if every restart fails at
    its starting point.

    1-D fits run their restarts in lockstep on the calling thread, each
    round's probes scored in one stacked call; no restart's record depends
    on the restart count. For 2-D observations the restarts run
    concurrently, on the calling thread plus up to min(restarts, usable
    CPUs) - 1 helper threads; the result is the serial one, bit for bit.
    Any exception other than FactorizationError is raised here, for 2-D
    observations that of the lowest restart first, and no helper thread
    outlives the call.
    """
    dataset = _as_dataset(dataset)
    kern0, sig0, B0 = default_initialization(dataset, family)
    prob = _Problem(dataset, kern0)
    G0 = np.linalg.cholesky(_psd_project(B0))
    phi0 = prob.pack(kern0, G0, sig0)

    rng = np.random.default_rng(seed)
    starts = [phi0] + [phi0 + rng.normal(0.0, 0.5, size=phi0.shape) for _ in range(1, max(1, restarts))]
    args = (budget, rel_tol, grad_tol)
    if prob.multi:
        runs = _ascend_all(prob, starts, min(len(starts), _usable_cpus()), *args)
    else:
        runs = _lockstep(prob, starts, *args)
    best = None
    restart_objectives, restart_failures = [], []
    last_error = None
    for r, run in enumerate(runs):
        if isinstance(run, FactorizationError):
            last_error = run
            restart_objectives.append(float("-inf"))
            restart_failures.append(f"restart {r}: {run}")
            continue
        if isinstance(run, Exception):
            raise run
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


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API (macOS, Windows)
        return os.cpu_count() or 1


def _ascend_all(prob: _Problem, starts: list, workers: int, *args) -> list:
    """A _lockstep of one start for every start, on the calling thread and
    workers - 1 helpers.

    Returns each start's outcome from _lockstep, or the exception it
    raised, by index. The caller runs start 0 and helper k start k; then
    each thread takes the lowest start no thread has taken yet. After an
    exception no thread takes a new start, so every start below it still
    has its outcome, as in a serial loop that stops there. Every helper is
    joined before this returns or raises.
    """
    outcomes = [None] * len(starts)
    pending = iter(range(len(starts)))
    lock, stop = threading.Lock(), threading.Event()

    def work(r):
        while r is not None:
            try:
                (outcomes[r],) = _lockstep(prob, starts[r : r + 1], *args)
            except Exception as err:  # handed to the caller by index
                outcomes[r] = err
                stop.set()
            with lock:
                r = None if stop.is_set() else next(pending, None)

    first = [next(pending) for _ in range(workers)]
    helpers = []
    try:
        for r in first[1:]:
            thread = threading.Thread(target=work, args=(r,))
            thread.start()
            helpers.append(thread)
        work(first[0])
    finally:
        stop.set()
        for thread in helpers:
            thread.join()
    return outcomes


def _norm(x: np.ndarray) -> float:
    """np.linalg.norm of a vector, the same sqrt of the same dot product, without its dispatch."""
    return sqrt(x.dot(x))


def _lockstep(prob: _Problem, starts: list, *args) -> list:
    """_steps from every start at once.

    Each round scores the pending probe of every restart still running in
    one prob.value_and_grad_many call. Returns each start's record, or the
    FactorizationError that failed it at its start, by index; any other
    exception is raised at once.
    """
    steps = [_steps(phi0, *args) for phi0 in starts]
    pending = {r: next(run) for r, run in enumerate(steps)}  # restart -> the point it waits on
    outcomes = [None] * len(starts)
    with np.errstate(all="ignore"):
        while pending:
            scored = prob.value_and_grad_many(list(pending.values()))
            for r, result in zip(list(pending), scored):
                try:
                    if isinstance(result, FactorizationError):
                        pending[r] = steps[r].throw(result)
                    else:
                        pending[r] = steps[r].send(result)
                except StopIteration as done:
                    outcomes[r] = done.value
                    del pending[r]
                except FactorizationError as err:
                    outcomes[r] = err
                    del pending[r]
    return outcomes


def _steps(phi0: np.ndarray, budget: int, rel_tol: float, grad_tol: float):
    """BFGS ascent with backtracking; accepts only strictly improving steps.

    A generator: it yields each point to evaluate and is sent its (F,
    dF/dphi), or thrown the FactorizationError that rejects it. It returns
    the restart's record, keyed by OptResult's field names, and phi.
    _lockstep runs it under np.errstate(all="ignore"): gradients
    near the float range overflow _norm and the BFGS products, such a step
    skips the update, and no warning reaches the caller.
    """
    phi = np.asarray(phi0, dtype=float).copy()
    F, g = yield phi
    if not isfinite(F):
        raise FactorizationError("objective not finite at the starting point")
    p = phi.size
    H = np.eye(p)
    trace = [F]
    stop_reason = "budget"
    iterations = backtracks = 0
    first_update = True
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
                    F_new, g_new = yield phi_new
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
