"""Scalar reference kernels, evaluated one point pair at a time.

These are the textbook per-pair formulas the vectorized
torusgp.kernels.ExpLinearKernel is checked against: the von Mises kernel on
S^1, the coupled kernel on T^m, and the three per-circle product baselines
with one signal scale per circle. ``gram`` fills a matrix from any of them
by a plain double loop.
"""

from dataclasses import dataclass

import numpy as np

from torusgp.kernels import HvmHyperparams, pair_order
from torusgp.manifold import CirclePoint, TorusPoint, as_input_array


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


def k_vm(u: CirclePoint, v: CirclePoint, p: VmHyperparams) -> float:
    """von Mises kernel on S^1: omega^2 * exp(lam * u.v)."""
    d = u.e1 * v.e1 + u.e2 * v.e2
    return float(p.omega**2 * np.exp(p.lam * d))


def k_hvm(u: TorusPoint, v: TorusPoint, p: HvmHyperparams) -> float:
    """Coupled-torus kernel omega^2 * exp(lam . d + 2 sum_t corr_t d_i d_j)."""
    if u.m != p.m or v.m != p.m:
        raise ValueError(f"points have {u.m}/{v.m} circles, parameters expect {p.m}")
    d = np.sum(u.array * v.array, axis=1)
    quad = 2.0 * sum(c * d[i] * d[j] for c, (i, j) in zip(p.corr, pair_order(p.m)))
    return float(p.omega**2 * np.exp(float(np.dot(p.lam, d)) + quad))


def k_pse(u: TorusPoint, v: TorusPoint, p: BaselineKernelParams) -> float:
    """Product of squared-exponential factors on unwrapped chart differences.

    Both angles are first mapped into [0, 2*pi); the factor uses the raw
    difference of the chart values, so the kernel is aperiodic across the
    chart seam by construction.
    """
    _check_m(u, v, p)
    a, b = u.angles, v.angles
    om = np.asarray(p.omega)
    ell = np.asarray(p.scale)
    return float(np.prod(om**2 * np.exp(-((a - b) ** 2) / (2.0 * ell**2))))


def k_pprd(u: TorusPoint, v: TorusPoint, p: BaselineKernelParams) -> float:
    """Product of periodic factors exp(-2 sin^2((a - b)/2) / l^2) per circle."""
    _check_m(u, v, p)
    a, b = u.angles, v.angles
    om = np.asarray(p.omega)
    ell = np.asarray(p.scale)
    return float(np.prod(om**2 * np.exp(-2.0 * np.sin((a - b) / 2.0) ** 2 / ell**2)))


def k_pvm(u: TorusPoint, v: TorusPoint, p: BaselineKernelParams) -> float:
    """Product of von Mises factors omega_s^2 * exp(lam_s * u_s.v_s)."""
    _check_m(u, v, p)
    d = np.sum(u.array * v.array, axis=1)
    om = np.asarray(p.omega)
    lam = np.asarray(p.scale)
    return float(np.prod(om**2 * np.exp(lam * d)))


def _check_m(u: TorusPoint, v: TorusPoint, p) -> None:
    if u.m != v.m:
        raise ValueError(f"torus dimensions differ: {u.m} vs {v.m}")
    if u.m != p.m:
        raise ValueError(f"points have {u.m} circles, parameters expect {p.m}")


def gram(inputs_a, inputs_b, kernel) -> np.ndarray:
    """Cross-covariance matrix of a scalar kernel k(u, v) by a double loop."""
    A = as_input_array(inputs_a)
    B = as_input_array(inputs_b, m=A.shape[1])
    out = np.empty((A.shape[0], B.shape[0]))
    for i in range(A.shape[0]):
        ui = TorusPoint.from_array(A[i])
        for j in range(B.shape[0]):
            out[i, j] = kernel(ui, TorusPoint.from_array(B[j]))
    return out
