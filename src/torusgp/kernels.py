"""Covariance functions on hypertori.

Every kernel here has the exp-linear form

    K = omega^2 * exp(sum_f c_f(theta) * F_f)

over a fixed stack of feature matrices F_f, one per coordinate of theta
after omega, with a coefficient c_f that depends on that coordinate alone.
D^s holds the embedded inner products u_s . v_s on circle s:

    family  features F_f                        coefficients c_f
    hvm     D^s, then D^i * D^j in pair order    lam_s, then 2 * corr_t
    pvm     D^s                                  lam_s
    pprd    D^s - 1                              ell_s^-2
    pse     -(chart difference on circle s)^2/2  ell_s^-2

hvm is the coupled kernel omega^2 exp(lam . d + d^T Lam d), where Lam is
hollow and symmetric with the pair weights corr >= 0 off the diagonal,
stored in the canonical pair order (1,2), (2,3), ..., (m-1,m), (1,3), ...;
with corr = 0 it is pvm, a product of per-circle von Mises kernels. pprd is
the periodic factor exp(-2 sin^2((a - b)/2) / l^2) = exp((u.v - 1) / l^2).
pse uses raw differences of chart angles in [0, 2*pi), so it is deliberately
aperiodic across the chart seam. The derivatives follow from the form:

    dK/d omega   = (2 / omega) * K
    dK/d theta_f = c_f'(theta_f) * K * F_f

A kernel is named by its family, m and theta alone; the optimizer, model
files and the case-2 parameter sets all carry that form.
"""

import numpy as np

from .manifold import chart_angles

__all__ = [
    "pair_order",
    "component_distances",
    "ExpLinearKernel",
    "kernel_from_family",
]


def pair_order(m: int) -> list:
    """Canonical circle-pair order: adjacent pairs first, then wider gaps.

    For m=3 this is [(0, 1), (1, 2), (0, 2)] (zero-based).
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    return [(i, i + g) for g in range(1, m) for i in range(m - g)]


def component_distances(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Componentwise inner products between two input sets.

    A: (n, m, 2), B: (p, m, 2)  ->  (m, n, p) with D[s, i, j] = A_is . B_js.
    """
    # einsum("imk,jmk->mij")'s products, sums and memory layout, without its slow strided loop
    D = A[:, None, :, 0] * B[None, :, :, 0] + A[:, None, :, 1] * B[None, :, :, 1]
    return D.transpose(2, 0, 1)


def _chart_features(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    F = chart_angles(A)[:, None, :] - chart_angles(B)[None, :, :]
    F *= F
    F *= -0.5
    return F.transpose(2, 0, 1)


# family -> (per-circle features, per-circle coordinate, its default value).
# Coordinates named "lam" enter the exponent linearly, coordinates named
# "ell" as ell^-2; only hvm adds the pair features, with weights from 0.1.
_FAMILIES = {
    "hvm": (component_distances, "lam", 1.0),
    "pvm": (component_distances, "lam", 1.0),
    "pprd": (lambda A, B: component_distances(A, B) - 1.0, "ell", 1.0),
    "pse": (_chart_features, "ell", 2.0),
}


class ExpLinearKernel:
    """Trainable kernel omega^2 * exp(sum_f c_f(theta) F_f) of one family.

    theta is [omega, per-circle coordinates, pair weights (hvm only)] in the
    order of theta_names; omega must be positive, concentrations and pair
    weights nonnegative, length scales positive.
    """

    def __init__(self, family: str, m: int, theta):
        if family not in _FAMILIES:
            raise ValueError(f"unknown kernel family {family!r}")
        self.family = family
        self.m = int(m)
        self._circle_features, self._scale, _ = _FAMILIES[family]
        self._pairs = pair_order(self.m) if family == "hvm" else []
        theta = np.array(theta, dtype=float).ravel()
        if theta.size != 1 + self.m + len(self._pairs):
            raise ValueError(
                f"{family} on T^{self.m} takes {1 + self.m + len(self._pairs)} "
                f"coordinates, got {theta.size}"
            )
        k = 1 + self.m if self._scale == "ell" else 1  # omega and length scales are positive
        if not (np.isfinite(theta).all() and (theta[:k] > 0.0).all() and (theta[k:] >= 0.0).all()):
            raise ValueError(
                f"{family}: coordinates must be finite and nonnegative, omega"
                f"{' and ell' if self._scale == 'ell' else ''} positive; got {theta.tolist()}"
            )
        theta.flags.writeable = False
        self.theta = theta

    @property
    def theta_names(self) -> tuple:
        names = ["omega"] + [f"{self._scale}_{s + 1}" for s in range(self.m)]
        names += [f"corr_{i + 1}{j + 1}" for (i, j) in self._pairs]
        return tuple(names)

    def with_theta(self, theta) -> "ExpLinearKernel":
        return ExpLinearKernel(self.family, self.m, theta)

    def coefficients(self):
        """Exponent coefficients c_f and their derivatives dc_f / dtheta_f."""
        t = self.theta[1:]
        if self._scale == "ell":
            return 1.0 / t**2, -2.0 / t**3
        weight = np.ones(t.size)
        weight[self.m :] = 2.0  # pair weights enter as 2 * corr
        return weight * t, weight

    def features(self, A: np.ndarray, B: np.ndarray) -> np.ndarray:
        """(len(theta) - 1, n, p) stack of the feature matrices F_f."""
        F = self._circle_features(A, B)
        if self._pairs:
            i, j = np.array(self._pairs).T
            F = np.concatenate([F, F[i] * F[j]])
        return F

    def gram_from(self, F: np.ndarray) -> np.ndarray:
        """Kernel matrix from a feature stack made by features()."""
        K = np.exp(np.einsum("f,fij->ij", self.coefficients()[0], F))
        K *= self.theta[0] ** 2
        return K

    def gram(self, A: np.ndarray, B: np.ndarray) -> np.ndarray:
        return self.gram_from(self.features(A, B))

    def gram_and_partials(self, X: np.ndarray):
        """Gram matrix and its derivatives in theta order, as a stack."""
        F = self.features(X, X)
        K = self.gram_from(F)
        dc = self.coefficients()[1]
        parts = np.concatenate([[(2.0 / self.theta[0]) * K], dc[:, None, None] * K * F])
        return K, parts

    def prior_variance(self) -> float:
        """k(x, x), identical for every x."""
        x = np.tile([1.0, 0.0], (1, self.m, 1))
        return float(self.gram(x, x)[0, 0])


def kernel_from_family(family: str, m: int) -> ExpLinearKernel:
    """Unit-parameter kernel of the given family on T^m (template for inits)."""
    family = family.lower()
    if family not in _FAMILIES:
        raise ValueError(f"unknown kernel family {family!r}")
    q = m * (m - 1) // 2 if family == "hvm" else 0
    return ExpLinearKernel(family, m, [1.0] + [_FAMILIES[family][2]] * m + [0.1] * q)
