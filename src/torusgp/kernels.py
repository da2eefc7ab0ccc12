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

Every path sums the exponent in one order, theta order. gram() never builds
the stack: it forms each per-circle feature as a contiguous (n, p) matrix,
adds c_f * F_f into one exponent circle by circle, then the hvm pair terms,
and exponentiates in place. features() stacks the same matrices for the
optimizer's gradient, and gram_from() sums them in the same order, so
gram(A, B) equals gram_from(features(A, B)) bit for bit. prior_variance()
sums the features' coincident-point values the same way.

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


def _inner_products(A: np.ndarray, B: np.ndarray, s: int) -> np.ndarray:
    """D^s[i, j] = A_is . B_js as a contiguous (n, p) matrix."""
    return A[:, None, s, 0] * B[None, :, s, 0] + A[:, None, s, 1] * B[None, :, s, 1]


def component_distances(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Componentwise inner products between two input sets.

    A: (n, m, 2), B: (p, m, 2)  ->  (m, n, p) with D[s, i, j] = A_is . B_js.
    """
    if A.shape[1] != B.shape[1]:
        raise ValueError(f"input sets have {A.shape[1]} and {B.shape[1]} circles")
    return np.stack([_inner_products(A, B, s) for s in range(A.shape[1])])


def _shifted_inner_products(A: np.ndarray, B: np.ndarray, s: int) -> np.ndarray:
    F = _inner_products(A, B, s)
    F -= 1.0
    return F


def _chart_difference(A: np.ndarray, B: np.ndarray, s: int) -> np.ndarray:
    F = chart_angles(A[:, s])[:, None] - chart_angles(B[:, s])[None, :]
    F *= F
    F *= -0.5
    return F


# family -> (feature of circle s as an (n, p) matrix, its value at coincident
# points, per-circle coordinate, its default value). Coordinates named "lam"
# enter the exponent linearly, coordinates named "ell" as ell^-2; only hvm
# adds the pair features, with weights from 0.1.
_FAMILIES = {
    "hvm": (_inner_products, 1.0, "lam", 1.0),
    "pvm": (_inner_products, 1.0, "lam", 1.0),
    "pprd": (_shifted_inner_products, 0.0, "ell", 1.0),
    "pse": (_chart_difference, 0.0, "ell", 2.0),
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
        self._circle_feature, self._coincident, self._scale, _ = _FAMILIES[family]
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

    def _feature_matrices(self, A: np.ndarray, B: np.ndarray):
        """The feature matrices F_f in theta order, each a contiguous (n, p) array."""
        if A.shape[1] != self.m or B.shape[1] != self.m:
            raise ValueError(
                f"{self.family} kernel on T^{self.m} got inputs with {A.shape[1]} and {B.shape[1]} circles"
            )
        F = [self._circle_feature(A, B, s) for s in range(self.m)]
        yield from F
        for i, j in self._pairs:
            yield F[i] * F[j]

    def _exp_linear(self, features) -> np.ndarray:
        """omega^2 * exp(sum_f c_f F_f), the sum taken in theta order."""
        c = self.coefficients()[0]
        features = iter(features)
        E = c[0] * next(features)
        for c_f, F in zip(c[1:], features):
            E += c_f * F
        np.exp(E, out=E)
        E *= self.theta[0] ** 2
        return E

    def features(self, A: np.ndarray, B: np.ndarray) -> np.ndarray:
        """C-contiguous (len(theta) - 1, n, p) stack of the feature matrices F_f."""
        return np.stack(list(self._feature_matrices(A, B)))

    def gram_from(self, F: np.ndarray) -> np.ndarray:
        """Kernel matrix from a feature stack made by features(); equal to gram()."""
        return self._exp_linear(F)

    def gram(self, A: np.ndarray, B: np.ndarray) -> np.ndarray:
        return self._exp_linear(self._feature_matrices(A, B))

    def gram_and_partials(self, X: np.ndarray):
        """Gram matrix and its derivatives in theta order, as a stack."""
        F = self.features(X, X)
        K = self.gram_from(F)
        dc = self.coefficients()[1]
        parts = np.concatenate([[(2.0 / self.theta[0]) * K], dc[:, None, None] * K * F])
        return K, parts

    def prior_variance(self) -> float:
        """k(x, x), identical for every x: each F_f takes its coincident-point value."""
        f = self._coincident
        F = np.array([f] * self.m + [f * f] * len(self._pairs))
        return float(self._exp_linear(F[:, None, None])[0, 0])


def kernel_from_family(family: str, m: int) -> ExpLinearKernel:
    """Unit-parameter kernel of the given family on T^m (template for inits)."""
    family = family.lower()
    if family not in _FAMILIES:
        raise ValueError(f"unknown kernel family {family!r}")
    q = m * (m - 1) // 2 if family == "hvm" else 0
    return ExpLinearKernel(family, m, [1.0] + [_FAMILIES[family][3]] * m + [0.1] * q)
