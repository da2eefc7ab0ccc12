import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kernel_oracles import (
    BaselineKernelParams,
    VmHyperparams,
    component_distances,
    feature_values,
    gram,
    interaction_matrix,
    k_hvm,
    k_pprd,
    k_pse,
    k_pvm,
    k_vm,
    scalar_kernel,
)
from torusgp.kernels import (
    ExpLinearKernel,
    kernel_from_family,
    pair_order,
)


def _point(angles):
    """(cos, sin) embedding of an angle array: (2,) for an angle, (..., m, 2) for (..., m)."""
    a = np.asarray(angles, dtype=float)
    return np.stack([np.cos(a), np.sin(a)], axis=-1)


def _random_inputs(rng, n, m):
    return _point(rng.uniform(0, 2 * np.pi, (n, m)))


def test_pair_order_adjacent_pairs_first():
    assert pair_order(2) == [(0, 1)]
    assert pair_order(3) == [(0, 1), (1, 2), (0, 2)]
    assert pair_order(4) == [(0, 1), (1, 2), (2, 3), (0, 2), (1, 3), (0, 3)]


def test_k_vm_at_coincident_points():
    p = VmHyperparams(omega=2.0, lam=1.5)
    u = _point(0.3)
    assert k_vm(u, u, p) == pytest.approx(4.0 * np.exp(1.5), rel=1e-15)


def test_k_vm_requires_positive_concentration():
    with pytest.raises(ValueError):
        VmHyperparams(omega=1.0, lam=0.0)


def test_k_hvm_all_ones_value():
    p = ExpLinearKernel("hvm", 3, (1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0))
    u = _point([0.0, 0.0, 0.0])
    # exponent = sum(lam) + 2 * sum(corr) = 3 + 6
    assert k_hvm(u, u, p) == pytest.approx(np.exp(9.0), rel=1e-14)


def test_k_hvm_quadratic_term_uses_pair_products():
    p = ExpLinearKernel("hvm", 3, (1.0, 0.0, 0.0, 0.0, 0.5, 0.0, 0.0))
    u = _point([0.0, 0.0, 1.0])
    v = _point([1.0, 0.5, 1.0])
    d1, d2 = np.cos(1.0), np.cos(0.5)
    assert k_hvm(u, v, p) == pytest.approx(np.exp(2 * 0.5 * d1 * d2), rel=1e-13)


def test_hvm_corr_length_checked():
    with pytest.raises(ValueError):
        ExpLinearKernel("hvm", 3, (1.0, 1.0, 1.0, 1.0, 0.1))


def _out_of_range_thetas():
    """Per family on T^2: theta with one coordinate made non-finite or out of its range."""
    cases = []
    for family in ("hvm", "pvm", "pprd", "pse"):
        base = kernel_from_family(family, 2).theta.tolist()
        bad = [("omega-nan", 0, np.nan), ("circle-nan", 1, np.nan), ("omega-inf", 0, np.inf)]
        bad += [("circle-inf", 2, np.inf), ("circle-neg-inf", 1, -np.inf)]
        bad += [("omega-0", 0, 0.0), ("omega-neg", 0, -1.0)]
        if family in ("hvm", "pvm"):
            bad += [("lam-neg", 1, -0.1)]
        else:
            bad += [("ell-0", 1, 0.0), ("ell-neg", 2, -2.0)]
        if family == "hvm":
            bad += [("corr-neg", 3, -0.1), ("corr-nan", 3, np.nan), ("corr-inf", 3, np.inf)]
        for name, i, value in bad:
            theta = list(base)
            theta[i] = value
            cases.append(pytest.param(family, theta, id=f"{family}-{name}"))
    return cases


@pytest.mark.parametrize("family, theta", _out_of_range_thetas())
def test_kernel_rejects_out_of_range_coordinates(family, theta):
    with pytest.raises(ValueError, match=f"{family}: coordinates must be finite and nonnegative"):
        ExpLinearKernel(family, 2, theta)


def test_kernel_accepts_zero_concentrations_and_pair_weights():
    """The range boundary: lam = 0 and corr = 0 are valid, omega and ell must be positive."""
    assert ExpLinearKernel("hvm", 2, (1.0, 0.0, 0.0, 0.0)).prior_variance() == 1.0
    assert ExpLinearKernel("pvm", 2, (1e-300, 0.0, 1e300)).theta[0] == 1e-300
    assert ExpLinearKernel("pse", 2, (1.0, 1e-100, 2.0)).theta[1] == 1e-100


def test_interaction_matrix_is_hollow_symmetric():
    kernel = ExpLinearKernel("hvm", 3, (1.3, 0.7, 0.3, 1.1, 0.1, 0.2, 0.3))
    L = interaction_matrix(kernel)
    assert np.allclose(L, L.T)
    assert np.all(np.diag(L) == 0.0)
    assert L[0, 1] == 0.1 and L[1, 2] == 0.2 and L[0, 2] == 0.3
    # the kernel is the paper's omega^2 exp(lam . d + d^T Lam d)
    rng = np.random.default_rng(3)
    X = _random_inputs(rng, 5, 3)
    D = component_distances(X, X)
    lam = np.array([0.7, 0.3, 1.1])
    expo = np.einsum("s,sij->ij", lam, D) + np.einsum("sij,st,tij->ij", D, L, D)
    assert np.allclose(kernel.gram(X, X), 1.3**2 * np.exp(expo), rtol=1e-13, atol=0)


def test_k_pse_uses_chart_difference():
    p = BaselineKernelParams(omega=(1.0, 1.0), scale=(2.0, 2.0))
    u = _point([0.1, 0.0])
    v = _point([6.2, 0.0])
    # chart angles 0.1 and 6.2 differ by 6.1, not by the short way around
    expected = np.exp(-(6.1**2) / (2 * 4.0))
    assert k_pse(u, v, p) == pytest.approx(expected, rel=1e-12)


def test_k_pprd_equals_inner_product_form():
    rng = np.random.default_rng(0)
    p = BaselineKernelParams(omega=(1.3, 0.7), scale=(0.9, 1.8))
    for _ in range(20):
        a, b = rng.uniform(0, 2 * np.pi, 2), rng.uniform(0, 2 * np.pi, 2)
        u, v = _point(a), _point(b)
        direct = k_pprd(u, v, p)
        prod = 1.0
        for s in range(2):
            prod *= p.omega[s] ** 2 * np.exp((np.cos(a[s] - b[s]) - 1.0) / p.scale[s] ** 2)
        assert direct == pytest.approx(prod, rel=1e-12)


def test_k_pvm_is_product_of_circle_kernels():
    p = BaselineKernelParams(omega=(1.2, 0.8), scale=(0.5, 1.5))
    u = _point([0.3, 2.0])
    v = _point([1.1, 5.0])
    prod = 1.0
    for s in range(2):
        prod *= k_vm(u[s], v[s], VmHyperparams(p.omega[s], p.scale[s]))
    assert k_pvm(u, v, p) == pytest.approx(prod, rel=1e-12)


def test_component_distances_shape_and_values():
    rng = np.random.default_rng(2)
    A = _random_inputs(rng, 4, 3)
    B = _random_inputs(rng, 5, 3)
    D = component_distances(A, B)
    assert D.shape == (3, 4, 5)
    for s in range(3):
        for i in range(4):
            for j in range(5):
                assert D[s, i, j] == pytest.approx(A[i, s] @ B[j, s], abs=1e-14)


_OMEGAS = (1.2, 0.9, 1.3)


@pytest.mark.parametrize(
    "family, oracle, params",
    [
        ("hvm", k_hvm, ExpLinearKernel("hvm", 3, (1.4, 0.7, 0.3, 1.1, 0.2, 0.05, 0.4))),
        ("pvm", k_pvm, BaselineKernelParams(_OMEGAS, (0.7, 0.3, 1.1))),
        ("pprd", k_pprd, BaselineKernelParams(_OMEGAS, (0.9, 1.8, 1.2))),
        ("pse", k_pse, BaselineKernelParams(_OMEGAS, (1.5, 2.0, 0.8))),
    ],
    ids=["hvm", "pvm", "pprd", "pse"],
)
def test_gram_matches_scalar_kernel(family, oracle, params):
    rng = np.random.default_rng(7)
    X = _random_inputs(rng, 6, 3)
    if family == "hvm":
        kernel = params
    else:
        # the product oracles carry one signal scale per circle
        kernel = ExpLinearKernel(family, 3, (np.prod(params.omega),) + params.scale)
    K = kernel.gram(X, X)
    for i in range(6):
        for j in range(6):
            assert K[i, j] == pytest.approx(oracle(X[i], X[j], params), rel=1e-12)
    K2 = gram(X, X, lambda u, v: oracle(u, v, params))
    assert np.allclose(K, K2, atol=0)


def test_hvm_gram_symmetry_and_diag():
    rng = np.random.default_rng(9)
    X = _random_inputs(rng, 10, 2)
    kernel = ExpLinearKernel("hvm", 2, (0.9, 1.0, 2.0, 0.3))
    K = kernel.gram(X, X)
    assert np.allclose(K, K.T, atol=1e-15)
    assert np.allclose(np.diag(K), kernel.prior_variance(), rtol=1e-13)


def test_theta_roundtrip_all_families():
    rng = np.random.default_rng(21)
    for family in ("hvm", "pvm", "pprd", "pse"):
        kernel = kernel_from_family(family, 3)
        theta = kernel.theta
        assert len(theta) == len(kernel.theta_names)
        bumped = kernel.with_theta(theta * 1.1)
        assert np.allclose(bumped.theta, theta * 1.1, rtol=1e-14)
        X = _random_inputs(rng, 4, 3)
        K = bumped.gram(X, X)
        assert K.shape == (4, 4)
        assert np.all(np.isfinite(K))


def test_hvm_theta_names():
    kernel = kernel_from_family("hvm", 3)
    assert kernel.theta_names == (
        "omega",
        "lam_1",
        "lam_2",
        "lam_3",
        "corr_12",
        "corr_23",
        "corr_13",
    )


def test_gram_and_partials_match_finite_differences():
    rng = np.random.default_rng(31)
    X = _random_inputs(rng, 7, 3)
    h = 1e-6
    for family in ("hvm", "pvm", "pprd", "pse"):
        kernel = kernel_from_family(family, 3)
        kernel = kernel.with_theta(kernel.theta * rng.uniform(0.8, 1.2, kernel.theta.size))
        K, partials = kernel.gram_and_partials(X)
        assert np.allclose(K, kernel.gram(X, X), atol=1e-14)
        assert len(partials) == kernel.theta.size
        for idx in range(kernel.theta.size):
            up = kernel.theta.copy()
            dn = kernel.theta.copy()
            up[idx] += h
            dn[idx] -= h
            fd = (kernel.with_theta(up).gram(X, X) - kernel.with_theta(dn).gram(X, X)) / (2 * h)
            assert np.max(np.abs(partials[idx] - fd)) < 1e-6, (family, kernel.theta_names[idx])


def test_hvm_with_zero_corr_matches_pvm():
    rng = np.random.default_rng(13)
    X = _random_inputs(rng, 8, 3)
    hvm = ExpLinearKernel("hvm", 3, (1.3, 0.6, 1.1, 0.4, 0.0, 0.0, 0.0))
    pvm = ExpLinearKernel("pvm", 3, (1.3, 0.6, 1.1, 0.4))
    assert np.max(np.abs(hvm.gram(X, X) - pvm.gram(X, X))) < 1e-14


def test_pse_kernel_is_chart_aperiodic():
    # same circle point approached from the two chart sides
    p = ExpLinearKernel("pse", 1, (1.0, 1.0))
    lo = np.array([[[np.cos(1e-3), np.sin(1e-3)]]])
    hi = np.array([[[np.cos(2 * np.pi - 1e-3), np.sin(2 * np.pi - 1e-3)]]])
    k = p.gram(lo, hi)[0, 0]
    # chart distance is ~2 pi - 2e-3, so similarity is essentially zero
    assert k < 1e-8


def test_periodic_kernel_wraps():
    p = ExpLinearKernel("pprd", 1, (1.0, 1.0))
    lo = np.array([[[np.cos(1e-3), np.sin(1e-3)]]])
    hi = np.array([[[np.cos(2 * np.pi - 1e-3), np.sin(2 * np.pi - 1e-3)]]])
    assert p.gram(lo, hi)[0, 0] == pytest.approx(1.0, abs=1e-5)


_AXIS_POINTS = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])


def _lift_width(family, m):
    return {"hvm": 2 * m + 4 * (m * (m - 1) // 2), "pvm": 2 * m, "pprd": 2 * m, "pse": m}[family]


@settings(max_examples=60, deadline=None)
@given(
    family=st.sampled_from(["hvm", "pvm", "pprd", "pse"]),
    m=st.integers(1, 4),
    t=st.integers(1, 7),
    n=st.integers(1, 9),
    seed=st.integers(0, 2**32 - 1),
)
def test_gram_is_one_product_of_lifts(family, m, t, n, seed):
    """Every Gram goes through the lift; the self-Gram is symmetric with prior_variance on its diagonal."""
    rng = np.random.default_rng(seed)
    template = kernel_from_family(family, m)
    kernel = template.with_theta(template.theta * rng.uniform(0.2, 5.0, template.theta.size))
    A, B = _random_inputs(rng, t, m), _random_inputs(rng, n, m)
    LA, LB = kernel.lift(A), kernel.lift(B)
    assert LA.shape == (t, _lift_width(family, m)) and LB.shape == (n, _lift_width(family, m))
    assert np.array_equal(kernel.gram(A, B), kernel.gram_lifted(LA, LB))
    K = kernel.gram(A)
    assert np.array_equal(K, kernel.gram(A, A)) and np.array_equal(K, kernel.gram_lifted(LA))
    assert np.array_equal(K, K.T)
    assert np.all(np.diag(K) == kernel.prior_variance())
    # at a point built from axis vectors every embedded inner product is exactly 1
    x = _AXIS_POINTS[rng.integers(0, 4, m)][None]
    assert kernel.prior_variance() == kernel.gram(x, x)[0, 0]
    # the gradient contraction sum_ij W_ij F_f(a_i, a_j) against per-point feature values
    W = rng.standard_normal((t, t))
    F = np.array([[feature_values(kernel, u, v) for v in A] for u in A])
    want = np.einsum("ij,ijf->f", W, F)
    scale = np.einsum("ij,ijf->f", np.abs(W), np.maximum(np.abs(F), 1.0))  # pprd's D - 1 cancels
    assert np.all(np.abs(kernel.feature_sums(LA, W) - want) <= 1e-13 * scale)


# Over 3000 random draws of the ranges below (seam points and duplicates
# included) the worst relative gap between the lifted Gram and the scalar
# oracles was 2.2e-14 (pse on T^4, whose exponent reaches about 500 in
# magnitude, so one ulp of it is 1e-13 of K). 1e-12 leaves a margin of 45;
# a wrong weight or block moves entries by far more.
LIFT_RTOL = 1e-12

# chart angles at and next to the seam, where pse is discontinuous
_SEAM_ANGLES = np.array([0.0, 1e-12, np.pi, 2.0 * np.pi - 1e-12, np.nextafter(2.0 * np.pi, 0.0)])


@settings(max_examples=80, deadline=None)
@given(
    family=st.sampled_from(["hvm", "pvm", "pprd", "pse"]),
    m=st.integers(1, 4),
    t=st.integers(1, 6),
    n=st.integers(1, 6),
    duplicates=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_lifted_gram_matches_the_scalar_oracles(family, m, t, n, duplicates, seed):
    """gram and the self-Gram against the per-pair textbook kernels, seam points included."""
    rng = np.random.default_rng(seed)
    template = kernel_from_family(family, m)
    kernel = template.with_theta(template.theta * rng.uniform(0.2, 5.0, template.theta.size))

    def points(count):
        ang = rng.uniform(0.0, 2.0 * np.pi, (count, m))
        seam = rng.random((count, m)) < 0.3
        ang[seam] = rng.choice(_SEAM_ANGLES, int(seam.sum()))
        return _point(ang)

    A, B = points(t), points(n)
    if duplicates:
        B = np.concatenate([B, A[rng.integers(0, t, 2)]])
    oracle = scalar_kernel(kernel)
    for got, want in [(kernel.gram(A, B), gram(A, B, oracle)), (kernel.gram(A), gram(A, A, oracle))]:
        assert np.all(np.abs(got - want) <= LIFT_RTOL * np.abs(want))


# Rounding in the Gram entries and in eigvalsh can push the smallest
# eigenvalue of a PSD Gram matrix below zero by a few units of
# n * eps * max(diag K); over 6000 random draws of the ranges below, with
# duplicated inputs, the worst was 1.5 units. A kernel that is not PSD misses
# by orders of magnitude more.
PSD_TOL_UNITS = 10.0


@settings(max_examples=80, deadline=None)
@given(
    family=st.sampled_from(["hvm", "pvm", "pprd", "pse"]),
    m=st.integers(1, 4),
    n=st.integers(1, 30),
    duplicates=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_gram_is_positive_semidefinite(family, m, n, duplicates, seed):
    """Every family's Gram matrix is PSD on random inputs, repeated points included."""
    rng = np.random.default_rng(seed)
    template = kernel_from_family(family, m)
    kernel = template.with_theta(template.theta * rng.uniform(0.2, 5.0, template.theta.size))
    X = _random_inputs(rng, n, m)
    if duplicates:
        X = X[rng.integers(0, n, n)]
    K = kernel.gram(X, X)
    tol = PSD_TOL_UNITS * n * np.finfo(float).eps * np.max(np.diag(K))
    assert np.linalg.eigvalsh(K)[0] >= -tol
