"""Decomposition substrate tests.

The SVD is cross-checked against numpy's LAPACK-backed bidiagonalization
solver, which shares no code with the Gram-matrix route used by the
package.  The Gram route forms no left singular vectors; tests that need
them form U = X V sigma^-1 themselves.  The eigensolver is checked by
independently building the characteristic polynomial (trace recursion)
and evaluating it at the returned eigenvalues, plus a companion-roots
comparison.
"""

import numpy as np
import pytest

from csdmd.errors import ConvergenceError, DimensionError, ZeroInput
from csdmd.linalg import EIG_MAX_DIM, GRAM_TOL_FLOOR, eig_dense, svd_econ, thin_product


def char_poly_coeffs(A):
    """Coefficients of det(lambda I - A), highest power first, by the
    trace recursion c_k = -(1/k) sum_{i=1}^k tr(A^i) c_{k-i}."""
    d = A.shape[0]
    powers = [np.eye(d, dtype=complex)]
    for _ in range(d):
        powers.append(powers[-1] @ A)
    traces = [np.trace(P) for P in powers]
    coeffs = [1.0 + 0j]
    for k in range(1, d + 1):
        s = sum(traces[i] * coeffs[k - i] for i in range(1, k + 1))
        coeffs.append(-s / k)
    return np.array(coeffs)


def left_vectors(X, svd):
    """U = X V sigma^-1, the left singular vectors the Gram route implies."""
    return thin_product(X, svd.V) / svd.sigma


def polish_roots(coeffs, roots, iters=5):
    """A few Newton steps on each root of the polynomial."""
    deriv = np.polyder(coeffs)
    out = roots.astype(complex)
    for _ in range(iters):
        out = out - np.polyval(coeffs, out) / np.polyval(deriv, out)
    return out


def test_identity_svd():
    svd = svd_econ(np.eye(3))
    np.testing.assert_allclose(svd.sigma, [1.0, 1.0, 1.0], atol=1e-14)
    assert svd.rank == 3
    # degenerate spectrum means U is only determined up to a joint
    # rotation with V; the product pins it down
    U = left_vectors(np.eye(3), svd)
    np.testing.assert_allclose(U @ svd.V.conj().T, np.eye(3), atol=1e-12)


def test_rank_one_outer_product():
    u = np.array([3.0, 0.0, 4.0])
    v = np.array([1.0, 1.0])
    svd = svd_econ(np.outer(u, v))
    assert svd.rank == 1
    np.testing.assert_allclose(svd.sigma, [5.0 * np.sqrt(2.0)], rtol=1e-13)


def test_against_lapack_svd():
    rng = np.random.default_rng(7)
    # a wide X takes its m x m Gram too: V is m x r
    for shape in ((16, 8), (6, 20)):
        X = rng.standard_normal(shape)
        svd = svd_econ(X)
        sigma_ref = np.linalg.svd(X, compute_uv=False)[: svd.rank]
        np.testing.assert_allclose(svd.sigma, sigma_ref, atol=1e-10 * sigma_ref[0])
        assert svd.V.shape == (shape[1], svd.rank)


def test_reconstruction_and_orthonormality():
    rng = np.random.default_rng(1)
    for trial in range(5):
        n, m, r = 40, 15, 6
        A = np.linalg.qr(rng.standard_normal((n, r)))[0]
        B = np.linalg.qr(rng.standard_normal((m, r)))[0]
        sig = np.sort(rng.uniform(0.1, 3.0, r))[::-1]
        X = (A * sig) @ B.T
        # the Gram route sees a noise floor near sqrt(eps) * sigma_0, so
        # a tolerance above that floor recovers the exact rank
        svd = svd_econ(X, truncation_tol=1e-7)
        assert svd.rank == r
        U = left_vectors(X, svd)
        rec = (U * svd.sigma) @ svd.V.conj().T
        assert np.linalg.norm(rec - X) <= 1e-8 * np.linalg.norm(X)
        assert np.linalg.norm(U.conj().T @ U - np.eye(r)) <= 1e-10
        assert np.linalg.norm(svd.V.conj().T @ svd.V - np.eye(r)) <= 1e-10
        # the permissive default keeps junk directions near the noise
        # floor; factors stay orthonormal and reconstruction stays sane,
        # though the tight bound only applies when rank is resolved
        loose = svd_econ(X)
        U = left_vectors(X, loose)
        rec = (U * loose.sigma) @ loose.V.conj().T
        assert np.linalg.norm(rec - X) <= 1e-6 * np.linalg.norm(X)
        eye = np.eye(loose.rank)
        assert np.linalg.norm(U.conj().T @ U - eye) <= 1e-10


def test_orthonormality_with_wide_spectrum():
    # singular values spanning six decades still give orthonormal factors:
    # V from eigh, and U = X V sigma^-1 once the DMD core's r x r Cholesky
    # step (U = Q L^H with L L^H = U^H U) has taken out its drift
    rng = np.random.default_rng(3)
    n, m, r = 200, 40, 10
    A = np.linalg.qr(rng.standard_normal((n, r)))[0]
    B = np.linalg.qr(rng.standard_normal((m, r)))[0]
    sig = np.logspace(0, -6, r)
    X = (A * sig) @ B.T
    svd = svd_econ(X, truncation_tol=1e-7)
    assert svd.rank == r
    assert np.linalg.norm(svd.V.conj().T @ svd.V - np.eye(r)) <= 1e-10
    U = left_vectors(X, svd)
    L = np.linalg.cholesky(U.conj().T @ U)
    Q = np.linalg.solve(L, U.conj().T).conj().T
    assert np.linalg.norm(Q.conj().T @ Q - np.eye(r)) <= 1e-10


def test_complex_input():
    rng = np.random.default_rng(4)
    X = rng.standard_normal((12, 5)) + 1j * rng.standard_normal((12, 5))
    svd = svd_econ(X)
    sigma_ref = np.linalg.svd(X, compute_uv=False)
    np.testing.assert_allclose(svd.sigma, sigma_ref, atol=1e-10 * sigma_ref[0])
    rec = (left_vectors(X, svd) * svd.sigma) @ svd.V.conj().T
    assert np.linalg.norm(rec - X) <= 1e-10 * np.linalg.norm(X)


def test_truncation_rank():
    rng = np.random.default_rng(5)
    A = np.linalg.qr(rng.standard_normal((30, 4)))[0]
    B = np.linalg.qr(rng.standard_normal((10, 4)))[0]
    X = (A * np.array([1.0, 0.5, 1e-6, 1e-7])) @ B.T
    assert svd_econ(X, truncation_tol=1e-4).rank == 2
    assert svd_econ(X, truncation_tol=1e-8).rank == 4


def test_left_unitary_preserves_sigma():
    rng = np.random.default_rng(6)
    X = rng.standard_normal((20, 8))
    Q = np.linalg.qr(rng.standard_normal((20, 20)))[0]
    s1 = svd_econ(X).sigma
    s2 = svd_econ(Q @ X).sigma
    np.testing.assert_allclose(s1, s2, atol=1e-10 * s1[0])


def test_right_unitary_preserves_sigma_and_subspace():
    rng = np.random.default_rng(8)
    X = rng.standard_normal((20, 8))
    P = np.linalg.qr(rng.standard_normal((8, 8)))[0]
    sv1 = svd_econ(X)
    sv2 = svd_econ(X @ P.conj().T)
    np.testing.assert_allclose(sv1.sigma, sv2.sigma, atol=1e-10 * sv1.sigma[0])
    # left subspace unchanged: projectors agree
    U1, U2 = left_vectors(X, sv1), left_vectors(X @ P.conj().T, sv2)
    P1 = U1 @ U1.conj().T
    P2 = U2 @ U2.conj().T
    assert np.linalg.norm(P1 - P2) <= 1e-8


def test_zero_matrix_rejected():
    with pytest.raises(ZeroInput):
        svd_econ(np.zeros((4, 3)))


def test_nonfinite_rejected():
    X = np.ones((3, 3))
    X[1, 1] = np.nan
    with pytest.raises(DimensionError):
        svd_econ(X)
    with pytest.raises(DimensionError):
        svd_econ(np.ones(5))


@pytest.mark.parametrize("shape", [(6, 3), (3, 6)])
@pytest.mark.parametrize("dtype", [float, complex])
def test_entries_whose_squares_overflow_or_underflow(shape, dtype):
    # finite, nonzero entries the Gram route cannot square
    with pytest.raises(DimensionError, match="overflow"):
        svd_econ(np.full(shape, 1e200, dtype))
    with pytest.raises(ZeroInput, match="underflow"):
        svd_econ(np.full(shape, 1e-170, dtype))
    with pytest.raises(DimensionError, match="NaN or Inf"):
        svd_econ(np.full(shape, np.inf, dtype))


def test_eig_diagonal():
    lambdas, W = eig_dense(np.diag([2.0, -1.0]))
    np.testing.assert_allclose(sorted(lambdas.real), [-1.0, 2.0], atol=1e-14)
    np.testing.assert_allclose(np.abs(W), np.eye(2), atol=1e-12)


def test_eig_rotation_spectrum():
    th = 0.3
    A = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    lambdas, _ = eig_dense(A)
    expected = {np.exp(1j * th), np.exp(-1j * th)}
    for lam in lambdas:
        assert min(abs(lam - e) for e in expected) < 1e-12


def test_eig_against_char_poly():
    rng = np.random.default_rng(11)
    A = rng.standard_normal((8, 8))
    lambdas, W = eig_dense(A)
    coeffs = char_poly_coeffs(A)
    # evaluate p at each returned eigenvalue, normalized by the
    # coefficient magnitude at that point
    for lam in lambdas:
        scale = np.polyval(np.abs(coeffs), abs(lam))
        assert abs(np.polyval(coeffs, lam)) <= 1e-10 * scale
    # companion roots, polished, should be the same multiset
    roots = polish_roots(coeffs, np.roots(coeffs))
    for lam in lambdas:
        assert min(abs(lam - r) for r in roots) < 1e-8


def test_eig_residual_and_normalization():
    rng = np.random.default_rng(12)
    for trial in range(5):
        A = rng.standard_normal((10, 10)) + 1j * rng.standard_normal((10, 10))
        lambdas, W = eig_dense(A)
        resid = np.linalg.norm(A @ W - W * lambdas, axis=0)
        assert np.all(resid <= 1e-8 * np.linalg.norm(A))
        np.testing.assert_allclose(np.linalg.norm(W, axis=0), 1.0, atol=1e-12)
        # canonical phase: largest entry of each column real positive
        for j in range(W.shape[1]):
            k = np.argmax(np.abs(W[:, j]))
            assert W[k, j].real > 0
            assert abs(W[k, j].imag) <= 1e-12 * abs(W[k, j])


def test_eig_dimension_guards():
    with pytest.raises(DimensionError):
        eig_dense(np.ones((3, 4)))
    with pytest.raises(DimensionError):
        eig_dense(np.eye(EIG_MAX_DIM + 1))


def test_eig_conjugate_pairs_put_positive_imag_first():
    # the members of a conjugate pair tie on |lambda|; the order between
    # them must not be left to the sort's handling of ties
    rng = np.random.default_rng(0)
    pairs = 0
    for _ in range(300):
        lambdas, _ = eig_dense(rng.standard_normal((12, 12)))
        for k in np.flatnonzero(lambdas.imag < 0):
            assert k > 0 and lambdas[k - 1] == np.conj(lambdas[k])
            pairs += 1
    assert pairs > 1000


def test_singular_values_below_the_gram_floor_are_dropped():
    # a planted spectrum straddling GRAM_TOL_FLOOR: any requested tolerance
    # below the floor keeps exactly the singular values above it
    rng = np.random.default_rng(6)
    A = np.linalg.qr(rng.standard_normal((60, 12)))[0]
    B = np.linalg.qr(rng.standard_normal((12, 12)))[0]
    above = np.array([1.0, 0.3, 1e-2, 1e-4, 1e-6, 1e-7])
    below = np.array([1e-9, 1e-10, 1e-11, 1e-12, 1e-13, 1e-14])
    X = (A * np.concatenate([above, below])) @ B.T
    for tol in (GRAM_TOL_FLOOR / 2, 1e-9, 1e-12, 0.0):
        svd = svd_econ(X, truncation_tol=tol)
        assert svd.rank == len(above)
        assert svd.truncation_tol == GRAM_TOL_FLOOR
        np.testing.assert_allclose(svd.sigma, above, rtol=0.05)
