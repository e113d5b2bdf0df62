"""Measurement ensembles and the 2-D Fourier synthesis basis.

The fast basis transform is checked against a direct O(n^2) summation
oracle, and measurement application is checked against dense
matrix-vector products assembled entry by entry.
"""

import tracemalloc

import numpy as np
import pytest

from csdmd.errors import BadDimensions, DimensionError
from csdmd.recovery import _ConjugatePairs
from csdmd.sensing import (
    MeasurementMatrix,
    SensingOperator,
    SparseBasis,
    adjoint_measurement,
    apply_basis,
    apply_measurement,
    basis_atoms,
    make_measurement,
    measure_panels,
    mutual_coherence,
    recommended_measurements,
)
from csdmd.systems import make_fourier_lti


def dft_atom_direct(grid, ky, kx):
    """Spatial field of one Fourier coefficient by direct summation."""
    ny, nx = grid
    y, x = np.meshgrid(np.arange(ny), np.arange(nx), indexing="ij")
    atom = np.exp(2j * np.pi * (kx * x / nx + ky * y / ny))
    return (atom / np.sqrt(nx * ny)).ravel()


def dense_matrix(C):
    """The p x n matrix of a measurement operator, one basis vector at a time."""
    return apply_measurement(C, np.eye(C.n))


def test_forward_matches_direct_sum():
    grid = (4, 4)
    psi = SparseBasis(grid)
    for ky, kx in [(0, 0), (0, 1), (1, 0), (2, 3)]:
        coeffs = np.zeros(16, dtype=complex)
        coeffs[ky * 4 + kx] = 1.0
        fast = apply_basis(psi, coeffs, "forward")
        np.testing.assert_allclose(fast, dft_atom_direct(grid, ky, kx), atol=1e-13)


def test_basis_checks_its_grid_and_operands():
    with pytest.raises(DimensionError, match="the sparse basis needs grid metadata"):
        SparseBasis(None)
    psi = SparseBasis((5, 3))
    with pytest.raises(DimensionError):
        apply_basis(psi, np.ones(16))
    with pytest.raises(DimensionError):
        apply_basis(psi, np.ones(15), "sideways")


@pytest.mark.parametrize("grid", [(1, 1), (2, 3), (5, 7), (8, 4), (128, 128)])
def test_conjugate_maps_each_wavenumber_to_its_negative(grid):
    nx, ny = grid
    psi = SparseBasis(grid)
    k = np.arange(psi.n)
    mirror = psi.conjugate(k)
    np.testing.assert_array_equal(psi.conjugate(mirror), k)
    # the fixed points are the self-conjugate wavenumbers, whose count
    # make_fourier_lti's bound on the wave pairs is built from
    fixed = (1 + (nx % 2 == 0)) * (1 + (ny % 2 == 0))
    assert np.count_nonzero(mirror == k) == fixed
    with pytest.raises(DimensionError, match=rf"outside \[1, {(psi.n - fixed) // 2}\]"):
        make_fourier_lti(nx=nx, ny=ny, K=0)
    # a real field's DFT coefficient at -k is the conjugate of the one at k
    s = apply_basis(psi, np.random.default_rng(0).standard_normal(psi.n), "inverse")
    np.testing.assert_allclose(s[mirror], s.conj(), rtol=0, atol=1e-12)


def test_dc_atom_is_constant():
    psi = SparseBasis((8, 8))
    coeffs = np.zeros(64, dtype=complex)
    coeffs[0] = 1.0
    field = apply_basis(psi, coeffs, "forward")
    np.testing.assert_allclose(field, np.full(64, 1.0 / 8.0), atol=1e-14)


def test_round_trip_and_parseval():
    rng = np.random.default_rng(0)
    psi = SparseBasis((8, 4))
    s = rng.standard_normal(32) + 1j * rng.standard_normal(32)
    field = apply_basis(psi, s, "forward")
    back = apply_basis(psi, field, "inverse")
    np.testing.assert_allclose(back, s, atol=1e-12)
    assert abs(np.linalg.norm(field) - np.linalg.norm(s)) < 1e-12


def test_matrix_argument_is_columnwise():
    rng = np.random.default_rng(1)
    psi = SparseBasis((5, 3))
    S = rng.standard_normal((15, 4)) + 1j * rng.standard_normal((15, 4))
    for block in (S, S.real, np.asfortranarray(S)):
        for direction in ("forward", "inverse"):
            batched = apply_basis(psi, block, direction)
            assert batched.shape == (15, 4)
            for j in range(4):
                np.testing.assert_array_equal(
                    batched[:, j], apply_basis(psi, block[:, j], direction)
                )


def test_gaussian_deterministic_and_scaled():
    C1 = make_measurement("gaussian", 64, 256, seed=5)
    C2 = make_measurement("gaussian", 64, 256, seed=5)
    np.testing.assert_array_equal(dense_matrix(C1), dense_matrix(C2))
    # entries are N(0, 1/p), so E[row norm^2] = n/p = 4 here
    norms = np.linalg.norm(dense_matrix(C1), axis=1)
    assert abs(np.mean(norms**2) - 4.0) < 0.5


def test_bernoulli_entries():
    C = make_measurement("bernoulli", 10, 40, seed=2)
    dense = dense_matrix(C)
    np.testing.assert_allclose(np.abs(dense), 1.0 / np.sqrt(10), atol=1e-14)
    # both signs show up
    assert (dense > 0).any() and (dense < 0).any()


def test_pixel_indices_sorted_unique():
    C = make_measurement("pixel", 15, 16384, seed=3)
    idx = C.indices
    assert len(idx) == 15
    assert len(np.unique(idx)) == 15
    assert np.all(np.diff(idx) > 0)


def test_pixel_selection_example():
    C = MeasurementMatrix(kind="pixel", p=2, n=3, seed=0, payload=None,
                          indices=np.array([0, 2]))
    y = apply_measurement(C, np.array([7.0, 8.0, 9.0]))
    np.testing.assert_array_equal(y, [7.0, 9.0])


def test_apply_matches_dense_multiply():
    rng = np.random.default_rng(7)
    X = rng.standard_normal((30, 4))
    for kind in ("gaussian", "bernoulli", "pixel"):
        C = make_measurement(kind, 8, 30, seed=11)
        np.testing.assert_allclose(
            apply_measurement(C, X), dense_matrix(C) @ X, atol=1e-12
        )


@pytest.mark.parametrize("kind", ["gaussian", "bernoulli"])
@pytest.mark.parametrize("dtype", [float, complex])
def test_row_panels_measure_as_the_whole_operand(kind, dtype):
    # C X from runs of 16 rows (the last short) is the whole product, to rounding
    rng = np.random.default_rng(8)
    X = rng.standard_normal((70, 5)).astype(dtype)
    if dtype is complex:
        X += 1j * rng.standard_normal(X.shape)
    C = make_measurement(kind, 9, 70, seed=2)
    Y = measure_panels(C, 70, ((start, X[start : start + 16]) for start in range(0, 70, 16)))
    np.testing.assert_allclose(Y, dense_matrix(C) @ X, rtol=0, atol=1e-12)
    with pytest.raises(DimensionError, match="69 rows"):
        measure_panels(C, 69, [(0, X[:69])])


@pytest.mark.parametrize("shape", [(70,), (70, 5)])
def test_a_pixel_measurement_gathers_rows_column_major(shape):
    # the gather is column-major, as a block on disk gathers it, bit for bit
    X = np.random.default_rng(8).standard_normal(shape)
    C = MeasurementMatrix("pixel", 4, 70, indices=np.array([0, 5, 40, 69]))
    Y = apply_measurement(C, X)
    assert Y.flags.f_contiguous and Y.tobytes() == X[C.indices].tobytes()
    with pytest.raises(DimensionError, match="69 rows"):
        apply_measurement(C, X[:69])


@pytest.mark.parametrize("kind", ["gaussian", "bernoulli", "unitary"])
@pytest.mark.parametrize("shape", [(40,), (40, 5)])
@pytest.mark.parametrize("dtype", [float, complex])
def test_products_match_the_dense_complex_product(kind, shape, dtype):
    # reference: the payload cast to complex, as numpy casts it unasked; the
    # block operands are also passed in column-major order
    rng = np.random.default_rng(12)
    C = make_measurement(kind, 9, 40, seed=4)
    D = C.payload.astype(complex)

    def draw(rows):
        size = (rows,) + shape[1:]
        part = lambda: rng.standard_normal(size)
        return part() + 1j * part() if dtype is complex else part()

    X, Y = draw(40), draw(9)
    cases = [(apply_measurement, D, X), (adjoint_measurement, D.conj().T, Y)]
    if len(shape) == 2:
        cases += [(f, M, np.asfortranarray(V)) for f, M, V in cases]
    for f, M, V in cases:
        got, want = f(C, V), M @ V
        assert got.shape == want.shape
        assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)


def test_dense_products_never_cast_the_real_payload():
    # a complex copy of the 112 x 16384 payload alone would be 29 MB
    C = make_measurement("gaussian", 112, 16384, seed=0)
    op = SensingOperator(C, SparseBasis((128, 128)))
    rng = np.random.default_rng(0)
    y = rng.standard_normal(112) + 1j * rng.standard_normal(112)
    idx = np.arange(15) * 1000
    for product in (lambda: adjoint_measurement(C, y), lambda: op.columns(idx)):
        product()
        tracemalloc.start()
        try:
            product()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < C.payload.nbytes


def test_identity_kind():
    # sampling every pixel is the identity measurement; there is no
    # separate kind for it
    X = np.arange(12.0).reshape(4, 3)
    C = make_measurement("pixel", 4, 4, seed=0)
    np.testing.assert_array_equal(apply_measurement(C, X), X)
    np.testing.assert_array_equal(dense_matrix(C), np.eye(4))
    with pytest.raises(BadDimensions):
        make_measurement("identity", 4, 4, seed=0)


def test_unitary_rows_are_real_and_orthonormal():
    C = make_measurement("unitary", 12, 40, seed=6)
    assert C.payload.dtype == np.float64
    assert np.linalg.norm(C.payload @ C.payload.T - np.eye(12)) <= 1e-12
    again = make_measurement("unitary", 12, 40, seed=6)
    np.testing.assert_array_equal(again.payload, C.payload)


PIXEL_DAMAGES = [
    lambda idx: idx[:-1] + [9999],  # outside [0, n)
    lambda idx: idx[:-1] + [-1],
    lambda idx: idx[:2] + idx[1:-1],  # a duplicate, still p of them
    lambda idx: idx[::-1],  # decreasing
    lambda idx: idx[:-1],  # fewer than p
    lambda idx: idx[:-1] + [float(idx[-1])],  # not integers
]


@pytest.mark.parametrize(
    "fields, message",
    [(dict(kind="pixel", indices=np.array(damage([0, 2, 5, 7]))), "pixel indices")
     for damage in PIXEL_DAMAGES]
    + [
        (dict(kind="gaussian", payload=np.ones((4, 8)) * 1j), "real 4 x 8"),
        (dict(kind="unitary", payload=np.ones((8, 4))), "real 4 x 8"),
        (dict(kind="gausian", payload=np.ones((4, 8))), "unknown measurement kind 'gausian'"),
        (dict(kind="Pixel", indices=np.array([0, 2, 5, 7])), "unknown measurement kind"),
    ],
)
def test_construction_rejects_a_malformed_matrix(fields, message):
    with pytest.raises(BadDimensions, match=message):
        MeasurementMatrix(p=4, n=8, **fields)


@pytest.mark.parametrize("build, message", [
    (lambda: MeasurementMatrix("gaussian", 0, 8, payload=np.ones((0, 8))), "need 1 <= p <= n"),
    (lambda: MeasurementMatrix("pixel", 9, 8, indices=np.arange(9)), "need 1 <= p <= n"),
    (lambda: make_measurement("gaussian", 0, 8, seed=0), "need 1 <= p <= n"),
    (lambda: make_measurement("pixel", 9, 8, seed=0), "need 1 <= p <= n"),
    (lambda: SensingOperator(make_measurement("pixel", 4, 8, seed=0), SparseBasis((3, 3))),
     "measurement n=8 does not match basis n=9"),
    (lambda: adjoint_measurement(make_measurement("pixel", 4, 8, seed=0), np.ones(5)),
     "operand has 5 rows, expected 4"),
])
def test_a_measurement_or_operator_of_mismatched_sizes_is_refused(build, message):
    with pytest.raises(DimensionError, match=message):
        build()


def test_unknown_kind_rejected():
    with pytest.raises(BadDimensions):
        make_measurement("laplace", 4, 16, seed=0)


def test_single_pixel_coherence_is_flat():
    # every pixel row hits every Fourier atom with the same magnitude
    psi = SparseBasis((16, 16))
    for seed in (3, 4, 5):
        C = make_measurement("pixel", 15, 256, seed=seed)
        assert abs(mutual_coherence(C, psi) - 1.0 / 16.0) < 1e-12


def test_pixel_coherence_at_paper_scale_stays_matrix_free():
    # a dense 2500 x 131072 pixel matrix would need gigabytes
    C = make_measurement("pixel", 2500, 131072, seed=0)
    assert mutual_coherence(C, SparseBasis((512, 256))) == 1.0 / np.sqrt(131072)


def test_coherence_of_basis_itself_is_one():
    # measuring directly in the sparse basis is maximally coherent: the
    # rows are the real atoms of the 4 x 4 grid, the constant and (-1)^(ix+iy)
    psi = SparseBasis((4, 4))
    iy, ix = np.divmod(np.arange(16), 4)
    atoms = np.stack([np.full(16, 0.25), (-1.0) ** (ix + iy) / 4])
    C = MeasurementMatrix("unitary", 2, 16, payload=atoms)
    assert mutual_coherence(C, psi) == 1.0


def synthesis_coherence(C, psi):
    """The complex route: synthesize every conjugated row with ifft2."""
    products = apply_basis(psi, C.payload.conj().T, "forward")
    row_peaks = np.max(np.abs(products), axis=0) / np.linalg.norm(C.payload, axis=1)
    return float(np.max(row_peaks))


@pytest.mark.parametrize("grid", [(8, 6), (7, 5), (9, 4), (5, 9)])
@pytest.mark.parametrize("kind", ["gaussian", "bernoulli"])
def test_real_payload_coherence_matches_complex_synthesis(grid, kind):
    # odd and even grid sides; 20 rows span two blocks of 16
    n = grid[0] * grid[1]
    C = make_measurement(kind, 20, n, seed=n)
    psi = SparseBasis(grid)
    assert abs(mutual_coherence(C, psi) - synthesis_coherence(C, psi)) <= 1e-15


@pytest.mark.parametrize("grid", [(8, 8), (9, 7), (7, 10), (16, 5), (1, 6), (6, 1)])
@pytest.mark.parametrize("kind", ["gaussian", "bernoulli", "unitary"])
def test_table_columns_match_the_measured_atoms(grid, kind):
    # every column, in shuffled order, read from the half-plane table or
    # its mirror; odd nx, non-square and one-row grids included
    n = grid[0] * grid[1]
    C = make_measurement(kind, (n + 1) // 2, n, seed=n)
    psi = SparseBasis(grid)
    op = SensingOperator(C, psi)
    idx = np.random.default_rng(n).permutation(n)
    expected = apply_measurement(C, basis_atoms(psi, idx))
    np.testing.assert_allclose(op.columns(idx), expected, rtol=0, atol=1e-13)
    assert op.coherence == mutual_coherence(C, psi)


@pytest.mark.parametrize("grid, p", [((7, 5), 12), ((12, 9), 40), ((512, 256), 2500)])
def test_pixel_gram_is_the_product_of_its_columns(grid, p):
    # the gather from H = ifft2(mask): odd, non-square and paper-scale grids,
    # with atoms in shuffled order and a repeated atom
    n = grid[0] * grid[1]
    op = SensingOperator(make_measurement("pixel", p, n, seed=p), SparseBasis(grid))
    assert op.table is None
    idx = np.random.default_rng(n).choice(n, size=min(n, 90), replace=False)
    idx = np.append(idx, idx[0])
    cols = op.columns(idx)
    G = op.gram(idx)
    assert G.shape == (len(idx), len(idx))
    assert np.max(np.abs(G - cols.conj().T @ cols)) <= 1e-15


@pytest.mark.parametrize(
    "grid, p, kind, tol",
    [((7, 5), 12, "pixel", 1e-15), ((12, 9), 40, "pixel", 1e-15),
     ((512, 256), 2500, "pixel", 1e-15), ((12, 9), 40, "gaussian", 1e-13)],
)
def test_real_gram_is_the_product_of_its_real_atoms(grid, p, kind, tol):
    # the pair model's real Gram, for pixel C read from H at l - k and
    # l + k; odd and even sides, with every self-conjugate atom of the grid
    # among random representatives
    n = grid[0] * grid[1]
    psi = SparseBasis(grid)
    op = SensingOperator(make_measurement(kind, p, n, seed=p), psi)
    atoms = np.random.default_rng(n).choice(n, size=min(n, 90), replace=False)
    halves = lambda side: [0] if side % 2 else [0, side // 2]
    self_conjugate = [ky * grid[0] + kx for ky in halves(grid[1]) for kx in halves(grid[0])]
    reps = np.union1d(np.minimum(atoms, psi.conjugate(atoms)), self_conjugate)
    pair = reps != psi.conjugate(reps)
    assert np.count_nonzero(~pair) == len(self_conjugate) and pair.any()
    if kind == "pixel":
        cols = basis_atoms(psi, reps, op.C.indices)
    else:
        cols = apply_measurement(op.C, basis_atoms(psi, reps))
    design = np.hstack([np.where(pair, np.sqrt(2), 1.0) * cols.real, np.sqrt(2) * cols.imag[:, pair]])
    G = _ConjugatePairs(op, 1).gram(reps)
    assert np.isrealobj(G) and G.shape == (len(reps) + pair.sum(),) * 2
    assert np.max(np.abs(G - design.T @ design)) <= tol


@pytest.mark.parametrize("kind", ["gaussian", "bernoulli"])
def test_dense_gram_is_the_product_of_its_columns(kind):
    grid = (12, 9)
    C = make_measurement(kind, 40, 108, seed=4)
    op = SensingOperator(C, SparseBasis(grid))
    idx = np.random.default_rng(4).permutation(108)[:50]
    cols = op.columns(idx)
    np.testing.assert_array_equal(op.gram(idx), cols.conj().T @ cols)


def test_pixel_gram_of_every_pixel_is_the_identity():
    op = SensingOperator(make_measurement("pixel", 35, 35, seed=1), SparseBasis((7, 5)))
    idx = np.random.default_rng(1).permutation(35)
    np.testing.assert_allclose(op.gram(idx), np.eye(35), rtol=0, atol=1e-15)


@pytest.mark.parametrize("grid", [(8, 6), (7, 5), (9, 4), (2, 3), (1, 6)])
@pytest.mark.parametrize("kind", ["pixel", "gaussian"])
def test_half_plane_adjoint_and_synthesis_match_the_full_plane(grid, kind):
    # odd and even sides: the fold of every wavenumber reads the full-plane
    # adjoint from the half plane, and the irfft2 of Hermitian coefficients
    # is the real part of their full synthesis
    psi = SparseBasis(grid)
    rng = np.random.default_rng(3)
    op = SensingOperator(make_measurement(kind, min(5, psi.n), psi.n, seed=3), psi)
    y = rng.standard_normal((op.C.p, 2))
    half, mirror = psi.fold(np.arange(psi.n))
    assert np.all(half < grid[1] * (grid[0] // 2 + 1))
    folded = op.real_adjoint(y)[half]
    folded[mirror] = folded[mirror].conj()
    np.testing.assert_allclose(folded, op.adjoint(y), rtol=0, atol=1e-14)
    s = apply_basis(psi, rng.standard_normal((psi.n, 2)), "inverse")
    field = op.real_synthesize(s)
    assert np.isrealobj(field) and field.shape == s.shape
    np.testing.assert_allclose(field, op.synthesize(s).real, rtol=0, atol=1e-14)


def test_gaussian_coherence_regression():
    psi = SparseBasis((16, 16))
    C = make_measurement("gaussian", 64, 256, seed=5)
    mu = mutual_coherence(C, psi)
    assert mu < 0.5
    assert abs(mu - 0.17888955589767144) < 1e-12


def test_recommended_measurements_arithmetic():
    assert recommended_measurements(5, 16384, safety=1.0) == 41
    assert recommended_measurements(5, 16384, safety=1.5) == 61
    assert recommended_measurements(5, 16384) == 61
    assert recommended_measurements(1, 3) == 2
    with pytest.raises(BadDimensions):
        recommended_measurements(0, 16)
    with pytest.raises(BadDimensions):
        recommended_measurements(16, 16)


def test_restricted_isometry_witness():
    # Gaussian measurements approximately preserve the norm of sparse
    # signals: 200 random 5-sparse draws, energy ratio within [0.5, 1.5]
    # at least 99% of the time
    rng = np.random.default_rng(2024)
    n, p, K = 1024, 128, 5
    psi = SparseBasis((32, 32))
    C = make_measurement("gaussian", p, n, seed=77)
    dense = dense_matrix(C)
    hits = 0
    for _ in range(200):
        support = rng.choice(n, size=K, replace=False)
        s = np.zeros(n, dtype=complex)
        s[support] = rng.standard_normal(K) + 1j * rng.standard_normal(K)
        s /= np.linalg.norm(s)
        y = dense @ apply_basis(psi, s, "forward")
        ratio = np.linalg.norm(y) ** 2
        if 0.5 <= ratio <= 1.5:
            hits += 1
    assert hits >= 198
