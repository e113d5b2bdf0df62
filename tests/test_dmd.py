"""Core decomposition behavior on systems with known spectra.

Planted linear systems are the oracle throughout: a rotation with known
angle, a repeated fixed point, and the synthetic Fourier generator whose
continuous eigenvalues are drawn explicitly.
"""

import tracemalloc

import numpy as np
import pytest

from csdmd import dmd
from csdmd.dmd import (
    SnapshotPair,
    advance_modes,
    compare_spectra,
    compressed_dmd,
    exact_dmd,
    lifted_dmd,
    measure_pair,
    mode_alignment,
    pair_eigenvalues,
)
from csdmd.errors import DimensionError, RankCollapse, ZeroInput
from csdmd.io import PANEL_ROWS, PanelReader, read_matrix, write_matrix
from csdmd.linalg import GRAM_TOL_FLOOR, eig_dense, gram_svd, svd_econ
from csdmd.pipelines import verify_invariance_suite
from csdmd.sensing import apply_measurement, make_measurement
from csdmd.systems import (
    DoubleGyreParams,
    add_fourier_noise,
    generate_fourier_lti,
    generate_gyre_snapshots,
    make_fourier_lti,
)


def rotation_pair(theta=0.3, m=10, dt=1.0):
    R = np.array([[np.cos(theta), -np.sin(theta)],
                  [np.sin(theta), np.cos(theta)]])
    snaps = [np.array([1.0, 0.0])]
    for _ in range(m):
        snaps.append(R @ snaps[-1])
    snaps = np.column_stack(snaps)
    return SnapshotPair(X=snaps[:, :-1], Xp=snaps[:, 1:], dt=dt)


def random_consistent_pair(n, m, seed, dt=0.1):
    """Exactly linear data X' = A X with a well-conditioned X.

    Unlike a single trajectory (whose columns align badly as the
    dynamics decay), independent random columns keep every retained
    direction well conditioned, so identities hold at tight tolerances.
    """
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, n))
    A *= 0.95 / np.max(np.abs(np.linalg.eigvals(A)))
    X = rng.standard_normal((n, m))
    return SnapshotPair(X=X, Xp=A @ X, dt=dt), A


def test_series_pair_holds_views_of_its_snapshots():
    S = np.arange(12.0).reshape(3, 4)
    data = SnapshotPair.series(S, dt=0.5)
    assert data.S is S and data.lag == 1 and data.m == 3
    assert np.shares_memory(data.X, S) and np.shares_memory(data.Xp, S)
    np.testing.assert_array_equal(data.X, S[:, :3])
    np.testing.assert_array_equal(data.Xp, S[:, 1:])
    with pytest.raises(DimensionError):
        SnapshotPair.series(S[:, :1], dt=0.5)


def test_keyword_pair_stores_each_distinct_snapshot_once():
    series = rotation_pair(m=6)
    assert series.lag == 1 and series.S.shape == (2, 7)
    data, A = random_consistent_pair(5, 8, seed=3)
    assert data.lag == 8 and data.S.shape == (5, 16)
    np.testing.assert_array_equal(data.Xp, A @ data.X)
    with pytest.raises(DimensionError):
        SnapshotPair(X=np.ones((4, 0)), Xp=np.ones((4, 0)), dt=1.0)


@pytest.mark.parametrize("dt", [np.nan, np.inf, -np.inf, None, 0.0, -0.1])
def test_a_pair_needs_a_finite_positive_step(dt):
    # a NaN step would give NaN omegas; a null dt in a sidecar reads as None
    S = np.arange(12.0).reshape(3, 4)
    with pytest.raises(DimensionError):
        SnapshotPair.series(S, dt=dt)
    with pytest.raises(DimensionError):
        SnapshotPair(X=S[:, :3], Xp=S[:, 1:], dt=dt)


def test_map_snapshots_sees_each_snapshot_of_a_series_once():
    # X' is X shifted, so f gets the m+1 distinct snapshots in one call
    data = rotation_pair(m=6, dt=0.5)
    blocks = []

    def double(S):
        blocks.append(S)
        return 2.0 * S

    got = data.map_snapshots(double, grid=(2, 1))
    assert len(blocks) == 1 and blocks[0] is data.S and data.S.shape == (2, 7)
    np.testing.assert_array_equal(got.X, 2.0 * data.X)
    np.testing.assert_array_equal(got.Xp, 2.0 * data.Xp)
    assert got.lag == 1 and got.dt == 0.5 and got.grid == (2, 1)


def test_map_snapshots_sees_both_matrices_of_an_unshifted_pair():
    data, _ = random_consistent_pair(5, 8, seed=3)
    blocks = []

    def negate(S):
        blocks.append(S)
        return -S

    got = data.map_snapshots(negate)
    assert len(blocks) == 1 and blocks[0] is data.S and data.S.shape == (5, 16)
    np.testing.assert_array_equal(got.X, -data.X)
    np.testing.assert_array_equal(got.Xp, -data.Xp)


def test_pixel_measurement_gathers_each_distinct_snapshot_once(monkeypatch):
    data, _ = generate_fourier_lti(make_fourier_lti(nx=16, ny=16, K=2, m=20, seed=1))
    C = make_measurement("pixel", 40, data.n, seed=2)
    shapes = []
    panels = data.panels

    def recording():
        for start, P in panels():
            shapes.append(P.shape)
            yield start, P

    # the measurement reads the pair's block in row panels, each row once
    monkeypatch.setattr(data, "panels", recording)
    measured = measure_pair(C, data)
    assert shapes == [(data.n, data.m + 1)]
    np.testing.assert_array_equal(measured.X, data.X[C.indices])
    np.testing.assert_array_equal(measured.Xp, data.Xp[C.indices])
    assert measured.lag == 1


def test_rotation_eigenvalues():
    result = exact_dmd(rotation_pair())
    expected = {np.exp(0.3j), np.exp(-0.3j)}
    assert result.rank == 2
    for lam in result.lambdas:
        assert min(abs(lam - e) for e in expected) < 1e-10


def test_rotation_model_replays_trajectory():
    theta, dt = 0.3, 0.5
    pair = rotation_pair(theta, m=10, dt=dt)
    result = exact_dmd(pair)
    for k in (0, 3, 7):
        np.testing.assert_allclose(
            advance_modes(result, k * dt), pair.X[:, k], atol=1e-8
        )


def test_static_data_gives_unit_eigenvalue():
    x0 = np.array([1.0, -2.0, 0.5])
    X = np.tile(x0[:, None], (1, 6))
    result = exact_dmd(SnapshotPair(X=X, Xp=X, dt=1.0), truncation_tol=1e-6)
    assert result.rank == 1
    np.testing.assert_allclose(result.lambdas, [1.0], atol=1e-12)
    assert mode_alignment(result.Phi[:, 0], x0) > 1 - 1e-12


def test_single_column_rejected():
    X = np.ones((4, 1))
    with pytest.raises(DimensionError):
        exact_dmd(SnapshotPair(X=X, Xp=X, dt=1.0))


def test_a_fit_above_rank_512_runs():
    # the r x r eigensolve takes any rank the m x m Gram eigh before it kept
    rng = np.random.default_rng(0)
    data = SnapshotPair(X=rng.standard_normal((600, 550)),
                        Xp=rng.standard_normal((600, 550)), dt=1.0)
    result = exact_dmd(data)
    assert result.rank == 550 and result.Phi.shape == (600, 550)


def test_nilpotent_direction_uses_projected_modes():
    # second step annihilates everything: both eigenvalues are zero and
    # the zero-eigenvalue fallback must still produce usable vectors
    X = np.eye(2)
    Xp = np.array([[0.0, 0.0], [1.0, 0.0]])
    result = exact_dmd(SnapshotPair(X=X, Xp=Xp, dt=1.0))
    np.testing.assert_allclose(result.lambdas, [0.0, 0.0], atol=1e-12)
    assert np.all(np.isfinite(result.Phi))
    np.testing.assert_allclose(np.linalg.norm(result.Phi, axis=0), 1.0, atol=1e-10)


def test_compressed_zero_eigenvalue_lifts_to_full_state():
    # the zero-eigenvalue fallback must produce n-row modes from p-row data
    rng = np.random.default_rng(3)
    X = rng.standard_normal((64, 6))
    Q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
    Xp = X @ Q @ np.diag([0.0, 0.9, 0.8, 0.7, 0.6, 0.5]) @ Q.T
    data = SnapshotPair(X=X, Xp=Xp, dt=1.0)
    ref = exact_dmd(data)
    result = compressed_dmd(data, make_measurement("gaussian", 32, 64, seed=4))
    pairs, un_a, un_b = pair_eigenvalues(ref.lambdas, result.lambdas)
    assert not un_a and not un_b
    for i, j, dist in pairs:
        assert dist < 1e-10
        assert mode_alignment(ref.Phi[:, i], result.Phi[:, j]) > 1 - 1e-10


def _dying_pair_on_disk(directory):
    """A lag-m pair over 2 panels and a short one whose propagator has one
    zero eigenvalue, in memory and written to directory: (X, pair, on-disk
    pair)."""
    rng = np.random.default_rng(3)
    X = rng.standard_normal((2 * PANEL_ROWS + 5, 6))
    Q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
    Xp = X @ Q @ np.diag([0.0, 0.9, 0.8, 0.7, 0.6, 0.5]) @ Q.T
    data = SnapshotPair(X=X, Xp=Xp, dt=1.0)
    write_matrix(directory, "S", data.S)
    return X, data, SnapshotPair.from_block(PanelReader(directory, "S"), data.lag, 1.0)


def test_zero_eigenvalue_modes_are_lifted_panel_by_panel(tmp_path):
    # over 2 panels and a short one: exact and compressed DMD both lift a
    # zero eigenvalue's mode through X, X V sigma^-1 W, in the same pass
    # over the panels that lifts the other modes through X', and a block on
    # disk gives the same bits as the same column-major block in memory
    X, data, on_disk = _dying_pair_on_disk(tmp_path)
    ref = exact_dmd(data)
    dead = np.abs(ref.lambdas) < 1e-12
    assert dead.sum() == 1
    V_sigma = ref.svd_used.V / ref.svd_used.sigma
    np.testing.assert_allclose(ref.Phi[:, dead], X @ V_sigma @ ref.W[:, dead], rtol=0, atol=1e-12)
    C = make_measurement("gaussian", 32, data.n, seed=4)
    result = compressed_dmd(data, C)
    dead = np.abs(result.lambdas) < 1e-12
    assert dead.sum() == 1
    V_sigma = result.svd_used.V / result.svd_used.sigma
    np.testing.assert_allclose(result.Phi[:, dead], X @ V_sigma @ result.W[:, dead],
                               rtol=0, atol=1e-12)
    pairs, un_a, un_b = pair_eigenvalues(ref.lambdas, result.lambdas)
    assert not un_a and not un_b
    for i, j, dist in pairs:
        assert dist < 1e-10
        assert mode_alignment(ref.Phi[:, i], result.Phi[:, j]) > 1 - 1e-10
    in_memory = SnapshotPair.from_block(np.asfortranarray(data.S), data.lag, 1.0)
    for fit in (lambda pair: exact_dmd(pair), lambda pair: compressed_dmd(pair, C)):
        assert fit(in_memory).Phi.tobytes() == fit(on_disk).Phi.tobytes()


def test_a_fit_sweeps_a_block_on_disk_twice(tmp_path, monkeypatch):
    # exact DMD sums the Gram, compressed DMD measures, and each then lifts
    # the modes, the zero eigenvalue's too, and the amplitudes in one more
    # sweep over the panels
    _, _, on_disk = _dying_pair_on_disk(tmp_path)
    sweeps = []
    panels = PanelReader.panels

    def counted(reader):
        sweeps.append(reader)
        return panels(reader)

    monkeypatch.setattr(PanelReader, "panels", counted)
    C = make_measurement("gaussian", 32, on_disk.n, seed=4)
    for fit in (lambda pair: exact_dmd(pair), lambda pair: compressed_dmd(pair, C)):
        sweeps.clear()
        assert np.sum(np.abs(fit(on_disk).lambdas) < 1e-12) == 1
        assert len(sweeps) == 2


def test_a_block_on_disk_is_refused_whole(tmp_path):
    # a pair over a block on disk is read in panels by a fit; what needs the
    # whole block is refused with one error that names load(), which is how
    # it is read whole
    data = generate_gyre_snapshots(DoubleGyreParams(grid=(16, 8)))
    write_matrix(tmp_path, "S", data.S)
    on_disk = SnapshotPair.from_block(PanelReader(tmp_path, "S"), data.lag, data.dt, data.grid)
    for use in (
        lambda: on_disk.X,
        lambda: on_disk.Xp,
        lambda: on_disk.map_snapshots(lambda S: 2 * S),
        lambda: verify_invariance_suite(on_disk),
        lambda: add_fourier_noise(on_disk, 0.1, seed=1),
    ):
        with pytest.raises(DimensionError, match=r"load\(\)"):
            use()
    assert len(verify_invariance_suite(on_disk.load())) == 5


def test_fourier_system_truth_recovery():
    system = make_fourier_lti(nx=32, ny=32, K=3, dt=0.02, m=40, seed=6)
    data, truth = generate_fourier_lti(system)
    result = exact_dmd(data, truncation_tol=1e-6)
    assert result.rank == 6
    pairs, un_a, un_b = pair_eigenvalues(truth.lambdas, result.lambdas)
    assert not un_a and not un_b
    for i, j, _ in pairs:
        assert abs(truth.lambdas[i] - result.lambdas[j]) < 1e-8
        assert mode_alignment(truth.atoms[:, i], result.Phi[:, j]) > 0.999


def test_model_extrapolates_fourier_system():
    system = make_fourier_lti(nx=16, ny=16, K=2, dt=0.05, m=30, seed=4)
    data, _ = generate_fourier_lti(system)
    result = exact_dmd(data, truncation_tol=1e-6)
    # interior snapshot and the final column, which the fit never saw as
    # an X column
    for k in (10, 30):
        target = data.Xp[:, k - 1]
        pred = advance_modes(result, k * data.dt)
        assert np.linalg.norm(pred - target) <= 1e-6 * np.linalg.norm(target)


def test_right_unitary_invariance():
    # postmultiplying both snapshot matrices by any unitary leaves the
    # spectrum and the mode subspace alone
    rng = np.random.default_rng(10)
    data, _ = random_consistent_pair(12, 20, seed=31)
    ref = exact_dmd(data, truncation_tol=1e-8)
    for trial in range(4):
        if trial == 0:
            P = np.eye(20)[rng.permutation(20)]
        else:
            P = np.linalg.qr(rng.standard_normal((20, 20)))[0]
        shuffled = SnapshotPair(X=data.X @ P.T.conj(), Xp=data.Xp @ P.T.conj(),
                                dt=data.dt)
        got = exact_dmd(shuffled, truncation_tol=1e-8)
        pairs, un_a, un_b = pair_eigenvalues(ref.lambdas, got.lambdas,
                                             ref.amplitudes)
        assert not un_a and not un_b
        for i, j, _ in pairs:
            assert abs(ref.lambdas[i] - got.lambdas[j]) < 1e-10
            assert mode_alignment(ref.Phi[:, i], got.Phi[:, j]) > 1 - 1e-8


def test_left_unitary_covariance():
    # premultiplying by a unitary keeps eigenvalues and maps modes by the
    # same unitary
    rng = np.random.default_rng(20)
    data, _ = random_consistent_pair(10, 25, seed=8)
    ref = exact_dmd(data, truncation_tol=1e-8)
    Q = np.linalg.qr(rng.standard_normal((10, 10))
                     + 1j * rng.standard_normal((10, 10)))[0]
    rotated = SnapshotPair(X=Q @ data.X, Xp=Q @ data.Xp, dt=data.dt)
    got = exact_dmd(rotated, truncation_tol=1e-8)
    pairs, _, _ = pair_eigenvalues(ref.lambdas, got.lambdas, ref.amplitudes)
    expected = Q @ ref.Phi
    for i, j, _ in pairs:
        assert abs(ref.lambdas[i] - got.lambdas[j]) < 1e-10
        assert mode_alignment(expected[:, i], got.Phi[:, j]) > 1 - 1e-8


def test_compressed_identity_matches_exact():
    data, _ = random_consistent_pair(16, 30, seed=12)
    C = make_measurement("pixel", 16, 16, seed=0)  # p = n: the identity
    ref = exact_dmd(data, truncation_tol=1e-8)
    got = compressed_dmd(data, C, truncation_tol=1e-8)
    # exact DMD is compressed DMD through the identity, bit for bit
    for name in ("lambdas", "Phi", "Atilde", "amplitudes"):
        assert np.array_equal(getattr(ref, name), getattr(got, name)), name


def test_compressed_recovers_planted_spectrum():
    system = make_fourier_lti(nx=32, ny=32, K=3, dt=0.02, m=40, seed=6)
    data, truth = generate_fourier_lti(system)
    C = make_measurement("gaussian", 20, data.n, seed=2)
    got = compressed_dmd(data, C, truncation_tol=1e-6)
    pairs, un_a, _ = pair_eigenvalues(truth.lambdas, got.lambdas)
    assert not un_a
    for i, j, _ in pairs:
        assert abs(truth.lambdas[i] - got.lambdas[j]) < 1e-6
        assert mode_alignment(truth.atoms[:, i], got.Phi[:, j]) > 0.99


def test_compressed_full_modes_live_in_state_space():
    # low-rank data survives heavy compression: rank 6 through 8 sensors,
    # and the reconstructed modes keep their full 1024-point extent
    system = make_fourier_lti(nx=32, ny=32, K=3, dt=0.02, m=40, seed=6)
    data, _ = generate_fourier_lti(system)
    C = make_measurement("gaussian", 8, data.n, seed=3)
    got = compressed_dmd(data, C, truncation_tol=1e-6)
    assert got.Phi.shape[0] == data.n
    assert got.rank == 6


def test_compressing_below_data_rank_collapses():
    data, _ = random_consistent_pair(16, 30, seed=12)
    C = make_measurement("gaussian", 8, 16, seed=3)
    with pytest.raises(RankCollapse):
        compressed_dmd(data, C, truncation_tol=1e-8)


def test_rank_collapse_detected():
    data = rotation_pair()
    C = make_measurement("gaussian", 1, 2, seed=0)
    with pytest.raises(RankCollapse):
        compressed_dmd(data, C)


def test_default_tolerance_keeps_only_the_planted_rank():
    # K = 3 real waves span 2K = 6 directions; below the Gram route's
    # sqrt(eps) resolution, rounding noise would count as rank too
    system = make_fourier_lti(nx=32, ny=32, K=3, dt=0.02, m=40, seed=6)
    data, _ = generate_fourier_lti(system)
    assert exact_dmd(data).rank == 6


def test_tolerance_below_the_floor_keeps_only_the_planted_rank():
    # an explicit tolerance below the Gram route's resolution is raised to
    # GRAM_TOL_FLOOR, and the result records the tolerance it applied
    system = make_fourier_lti(nx=32, ny=32, K=3, dt=0.02, m=40, seed=6)
    data, _ = generate_fourier_lti(system)
    result = exact_dmd(data, truncation_tol=1e-10)
    assert result.rank == 6
    assert result.svd_used.truncation_tol == GRAM_TOL_FLOOR


@pytest.mark.parametrize("tol", [np.nan, np.inf, -np.inf])
def test_a_non_finite_tolerance_is_rejected(tol):
    # max(tol, floor) passed NaN and +Inf on, sigma > tol * sigma_0 then
    # kept nothing, and the fit read rank 1 where the data hold 6
    system = make_fourier_lti(nx=32, ny=32, K=3, dt=0.02, m=40, seed=6)
    data, _ = generate_fourier_lti(system)
    with pytest.raises(DimensionError, match="finite"):
        exact_dmd(data, truncation_tol=tol)


def test_compressed_dmd_decomposes_only_the_measured_pair(monkeypatch):
    # the one decomposition is of a Gram of the p-row measured block Y, on
    # its short side (p x p for p < m, else m x m), never of the full X
    grams = []

    def recording_gram_svd(G, tol):
        grams.append(G)
        return gram_svd(G, tol)

    monkeypatch.setattr("csdmd.dmd.gram_svd", recording_gram_svd)
    system = make_fourier_lti(nx=32, ny=32, K=3, dt=0.02, m=40, seed=6)
    data, _ = generate_fourier_lti(system)
    for p in (8, 40, 60):
        C = make_measurement("gaussian", p, data.n, seed=3)
        grams.clear()
        compressed_dmd(data, C, truncation_tol=1e-6)
        Y = apply_measurement(C, data.X)
        short = Y @ Y.T if p < data.m else Y.T @ Y
        assert len(grams) == 1 and grams[0].shape == (min(p, data.m),) * 2
        np.testing.assert_allclose(grams[0], short, rtol=0, atol=1e-12 * np.abs(short).max())


def svd_reference_dmd(measured, full, tol):
    """Exact DMD of the measured pair lifted through the full one, as the
    textbook writes it: np.linalg.svd of Y, Atilde = U^H Y' V sigma^-1, modes
    X' V sigma^-1 W (X V sigma^-1 W for zero eigenvalues), amplitudes
    lstsq(Phi, x_0)."""
    U, s, Vh = np.linalg.svd(measured.X, full_matrices=False)
    r = int(np.sum(s > tol * s[0]))
    U, V_sigma = U[:, :r], Vh[:r].conj().T / s[:r]
    lambdas, W = np.linalg.eig(U.conj().T @ measured.Xp @ V_sigma)
    Phi = full.Xp @ V_sigma @ W
    dead = np.abs(lambdas) <= 1e-12 * np.abs(lambdas).max()
    Phi[:, dead] = full.X @ V_sigma @ W[:, dead]
    b = np.linalg.lstsq(Phi, full.X[:, 0].astype(complex), rcond=None)[0]
    return lambdas, Phi, b


def _core_cases():
    system = make_fourier_lti(nx=32, ny=32, K=3, dt=0.02, m=40, seed=6)
    waves, _ = generate_fourier_lti(system)
    rng = np.random.default_rng(5)
    X = rng.standard_normal((64, 6))
    Q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
    dying = X @ Q @ np.diag([0.0, 0.9, 0.8, 0.7, 0.6, 0.5]) @ Q.T
    C = make_measurement("gaussian", 8, waves.n, seed=3)
    fft = lambda S: np.fft.fft(S, axis=0, norm="ortho")
    return {
        "real_series": (waves, waves, 1e-6),
        "complex_series": (waves.map_snapshots(fft),) * 2 + (1e-6,),
        "lag_m_pair": (random_consistent_pair(40, 12, seed=9)[0],) * 2 + (1e-10,),
        # 8 x 41: the measured block is wide, and the modes are lifted
        "wide_measured_pair": (measure_pair(C, waves), waves, 1e-6),
        "zero_eigenvalue": (SnapshotPair(X=X, Xp=dying, dt=1.0),) * 2 + (1e-10,),
    }


@pytest.mark.parametrize("case", list(_core_cases()))
def test_gram_core_matches_an_svd_built_exact_dmd(case):
    # the Gram core never forms U and solves for b through W; it must agree
    # with the textbook form (U from an SVD, b from lstsq on Phi) in lambda,
    # in the modes, and in Phi diag(b), which is free of the modes' scale
    # and phase (a wide Y gets its V by another route, with other signs)
    measured, full, tol = _core_cases()[case]
    lambdas, Phi, b = svd_reference_dmd(measured, full, tol)
    got = lifted_dmd(measured, full, tol)
    assert case != "lag_m_pair" or measured.lag == measured.m
    assert case != "zero_eigenvalue" or np.min(np.abs(got.lambdas)) < 1e-12
    pairs, un_a, un_b = pair_eigenvalues(lambdas, got.lambdas)
    assert not un_a and not un_b
    scale = np.linalg.norm(Phi * b)
    for i, j, dist in pairs:
        assert dist < 1e-10
        assert mode_alignment(Phi[:, i], got.Phi[:, j]) > 1 - 1e-10
        gap = np.linalg.norm(Phi[:, i] * b[i] - got.Phi[:, j] * got.amplitudes[j])
        assert gap <= 1e-9 * scale
    # the amplitudes are the textbook lstsq on the modes the core returns
    b_ls = np.linalg.lstsq(got.Phi, full.X[:, 0].astype(complex), rcond=None)[0]
    assert np.linalg.norm(got.amplitudes - b_ls) <= 1e-12 * np.linalg.norm(b_ls)


def test_gram_core_keeps_the_thin_qr_orthonormalisation():
    # the r x r Cholesky factor stands in for a thin QR of U = Y V sigma^-1;
    # without it, Phi diag(b) on this gyre moves by ~1e-9 against an
    # Atilde = U^H X' V sigma^-1 built from LAPACK's orthonormal U
    data = generate_gyre_snapshots(DoubleGyreParams(grid=(64, 32)))
    got = exact_dmd(data, 1e-4)
    U, s, Vh = np.linalg.svd(data.X, full_matrices=False)
    U, V_sigma = U[:, : got.rank], Vh[: got.rank].conj().T / s[: got.rank]
    B = data.Xp @ V_sigma
    lambdas, W = eig_dense(U.conj().T @ B)
    b = np.linalg.lstsq(B @ W, data.X[:, 0].astype(complex), rcond=None)[0]
    pairs, un_a, un_b = pair_eigenvalues(lambdas, got.lambdas)
    assert not un_a and not un_b
    scale = np.linalg.norm(B @ W * b)
    for i, j, dist in pairs:
        assert dist < 1e-10
        gap = np.linalg.norm(B @ W[:, i] * b[i] - got.Phi[:, j] * got.amplitudes[j])
        assert gap <= 1.5e-10 * scale


@pytest.mark.parametrize("entry, error, match", [
    (np.nan, DimensionError, "NaN or Inf"),
    (1e200, DimensionError, "overflow"),
    (1e-170, ZeroInput, "underflow"),
])
def test_exact_dmd_raises_the_svd_errors(entry, error, match):
    # the errors svd_econ raises for the same snapshots, read from the trace
    # of the Gram the core forms
    S = np.full((6, 5), entry)
    with pytest.raises(error, match=match):
        exact_dmd(SnapshotPair.series(S, dt=1.0))


def test_core_allocates_no_copy_of_the_snapshot_block():
    # 16384 x 201 waves: past the block itself, exact_dmd and lifted_dmd
    # keep only Gram-sized and n x r arrays, no n x (m+1) buffer and no
    # complex copy of S
    system = make_fourier_lti(nx=128, ny=128, K=5, dt=0.01, m=200, seed=2)
    data, _ = generate_fourier_lti(system)
    measured = measure_pair(make_measurement("gaussian", 112, data.n, seed=3), data)
    for run in (lambda: exact_dmd(data, 1e-6), lambda: lifted_dmd(measured, data, 1e-6)):
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < data.S.nbytes / 4


def test_complex_fit_conjugates_no_copy_of_the_snapshot_block():
    # the unitary DFT of the 16384 x 201 waves is a complex series of the
    # same rank; its Gram conjugates a few columns of one panel at a time,
    # where S^H S conjugated the whole block first
    system = make_fourier_lti(nx=128, ny=128, K=5, dt=0.01, m=200, seed=2)
    real, _ = generate_fourier_lti(system)
    data = real.map_snapshots(lambda S: np.fft.fft(S, axis=0, norm="ortho"))
    assert data.S.shape == (16384, 201) and np.iscomplexobj(data.S)
    tracemalloc.start()
    try:
        result = exact_dmd(data, 1e-6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.rank == 10
    assert peak < data.S.nbytes / 4


def _block(rows, lag, dtype, seed=0):
    """A rows x (m+1) series (lag 1) or rows x 2m pair (lag m), m = 8, of
    rank 5 plus a small full-rank part, so the fit keeps a nontrivial rank."""
    rng = np.random.default_rng(seed)
    cols = 9 if lag == 1 else 16
    draw = lambda *shape: rng.standard_normal(shape).astype(dtype) * (
        1 if dtype is float else np.exp(2j * np.pi * rng.random(shape)))
    return draw(rows, 5) @ draw(5, cols) + 1e-3 * draw(rows, cols)


@pytest.mark.parametrize("rows", [1000, 2 * PANEL_ROWS + 123])
@pytest.mark.parametrize("lag", [1, 8])
@pytest.mark.parametrize("dtype", [float, complex])
def test_block_sources_agree_bit_for_bit(tmp_path, rows, lag, dtype):
    # a block in memory and the same block on disk, read in panels, give the
    # same Gram, eigenvalues and modes to the last bit, under exact and
    # compressed DMD: both sources yield the same fixed-height panels
    write_matrix(tmp_path, "S", _block(rows, lag, dtype))
    in_memory = SnapshotPair.from_block(read_matrix(tmp_path, "S")[0], lag, 0.1)
    on_disk = SnapshotPair.from_block(PanelReader(tmp_path, "S"), lag, 0.1)
    assert dmd._gram(in_memory).tobytes() == dmd._gram(on_disk).tobytes()
    C = make_measurement("pixel", 200, rows, seed=1)
    for fit in (lambda pair: exact_dmd(pair, 1e-6), lambda pair: compressed_dmd(pair, C, 1e-6)):
        a, b = fit(in_memory), fit(on_disk)
        assert a.rank == b.rank >= 5
        for name in ("lambdas", "Phi", "amplitudes"):
            assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name


def _sigma_rule_raises(X, Y, tol):
    """The rank check that decomposed the full X: raise when the measured
    rank r is below the full rank and sigma_r(X) > sqrt(tol) sigma_0(X)."""
    full, measured = svd_econ(X, tol), svd_econ(Y, tol)
    return (
        measured.rank < full.rank
        and full.sigma[measured.rank] > np.sqrt(tol) * full.sigma[0]
    )


@pytest.mark.parametrize(
    "seed, kind", enumerate(["gaussian", "bernoulli", "pixel", "unitary"])
)
def test_rank_collapse_raised_wherever_the_sigma_rule_raises(seed, kind):
    # random low-rank data with decaying spectra, compressed to around its
    # rank: the energy check must raise at least wherever a dropped
    # singular value of X exceeds sqrt(tol) sigma_0(X)
    rng = np.random.default_rng(seed)
    raised = 0
    for trial in range(150):
        n, m = int(rng.integers(8, 49)), int(rng.integers(6, 31))
        k = int(rng.integers(1, min(n, m) + 1))
        s = 10.0 ** (-rng.uniform(0, 8) * np.arange(k) / k)
        L = np.linalg.qr(rng.standard_normal((n, k)))[0]
        R = np.linalg.qr(rng.standard_normal((m, k)))[0]
        X = (L * s) @ R.T
        A = rng.standard_normal((n, n)) / np.sqrt(n)
        p = int(np.clip(k + rng.integers(-3, 4), 1, n))
        tol = 10.0 ** rng.uniform(-10, -2)
        C = make_measurement(kind, p, n, seed=trial)
        if _sigma_rule_raises(X, apply_measurement(C, X), tol):
            raised += 1
            with pytest.raises(RankCollapse):
                compressed_dmd(SnapshotPair(X=X, Xp=A @ X, dt=0.1), C, tol)
    assert raised >= 20


def test_projection_commutes_with_propagator():
    # for trajectory data whose columns span the state space, measuring
    # commutes with the fitted propagator: C A_X = A_Y C.  The identity
    # needs rank preservation, so C has at least n rows here (drawn
    # directly since the sensor constructors model compressing C).
    data, A = random_consistent_pair(12, 40, seed=44)
    assert svd_econ(data.X, 1e-10).rank == 12
    A_X = data.Xp @ np.linalg.pinv(data.X, rcond=1e-10)
    rng = np.random.default_rng(3)
    for trial in range(5):
        p = int(rng.integers(12, 25))
        Cd = rng.standard_normal((p, 12))
        Y = Cd @ data.X
        A_Y = (Cd @ data.Xp) @ np.linalg.pinv(Y, rcond=1e-10)
        lhs = Cd @ A_X
        assert np.linalg.norm(lhs - A_Y @ Cd) <= 1e-8 * np.linalg.norm(lhs)


def test_pair_eigenvalues_permutation():
    lam = np.array([1.0 + 0j, 0.5j, -0.25])
    amps = np.array([3.0, 2.0, 1.0])
    perm = [2, 0, 1]
    pairs, un_a, un_b = pair_eigenvalues(lam, lam[perm], amps)
    assert not un_a and not un_b
    mapping = {i: j for i, j, _ in pairs}
    for i in range(3):
        assert lam[i] == lam[perm][mapping[i]]


def test_pair_eigenvalues_reports_unmatched():
    lam_a = np.array([1.0 + 0j, 0.5, 0.25])
    lam_b = np.array([1.0 + 0j, 0.5])
    pairs, un_a, un_b = pair_eigenvalues(lam_a, lam_b)
    assert len(pairs) == 2
    assert list(un_a) == [2]
    assert not un_b


def test_pair_eigenvalues_refuses_amplitudes_of_another_length():
    # ordering by |lambda| in place of the amplitudes would pair silently
    for amps in ([0.1, 5.0, 1.0], [2.0]):
        with pytest.raises(DimensionError, match=f"{len(amps)} amplitudes for 2 eigenvalues"):
            pair_eigenvalues([0.9, 0.5], [0.9, 0.5], amps)


def test_compare_spectra_rows_alignments_and_unmatched():
    lam_a = np.array([1.0 + 0j, 0.5, 0.25])
    lam_b = np.array([0.5 + 1e-3, 1.0])
    modes_b = np.array([[0.0, 1.0], [2j, 0.0], [0.0, 1.0]])
    rows, aligns, un_a, un_b = compare_spectra(lam_a, np.eye(3), lam_b, modes_b)
    assert rows == [(1.0, 1.0, 0.0), (0.5, 0.5 + 1e-3, pytest.approx(1e-3))]
    assert aligns == [pytest.approx(1 / np.sqrt(2)), pytest.approx(1.0)]
    assert un_a == [0.25] and un_b == []


def test_mode_alignment_scale_and_phase_invariant():
    rng = np.random.default_rng(0)
    v = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    assert abs(mode_alignment(v, 3.0 * np.exp(0.7j) * v) - 1.0) < 1e-12
    w = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    w -= (v.conj() @ w) / (v.conj() @ v) * v
    assert mode_alignment(v, w) < 1e-12
