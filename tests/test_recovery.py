"""Greedy sparse recovery (CoSaMP) of mode coefficients.

Planted-support instances are the main oracle: draw a known K-sparse
coefficient vector, push it through the measurement operator, and demand
the solver return exactly that support and those values.
"""

import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from csdmd import recovery, sensing
from csdmd.errors import DimensionError, NoProgress, ZeroInput
from csdmd.recovery import (
    RecoveredMode,
    RecoveryConfig,
    cosamp,
    recover_modes,
)
from csdmd.sensing import (
    SensingOperator,
    SparseBasis,
    apply_basis,
    apply_measurement,
    make_measurement,
)
from csdmd.systems import generate_fourier_lti, make_fourier_lti


class DenseOperator:
    """An explicit matrix as a recovery operator: the five members cosamp
    may use."""

    def __init__(self, A):
        self.A = np.asarray(A)
        self.shape = self.A.shape

    def adjoint(self, y):
        return self.A.conj().T @ y

    def gram(self, idx):
        cols = self.A[:, idx]
        return cols.conj().T @ cols

    def columns(self, idx):
        return self.A[:, idx]

    def synthesize(self, coeffs):
        return coeffs


def dense(mode, n):
    """A RecoveredMode's coefficients as the n-vector (n x r block) they
    came from: its values on its support, zero elsewhere."""
    coeffs = np.zeros((n,) + mode.values.shape[1:], dtype=complex)
    coeffs[mode.support] = mode.values
    return coeffs


def planted_instance(n, p, K, seed, kind="gaussian"):
    rng = np.random.default_rng(seed)
    side = int(round(np.sqrt(n)))
    psi = SparseBasis((side, side))
    C = make_measurement(kind, p, n, seed=seed + 1000)
    support = rng.choice(n, size=K, replace=False)
    coeffs = np.zeros(n, dtype=complex)
    coeffs[support] = rng.standard_normal(K) + 1j * rng.standard_normal(K)
    y = apply_measurement(C, apply_basis(psi, coeffs, "forward"))
    return SensingOperator(C, psi), y, coeffs


def test_identity_single_spike():
    op = DenseOperator(np.eye(8))
    y = np.zeros(8)
    y[2] = 3.0
    mode = cosamp(op, y, RecoveryConfig(sparsity_K=1))
    # the tiny ridge term in the inner solve leaves ~1e-12 behind
    np.testing.assert_allclose(dense(mode, 8)[2], 3.0, atol=1e-9)
    assert np.count_nonzero(dense(mode, 8)) == 1
    assert mode.iters == 1
    assert mode.residual <= 1e-10


def test_planted_two_sparse():
    op, y, truth = planted_instance(256, 32, 2, seed=9)
    mode = cosamp(op, y, RecoveryConfig(sparsity_K=2))
    np.testing.assert_allclose(dense(mode, 256), truth, atol=1e-8)
    assert mode.residual <= 1e-8


def test_support_never_exceeds_K():
    op, y, _ = planted_instance(256, 40, 5, seed=3)
    for K in (1, 3, 5, 7):
        mode = cosamp(op, y, RecoveryConfig(sparsity_K=K))
        assert np.count_nonzero(dense(mode, 256)) <= K


def test_recovery_rate_grid():
    # the acceptance-level sweep: n = 256, p = 8K, 20 seeds per K, 95%
    # pooled over the grid (K = 1 sits in a thin-measurement regime with
    # a per-setting success rate near 87%, so only the pooled rate is a
    # stable target)
    n = 256
    good = total = 0
    for K in (1, 2, 5):
        for seed in range(20):
            op, y, truth = planted_instance(n, 8 * K, K, seed=seed * 13 + K)
            total += 1
            try:
                mode = cosamp(op, y, RecoveryConfig(sparsity_K=K))
            except NoProgress:
                continue
            if mode.residual <= 1e-8:
                good += 1
    assert good / total >= 0.95, f"only {good}/{total} recovered"


def test_reported_residual_monotone_in_iteration_budget(monkeypatch):
    # an inexactly-sparse target: best-so-far reporting means a larger
    # budget can never report a worse residual
    monkeypatch.setattr(recovery, "RESIDUAL_TOL", 1e-14)
    rng = np.random.default_rng(21)
    A = rng.standard_normal((24, 96)) / np.sqrt(24)
    op = DenseOperator(A)
    x = np.zeros(96)
    x[[4, 30, 71]] = [2.0, -1.5, 1.0]
    y = A @ x + 0.05 * rng.standard_normal(24)
    prev = np.inf
    for budget in range(1, 7):
        monkeypatch.setattr(recovery, "MAX_ITERS", budget)
        mode = cosamp(op, y, RecoveryConfig(sparsity_K=3))
        assert mode.residual <= prev + 1e-12
        prev = mode.residual


class CountingOperator(DenseOperator):
    """Counts the adjoint and Gram calls and the atoms of each columns call."""

    def __init__(self, A):
        super().__init__(A)
        self.calls = {"adjoint": 0, "gram": 0}
        self.atoms = []

    def adjoint(self, y):
        self.calls["adjoint"] += 1
        return super().adjoint(y)

    def gram(self, idx):
        self.calls["gram"] += 1
        return super().gram(idx)

    def columns(self, idx):
        self.atoms.append(len(idx))
        return super().columns(idx)


def test_cosamp_reads_only_adjoint_and_support_columns():
    # the first adjoint is both the first proxy and every least-squares
    # right-hand side; the residual reads the K kept atoms only
    rng = np.random.default_rng(33)
    A = rng.standard_normal((40, 128)) / np.sqrt(40)
    truth = np.zeros(128, dtype=complex)
    truth[[5, 60, 99]] = [1.5, -2.0 + 1j, 0.7j]
    op = CountingOperator(A)
    mode = cosamp(op, A @ truth, RecoveryConfig(sparsity_K=3))
    np.testing.assert_allclose(dense(mode, 128), truth, atol=1e-8)
    assert mode.iters > 1
    assert op.calls == {"adjoint": mode.iters, "gram": mode.iters}
    assert op.atoms == [3] * mode.iters


def test_an_operator_without_gram_is_read_through_its_columns():
    # a wrapper that offers adjoint and columns only gets the same recovery
    rng = np.random.default_rng(33)
    A = rng.standard_normal((40, 128)) / np.sqrt(40)
    truth = np.zeros(128, dtype=complex)
    truth[[5, 60, 99]] = [1.5, -2.0 + 1j, 0.7j]
    op = DenseOperator(A)
    bare = SimpleNamespace(shape=op.shape, adjoint=op.adjoint, columns=op.columns,
                           synthesize=op.synthesize)
    cfg = RecoveryConfig(sparsity_K=3)
    mode, reference = cosamp(bare, A @ truth, cfg), cosamp(op, A @ truth, cfg)
    np.testing.assert_array_equal(dense(mode, 128), dense(reference, 128))
    assert (mode.residual, mode.iters) == (reference.residual, reference.iters)


class SpyOperator(DenseOperator):
    """Records each proxy magnitude and each merged support cosamp asks for."""

    def __init__(self, A):
        super().__init__(A)
        self.proxies, self.merged = [], []

    def adjoint(self, y):
        proxy = super().adjoint(y)
        self.proxies.append(np.abs(proxy))
        return proxy

    def gram(self, idx):
        self.merged.append(set(idx.tolist()))
        return super().gram(idx)


def test_candidates_are_the_2k_largest_proxy_entries():
    # reference: a full argsort of the proxy; complex Gaussian entries make
    # it tie-free, and a target that is not sparse runs several iterations
    rng = np.random.default_rng(8)
    A = rng.standard_normal((30, 200)) + 1j * rng.standard_normal((30, 200))
    op = SpyOperator(A / np.sqrt(60))
    y = rng.standard_normal(30) + 1j * rng.standard_normal(30)
    K = 4
    with pytest.raises(NoProgress):
        cosamp(op, y, RecoveryConfig(sparsity_K=K))
    assert len(op.proxies) > 2
    previous = set()
    for proxy, merged in zip(op.proxies, op.merged):
        assert len(np.unique(proxy)) == len(proxy)
        top = set(np.argsort(proxy)[-2 * K:].tolist())
        # the rest of the merged support is the previous kept support
        assert top <= merged and merged - top <= previous
        previous = merged


def test_pixel_recovery_asks_basis_atoms_for_the_kept_atoms_only(monkeypatch):
    # the pixel Gram is a gather from the mask's circulant table, so closed-
    # form atoms are built for the residual alone: the K kept atoms of a
    # complex target; of a real one, as C is real, the kept pairs'
    # representatives (real_instance's three pairs and mean, 4 of 7 atoms)
    asked = []
    atoms = sensing.basis_atoms

    def spied(psi, idx, rows=None):
        asked.append(len(idx))
        return atoms(psi, idx, rows)

    monkeypatch.setattr(sensing, "basis_atoms", spied)
    complex_target = planted_instance(256, 80, 4, seed=2, kind="pixel")
    real_target = real_instance("pixel", 80, seed=4)[:3]
    for (op, y, truth), K, reps in ((complex_target, 4, 4), (real_target, 7, 4)):
        asked.clear()
        mode = cosamp(op, y, RecoveryConfig(sparsity_K=K))
        np.testing.assert_allclose(dense(mode, op.psi.n), truth, atol=1e-8)
        assert asked == [reps] * mode.iters


def test_candidates_cover_a_basis_smaller_than_2k():
    op = SpyOperator(np.eye(5))
    with pytest.warns(RuntimeWarning):
        mode = cosamp(op, np.array([0, 0, 3.0, 0, 0]), RecoveryConfig(sparsity_K=3))
    assert op.merged[0] == set(range(5))
    np.testing.assert_allclose(dense(mode, 5), [0, 0, 3.0, 0, 0], atol=1e-10)


def test_zero_input_rejected():
    op = DenseOperator(np.eye(4))
    with pytest.raises(ZeroInput):
        cosamp(op, np.zeros(4), RecoveryConfig(sparsity_K=1))


def test_dense_target_raises_no_progress():
    rng = np.random.default_rng(15)
    op = DenseOperator(rng.standard_normal((16, 64)) / np.sqrt(16))
    y = rng.standard_normal(16)
    y /= np.linalg.norm(y)
    with pytest.raises(NoProgress):
        cosamp(op, y, RecoveryConfig(sparsity_K=1))


def test_underdetermined_warning():
    op, y, _ = planted_instance(256, 8, 5, seed=1)
    with pytest.warns(RuntimeWarning):
        try:
            cosamp(op, y, RecoveryConfig(sparsity_K=5))
        except NoProgress:
            pass


@pytest.mark.parametrize("kind", ["gaussian", "bernoulli", "pixel", "unitary"])
def test_columns_match_one_hot_synthesis(kind):
    # reference: synthesize one-hot coefficient vectors with the FFT, then
    # measure them; the non-square grid catches an nx/ny swap, and the pixel
    # kind evaluates the atoms at a subset of the grid rows only
    psi = SparseBasis((8, 4))
    op = SensingOperator(make_measurement(kind, 12, 32, seed=7), psi)
    idx = np.array([0, 1, 7, 8, 13, 26, 31])
    one_hots = np.zeros((32, len(idx)), dtype=complex)
    one_hots[idx, np.arange(len(idx))] = 1.0
    expected = apply_measurement(op.C, apply_basis(psi, one_hots, "forward"))
    np.testing.assert_allclose(op.columns(idx), expected, rtol=0, atol=1e-13)


def test_recover_modes_matches_columnwise_calls():
    # all three columns use the same operator but different supports
    rng = np.random.default_rng(40)
    psi = SparseBasis((16, 16))
    C = make_measurement("gaussian", 48, 256, seed=1040)
    op = SensingOperator(C, psi)
    truths = []
    cols = []
    for _ in range(3):
        support = rng.choice(256, size=3, replace=False)
        truth = np.zeros(256, dtype=complex)
        truth[support] = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        truths.append(truth)
        cols.append(apply_measurement(C, apply_basis(psi, truth, "forward")))
    Y = np.column_stack(cols)
    cfg = RecoveryConfig(sparsity_K=3)
    modes, diags = recover_modes(Y, op, cfg)
    assert modes.shape == (256, 3) and modes.flags.f_contiguous
    for j in range(3):
        single = cosamp(op, Y[:, j], cfg)
        np.testing.assert_array_equal(dense(diags[j], 256), dense(single, 256))
        np.testing.assert_allclose(dense(diags[j], 256), truths[j], atol=1e-8)
        np.testing.assert_array_equal(modes[:, j], diags[j].spatial)
        # each field lives only in its column of the block, and each
        # diagnostic holds no more than the K atoms kept
        assert np.shares_memory(diags[j].spatial, modes[:, j])
        assert len(diags[j].support) == len(diags[j].values) <= cfg.sparsity_K


def test_recover_modes_holds_one_block_and_mirrors_each_twin():
    # six complex 5-sparse columns, each followed by its conjugate, on a
    # 128 x 64 pixel operator: the traced peak is the fields block and one
    # column's CoSaMP, whose adjoint and synthesis each hold ~2 n-vectors
    # (5.2 n-vectors measured); a second n x k block would hold 12 more
    psi = SparseBasis((128, 64))
    C = make_measurement("pixel", 600, psi.n, seed=3)
    op = SensingOperator(C, psi)
    rng = np.random.default_rng(3)
    cols = []
    for _ in range(6):
        truth = np.zeros(psi.n, dtype=complex)
        support = rng.choice(psi.n, 5, replace=False)
        truth[support] = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        y = apply_measurement(C, apply_basis(psi, truth, "forward"))
        cols += [y, y.conj()]
    tracemalloc.start()
    try:
        fields, diags = recover_modes(np.column_stack(cols), op, RecoveryConfig(sparsity_K=5))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    vector = psi.n * np.dtype(complex).itemsize
    assert fields.shape == (psi.n, 12)
    assert peak <= fields.nbytes + 8 * vector < 2 * fields.nbytes
    for partner, twin in zip(diags[::2], diags[1::2]):
        assert partner.residual <= 1e-8 and len(partner.support) == 5
        np.testing.assert_array_equal(twin.support, psi.conjugate(partner.support))
        np.testing.assert_array_equal(twin.values, partner.values.conj())
        np.testing.assert_array_equal(twin.spatial, partner.spatial.conj())


@pytest.mark.parametrize("K", [True, 2.5, "3", 0])
def test_recovery_config_refuses_a_sparsity_that_is_not_a_positive_integer(K):
    # True recovered with K = 1, 2.5 failed inside argpartition and "3" with
    # a bare TypeError
    with pytest.raises(DimensionError, match="sparsity_K"):
        RecoveryConfig(sparsity_K=K)


def test_recover_modes_records_failures_without_aborting():
    op, y, truth = planted_instance(256, 16, 1, seed=5)
    rng = np.random.default_rng(6)
    bad = rng.standard_normal(16)
    Y = np.column_stack([y, bad, y])
    cfg = RecoveryConfig(sparsity_K=1)
    modes, diags = recover_modes(Y, op, cfg)
    assert isinstance(diags[1], NoProgress)
    assert isinstance(diags[0], RecoveredMode) and isinstance(diags[2], RecoveredMode)
    np.testing.assert_allclose(dense(diags[0], 256), truth, atol=1e-8)
    np.testing.assert_allclose(dense(diags[2], 256), truth, atol=1e-8)
    assert np.all(modes[:, 1] == 0)
    assert np.any(modes[:, 0] != 0)


def count_solves(monkeypatch):
    """The targets recover_modes hands to cosamp, in call order."""
    targets = []
    solve = recovery.cosamp

    def counted(op, y, cfg):
        targets.append(y)
        return solve(op, y, cfg)

    monkeypatch.setattr(recovery, "cosamp", counted)
    return targets


def test_conjugate_twins_are_solved_once(monkeypatch):
    op, y, _ = planted_instance(256, 40, 3, seed=8)
    psi = op.psi
    # a real field: coefficients a at k and conj(a) at -k (the -1 mod 16 row and column)
    hermitian = np.zeros(256, dtype=complex)
    hermitian[[2 * 16 + 3, 14 * 16 + 13]] = [1.5 - 0.5j, 1.5 + 0.5j]
    real = apply_measurement(op.C, apply_basis(psi, hermitian, "forward").real)
    Y = np.column_stack([y, y.conj(), real, np.zeros(40)])
    targets = count_solves(monkeypatch)
    modes, diags = recover_modes(Y, op, RecoveryConfig(sparsity_K=3))
    # the real and the zero column are their own conjugates: both are solved
    assert len(targets) == 3 and isinstance(diags[3], ZeroInput)
    assert [np.array_equal(t, col) for t, col in zip(targets, Y.T[[0, 2, 3]])] == [True] * 3
    assert sum(np.any(t) for t in targets) == 2
    partner, twin = diags[0], diags[1]
    np.testing.assert_array_equal(twin.spatial, partner.spatial.conj())
    np.testing.assert_array_equal(modes[:, 1], modes[:, 0].conj())
    np.testing.assert_allclose(apply_basis(psi, dense(twin, 256), "forward"), twin.spatial,
                               rtol=0, atol=1e-14)
    assert (twin.residual, twin.iters) == (partner.residual, partner.iters)
    assert isinstance(diags[2], RecoveredMode)
    np.testing.assert_allclose(diags[2].spatial.imag, 0, atol=1e-12)


def test_twin_of_a_failed_column_records_the_same_failure(monkeypatch):
    op, _, _ = planted_instance(256, 16, 1, seed=5)
    rng = np.random.default_rng(6)
    bad = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    targets = count_solves(monkeypatch)
    Y = np.column_stack([bad, bad.conj()])
    modes, diags = recover_modes(Y, op, RecoveryConfig(sparsity_K=1))
    assert len(targets) == 1
    assert isinstance(diags[0], NoProgress) and type(diags[1]) is type(diags[0])
    assert not modes.any()


def test_vector_recovery_is_pinned():
    # a 5-sparse target with a budget of 4 runs six iterations to a stall;
    # the block route must leave the vector route's support, coefficients
    # and iteration count as they were
    op, y, _ = planted_instance(256, 40, 5, seed=3)
    mode = cosamp(op, y, RecoveryConfig(sparsity_K=4))
    support = np.flatnonzero(dense(mode, 256))
    assert support.tolist() == [21, 46, 60, 204] and mode.iters == 6
    np.testing.assert_allclose(
        dense(mode, 256)[support],
        [-0.2319323776429327 - 0.281287418151559j,
         3.322999516642001 - 1.0551505512044574j,
         -0.8652130762727606 - 0.668046346107954j,
         -2.0199861291444745 - 0.352630794340883j],
        rtol=1e-12,
    )
    np.testing.assert_allclose(mode.residual, 0.0640306686563349, rtol=1e-12)


def test_row_sparse_block_on_a_shared_support_is_recovered_exactly():
    # four columns on one 3-atom support, with unrelated coefficients: one
    # joint solve, with one batched adjoint per iteration, returns them all
    rng = np.random.default_rng(41)
    psi = SparseBasis((16, 16))
    C = make_measurement("gaussian", 24, 256, seed=1041)
    support = np.sort(rng.choice(256, size=3, replace=False))
    truth = np.zeros((256, 4), dtype=complex)
    truth[support] = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
    Y = apply_measurement(C, apply_basis(psi, truth, "forward"))
    mode = cosamp(SensingOperator(C, psi), Y, RecoveryConfig(sparsity_K=3))
    assert dense(mode, 256).shape == mode.spatial.shape == (256, 4)
    np.testing.assert_array_equal(np.flatnonzero(dense(mode, 256).any(axis=1)), support)
    np.testing.assert_allclose(dense(mode, 256), truth, atol=1e-8)
    np.testing.assert_allclose(mode.spatial, apply_basis(psi, truth, "forward"), atol=1e-8)
    assert mode.residual <= 1e-8


def test_zero_block_rejected():
    op = DenseOperator(np.eye(4))
    with pytest.raises(ZeroInput):
        cosamp(op, np.zeros((4, 3)), RecoveryConfig(sparsity_K=1))


def real_instance(kind, p, r=None, seed=0, mean=1.0, wave=1.0):
    """A real field on a 16 x 12 grid from three conjugate pairs (one on the
    kx = nx/2 column, whose pair it holds whole) and the mean, measured by C:
    its operator, y, the 7-atom Hermitian coefficients and the field."""
    rng = np.random.default_rng(seed)
    psi = SparseBasis((16, 12))
    C = make_measurement(kind, p, psi.n, seed=seed + 2000)
    shape = (psi.n,) if r is None else (psi.n, r)
    coeffs = np.zeros(shape, dtype=complex)
    atoms = np.array([2 * 16 + 3, 5 * 16 + 7, 3 * 16 + 8])
    a = wave * (rng.standard_normal((3,) + shape[1:]) + 1j * rng.standard_normal((3,) + shape[1:]))
    coeffs[atoms], coeffs[psi.conjugate(atoms)] = a, a.conj()
    coeffs[0] = mean * rng.standard_normal(shape[1:])
    field = apply_basis(psi, coeffs, "forward").real
    return SensingOperator(C, psi), apply_measurement(C, field), coeffs, field


def closed_support(op, coeffs):
    support = np.flatnonzero(coeffs if coeffs.ndim == 1 else coeffs.any(axis=1))
    assert np.array_equal(np.sort(op.psi.conjugate(support)), support)
    return support


@pytest.mark.parametrize("r", [None, 3], ids=["vector", "block"])
@pytest.mark.parametrize("kind, p", [("pixel", 80), ("gaussian", 60)])
def test_real_target_recovers_conjugate_pairs_and_a_real_field(kind, p, r):
    op, y, truth, field = real_instance(kind, p, r, seed=4)
    mode = cosamp(op, y, RecoveryConfig(sparsity_K=7))
    support = closed_support(op, dense(mode, op.psi.n))
    assert len(support) == 7 and mode.residual <= 1e-8
    np.testing.assert_allclose(dense(mode, op.psi.n), truth, atol=1e-8)
    # solved in real unknowns: the value at -k is the conjugate of the value
    # at k bit for bit, and the field is a real array
    assert mode.support.tolist() == support.tolist()
    mirror = np.searchsorted(mode.support, op.psi.conjugate(mode.support))
    np.testing.assert_array_equal(mode.values[mirror], mode.values.conj())
    assert np.isrealobj(mode.spatial)
    np.testing.assert_allclose(mode.spatial, field, atol=1e-8)


def test_real_target_keeps_whole_pairs_within_every_budget():
    # a mean-dominated field: the atom-wise prune kept one member of a pair
    # whenever the budget split one; K = 1 keeps the mean, the one
    # self-conjugate atom of the field
    op, y, _, _ = real_instance("gaussian", 60, seed=6, mean=10.0, wave=0.1)
    for K in range(1, 8):
        mode = cosamp(op, y, RecoveryConfig(sparsity_K=K))
        support = closed_support(op, dense(mode, op.psi.n))
        assert len(support) <= K
        if K == 1:
            assert support.tolist() == [0]
        assert not np.any(mode.spatial.imag)


def test_snapshots_of_a_32_by_32_bernoulli_system_keep_both_members_of_every_pair():
    # one CoSaMP per measured real snapshot at K = 6: the atom-wise prune kept
    # {561, 633} of snapshot 17 without their conjugates and stalled at
    # residual 0.487; snapshots 14-16 stall at 0.41-0.45 on either model
    data = generate_fourier_lti(make_fourier_lti(nx=32, ny=32, K=3, m=20, seed=1))[0]
    C = make_measurement("bernoulli", 32, data.n, seed=2)
    op = SensingOperator(C, SparseBasis(data.grid))
    residuals = []
    for y in apply_measurement(C, data.S).T:
        mode = cosamp(op, y, RecoveryConfig(sparsity_K=6))
        assert len(closed_support(op, dense(mode, op.psi.n))) == 6
        residuals.append(mode.residual)
    assert residuals[17] <= 1e-8
    assert sum(res <= 1e-8 for res in residuals) == 18


def cosamp_without_halt(op, y, K):
    """cosamp's loop without the fixed-point halt, for a vector target: every
    iteration reads the operator, also after the merged support repeats.
    Returns its RecoveredMode and each iteration's merged support."""
    y = np.asarray(y, dtype=complex)
    if hasattr(op, "psi") and not np.any(y.imag):
        y, model = y.real, recovery._ConjugatePairs(op, K)
    else:
        model = recovery._Atoms(op, K, np.abs)
    support = best_support = np.array([], dtype=int)
    best_coef, best_res, history, merges = None, np.inf, [], []
    rhs = model.adjoint(y)
    for iters in range(1, recovery.MAX_ITERS + 1):
        proxy = rhs if iters == 1 else model.adjoint(residual)
        merged = np.union1d(support, model.candidates(proxy))
        merges.append(merged)
        G = model.gram(merged)
        coef = np.linalg.solve(G + recovery.TIKHONOV_FLOOR * np.eye(len(G)),
                               model.gather(rhs, merged))
        support, coef = model.prune(merged, coef)
        residual = y - model.measure(support, coef)
        rel = np.linalg.norm(residual) / np.linalg.norm(y)
        if rel < best_res:
            best_res, best_support, best_coef = rel, support, coef
        history.append(best_res)
        if best_res <= recovery.RESIDUAL_TOL:
            break
        if len(history) > recovery.STALL_WINDOW:
            prev = history[-1 - recovery.STALL_WINDOW]
            if prev - history[-1] < recovery.STALL_REL_DECREASE * prev:
                break
    support, values = model.result(best_support, best_coef)
    coeffs = np.zeros(op.psi.n, dtype=complex)
    coeffs[support] = values
    mode = RecoveredMode(support=support, values=values,
                         spatial=model.synthesize(coeffs), residual=float(best_res), iters=iters)
    return mode, merges


class CountingSensing(SensingOperator):
    """A SensingOperator that records the name of each operator read cosamp makes."""

    def __init__(self, op):
        super().__init__(op.C, op.psi)
        self.reads = []

    def adjoint(self, y):
        self.reads.append("adjoint")
        return super().adjoint(y)

    def real_adjoint(self, y):
        self.reads.append("adjoint")
        return super().real_adjoint(y)

    def gram(self, idx):
        self.reads.append("gram")
        reads = len(self.reads)
        G = super().gram(idx)
        del self.reads[reads:]  # a dense C's Gram is the product of its columns
        return G

    def columns(self, idx):
        self.reads.append("columns")
        return super().columns(idx)


@pytest.mark.parametrize(
    "instance, K",
    [(lambda: planted_instance(256, 40, 5, seed=3)[:2], 4),
     (lambda: real_instance("pixel", 80, seed=4)[:2], 6)],
    ids=["gaussian-complex", "pixel-real"],
)
def test_cosamp_reads_nothing_after_the_merged_support_repeats(instance, K):
    # from the first repeated merged support on, every iterate repeats the
    # previous one bit for bit, so only the stall count advances
    op, y = instance()
    reference, merges = cosamp_without_halt(op, y, K)
    first = next(t for t in range(1, len(merges)) if np.array_equal(merges[t], merges[t - 1]))
    assert first + 1 < reference.iters
    counting = CountingSensing(op)
    mode = cosamp(counting, y, RecoveryConfig(sparsity_K=K))
    # one adjoint per iteration up to the repeat (the first is the right-hand
    # side), and a Gram and a residual for each iteration before it
    assert counting.reads.count("adjoint") == first + 1
    assert counting.reads.count("gram") == counting.reads.count("columns") == first
    assert counting.reads[-1] == "adjoint"
    for field in ("support", "values", "spatial"):
        got, want = getattr(mode, field), getattr(reference, field)
        assert got.dtype == want.dtype and np.array_equal(got, want)
    assert (mode.residual, mode.iters) == (reference.residual, reference.iters)
