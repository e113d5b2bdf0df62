"""End-to-end acceptance gates, one verdict line per criterion.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines.  The
large planted-wave dataset (16384 states, 200 snapshots) is generated
once per session and shared by the tests that need it.
"""

import time

import numpy as np
import pytest

from csdmd.dmd import (
    SnapshotPair,
    compressed_dmd,
    exact_dmd,
    measure_pair,
    mode_alignment,
    pair_eigenvalues,
)
from csdmd.errors import NoProgress
from csdmd.pipelines import verify_invariance_suite
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
    recommended_measurements,
)
from csdmd.systems import (
    DoubleGyreParams,
    add_fourier_noise,
    generate_fourier_lti,
    generate_gyre_snapshots,
    make_fourier_lti,
)


def _verdict(num, label, ok, detail):
    print(f"\ncriterion {num} {label}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} {label}: {detail}"


@pytest.fixture(scope="module")
def large_scale():
    """Five planted waves on a 128 x 128 grid, 200 snapshots, dt = 0.01."""
    data, truth = generate_fourier_lti(
        make_fourier_lti(nx=128, ny=128, K=5, dt=0.01, m=200, seed=42)
    )
    reference = exact_dmd(data, 1e-6)
    return data, truth, reference


def test_criterion_1_rotation_spectrum():
    t0 = time.perf_counter()
    theta = 0.3
    R = np.array(
        [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
    )
    cols = [np.array([1.0, 0.0])]
    for _ in range(10):
        cols.append(R @ cols[-1])
    snaps = np.column_stack(cols)
    res = exact_dmd(SnapshotPair(X=snaps[:, :-1], Xp=snaps[:, 1:], dt=1.0), 1e-10)
    expected = np.array([np.exp(1j * theta), np.exp(-1j * theta)])
    pairs, un_a, un_b = pair_eigenvalues(expected, res.lambdas)
    dev = max(d for _, _, d in pairs)
    elapsed = time.perf_counter() - t0
    ok = not un_a and not un_b and dev <= 1e-10 and elapsed < 1.0
    _verdict(
        1, "planar rotation spectrum", ok,
        f"max|dlambda|={dev:.2e}, {elapsed:.2f}s",
    )


@pytest.mark.parametrize("kind", ["pixel", "gaussian", "bernoulli"])
def test_criterion_2_planted_waves_recovered(large_scale, kind):
    t0 = time.perf_counter()
    data, truth, reference = large_scale
    C = make_measurement(kind, 15, data.n, seed=3)

    lifted = compressed_dmd(data, C, 1e-6)
    measured = SnapshotPair(
        X=apply_measurement(C, data.X),
        Xp=apply_measurement(C, data.Xp),
        dt=data.dt,
    )
    projected = exact_dmd(measured, 1e-6)
    recovered, diags = recover_modes(
        projected.Phi, SensingOperator(C, SparseBasis(data.grid)), RecoveryConfig(sparsity_K=5)
    )
    assert all(isinstance(d, RecoveredMode) for d in diags)

    worst_eig = 0.0
    worst_align = 1.0
    complete = True
    for res, Phi in ((lifted, lifted.Phi), (projected, recovered)):
        pairs, un_a, un_b = pair_eigenvalues(truth.lambdas, res.lambdas)
        complete = complete and not un_a and not un_b
        worst_eig = max(worst_eig, max(d for _, _, d in pairs))
        worst_align = min(
            worst_align,
            min(
                mode_alignment(truth.atoms[:, i], Phi[:, j])
                for i, j, _ in pairs
            ),
        )
    elapsed = time.perf_counter() - t0
    ok = complete and worst_eig <= 1e-6 and worst_align >= 0.99 and elapsed < 120
    _verdict(
        2, f"planted waves via {kind}", ok,
        f"max|dlambda|={worst_eig:.2e}, min align={worst_align:.4f}, "
        f"{elapsed:.1f}s",
    )


def test_criterion_3_invariance_suite():
    t0 = time.perf_counter()
    data, _ = generate_fourier_lti(
        make_fourier_lti(nx=32, ny=32, K=5, dt=0.01, m=100, seed=7)
    )
    checks = verify_invariance_suite(data, seed=0, truncation_tol=1e-6)
    eig_dev = max(c["eig_dev"] for c in checks)
    mode_dev = max(c["mode_dev"] for c in checks)
    elapsed = time.perf_counter() - t0
    ok = all(c["passed"] for c in checks) and elapsed < 30
    _verdict(
        3, "unitary invariances", ok,
        f"eig dev {eig_dev:.2e}, mode dev {mode_dev:.2e}, {elapsed:.1f}s",
    )


def test_criterion_4_measurement_commutes_with_propagator():
    # with full-row-rank data the measured propagator satisfies the exact
    # operator identity C A = A_meas C; tall-or-square C keeps the
    # measured snapshots at full rank
    t0 = time.perf_counter()
    n, m = 24, 40
    rng = np.random.default_rng(2024)
    A = rng.standard_normal((n, n))
    A *= 0.95 / np.max(np.abs(np.linalg.eigvals(A)))
    X = rng.standard_normal((n, m))
    Xp = A @ X
    A_X = Xp @ np.linalg.pinv(X)
    worst = 0.0
    for _ in range(10):
        p = int(rng.integers(n, 2 * n + 1))
        C = rng.standard_normal((p, n))
        A_Y = (C @ Xp) @ np.linalg.pinv(C @ X)
        resid = np.linalg.norm(C @ A_X - A_Y @ C) / np.linalg.norm(C @ A_X)
        worst = max(worst, float(resid))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8 and elapsed < 10
    _verdict(
        4, "propagator commutes with measurement", ok,
        f"worst residual {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_5_recovery_rate():
    t0 = time.perf_counter()
    n = 256
    psi = SparseBasis((16, 16))
    good = total = 0
    for K in (1, 2, 5):
        for seed in range(20):
            rng = np.random.default_rng(seed * 13 + K)
            C = make_measurement("gaussian", 8 * K, n, seed=seed * 13 + K + 1000)
            support = rng.choice(n, size=K, replace=False)
            coeffs = np.zeros(n, dtype=complex)
            coeffs[support] = rng.standard_normal(K) + 1j * rng.standard_normal(K)
            y = apply_measurement(C, apply_basis(psi, coeffs, "forward"))
            total += 1
            try:
                mode = cosamp(SensingOperator(C, psi), y, RecoveryConfig(sparsity_K=K))
            except NoProgress:
                continue
            if mode.residual <= 1e-8:
                good += 1
    elapsed = time.perf_counter() - t0
    ok = good / total >= 0.95 and elapsed < 30
    _verdict(
        5, "sparse recovery rate", ok,
        f"{good}/{total} exact, {elapsed:.1f}s",
    )


def test_criterion_6_double_gyre_desk_scale():
    t0 = time.perf_counter()
    params = DoubleGyreParams(grid=(128, 64), t0=0.0, t1=15.0, dt=0.1)
    data = generate_gyre_snapshots(params, "vorticity")
    psi = SparseBasis(params.grid)

    # (a) keeping the top 1% of spectral coefficients barely changes a
    # vorticity snapshot
    snap = data.X[:, 0]
    coeffs = apply_basis(psi, snap, "inverse")
    keep = max(1, int(round(0.01 * coeffs.size)))
    idx = np.argpartition(np.abs(coeffs), -keep)[-keep:]
    trimmed = np.zeros_like(coeffs)
    trimmed[idx] = coeffs[idx]
    recon = apply_basis(psi, trimmed, "forward").real
    comp_err = float(np.linalg.norm(recon - snap) / np.linalg.norm(snap))

    # (b, c) point sampling at a budget proportional to 2500 pixels of
    # the full 512 x 256 grid
    p = int(2500 * data.n / (512 * 256))
    reference = exact_dmd(data, 1e-4)
    C = make_measurement("pixel", p, data.n, seed=11)
    lifted = compressed_dmd(data, C, 1e-4)
    pairs, un_a, un_b = pair_eigenvalues(
        reference.lambdas, lifted.lambdas, reference.amplitudes
    )
    eig_dev = max(d for _, _, d in pairs)
    align = min(
        mode_alignment(reference.Phi[:, i], lifted.Phi[:, j])
        for i, j, _ in pairs
    )
    elapsed = time.perf_counter() - t0
    ok = (
        comp_err <= 0.05
        and not un_a and not un_b
        and eig_dev <= 1e-3
        and align >= 0.95
        and elapsed < 300
    )
    _verdict(
        6, "double gyre desk scale", ok,
        f"compression err {comp_err:.3f}, max|dlambda|={eig_dev:.2e}, "
        f"min align={align:.3f}, p={p}, {elapsed:.1f}s",
    )


def test_criterion_7_noise_tolerance(large_scale):
    t0 = time.perf_counter()
    data, truth, _ = large_scale
    noisy = add_fourier_noise(data, 0.02, 1)
    tol = 0.02  # truncate at the injected noise floor
    p = recommended_measurements(5, data.n)
    C = make_measurement("gaussian", p, data.n, seed=3)

    lifted = compressed_dmd(noisy, C, tol)
    measured = SnapshotPair(
        X=apply_measurement(C, noisy.X),
        Xp=apply_measurement(C, noisy.Xp),
        dt=noisy.dt,
    )
    projected = exact_dmd(measured, tol)
    recovered, _ = recover_modes(
        projected.Phi, SensingOperator(C, SparseBasis(data.grid)), RecoveryConfig(sparsity_K=5)
    )

    worst_align = 1.0
    worst_freq = 0.0
    worst_damp = 0.0
    for res, Phi in ((lifted, lifted.Phi), (projected, recovered)):
        pairs, un_a, un_b = pair_eigenvalues(truth.lambdas, res.lambdas)
        assert not un_a and not un_b
        for i, j, _ in pairs:
            worst_align = min(
                worst_align, mode_alignment(truth.atoms[:, i], Phi[:, j])
            )
            true_omega = np.log(truth.lambdas[i]) / data.dt
            worst_freq = max(
                worst_freq,
                abs(res.omegas[j].imag - true_omega.imag) / abs(true_omega.imag),
            )
            worst_damp = max(worst_damp, abs(res.omegas[j].real - true_omega.real))
    elapsed = time.perf_counter() - t0
    ok = worst_align >= 0.95 and worst_freq <= 0.01 and elapsed < 120
    _verdict(
        7, "2% spectral noise", ok,
        f"min align={worst_align:.3f}, freq dev {worst_freq:.2%}, "
        f"damping dev {worst_damp:.3f} (reported only), p={p}, {elapsed:.1f}s",
    )


def test_criterion_8_compressed_stage_speedup(large_scale):
    data, _, _ = large_scale
    C = make_measurement("gaussian", 15, data.n, seed=3)
    measured = measure_pair(C, data)

    def median_seconds(pair, repeats=3):
        samples = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            result = exact_dmd(pair, 1e-6)
            samples.append(time.perf_counter() - t0)
        return float(np.median(samples)), result.rank

    full_t, full_rank = median_seconds(data)
    small_t, small_rank = median_seconds(measured)
    ratio = full_t / small_t
    ok = ratio >= 5.0 and full_rank == small_rank
    _verdict(
        8, "compressed stage speedup", ok,
        f"{ratio:.0f}x (full {full_t:.3f}s vs compressed {small_t:.5f}s)",
    )
