"""Synthetic data generators: planted Fourier waves and the double gyre.

Closed-form values are the oracle for the gyre (the stream function
derivatives are evaluated by hand at chosen points), and the planted
eigenstructure is the oracle for the wave generator.
"""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from csdmd.dmd import SnapshotPair, exact_dmd, mode_alignment, pair_eigenvalues
from csdmd.errors import BadWavenumber, DimensionError
from csdmd.sensing import SparseBasis, apply_basis
from csdmd.systems import (
    DoubleGyreParams,
    FourierLtiSystem,
    add_fourier_noise,
    generate_fourier_lti,
    generate_gyre_snapshots,
    make_fourier_lti,
)


def explicit_system(nx=16, ny=16, wavenumbers=((1, 2),), mu=(2j * np.pi,),
                    amps=None, dt=0.01, m=30):
    K = len(wavenumbers)
    if amps is None:
        amps = np.ones(K, dtype=complex)
    return FourierLtiSystem(
        grid=(nx, ny), K=K, wavenumbers=tuple(wavenumbers),
        mu=np.asarray(mu, dtype=complex), init_amps=np.asarray(amps, dtype=complex),
        dt=dt, m=m,
    )


def test_snapshots_are_real():
    data, _ = generate_fourier_lti(make_fourier_lti(nx=16, ny=16, K=3, m=20, seed=2))
    assert np.isrealobj(data.X)
    # the imaginary parts were discarded after an exactly conjugate
    # placement; regenerating one coefficient grid confirms symmetry
    spectrum = np.fft.fft2(data.X[:, 0].reshape(16, 16), norm="ortho")
    np.testing.assert_allclose(
        spectrum, np.conj(spectrum[-np.arange(16) % 16][:, -np.arange(16) % 16]),
        atol=1e-12,
    )


def test_generator_matches_planted_evolution():
    sys = explicit_system(mu=(-0.1 + 4j,), amps=(0.7 + 0.2j,), m=25)
    data, truth = generate_fourier_lti(sys)
    # column k equals the real part of a(t_k) atom+ plus conjugate
    t = 5 * sys.dt
    a = (0.7 + 0.2j) * np.exp((-0.1 + 4j) * t)
    expected = 2.0 * np.real(a * truth.atoms[:, 0])
    np.testing.assert_allclose(data.X[:, 5], expected, atol=1e-12)


def test_pure_oscillation_eigenvalues():
    # one neutrally stable wave at frequency 2 pi: the discrete spectrum
    # is the conjugate pair exp(+-2 pi i dt)
    sys = explicit_system(mu=(2j * np.pi,), dt=0.01, m=30)
    data, _ = generate_fourier_lti(sys)
    result = exact_dmd(data, truncation_tol=1e-6)
    assert result.rank == 2
    expected = {np.exp(2j * np.pi * 0.01), np.exp(-2j * np.pi * 0.01)}
    for lam in result.lambdas:
        assert min(abs(lam - e) for e in expected) < 1e-10


def test_static_wave():
    sys = explicit_system(mu=(0.0,), m=10)
    data, _ = generate_fourier_lti(sys)
    assert np.abs(data.X - data.X[:, :1]).max() < 1e-14
    result = exact_dmd(data, truncation_tol=1e-6)
    np.testing.assert_allclose(result.lambdas, [1.0], atol=1e-12)


def test_truth_interleaving():
    sys = make_fourier_lti(nx=32, ny=32, K=4, dt=0.02, m=10, seed=9)
    _, truth = generate_fourier_lti(sys)
    assert truth.lambdas.shape == (8,)
    assert truth.atoms.shape == (1024, 8)
    for j in range(4):
        assert abs(truth.lambdas[2 * j] - np.exp(sys.mu[j] * sys.dt)) < 1e-14
        assert abs(truth.lambdas[2 * j + 1] - np.conj(truth.lambdas[2 * j])) < 1e-14
        # paired atoms are spatial conjugates with unit norm
        np.testing.assert_allclose(
            truth.atoms[:, 2 * j + 1], np.conj(truth.atoms[:, 2 * j]), atol=1e-13
        )
        assert abs(np.linalg.norm(truth.atoms[:, 2 * j]) - 1.0) < 1e-12


@pytest.mark.parametrize("grid, K, m, seed", [((16, 16), 3, 20, 2), ((64, 32), 5, 200, 7),
                                             ((9, 7), 4, 1, 0)])
def test_planted_series_is_one_column_major_real_product(grid, K, m, seed):
    sys = make_fourier_lti(nx=grid[0], ny=grid[1], K=K, m=m, seed=seed)
    data, truth = generate_fourier_lti(sys)
    assert data.S.flags.f_contiguous
    # the reference: the real part of the complex product of the atoms of
    # k_j with the planted coefficients, summed in another order
    t = np.arange(m + 1) * sys.dt
    values = sys.init_amps[:, None] * np.exp(sys.mu[:, None] * t[None, :])
    ref = 2.0 * (truth.atoms[:, ::2] @ values).real
    assert np.abs(data.S - ref).max() <= 4 * np.finfo(float).eps * np.abs(ref).max()


def test_random_system_respects_ranges():
    for seed in (0, 1, 2):
        sys = make_fourier_lti(nx=64, ny=64, K=5, seed=seed)
        assert np.all(np.imag(sys.mu) >= np.pi)
        assert np.all(np.imag(sys.mu) <= 10 * np.pi)
        assert np.all(np.real(sys.mu) <= 0)
        assert np.all(np.real(sys.mu) >= -0.2)
        assert np.all(np.abs(sys.init_amps) >= 0.5)
        assert np.all(np.abs(sys.init_amps) <= 1.5)
    a = make_fourier_lti(seed=7)
    b = make_fourier_lti(seed=7)
    assert a.wavenumbers == b.wavenumbers
    np.testing.assert_array_equal(a.mu, b.mu)


def test_wavenumber_validation():
    with pytest.raises(BadWavenumber):
        explicit_system(wavenumbers=((0, 0),))
    with pytest.raises(BadWavenumber):
        explicit_system(nx=16, ny=16, wavenumbers=((8, 0),))
    with pytest.raises(BadWavenumber):
        explicit_system(wavenumbers=((20, 1),))
    with pytest.raises(BadWavenumber):
        explicit_system(wavenumbers=((1, 2), (1, 2)), mu=(1j, 2j))
    with pytest.raises(BadWavenumber):
        # the conjugate slot of (1, 2) is (15, 14): also a collision
        explicit_system(wavenumbers=((1, 2), (15, 14)), mu=(1j, 2j))
    with pytest.raises(DimensionError):
        explicit_system(mu=(0.5 + 1j,))


def test_wave_count_is_checked_against_the_grid_before_drawing():
    # a 4 x 4 grid has 16 wavenumbers, 4 of them self-conjugate: 6 pairs
    sys = make_fourier_lti(nx=4, ny=4, K=6, m=3, seed=0)
    assert len(set(sys.wavenumbers)) == 6
    for K in (7, 0):
        with pytest.raises(DimensionError, match="wave pairs of a 4x4 grid"):
            make_fourier_lti(nx=4, ny=4, K=K, m=3, seed=0)


@pytest.mark.parametrize("dt, m", [(0.0, 10), (-0.01, 10), (0.01, 0), (0.01, -5)])
def test_planted_system_needs_a_positive_step_and_one_step(dt, m):
    with pytest.raises(DimensionError, match="dt > 0 and m >= 1"):
        make_fourier_lti(nx=8, ny=8, K=2, dt=dt, m=m, seed=0)


@pytest.mark.parametrize(
    "t0, t1, dt",
    [(5.0, 1.0, 0.1), (0.0, 0.04, 0.1), (0.0, 1.0, 0.0), (0.0, np.inf, 0.1), (0.0, 0.05, 0.1)],
)
def test_gyre_window_must_span_a_step(t0, t1, dt):
    # (0, 0.05, 0.1) is half a step, which the generator rounds to none
    with pytest.raises(DimensionError):
        DoubleGyreParams(grid=(8, 4), t0=t0, t1=t1, dt=dt)


def test_default_scale_shapes():
    data, truth = generate_fourier_lti(make_fourier_lti(seed=42))
    assert data.X.shape == (16384, 200)
    assert data.n == 128 * 128
    assert truth.atoms.shape == (16384, 10)


def test_noise_zero_fraction_is_identity():
    data, _ = generate_fourier_lti(make_fourier_lti(nx=16, ny=16, K=2, m=10, seed=3))
    noised = add_fourier_noise(data, 0.0, seed=1)
    assert noised is data


def test_noise_needs_a_grid():
    data, _ = generate_fourier_lti(make_fourier_lti(nx=16, ny=16, K=2, m=10, seed=3))
    gridless = SnapshotPair.series(data.S, data.dt)
    with pytest.raises(DimensionError, match="the sparse basis needs grid metadata"):
        add_fourier_noise(gridless, 0.02, seed=1)


def test_noise_level_and_realness():
    data, _ = generate_fourier_lti(make_fourier_lti(nx=32, ny=32, K=3, m=20, seed=5))
    noised = add_fourier_noise(data, 0.02, seed=11)
    assert np.isrealobj(noised.X)
    for k in range(data.m):
        delta = np.linalg.norm(noised.X[:, k] - data.X[:, k])
        target = 0.02 * np.linalg.norm(data.X[:, k])
        assert abs(delta - target) <= 0.05 * target


def test_noise_preserves_active_bins_and_shift():
    sys = make_fourier_lti(nx=32, ny=32, K=3, m=20, seed=5)
    data, _ = generate_fourier_lti(sys)
    noised = add_fourier_noise(data, 0.02, seed=11)
    # overlapping snapshots stay consistent
    np.testing.assert_array_equal(noised.X[:, 1:], noised.Xp[:, :-1])
    # planted coefficients are untouched
    for k in (0, 7):
        diff = np.fft.fft2(
            (noised.X[:, k] - data.X[:, k]).reshape(32, 32), norm="ortho"
        )
        for kx, ky in sys.wavenumbers:
            assert abs(diff[ky, kx]) < 1e-12
            assert abs(diff[(-ky) % 32, (-kx) % 32]) < 1e-12


def reference_gyre_field(params, t):
    """u, v and vorticity at time t as (ny, nx) arrays, built field by field:
    2-d u and v, and the vorticity by np.gradient along both axes."""
    nx, ny = params.grid
    x = np.linspace(0.0, 2.0, nx)
    y = np.linspace(0.0, 1.0, ny)
    st = np.sin(params.omega * t)
    f = params.eps * st * x**2 + x - 2.0 * params.eps * st * x
    dfdx = 2.0 * params.eps * st * x + 1.0 - 2.0 * params.eps * st
    u = -np.pi * params.A * np.sin(np.pi * f) * np.cos(np.pi * y)[:, None]
    v = np.pi * params.A * np.cos(np.pi * f) * np.sin(np.pi * y)[:, None] * dfdx
    vorticity = np.gradient(v, x, axis=1) - np.gradient(u, y, axis=0)
    return u, v, vorticity


def gyre_fields(params, t):
    """u, v and vorticity at time t as (ny, nx) arrays, from a one-step series."""
    params = replace(params, t0=t, t1=t + params.dt)
    nx, ny = params.grid
    u, v = generate_gyre_snapshots(params, "velocity").X[:, 0].reshape(2, ny, nx)
    vort = generate_gyre_snapshots(params).X[:, 0].reshape(ny, nx)
    return u, v, vort


@pytest.mark.parametrize("grid", [(9, 5), (33, 17), (64, 32)])
def test_gyre_series_matches_the_field_by_field_construction(grid):
    params = DoubleGyreParams(grid=grid, t0=1.3, t1=4.3)
    vort = generate_gyre_snapshots(params).S
    vel = generate_gyre_snapshots(params, "velocity").S
    times = params.t0 + params.dt * np.arange(vort.shape[1])
    fields = [reference_gyre_field(params, t) for t in times]
    ref_vort = np.column_stack([w.ravel() for _, _, w in fields])
    ref_vel = np.column_stack([np.concatenate([u.ravel(), v.ravel()]) for u, v, _ in fields])
    # boundary rows and columns included; the vorticity differences scaled
    # profiles where the reference scales differenced ones
    assert np.abs(vort - ref_vort).max() <= 1e-13 * np.abs(ref_vort).max()
    assert np.abs(vel - ref_vel).max() <= 1e-15 * np.abs(ref_vel).max()


def test_paper_scale_gyre_holds_one_block():
    tracemalloc.start()
    try:
        pair = generate_gyre_snapshots(DoubleGyreParams())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the block itself and a few T x nx profiles, never an n x (m+1) temporary
    assert peak <= pair.S.nbytes + 6 * 2**20


def test_gyre_closed_form_spot_values():
    # grid chosen so (x, y) = (0.25, 0.25) is a sample point; there
    # u = -pi A sin(pi/4) cos(pi/4) = -0.05 pi at t = 0
    params = DoubleGyreParams(grid=(9, 5))
    u, v, vort = gyre_fields(params, 0.0)
    assert u.shape == (5, 9)
    assert abs(u[1, 1] - (-0.05 * np.pi)) < 1e-14
    # walls are impermeable: v vanishes on both horizontal boundaries
    assert np.abs(v[0]).max() < 1e-14
    assert np.abs(v[-1]).max() < 1e-14


def test_gyre_period():
    params = DoubleGyreParams(grid=(64, 32))
    for t in (0.7, 2.3):
        a = gyre_fields(params, t)
        b = gyre_fields(params, t + 10.0)
        for fa, fb in zip(a, b):
            assert np.abs(fa - fb).max() < 1e-12


def test_gyre_divergence_vanishes_at_second_order():
    # the flow is exactly divergence free; the discrete estimate halves
    # its error twice per refinement
    def max_div(nx, ny):
        params = DoubleGyreParams(grid=(nx, ny))
        u, v, _ = gyre_fields(params, 2.5)
        x = np.linspace(0.0, 2.0, nx)
        y = np.linspace(0.0, 1.0, ny)
        div = np.gradient(u, x, axis=1) + np.gradient(v, y, axis=0)
        return np.abs(div[1:-1, 1:-1]).max()

    ratio = max_div(64, 32) / max_div(128, 64)
    assert 3.0 < ratio < 5.0


def test_gyre_snapshot_shapes():
    params = DoubleGyreParams(grid=(128, 64), t1=15.0, dt=0.1)
    pair = generate_gyre_snapshots(params)
    assert pair.X.shape == (8192, 150)
    assert pair.grid == (128, 64)
    np.testing.assert_array_equal(pair.X[:, 1:], pair.Xp[:, :-1])
    vel = generate_gyre_snapshots(params, observable="velocity")
    assert vel.X.shape == (2 * 8192, 150)
    assert vel.grid is None
    # u over v, snapshot by snapshot; one column-major block each
    u, v, _ = reference_gyre_field(params, params.t0 + params.dt)
    ref = np.concatenate([u.ravel(), v.ravel()])
    np.testing.assert_allclose(vel.X[:, 1], ref, rtol=0, atol=1e-15 * np.abs(ref).max())
    assert pair.S.flags.f_contiguous and vel.S.flags.f_contiguous


def test_gyre_full_scale_shapes():
    pair = generate_gyre_snapshots(DoubleGyreParams())
    assert pair.X.shape == (131072, 150)


def test_steady_gyre_is_rank_one():
    params = DoubleGyreParams(grid=(64, 32), eps=0.0, t1=3.0)
    pair = generate_gyre_snapshots(params)
    assert np.abs(pair.X - pair.X[:, :1]).max() < 1e-14
    result = exact_dmd(pair, truncation_tol=1e-6)
    assert result.rank == 1
    np.testing.assert_allclose(result.lambdas, [1.0], atol=1e-12)


def test_one_period_spectrum_is_marginally_stable():
    # sampling exactly one period makes X' a cyclic shift of X, so the
    # fitted propagator is a compression of a unitary: eigenvalues stay
    # inside the closed unit disk, and the dominant mode sits on the
    # circle.  (Truncation keeps the subleading modes slightly inside;
    # they approach the circle only as the retained rank grows.)
    params = DoubleGyreParams(grid=(64, 32), t0=0.0, t1=10.0, dt=0.1)
    pair = generate_gyre_snapshots(params)
    closure = np.linalg.norm(pair.Xp[:, -1] - pair.X[:, 0])
    assert closure < 1e-10 * np.linalg.norm(pair.X[:, 0])
    result = exact_dmd(pair, truncation_tol=1e-4)
    mags = np.abs(result.lambdas)
    assert mags.max() <= 1.0 + 1e-10
    dominant = np.argmax(np.abs(result.amplitudes))
    assert abs(mags[dominant] - 1.0) < 1e-10
    order = np.argsort(-np.abs(result.amplitudes))
    assert abs(mags[order[1]] - 1.0) < 0.01


def test_desk_scale_snapshot_compresses_to_one_percent():
    params = DoubleGyreParams(grid=(128, 64), t1=15.0, dt=0.1)
    pair = generate_gyre_snapshots(params)
    psi = SparseBasis((64, 128))
    snap = pair.X[:, 0]
    coef = apply_basis(psi, snap, "inverse")
    k = max(1, int(round(0.01 * coef.size)))
    idx = np.argpartition(np.abs(coef), -k)[-k:]
    keep = np.zeros_like(coef)
    keep[idx] = coef[idx]
    rec = apply_basis(psi, keep, "forward")
    relerr = np.linalg.norm(rec - snap) / np.linalg.norm(snap)
    assert relerr <= 0.05
