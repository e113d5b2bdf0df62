"""
Recovering what was never stored
================================

Greedy sparse recovery is the piece that turns a decomposition of
measurements back into full spatial fields.  This script walks through
it at three levels: one planted instance, a success-rate sweep over
measurement budgets, and finally the modes of the double gyre flow
recovered from 2% pixel sampling.
"""

import numpy as np

from csdmd.dmd import exact_dmd, measure_pair, mode_alignment, pair_eigenvalues
from csdmd.errors import NoProgress
from csdmd.recovery import RecoveryConfig, cosamp, recover_modes
from csdmd.sensing import (
    SensingOperator,
    SparseBasis,
    apply_basis,
    apply_measurement,
    make_measurement,
)
from csdmd.systems import DoubleGyreParams, generate_gyre_snapshots

# --- one instance, fully visible -------------------------------------
# Plant a 3-sparse coefficient vector in the DFT basis of a 16 x 16
# grid, observe it through 24 Gaussian measurements (32 of 256 numbers
# would already be an overdetermined dense problem; 24 is genuinely
# compressed), and recover it.
rng = np.random.default_rng(0)
psi = SparseBasis((16, 16))
support = rng.choice(256, size=3, replace=False)
truth = np.zeros(256, dtype=complex)
truth[support] = rng.standard_normal(3) + 1j * rng.standard_normal(3)
C = make_measurement("gaussian", 24, 256, seed=1)
y = apply_measurement(C, apply_basis(psi, truth, "forward"))

mode = cosamp(SensingOperator(C, psi), y, RecoveryConfig(sparsity_K=3))
print("planted support:  ", sorted(int(i) for i in support))
print("recovered support:", sorted(int(i) for i in mode.support))
# the result holds only the kept atoms: the error on them, and the
# planted coefficients that no kept atom explains
missed = np.delete(truth, mode.support)
error = max(np.abs(mode.values - truth[mode.support]).max(), np.abs(missed).max(initial=0))
print(f"coefficient error: {error:.2e}   "
      f"residual: {mode.residual:.2e}   iterations: {mode.iters}")
print()

# --- how many measurements does reliability cost? --------------------
# For K-sparse targets, sweep the budget p and count exact recoveries
# over 40 random instances each.  Reliability switches on over a narrow
# band around p = 6K to 8K.
K = 3
print("p  (K = 3, n = 256):  success rate")
for p in (10, 14, 18, 24, 32):
    good = 0
    for trial in range(40):
        t_rng = np.random.default_rng(1000 + trial)
        sup = t_rng.choice(256, size=K, replace=False)
        x = np.zeros(256, dtype=complex)
        x[sup] = t_rng.standard_normal(K) + 1j * t_rng.standard_normal(K)
        Ct = make_measurement("gaussian", p, 256, seed=2000 + trial)
        yt = apply_measurement(Ct, apply_basis(psi, x, "forward"))
        try:
            m = cosamp(SensingOperator(Ct, psi), yt, RecoveryConfig(sparsity_K=K))
        except NoProgress:
            continue
        if m.residual <= 1e-8:
            good += 1
    print(f"  p = {p:3d}            {good}/40")
print()

# --- full modes of a flow from pixel samples -------------------------
# The gyre's modes are not exactly sparse, only compressible, so the
# sparsity budget is a modeling choice: 30 atoms per mode captures the
# structure that matters here.
params = DoubleGyreParams(grid=(128, 64), t0=0.0, t1=15.0, dt=0.1)
data = generate_gyre_snapshots(params, observable="vorticity")
reference = exact_dmd(data, truncation_tol=1e-4)

p = int(round(0.02 * data.n))
C = make_measurement("pixel", p, data.n, seed=11)
measured = measure_pair(C, data)  # one C S over the m+1 distinct snapshots
projected = exact_dmd(measured, truncation_tol=1e-4)
recovered, diags = recover_modes(
    projected.Phi, SensingOperator(C, SparseBasis(params.grid)), RecoveryConfig(sparsity_K=30)
)

pairs, _, _ = pair_eigenvalues(
    reference.lambdas, projected.lambdas, reference.amplitudes
)
print(f"gyre modes from {p} pixels, 30-atom budget per mode:")
for i, j, _ in pairs:
    align = mode_alignment(reference.Phi[:, i], recovered[:, j])
    print(f"  mode {j}: alignment vs full-data mode = {align:.4f}   "
          f"residual = {diags[j].residual:.2e}")
