"""
What the decomposition cannot see
=================================

The fitted spectrum is a property of the underlying dynamics, not of the
coordinates the data happens to arrive in.  Concretely:

  * reordering or unitarily remixing the snapshot columns changes
    nothing (the propagator fit is symmetric in time samples),
  * transforming every snapshot by a unitary map (a DFT, or the data's
    own orthonormal basis) keeps the spectrum and maps the modes by that
    same transform,
  * measuring the data first and fitting second gives the same operator
    as fitting first and measuring second, whenever the measurement
    keeps the data's rank.

verify_invariance_suite measures all of these on actual data and
reports the deviations against its thresholds.
"""

import sys

from csdmd.pipelines import verify_invariance_suite
from csdmd.systems import generate_fourier_lti, make_fourier_lti

# A 32 x 32 planted-wave instance: five waves, rank 10, 100 snapshots.
data, _ = generate_fourier_lti(
    make_fourier_lti(nx=32, ny=32, K=5, dt=0.01, m=100, seed=7)
)

checks = verify_invariance_suite(data, seed=0, truncation_tol=1e-6)
print(f"{'check':24s}{'eig dev':>12s}{'mode dev':>12s}   verdict")
for c in checks:
    verdict = "pass" if c["passed"] else "FAIL"
    print(f"{c['name']:24s}{c['eig_dev']:12.2e}{c['mode_dev']:12.2e}   {verdict}")

# The eigenvalue deviations sit at the level of eigensolver roundoff,
# ten and more digits below the thresholds.  The same suite is available
# from the command line as `csdmd verify --snapshots <dir>`.
sys.exit(0 if all(c["passed"] for c in checks) else 1)
