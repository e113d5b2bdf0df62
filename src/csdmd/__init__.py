"""Modal decomposition of snapshot data, with compressed and subsampled
variants plus sparse mode recovery."""

from types import ModuleType as _ModuleType

# numpy loads numpy.fft and numpy.ma (np.unique's) on first use; loaded mid-run,
# their module objects split the heap between freed blocks and raise peak RSS
import numpy.fft as _numpy_fft, numpy.ma as _numpy_ma  # noqa: E401,F401

from .dmd import (
    DmdResult,
    SnapshotPair,
    advance_modes,
    compare_spectra,
    compressed_dmd,
    exact_dmd,
    mode_alignment,
    pair_eigenvalues,
)
from .errors import (
    BadWavenumber,
    ConvergenceError,
    CsdmdError,
    DimensionError,
    NoProgress,
    RankCollapse,
    ZeroInput,
)
from .linalg import EconSvd, eig_dense, svd_econ
from .pipelines import (
    ExperimentConfig,
    ExperimentReport,
    run_path,
    verify_invariance_suite,
)
from .recovery import (
    RecoveredMode,
    RecoveryConfig,
    cosamp,
    recover_modes,
)
from .sensing import (
    MeasurementMatrix,
    SensingOperator,
    SparseBasis,
    apply_basis,
    apply_measurement,
    make_measurement,
    mutual_coherence,
    recommended_measurements,
)
from .systems import (
    DoubleGyreParams,
    FourierLtiSystem,
    FourierTruth,
    add_fourier_noise,
    generate_fourier_lti,
    generate_gyre_snapshots,
    make_fourier_lti,
)

__version__ = "0.1.0"

__all__ = [
    name
    for name in dir()
    if not name.startswith("_") and not isinstance(globals()[name], _ModuleType)
]
