"""Numerical laboratory for Fibonacci Hamiltonian spectra.

One-dimensional Fibonacci boxes and their density-of-states measures, the
separable square model, trace-map spectrum covers, convolution and sumset
arithmetic, and desk-scale diagnostics for absolute continuity of convolved
singular measures.
"""

from .dos import (
    AtomicMeasure,
    DensityEstimate,
    cantor_lebesgue,
    cdf,
    convolve,
    empirical_measure,
    ids_curve,
    ids_from_counts,
    kde_density,
    l2_bandwidth_trend,
    l2_norm,
    local_dimension,
    local_dimension_from_counts,
    sup_cdf_distance,
)
from .eigensolve import (
    BoxCounter,
    Spectrum1D,
    TridiagMatrix,
    box_counter,
    cached_spectrum,
    eigenvalues_bisect,
    fibonacci_tridiag,
    jacobi_dense,
    sturm_count,
)
from .intervals import (
    IntervalSet,
    box_dimension,
    gap_report,
    interval_set,
    lebesgue_length,
    sumset,
)
from .model import (
    GOLDEN_CONJUGATE,
    ModelParams,
    potential_vector,
    site_letters,
    substitution_word,
)
from .regularity import (
    SymbolicSystem,
    TransversalityReport,
    correlation_integral,
    criterion_verdict,
    estimate_cond1,
    estimate_cond2,
    measure_decay,
    middle_cantor_system,
    near_far_split,
    transversality_report,
)
from .separable2d import BoxSpec2D, assemble_dense_2d, eigs2d_dense, eigs2d_from_sums
from .tracemap import (
    EscapeResult,
    Point3,
    escape_test,
    fricke_vogt,
    initial_point,
    lyapunov_finite,
    lyapunov_scan,
    spectrum_cover,
    trace_step,
)

__version__ = "0.1.0"
