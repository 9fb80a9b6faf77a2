"""Simulation and verification toolkit for stable and mixing limits of
normalized explosive processes.

The package splits into infrastructure (deterministic streams, matrix
decay certificates, empirical characteristic functions) and the substance
layers built on top: increment laws and limit characteristic functions,
truncated limit series, process variants with their scaling structure, and
event-based convergence verdicts.  Everything randomized is addressed by
``(seed, stream, path index)``, so results are bit-identical across chunk
sizes and worker counts.
"""

__version__ = "0.19.0"

from .errors import (
    ConfigError,
    GridMismatchError,
    HorizonExceededError,
    HypothesisViolationError,
    InsufficientDataError,
    InvalidInputError,
    RangeOverflowError,
    ReproducibilityError,
    SingularMatrixError,
    StablemixError,
)
from .matalg import (
    DecayCertificate,
    decay_certificate,
    inverse,
    norm_table,
    power_sequence,
    psd_sqrt,
    spectral_radius,
    tail_bound,
)
from .streams import (
    CHUNK_PATHS,
    STREAM_LAW,
    STREAM_LEMMA,
    STREAM_PROCESS,
    STREAM_SERIES,
    kahan_fold,
    map_chunks,
)
from .laws import (
    CauchyLaw,
    EmpiricalLaw,
    IncrementLaw,
    LogCauchyRay,
    NormalLaw,
    SpectralMeasure,
    StableLaw,
    TruncatedCf,
    cf_cauchy_limit,
    cf_increment,
    cf_normal_limit,
    cf_stable_limit,
    sas_from_uniforms,
    series_cf_values,
)
from .series import (
    LemmaDiagnostics,
    TruncationPlan,
    lemma_diagnostics,
    series_ensemble,
    truncation_index,
    write_lemma_csv,
)
from .processes import (
    DiscreteFactor,
    Ensemble,
    ExplosiveVar,
    ProcessPath,
    ProcessSpec,
    RandomScaled,
    SyntheticCanonical,
    simulate_ensemble,
    simulate_path,
    write_paths_csv,
)
from .ecf import (
    EcfEstimate,
    ThetaGrid,
    default_grid,
    estimate_ecf,
    hoeffding_radius,
    sup_distance,
    write_ecf_csv,
)
from .config import law_from_json, matrix_from_json, process_from_json
from .verify import (
    ConvergenceVerdict,
    EventFamily,
    PathEvent,
    check_condition_i,
    check_condition_ii,
    check_condition_iii,
    conditional_reference,
    default_family,
    mixing_reference,
    mixing_statistic,
    scale_mixture_gap,
    stable_statistic,
    verify_mixing,
    verify_stable,
)

__all__ = [name for name in dir() if not name.startswith("_")]
