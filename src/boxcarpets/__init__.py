"""Quantum carpets in a 1-D box cavity.

Spectral decomposition of localized input signals, closed-form evolution and
carpet rendering, an effective Markovian coherence-damping model, Bohmian
streamline integration, and energy-domain purity analysis.
"""

from .config import (
    GridSpec,
    OutputSpec,
    RunConfig,
    SweepSpec,
    apply_overrides,
    parse_config,
    parse_config_file,
    serialize_config,
)
from .decoherence import (
    DEFAULT_GAMMA,
    DecoherenceParams,
    DensityMatrixGrid,
    asymptotic_density,
    beta,
    density_matrix_grid,
    localization_rate,
)
from .energy import (
    FitSpec,
    PurityCurve,
    PurityFit,
    SweepRow,
    correlation_matrix,
    decay_time_map,
    fit_purity,
    purity,
    purity_asymptote,
    purity_curve,
    sweep_x0,
)
from .errors import CarpetError, ConfigError, DomainError, FitFailure, NodeProximityError
from .evolution import (
    CarpetGrid,
    SpaceTimeGrid,
    carpet,
    frequency,
    probability_density,
    wavefunction,
)
from .flow import (
    EnsembleSpec,
    NoncrossingReport,
    Trajectory,
    ensemble_seeds,
    integrate_ensemble,
    integrate_trajectory,
    noncrossing_check,
    velocity,
    velocity_map,
)
from .heatmap import DIVERGING, SEQUENTIAL, render_heatmap
from .products import build_state, run
from .spectral import (
    CavityConfig,
    InputSignalSpec,
    Mode,
    RevivalTimes,
    SpectralState,
    decompose,
    mode,
    mode_values,
    norm_deficit,
    revival_times,
)

__version__ = "0.1.0"
