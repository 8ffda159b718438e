"""Spot volatility matrix estimation from asynchronous tick data.

Fourier estimators of the instantaneous covariance matrix of a multivariate
log-price process, including a factorized form that is guaranteed positive
semi-definite, plus dynamic principal component analysis over the estimated
matrix path and a simulation harness with known ground truth.
"""

from .market_data import (
    MarketDataError,
    TickSeries,
    ObservationSet,
    AssetIncrements,
    IncrementTable,
    load_csv,
    write_csv,
    increments,
)
from .kernels import (
    KernelParams,
    SpectralMeasure,
    PSDFunction,
    PsdCheck,
    dirichlet_eval,
    fejer_eval,
    make_measure,
    c_from_measure,
    verify_psd_function,
)
from .estimator import (
    EstimationError,
    GenericSpec,
    EstimatorConfig,
    FourierCoefficients,
    VolMatrix,
    VolPath,
    fourier_coefficients,
    build_fiber,
    generic_spec_from_psd,
    estimate_generic,
    estimate_classical,
    estimate_psd_direct,
    estimate_psd_factorized,
    estimate_path,
    write_vol_csv,
    read_vol_csv,
)
from .spectral import (
    EigenReport,
    PcaPath,
    pca_ratios,
    rank_estimate,
    write_pca_csv,
)
from .simulation import (
    ConstCorrModel,
    SinVolModel,
    FactorModel,
    SamplingScheme,
    FinePath,
    OracleVolPath,
    ScoreCard,
    simulate,
    sample,
    score,
    random_loadings,
)

__version__ = "0.1.0"
