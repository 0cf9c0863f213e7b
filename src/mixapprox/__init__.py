"""Convolution smoothing, finite location-scale mixtures, and desk-scale
verification of the associated approximation and estimation bounds."""

# numpy 2 loads these submodules on first use.  The studies use all three
# (numpy.ma through np.quantile), so they load with the package rather than
# inside the first study's time.
import numpy.fft
import numpy.ma
import numpy.random

from .grids import (
    GridCompatibilityError,
    GridFunction,
    SupportBox,
    TensorGrid,
    convolve,
    cube,
    make_grid,
    restrict,
    sample_on_grid,
    smooth,
)
from .kernels import (
    Dilation,
    IdentityCertification,
    MARGINAL_NAMES,
    Marginal,
    ProductKernel,
    certify_approximate_identity,
    check_moment_condition,
    l1_outside_mass,
    make_product_kernel,
)
from .densities import (
    TargetDensity,
    ZOO_NAMES,
    make_target,
)
from .divergences import (
    AbsoluteContinuityError,
    kl_divergence,
    lq_norm,
)
from .mixtures import (
    EMFit,
    FiniteMixture,
    GreedyFit,
    MLEFit,
    MeanBox,
    MixingApproximant,
    MixtureDictionary,
    build_dictionary,
    build_mixing_approximant,
    em_fit,
    greedy_fit,
    mle_fit,
)
from .bounds import (
    BoundReport,
    compute_A_logratio,
    compute_gamma,
    covering_number,
    dudley_entropy_integral,
    estimate_B_lipschitz,
    hull_kl_constant,
    kl_bound_two_stage,
    mle_risk_bound,
    mle_risk_bound_split,
    mle_risk_concentration,
    target_kl_constant,
)
from .config import ConfigError, ExperimentConfig, load_config, parse_config_text
from .harness import (
    RateReport,
    Row,
    SlopeFit,
    StudyResult,
    emit_report,
    fit_loglog_slope,
    run_study,
)

__version__ = "0.1.0"
