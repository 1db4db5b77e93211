"""Numerical information geometry for regular exponential families.

Finite-support measures with exact push-forward and convolution, exponential
families with three independent Fisher-information routes, derived IID /
natural-exponential families, and a machine-checkable suite for the
invariance properties that single out the Fisher metric up to scale.
"""

from .derived import (
    AffineMap,
    affine_pushforward_pair,
    convolve,
    iid_fisher,
    iid_product,
    nef_base,
    nef_distribution,
    nef_tangent,
    standardizing_map,
)
from .errors import (
    AbsoluteContinuityError,
    BadParamError,
    BasePointMismatchError,
    DomainError,
    InfoGeomError,
    PreconditionError,
    RankError,
    SupportBlowupError,
    UnknownFamilyError,
)
from .expfam import (
    ExpFamily,
    TangentCoord,
    ThetaBox,
    builtin_families,
    cov_statistic,
    density_measure,
    family_names,
    fisher_information,
    log_partition,
    make_family,
    mean_statistic,
    model_tangent,
)
from .geometry import (
    MetricField,
    NormFunctional,
    fisher_metric_field,
    fisher_norm_functional,
    invariant_form,
    invariant_form_value,
    metric_eval,
)
from .invariance import (
    check_A1,
    check_A2,
    check_A3_affine,
    check_A3_constancy,
    claim1_pipeline,
    claim2_rotation_check,
    clt_diagnostics,
    recover_constant,
    uniqueness_residual,
)
from .measures import (
    FiniteMeasure,
    GaussianReference,
    SignedFiniteMeasure,
    TangentPair,
    moments,
    push_forward,
    radon_nikodym,
)
from .tensors import amari_chentsov, higher_scaling_check

__version__ = "0.1.0"
