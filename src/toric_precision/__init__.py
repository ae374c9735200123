"""Exact blending functions on lattice polytopes, fiber products, Horn pairs,
and closed-form maximum likelihood estimators, with a numeric cross-check."""

from .blending import (
    BlendingSystem,
    PrecisionReport,
    WeightVector,
    toric_blending,
    toric_patch_eval,
    verify_interior_positivity,
    verify_linear_precision,
    verify_partition_of_unity,
    verify_rational_linear_precision,
    verify_toric_membership,
)
from .geometry import (
    DesignMatrix,
    Facet,
    LatticePolytope,
    PointConfiguration,
    convex_hull_facets,
    design_matrix,
    lattice_distance_forms,
    sample_interior,
)
from .horn import (
    HornMatrix,
    HornPair,
    HornValidationReport,
    align_horn_to_labels,
    format_horn_matrix,
    horn_parametrize,
    minimize_horn_pair,
    permute_horn_columns,
    simplex_horn_pair,
    tfp_horn_pair,
    validate_horn_pair,
)
from .mle import (
    DataVector,
    Distribution,
    IpsResult,
    birch_residual,
    ips_fit,
    log_likelihood,
    mle_closed_form,
    tfp_marginal_counts,
    tfp_mle_combine,
)
from .polynomials import Polynomial, RationalFunction, sum_rational_functions, variables
from .serialize import rational_str
from .tfp import (
    GradedConfiguration,
    GradedModel,
    Multigrading,
    tfp_blending,
    tfp_configuration,
    validate_multigrading,
    verify_form_agreement,
)

__version__ = "0.1.0"
