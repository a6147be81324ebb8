"""Exact spectra, degeneracies and radial wavefunctions for the twisted
quaternionic Kepler models, with numerical cross-checks of the defining
identities."""

from .qlinalg import (
    Quaternion,
    QVector,
    QMatrix,
    qmul,
    qdot,
    is_symplectic,
    complexify,
    complexify_matrix,
)
from .geom import (
    TangentSample,
    fubini_study_form,
    metric_identity_residual,
    quotient_factor_check,
    ostar_membership,
    embed_u2n,
    embed_u2n_uv,
    weight_double,
    sp_n_in_ostar,
)
from .rep import (
    HighestWeight,
    RootSystem,
    weyl_dim,
    casimir,
    dim_R_l,
    angular_eigenvalue,
    sp1_character,
    character_inner,
    schur_norm,
)
from .spectral import (
    ModelParams,
    QuantumNumbers,
    energy,
    energy_kl,
    degeneracy,
    oscillator_level_dim,
    dimension_equality_check,
    genfunc_check,
    ktype_weight,
    hspace_weight,
    ktype_dim_check,
    rkappa_weight,
    level_report,
)
from .radial import (
    RadialState,
    RadialGrid,
    laguerre,
    radial_t,
    radial_rho,
    kepler_residual,
    eigensolve,
    oscillator_profile,
    twist_profile,
    oscillator_residual,
    oscillator_eigenvalue,
    oscillator_eigenvalue_exact,
    micz_check,
    orthogonality_check,
)
from .report import CheckResult, Report, emit

__version__ = "0.1.0"

__all__ = [
    "Quaternion", "QVector", "QMatrix", "qmul", "qdot", "is_symplectic",
    "complexify", "complexify_matrix",
    "TangentSample", "fubini_study_form", "metric_identity_residual",
    "quotient_factor_check", "ostar_membership", "embed_u2n", "embed_u2n_uv",
    "weight_double", "sp_n_in_ostar",
    "HighestWeight", "RootSystem", "weyl_dim", "casimir", "dim_R_l",
    "angular_eigenvalue", "sp1_character", "character_inner", "schur_norm",
    "ModelParams", "QuantumNumbers", "energy", "energy_kl", "degeneracy",
    "oscillator_level_dim", "dimension_equality_check", "genfunc_check",
    "ktype_weight", "hspace_weight", "ktype_dim_check", "rkappa_weight",
    "level_report",
    "RadialState", "RadialGrid", "laguerre", "radial_t", "radial_rho",
    "kepler_residual", "eigensolve", "oscillator_profile", "twist_profile",
    "oscillator_residual", "oscillator_eigenvalue",
    "oscillator_eigenvalue_exact", "micz_check", "orthogonality_check",
    "CheckResult", "Report", "emit",
    "__version__",
]
