"""Exact spectra, degeneracies and radial wavefunctions for the twisted
quaternionic Kepler models, with numerical cross-checks of the defining
identities.

The names below load their submodule on first access (PEP 562), so
``import qkepler`` stays cheap and numpy and scipy load only with the
numerical layers that use them.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "qlinalg": ("QMatrix", "qmul", "qdot", "complexify", "complexify_matrix"),
    "geom": ("fubini_study_form", "metric_identity_residual",
             "quotient_factor_check", "ostar_membership", "embed_u2n",
             "embed_u2n_uv", "weight_double"),
    "rep": ("HighestWeight", "RootSystem", "weyl_dim", "casimir", "dim_R_l",
            "angular_eigenvalue", "sp1_character", "character_inner",
            "schur_norm"),
    "spectral": ("ModelParams", "QuantumNumbers", "energy", "energy_kl",
                 "degeneracy", "oscillator_level_dim",
                 "dimension_equality_check", "genfunc_check", "ktype_weight",
                 "hspace_weight", "ktype_dim_check", "rkappa_weight",
                 "micz_check"),
    "radial": ("RadialState", "RadialGrid", "laguerre", "radial_t",
               "radial_rho", "kepler_residual", "eigensolve",
               "laguerre_eigenvalues",
               "oscillator_profile", "twist_profile", "oscillator_residual",
               "oscillator_eigenvalue_exact", "orthogonality_check"),
    "report": ("CheckResult", "Report", "emit"),
}
_MODULE_OF = {name: mod for mod, names in _EXPORTS.items() for name in names}

__all__ = [*_MODULE_OF, "__version__"]


def __getattr__(name: str):
    if name in _EXPORTS:  # qkepler.radial without importing it first
        return importlib.import_module(f".{name}", __name__)
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__),
                    name)
    globals()[name] = value
    return value


def __dir__() -> list:
    return sorted({*globals(), *__all__})
