"""Disc-polynomial expansions, dimension walks and positive definiteness of
isotropic kernels on complex unit spheres.

Each public name is imported from its submodule the first time it is used
(PEP 562), so ``import discwalk`` by itself loads no submodule and no numpy.
"""

import importlib

__version__ = "0.1.0"

#: submodule -> the public names the package re-exports from it
_EXPORTS = {
    "errors": "CapacityError ConvergenceError DiscWalkError DomainError NotPositiveDefiniteError",
    "families": "Aktas Exponential FamilySpec Horn Lauricella PoissonSzego ProductKernel"
    " difference_pattern eval_family family_alpha family_coefficients family_from_dict"
    " family_to_dict make_family sigma_2q",
    "positivity": "COUNTEREXAMPLE_EXPECTED IndexSet PdReport Progression SpdVerdict SpherePointSet"
    " counterexample_sets counterexample_table difference_set gram_matrix hermitian_eigenvalues"
    " intersects_progression is_pd is_spd min_eigenvalue sample_sphere spd_verdict",
    "quadrature": "DiskRule build_rule coefficient_sum default_rule expand synthesize",
    "special": "BOUNDARY_EPS disc_norm_h disc_poly disc_poly_at_zero jacobi_R_all pochhammer",
    "tables": "CoefficientTable",
    "walks": "MonteeResult descente_x descente_z descente_zbar montee_z montee_zbar",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__name__}.{_MODULE_OF[name]}")
    value = globals()[name] = getattr(module, name)  # a plain global: later lookups skip this hook
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
