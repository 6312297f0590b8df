"""Certified computation in Lipschitz free p-spaces over finite metric
spaces: exact norms, cube-lattice retractions with two-sided Lipschitz
bounds, and dyadic basis decompositions with quantitative norming
constants.

`import freep` runs no submodule: `constants`, `cubes`, `dyadic`,
`freenorm`, `metric` and `retraction` are registered lazily, and each runs,
importing numpy if it needs it, on its first attribute lookup, so a CLI
command runs only the modules it reads. The names of `__all__` resolve to
their modules' own objects."""

import importlib.util
import sys

# the public names of each module; the module names are public too
_PUBLIC = {
    "constants": "basis_bound bm_bound c_const retraction_bounds rho tau",
    "cubes": "CubeComplex find_cube lambda_support lambda_weight scalar_coeff vertex_bits "
             "vertex_ids vertex_weights",
    "dyadic": "BasisCombination analyze basis_element basis_norm_check hat_decompose line_path "
              "molecule_decompose synthesize verify_norming",
    "freenorm": "Decomposition DualCertificate FreeElement Molecule dual_lower_bound evaluate "
                "exact_norm_p1 exact_norm_small p_cost upper_bound_from",
    "metric": "DyadicPoint PointedFiniteMetric coordinate_level dyadic_grid holder_distort l1_space",
    "retraction": "RetractionContext build_context estimate_lipschitz "
                  "lipschitz_upper_decomposition lower_bound_witness retract",
}
_OWNER = {name: module for module, names in _PUBLIC.items() for name in names.split()}

for _module in _PUBLIC:
    _spec = importlib.util.find_spec(f"{__name__}.{_module}")
    _spec.loader = importlib.util.LazyLoader(_spec.loader)
    globals()[_module] = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
    _spec.loader.exec_module(globals()[_module])
del _module, _spec

__all__ = sorted([*_PUBLIC, *_OWNER])


def __getattr__(name):
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[_OWNER[name]], name)


def __dir__():
    return sorted({*globals(), *__all__})
