"""Certified computation in Lipschitz free p-spaces over finite metric
spaces: exact norms, cube-lattice retractions with two-sided Lipschitz
bounds, and dyadic basis decompositions with quantitative norming
constants."""

from .constants import (
    basis_bound,
    bm_bound,
    c_const,
    retraction_bounds,
    rho,
    tau,
)
from .cubes import (
    CubeComplex,
    find_cube,
    lambda_support,
    lambda_weight,
    scalar_coeff,
    vertex_bits,
    vertex_ids,
    vertex_weights,
)
from .dyadic import (
    BasisCombination,
    analyze,
    basis_element,
    basis_norm_check,
    hat_decompose,
    line_path,
    molecule_decompose,
    step_decompose,
    synthesize,
    verify_norming,
)
from .freenorm import (
    Decomposition,
    DualCertificate,
    FreeElement,
    Molecule,
    dual_lower_bound,
    dual_lower_bounds,
    evaluate,
    exact_norm_p1,
    exact_norm_small,
    p_cost,
    upper_bound_from,
)
from .metric import (
    DyadicPoint,
    PointedFiniteMetric,
    coordinate_level,
    dyadic_grid,
    holder_distort,
    l1_space,
    neighbors,
)
from .retraction import (
    RetractionContext,
    SamplerConfig,
    build_context,
    estimate_lipschitz,
    lipschitz_upper_decomposition,
    lower_bound_witness,
    retract,
)

__all__ = [name for name in dir() if not name.startswith("_")]
