"""Local times of continuous-time Markov chains: exact joint densities,
large-deviation bounds, and the spatial Markov (Ray-Knight) description."""

from . import errors
from .bessel import edge_kernel
from .chain import (
    Generator,
    generator_from_triples,
    srw_generator,
    validate_generator,
)
from .density import (
    DensityEvaluation,
    density,
    density_batch,
    density_certified,
    density_quadrature,
    density_rows,
    density_tree,
    density_tridiagonal,
)
from .montecarlo import (
    sample_paths_fixed_time,
    sample_paths_inverse_local_time,
)
from .rates import (
    RateSolution,
    density_upper_bound,
    eta,
    ldp_probability_bound,
    ldp_varadhan_bound,
    rate_general,
    rate_symmetric,
    rescaled_chi_discrete,
)
from .rayknight import (
    rk_fixed_time_check,
    rk_inner_density,
    rk_outer_atom,
    rk_outer_density,
    sample_rk_profile_batch,
)

__all__ = [
    "DensityEvaluation", "Generator", "RateSolution", "density", "density_batch",
    "density_certified", "density_quadrature", "density_rows", "density_tree",
    "density_tridiagonal", "density_upper_bound", "edge_kernel", "errors", "eta",
    "generator_from_triples", "ldp_probability_bound", "ldp_varadhan_bound", "rate_general",
    "rate_symmetric", "rescaled_chi_discrete", "rk_fixed_time_check", "rk_inner_density",
    "rk_outer_atom", "rk_outer_density", "sample_paths_fixed_time",
    "sample_paths_inverse_local_time", "sample_rk_profile_batch", "srw_generator",
    "validate_generator",
]
__version__ = "0.1.0"
