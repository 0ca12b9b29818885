"""latmax: greedy sums, maximal partial-sum operators, and counterexample
constructions over finite-dimensional Banach lattices."""

# Seeded generators drive most computations.  numpy loads numpy.random on
# first access; load it with the package, so set-up pays for it, not the
# first draw of a run.
import numpy.random  # noqa: F401

from latmax.spaces import (
    DirectSum,
    Element,
    LpBlock,
    SpaceDescriptor,
    SupBlock,
    dyadic_lp,
    element_from_json,
    join,
    lp_block,
    modulus,
    space_from_json,
)
from latmax.systems import (
    BiorthogonalSystem,
    ConstantReport,
    absolute_constant,
    basis_constant,
    bibasis_constant,
    coefficients,
    maximal_partial,
    partial_sum,
    reconstruct,
    recompute_constant,
    report_from_json,
)
from latmax.greedy import (
    GreedyOrdering,
    all_greedy_orderings,
    greedy_maximal,
    greedy_sum,
    kvee_estimate,
    natural_greedy_ordering,
    ordered_projection_maximal,
    quasi_greedy_constant,
    uqg_constant,
)
from latmax.estimation import (
    GrowthFit,
    SearchResult,
    growth_fit,
    nuclear_norm,
    spectral_norm,
    sup_search,
)

__version__ = "0.1.0"
