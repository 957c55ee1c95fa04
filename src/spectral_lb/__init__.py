"""Lower bounds on the smallest adjacency eigenvalue of a graph.

Weighted graph decompositions, clique partitions, exact rational LP
optimisation of the resulting bounds, and equality certificates, together
with the classical closed-form upper and lower bounds they are measured
against.
"""

from .catalog import SrgParams, srg_cubic_coeffs, srg_second_eigenvalues
from .cliqopt import (
    LambdaStarResult,
    chromatic_number,
    clique_number,
    enumerate_cliques,
    fractional_chromatic,
    independence_number,
    lambda_star_C,
    lambda_star_K,
    turan_t,
)
from .decomp import (
    CertificateError,
    CliquePartition,
    Decomposition,
    DecompositionError,
    Piece,
    clique_equality_certificate,
    clique_partition_bound,
    clique_partition_stats,
    cubic_power_bound,
    decomposition,
    decomposition_bound,
    equality_certificate,
    essential_vertices,
    line_graph_bound,
    piece_lambda,
    validate,
)
from .graphs import (
    CapExceeded,
    Multigraph,
    NotApplicable,
    SimpleGraph,
    WeightedGraph,
    add,
    build_multigraph,
    build_simple,
    build_weighted,
    cartesian_product,
    composition,
    direct_product,
    embed,
    line_graph,
    power_multigraph,
    scale,
    special_graph,
    twig_replicate,
    weighted_from_simple,
)
from .rationals import Q
from .spectra import (
    Spectrum,
    lambda_min,
    lambda_min_exact,
    psd_check_exact,
    rational_nullspace,
    spectrum,
)

__version__ = "0.1.0"
