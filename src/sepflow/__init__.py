"""Approximate maximum s-t flow on separable undirected graphs.

The pipeline: an r-division partitions the edges into small groups with
small vertex boundaries; a multiplicative-weights grouped-L2-flow solver
routes flows under per-group energy constraints; an outer flow-oracle loop
turns grouped flows into an approximate maximum flow (or a cut certificate).
By default grouped flow runs on the graph itself.  The paper's two-level
route (``SparsifierPlan("one-step")``) replaces each group by a spectral
vertex sparsifier of its Schur complement, runs grouped flow on the quotient
graph, and converts flows back group-by-group through local electrical
routings.  ``recursive_vertex_sparsify`` builds one such sparsifier along a
separator tree, which pays off on one large Laplacian.
"""

from .errors import (
    DisconnectedGraphError,
    GraphError,
    ParseError,
    SepflowError,
    SolverConvergenceError,
    ValidationError,
)
from .graphs import (
    SparseLaplacian,
    WeightedGraph,
    edge_congestions,
    edge_group_ids,
    group_congestions,
    residual_of_vector,
    st_demand,
    zero_sum_demand,
)
from .solver import (
    ElectricalFlowResult,
    LaggedFactor,
    SolverHandle,
    electrical_flow,
    optimum_energy,
)
from .config import RunConfig, substream
from .dimacs import load_dimacs, save_dimacs
from .grids import GridSpec, grid_graph, random_capacity_grid
from .groupedflow import (
    GroupedFlowDiagnostics,
    GroupedFlowFail,
    GroupedFlowProblem,
    GroupedFlowResult,
    check_mwu_step,
    grouped_flow,
    mwu_parameters,
)
from .maxflow import MaxFlowResult, exact_max_flow_oracle, widest_path_bottleneck
from .partition import (
    Partition,
    SeparatorNode,
    SeparatorTree,
    grid_r_division,
    load_partition,
    partition_from_groups,
    save_partition,
    separator_tree_for_grid_block,
    validate_partition,
    validate_septree,
)
from .pipeline import (
    ApproxMaxFlowResult,
    CutCertificate,
    SparsifiedInstance,
    SparsifierPlan,
    SweptCutFail,
    approx_grouped_flow,
    approx_max_flow,
    build_sparsified_instance,
    convert_flow,
    cut_certificate,
    oracle_edge_weights,
    route_fixed_flow,
    success_target,
    sweep_cut,
)
from .schur import (
    SpectralBounds,
    VertexSparsifier,
    approx_schur,
    exact_schur,
    one_step_vertex_sparsify,
    recursive_vertex_sparsify,
    spectral_bounds,
    weight_floor,
)

__version__ = "0.1.0"
