"""graphent: entanglement of graph states on up to 16 qubits.

Combines combinatorial upper/lower bounds with a monotone fixed-point
iteration for the closest product state.  See the README for the CLI and the
catalog file format.
"""

from .bounds import (
    BoundsCategory,
    BoundsReport,
    bipartite_lower_bound,
    classify,
    locc_upper_bound,
    subgraph_recursion_bound,
    subgraphs_by_vertex_deletion,
)
from .catalog import (
    ALPHABET_LABELS,
    CatalogEntry,
    CatalogError,
    ExactValue,
    alphabet_constants,
    builtin_family,
    exact_value_eval,
    load_catalog,
    load_seed_catalog,
    parse_exact_value,
    save_catalog,
)
from .graphs import (
    CapabilityError,
    Graph,
    are_lc_isomorphic,
    build_graph,
    delete_vertex,
    encode_graph6,
    is_two_colorable,
    lc_orbit,
    local_complement,
    max_independent_set_size,
    max_matching_size,
    parse_edge_list,
    parse_graph6,
)
from .optimize import (
    FixedCoordinateSpec,
    OptimizationResult,
    OptimizerConfig,
    PresampleReport,
    RestartRecord,
    RestartSummary,
    SnapResult,
    coordinate_update,
    entanglement_from_fidelity,
    initial_state_for_restart,
    measures_from_entanglement,
    optimize,
    orthogonality_residual,
    presample,
    run_restart,
    snap_to_exact,
    success_probability,
)
from .states import (
    ProductState,
    QubitAmplitudePair,
    StateVector,
    apply_lc_unitary,
    fidelity,
    fubini_study_distance,
    graph_basis_state,
    graph_state_vector,
    overlap,
    partial_overlaps,
    product_state_vector,
    random_product_state,
    stabilizer_eigencheck,
)

__version__ = "0.1.0"
