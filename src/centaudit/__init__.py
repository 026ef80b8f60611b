"""centaudit: exact graph centralities, relation auditing, and small-graph mining.

The library computes distance-based centralities of simple connected graphs
in exact rational arithmetic, evaluates a catalog of identities and
inequalities relating them, and mines graph populations (exhaustively up to 7
vertices, or by seeded random sampling) for counterexamples.
"""

from .graphs import (
    EdgeListError,
    Graph,
    complete_graph,
    cycle_graph,
    enumerate_connected,
    generate,
    gnp_graph,
    parse_edge_list,
    path_graph,
    serialize_edge_list,
    star_graph,
    watts_strogatz_graph,
)
from .metrics import (
    CentralityProfile,
    DisconnectedGraphError,
    apsp,
    global_clustering,
    is_even_cycle_free,
    local_clustering,
    profile,
    stress,
)
from .mining import (
    ConnectivityRetryError,
    GeodeticAudit,
    MiningReport,
    RelationTally,
    Witness,
    equality_census,
    mine_exhaustive,
    mine_random,
)
from .relations import (
    AUDIT_INEQUALITY,
    EQUALITY,
    EXACT_IDENTITY,
    HOLDS,
    INEQUALITY,
    RELATION_IDS,
    SKIPPED,
    VIOLATED,
    RelationResult,
    RelationSpec,
    catalog,
    evaluate,
    evaluate_all,
    make_result,
    relation,
)

__version__ = "0.1.0"

__all__ = [
    "AUDIT_INEQUALITY",
    "CentralityProfile",
    "ConnectivityRetryError",
    "DisconnectedGraphError",
    "EQUALITY",
    "EXACT_IDENTITY",
    "EdgeListError",
    "GeodeticAudit",
    "Graph",
    "HOLDS",
    "INEQUALITY",
    "MiningReport",
    "RELATION_IDS",
    "RelationResult",
    "RelationSpec",
    "RelationTally",
    "SKIPPED",
    "VIOLATED",
    "Witness",
    "apsp",
    "catalog",
    "complete_graph",
    "cycle_graph",
    "enumerate_connected",
    "equality_census",
    "evaluate",
    "evaluate_all",
    "generate",
    "global_clustering",
    "gnp_graph",
    "is_even_cycle_free",
    "local_clustering",
    "make_result",
    "mine_exhaustive",
    "mine_random",
    "parse_edge_list",
    "path_graph",
    "profile",
    "relation",
    "serialize_edge_list",
    "star_graph",
    "stress",
    "watts_strogatz_graph",
]
