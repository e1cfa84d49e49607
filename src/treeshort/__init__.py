"""Tree-restricted low-congestion shortcuts, certificates, and simulation."""

from .graph import (
    INFINITE,
    Graph,
    GraphError,
    Partition,
    RootedTree,
    bfs_tree,
    diameter,
    validate_partition,
)
from .engine import (
    CongestionMarking,
    EngineConfig,
    EngineError,
    MinorCertificate,
    PartialShortcut,
    Shortcut,
    case_one_partial,
    construct_full,
    construct_partial,
    mark_overcongested,
    sample_dense_minor,
)
from .audit import (
    QualityReport,
    audit_shortcut,
    block_dilation_bound,
    check_tree_restricted,
    measure_congestion,
    partial_to_full_congestion,
    validate_minor,
)
from .generators import (
    LowerBoundInstance,
    assign_weights,
    gen_grid,
    gen_ktree,
    gen_lower_bound,
    gen_parts_random,
    gen_wheel,
)
from .sim import (
    AggregationTask,
    RoundTrace,
    SimConfig,
    partwise_aggregate,
    run,
)
from .apps import MstResult, boruvka_mst, kruskal_oracle

__all__ = [name for name in dir() if not name.startswith("_")]
