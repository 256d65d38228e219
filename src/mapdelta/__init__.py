"""Combinatorial maps as 3-edge-colored flag graphs and their delta-matroids."""

from .errors import (
    AmbiguousCorners,
    AmbiguousGluing,
    BadQuadrilateral,
    Disconnected,
    DisconnectedGraph,
    EmptyFamily,
    FixedPoint,
    FormatError,
    GroundSetTooLarge,
    LabelMismatch,
    MapDeltaError,
    MapValidationError,
    NotDeltaMatroid,
    NotInvolution,
    ReconstructionError,
    RedGreenParallel,
    ValidationFailed,
)
from .families import SetFamily
from .maps import CombinatorialMap, LabeledGraph, from_rotation_system, validate_map
from .matroids import (
    Matroid,
    check_basis_exchange,
    check_symmetric_exchange,
    cotree_bases,
    lower_matroid,
    parity_uniform,
    rank_gap_check,
    spanning_tree_bases,
    upper_matroid,
)
from .selections import (
    Selection,
    enumerate_feasible_gamma,
    enumerate_feasible_k,
    find_hamiltonian,
    is_fully_black_hamiltonian,
    subgraph_components,
)

__version__ = "0.1.0"
