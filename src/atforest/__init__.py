"""Forest-plus-orientation certificates for planar graphs.

Decomposes a near-triangulation into a spanning forest containing a
chosen boundary edge and an acyclic orientation of the rest with small
out-degrees, which bounds the Alon-Tarsi number of the remainder.  Also
ships the gadget constructions showing the bound is tight, exact
Alon-Tarsi computations for small graphs, list-coloring checks, seeded
generators, and a CLI tying it together.
"""

from .alon_tarsi import (
    ParityCount,
    acyclic_orientation,
    at_number,
    eulerian_diff,
    find_at_orientation,
    poly_coefficient,
)
from .choosability import (
    ListAssignment,
    build_lemma1_lists,
    is_l_colorable,
    verify_witness_not_k_choosable,
)
from .decompose import (
    Decomposition,
    decompose,
    decompose_any_planar,
    verify_decomposition,
)
from .errors import ArtifactError, CapExceeded
from .gadgets import (
    StarForest,
    build_gadget,
    extract_obstruction,
    verify_lemma1,
    verify_lemma1_all,
    verify_lemma2,
    verify_lemma6,
    verify_sampled,
    verify_theorem7_core,
)
from .graph import (
    Graph,
    Orientation,
    PlaneGraph,
    build_plane_graph,
    edge,
    graph_from_json,
    graph_to_json,
    validate_near_triangulation,
)
from .report import VerificationReport
from .testkit import (
    Rng,
    random_graph,
    random_near_triangulation,
    random_orientation,
)

__all__ = [
    "ArtifactError",
    "CapExceeded",
    "Decomposition",
    "Graph",
    "ListAssignment",
    "Orientation",
    "ParityCount",
    "PlaneGraph",
    "Rng",
    "StarForest",
    "VerificationReport",
    "acyclic_orientation",
    "at_number",
    "build_gadget",
    "build_lemma1_lists",
    "build_plane_graph",
    "decompose",
    "decompose_any_planar",
    "edge",
    "eulerian_diff",
    "extract_obstruction",
    "find_at_orientation",
    "graph_from_json",
    "graph_to_json",
    "is_l_colorable",
    "poly_coefficient",
    "random_graph",
    "random_near_triangulation",
    "random_orientation",
    "validate_near_triangulation",
    "verify_decomposition",
    "verify_lemma1",
    "verify_lemma1_all",
    "verify_lemma2",
    "verify_lemma6",
    "verify_sampled",
    "verify_theorem7_core",
    "verify_witness_not_k_choosable",
]
