"""Combinatorics of colored and stranded rank-D tensor graphs.

Construction and validation of colored (edge-colored bipartite regular)
and stranded tensor graphs, face enumeration by strand tracing and by
two-color cycles, bubble enumeration with ribbon invariants (Euler
characteristic, genus, planarity), multi-orientability and colorability
decision procedures with constructive witnesses, seeded random
ensembles with deterministic censuses, and simplex counts of the dual
triangulation.

Importing the package is cheap: each public name below loads its
submodule on first access (PEP 562), and so do the submodules
themselves (``tensorgraphs.core``, ``tensorgraphs.errors``, ...).
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "bubbles": ("Bubble", "BubbleCensus", "BubbleRecord", "bubble_census", "bubble_ribbon",
                "enumerate_bubbles"),
    "checks": ("ALTERNATING", "BLOCK", "ColorabilityResult", "MoObstruction", "MoResult",
               "SignAssignment", "SignPattern", "colorability", "colored_mo_witness",
               "is_untwisted", "mo_admissibility", "stranded_same_structure",
               "verify_sign_assignment"),
    "core": ("BLACK", "WHITE", "ColoredEdge", "ColoredGraph", "Component", "HalfEdgeRef",
             "StrandSlot", "StrandedEdge", "StrandedGraph", "StrandedVertex", "ValidationReport",
             "Violation", "build_colored", "build_stranded", "components", "stranded_components",
             "to_stranded", "validate_colored"),
    "dual": ("DualComplexCounts", "complex_euler", "dual_counts"),
    "formats": ("export_dot", "parse_graph", "serialize_graph"),
    "sampling": ("GENERATOR_ID", "CensusReport", "SplitMix64", "census", "random_colored",
                 "random_connected", "subseed"),
    "topology": ("FaceSet", "RibbonCounts", "bicolored_face_count", "bicolored_faces",
                 "euler_characteristic", "genus", "is_planar", "pair_cycle_count",
                 "ribbon_counts", "trace_faces"),
}
_SUBMODULES = (*_EXPORTS, "errors")
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_HOME, "errors"]


def __getattr__(name: str):
    if name in _HOME:
        value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
