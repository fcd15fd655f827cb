"""Transversal matroids, flat lattices, and attribute reduction.

The pipeline: a finite set family induces a transversal matroid, presented by
the r blocks one maximum matching of the ground uses; its closed sets form a
geometric lattice; the lattice's coatoms drive attribute reduction through
minimal hitting sets of their complements; and information tables reduce
either by the same machinery or directly through the attribute quotient when
the saturation condition holds. ``latmat reducts`` prints the bases, the sets
of distinct representatives of those r blocks; ``reducts_via_hyperplanes``
stays the paper's hyperplane route and their oracle.
"""

from .covering import (
    Covering,
    CoveringEquivalenceReport,
    ResidueSplit,
    check_covering_equivalences,
    is_covering,
)
from .dependence import (
    DependenceSpace,
    closure_space,
    complement_family,
    minimal_hitting_sets,
    profile_space,
    reducts_via_hyperplanes,
    spaces_equal_on,
)
from .errors import (
    CapacityError,
    ConditionNotSatisfiedError,
    DocumentError,
    EmptyTargetError,
    LatmatError,
    NotACoveringError,
    NotAFlatError,
    UnknownAttributeError,
    UnknownElementError,
)
from .infosys import InformationSystem
from .lattice import GeometricLattice, GeometricityReport, build_lattice
from .matroid import GroundSet, SetFamily, TransversalMatroid

__version__ = "0.1.0"

__all__ = [
    "CapacityError",
    "ConditionNotSatisfiedError",
    "Covering",
    "CoveringEquivalenceReport",
    "DependenceSpace",
    "DocumentError",
    "EmptyTargetError",
    "GeometricLattice",
    "GeometricityReport",
    "GroundSet",
    "InformationSystem",
    "LatmatError",
    "NotACoveringError",
    "NotAFlatError",
    "ResidueSplit",
    "SetFamily",
    "TransversalMatroid",
    "UnknownAttributeError",
    "UnknownElementError",
    "build_lattice",
    "check_covering_equivalences",
    "closure_space",
    "complement_family",
    "is_covering",
    "minimal_hitting_sets",
    "profile_space",
    "reducts_via_hyperplanes",
    "spaces_equal_on",
]
