"""Exact integer homology of finite shelves, racks, quandles, multi-shelves."""

from .census import canonical_form, enumerate_shelf_tables, enumerate_shelves
from .chain import (
    ChainComplex,
    F_chain_map,
    basis_index,
    boundary_matrix,
    build_complex,
    index_tuple,
    preset_complex,
    preset_homology,
    quandle_quotient_complex,
)
from .families import (
    boolean_multishelf,
    const_left,
    direct_product,
    disjoint_union,
    idempotent_right,
    intersection_shelf,
    partition_family,
    pointed_map,
    strong_retract_extend,
    subset_switch,
    subtraction_shelf,
)
from .intmat import SparseIntMatrix
from .orbits import classify, left_orbits, orbit_quotient
from .simplicial import (
    build_shelf_complex,
    components,
    maximal_simplices,
    simplicial_groups,
    simplicial_projection_map,
)
from .snf import SmithForm, homology_from_boundaries, smith_normal_form
from .tables import (
    BinaryOpTable,
    MultiShelf,
    Shelf,
    compose_ops,
    distributive_closure,
    identity_op,
    inverse_op,
    left_normed_product,
    right_trivial_op,
    validate_multishelf,
    validate_shelf,
)

__version__ = "0.1.0"
