"""Exact integer homology of finite shelves, racks, quandles, multi-shelves.

Each public name is imported from its module on first access (PEP 562), so
``import shelfhom`` loads no submodule and a CLI command compiles only the
modules it runs.
"""

import importlib

# module -> the public names it defines
_EXPORTS = {
    "census": ("canonical_form", "enumerate_shelf_tables", "enumerate_shelves"),
    "chain": ("ChainComplex", "F_chain_map", "basis_index", "boundary_matrix",
              "build_complex", "index_tuple", "preset_complex", "preset_homology",
              "quandle_quotient_complex"),
    "families": ("boolean_multishelf", "const_left", "direct_product", "disjoint_union",
                 "idempotent_right", "intersection_shelf", "partition_family",
                 "pointed_map", "strong_retract_extend", "subset_switch",
                 "subtraction_shelf"),
    "intmat": ("SparseIntMatrix",),
    "orbits": ("classify", "left_orbits", "orbit_quotient"),
    "simplicial": ("build_shelf_complex", "components", "maximal_simplices",
                   "simplicial_groups", "simplicial_projection_map"),
    "snf": ("SmithForm", "homology_from_boundaries", "smith_normal_form"),
    "tables": ("BinaryOpTable", "MultiShelf", "Shelf", "compose_ops",
               "distributive_closure", "identity_op", "inverse_op", "right_trivial_op",
               "validate_multishelf", "validate_shelf"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
