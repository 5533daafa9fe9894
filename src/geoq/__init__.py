"""
geoq: finite incidence pregeometries, their quotients by type-refining
partitions and group orbits, and exact deciders for the classical
quotient properties (flag lifting, covers, the PQ/TQ axiom families,
diagrams, coset pregeometries and shadowable lifts).

The core modules (geometry, quotient, perms, axioms) are imported with
the package.  The names of cosets, diagram and constructions are
imported on first access (PEP 562), so a command that does not use them
does not load them.
"""

import importlib
import types

from .geometry import (Pregeometry, validate, flags_of_type, is_geometry,
                       is_firm, residue, truncation, incidence_distance,
                       is_connected, is_residually_connected,
                       is_generalized_digon, INF)
from .quotient import (Partition, Projection, quotient, singleton_partition,
                       lift_flag, check_flagslift, residual_surjectivity,
                       corank1_surjective, corank1_injective,
                       min_block_distance, is_m_cover, is_cover, check_PQ1,
                       check_PQ2, total_order_flagslift)
from .perms import (Perm, PermGroup, CapExceeded, orbit_partition,
                    stabilizer, normal_closure, transitivity,
                    is_semiregular, automorphism_group,
                    induced_quotient_group)
from .axioms import (OrbitQuotient, check_TQ1, check_TQ2prime,
                     check_TQ2doubleprime, check_TQ3)

_LAZY = {
    "cosets": """FiniteGroup Subgroup CosetGeometry coset_pregeometry
        rank2_connectivity product_condition coseteg_family
        is_coset_pregeometry""",
    "diagram": """Diagram basic_diagram place_tree_flag lift_chamber_forest""",
    "constructions": """SimpleGraph ssg shadow is_shadowable blowup
        blowup_projection shadowable_lift affine_geometry fano_plane
        multipartite_geometry grid_complement hexagon eight_cycle
        conneg_witness flnotpq1_witness example_generators isomorphic""",
}
_LAZY_HOME = {name: module for module, names in _LAZY.items()
              for name in names.split()}

__all__ = [name for name, value in globals().items()
           if not name.startswith("_")
           and not isinstance(value, types.ModuleType)]
__all__ += _LAZY_HOME

__version__ = "0.1.0"


def __getattr__(name):
    if name in _LAZY:
        return importlib.import_module("." + name, __name__)
    if name not in _LAZY_HOME:
        raise AttributeError("module %r has no attribute %r"
                             % (__name__, name))
    module = importlib.import_module("." + _LAZY_HOME[name], __name__)
    value = globals()[name] = getattr(module, name)
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY_HOME))
