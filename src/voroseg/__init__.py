"""Exact toolkit for Voronoi parallelotopes and their sums with segments."""

from .lattice import (
    ContactVectorSet,
    QuadForm,
    catalog,
    coset_minima,
    eval_form,
    make_form,
)
from .polytope import (
    Belt,
    Face,
    HPolytope,
    VPolytope,
    belts,
    build_cell,
    codim2_faces,
    contact_face,
    enumerate_vertices,
    irreducibility_graph,
    is_parallelotope,
    shadow_boundary,
    voronoi_cell,
)
from .extension import (
    Direction,
    DualSet,
    ExtensionReport,
    check_theorem,
    dual_set,
    normalize_direction,
    sum_with_segment,
    voronoi_of_sum_form,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
