"""Plane-strain FE analysis of solid and honeycomb-core sandwich plates.

The package covers the full pipeline: elastic material cards, tetrachiral
cell homogenization, analytic rectangular-element stiffness (conforming and
incompatible), global assembly and direct solve, nodal stress recovery with
a von Mises criterion, and the parameter-sweep campaigns built on top.
"""

__version__ = "0.1.0"

from .errors import (
    ChiralplateError,
    ConfigError,
    ConstraintError,
    GeometryError,
    MaterialError,
    MeshError,
    SolveError,
)
from .materials import (
    IsotropicMaterial,
    TransverselyIsotropicMaterial,
    full_elasticity_matrix,
    plane_strain_matrix,
    ti_plane_strain_matrix,
    von_mises_plane,
)
from .honeycomb import (
    TetrachiralGeometry,
    effective_E1,
    effective_E2,
    effective_G2,
    effective_material,
    geometry_from_cell,
    poisson_lu,
    poisson_qi,
    relative_density,
    wall_thickness_for_density,
)
from .elements import (
    ElementGeometry,
    element_stiffness,
    strain_displacement_full,
)
from .assembly import (
    Analysis,
    Layer,
    Mesh,
    StressField,
    analyze,
    assemble,
    recover,
    solve,
)
from .plates import (
    BoundaryCondition,
    PlateSpec,
    apply_boundary,
    apply_load,
    build_composite_mesh,
    build_solid_mesh,
    core_layer_count,
)
from .experiments import (
    DA_GRID,
    FORMLABS_CLEAR,
    RHO_GRID,
    V_CL,
    LayerStressLedger,
    composite_model,
    evaluate,
    honeycomb_grid,
    mesh_convergence_study,
    run_case,
    run_solid_case,
    run_sweep,
    solid_model,
)
