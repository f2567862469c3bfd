"""Consistent interpolation, refinement, reconstruction and repair of
discretely sampled signed distance fields."""

from .core import (
    DOMAIN_HI,
    DOMAIN_LO,
    TOL_GEOM,
    TOL_UNIQUE,
    DegenerateGeometryError,
    InputInvalidError,
    NotRepairableError,
    ParseError,
    SampleSet,
    SdfError,
    SdfGrid,
    SignedSample,
    default_kappa,
    default_max_radius,
    default_tau,
)
from .geom import (
    IntersectionCircle,
    point_uncovered,
    points_uncovered,
    sphere_has_uncovered_point,
    sphere_pair_circle_3d,
)
from .validity import (
    ValidityReport,
    check_validity,
    check_validity_oracle,
    pairwise_lipschitz,
)
from .accel import (
    IntersectionCache,
    build_cache,
    cull_to_kappa,
    raster_resolution_auto,
    update_cache_on_insert,
)
from .interp import (
    GrowToPoints,
    grow_to_points,
    interpolate_sdf_to,
    min_valid_radius,
    radius_scores,
    validity_with_candidate,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
