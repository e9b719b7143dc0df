"""Nonnegative barycentric coordinates on finite element geometries.

Coordinates are obtained as unique solutions of small moment-regularized
linear systems: the constant and linear reproducing conditions plus
alternating-sign distance rows.  Supported node sets are 1D intervals
(n >= 3 nodes), simple quadrilaterals (convex or nonconvex), and convex
hexahedra with planar faces.
"""

from .coords1d import (
    hat_oracle,
    hat_oracle_many,
    moment_coords_1d,
    moment_coords_1d_many,
)
from .coords2d import (
    cramer_coords_quad,
    cramer_coords_quad_many,
    moment_coords_quad,
    moment_coords_quad_many,
    moment_gradient_quad_many,
    mvc_oracle,
    mvc_oracle_many,
    wachspress_coords_quad,
    wachspress_coords_quad_many,
    wachspress_gradient_quad_many,
    wachspress_oracle,
    wachspress_oracle_many,
)
from .coords3d import (
    Frame3,
    moment_coords_hex,
    moment_coords_hex_many,
    reference_frame,
    sign_pattern_ok,
)
from .errors import (
    DegenerateTriangle,
    DomainError,
    FrameNotFound,
    InvalidGeometry,
    MomentCoordsError,
    NotConvex,
    OnBoundary,
    OutOfDomain,
    OutsideDomain,
    SingularMatrix,
)
from .geometry import (
    Hexahedron,
    NodeSet1D,
    PointLocation,
    Quadrilateral,
    classify_point_quad,
    classify_points_quad,
    face_of_point_hex,
    face_of_points_hex,
    signed_area,
)
from .smallsolve import solve_dense, solve_dense_many

__version__ = "0.1.0"

__all__ = [
    "hat_oracle",
    "hat_oracle_many",
    "moment_coords_1d",
    "moment_coords_1d_many",
    "cramer_coords_quad",
    "cramer_coords_quad_many",
    "moment_coords_quad",
    "moment_coords_quad_many",
    "moment_gradient_quad_many",
    "mvc_oracle",
    "mvc_oracle_many",
    "wachspress_coords_quad",
    "wachspress_coords_quad_many",
    "wachspress_gradient_quad_many",
    "wachspress_oracle",
    "wachspress_oracle_many",
    "Frame3",
    "moment_coords_hex",
    "moment_coords_hex_many",
    "reference_frame",
    "sign_pattern_ok",
    "DegenerateTriangle",
    "DomainError",
    "FrameNotFound",
    "InvalidGeometry",
    "MomentCoordsError",
    "NotConvex",
    "OnBoundary",
    "OutOfDomain",
    "OutsideDomain",
    "SingularMatrix",
    "Hexahedron",
    "NodeSet1D",
    "PointLocation",
    "Quadrilateral",
    "classify_point_quad",
    "classify_points_quad",
    "face_of_point_hex",
    "face_of_points_hex",
    "signed_area",
    "solve_dense",
    "solve_dense_many",
]
