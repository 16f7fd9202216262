"""Planar constant-width bodies: Cheeger sets, Blaschke deformations, bounds."""
from __future__ import annotations

from .arcs import (ArcRegion, CircArc, EmptyIntersectionError, GeometryError,
                   Point, RegionValidationError, area, disk_intersection,
                   min_enclosing_circle, minkowski_disk_sum, perimeter,
                   region_from_json, region_to_json)
from .blaschke import (ArcCollapseError, AuxParams, DeformationTrajectory,
                       InvalidDeformation, TrajectoryStep, aux_F, aux_G, aux_H,
                       aux_U, deform, local_maximize, normal_speed,
                       optimality_residual, residual_norm, shape_derivative,
                       trajectory_csv)
from .bounds import (BoundsRow, f2_argmax, F2, hmax_of_tau,
                     inradius_lower_bound, lastestimate,
                     many_arc_inradius_floor, minr_worstcase,
                     pentagon_inradius_floor, table1, table1_check, table1_csv,
                     table_row, tau_of_h)
from .cheeger import (CheegerSolution, EmptyContactError, bisect_root,
                      cheeger_radius, cheeger_set, contact_angles,
                      disk_cheeger_radius, inner_parallel,
                      triangle_closed_form, triangle_inner_area, upper_bounds)
from .minarea import (MinAreaShape, band_of, ell, min_area, min_area_inverse,
                      profile, regular_inradius)
from .polygon import (ContactDeficitError, InvalidPolygon, ReuleauxPolygon,
                      Sector, as_region, contact_points, from_vertices,
                      inradius_from_sector, polygon_from_json,
                      polygon_to_json, random_polygon, regular,
                      sector_length_lower_bound, sectors)

__version__ = "0.1.0"
