"""Planar constant-width bodies: Cheeger sets, Blaschke deformations, bounds."""
from __future__ import annotations

from .arcs import (ArcRegion, GeometryError, area, min_enclosing_circle,
                   minkowski_disk_sum, perimeter)
from .blaschke import (ArcCollapseError, AuxParams, DeformationTrajectory,
                       InvalidDeformation, TrajectoryStep, aux_F, aux_G, aux_H,
                       aux_U, deform, local_maximize, optimality_residual,
                       residual_norm, shape_derivative, trajectory_csv)
from .bounds import (BoundsRow, f2_argmax, F2, hmax_of_tau, lastestimate,
                     many_arc_inradius_floor, minr_worstcase,
                     pentagon_inradius_floor, table1, table1_check, table1_csv,
                     table_row, tau_of_h)
from .cheeger import (CheegerSolution, bisect_root, cheeger_radius,
                      cheeger_set, disk_cheeger_radius, inner_parallel,
                      triangle_closed_form, triangle_inner_area)
from .minarea import (MinAreaShape, band_of, ell, min_area, min_area_inverse,
                      profile, regular_inradius)
from .polygon import (ContactDeficitError, InvalidPolygon, ReuleauxPolygon,
                      Sector, TooManyContactsError, as_region, contact_points,
                      from_vertices, inradius_from_sector, polygon_from_json,
                      polygon_to_json, random_polygon, regular,
                      sector_length_lower_bound, sectors)

__version__ = "0.1.0"
