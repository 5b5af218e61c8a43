"""Plane bipartite trees, their Shabat polynomials in Zapponi normalization,
and the dynamics, rendering, and dimension estimation of the resulting Julia
sets."""

from .catalog import (CatalogConfig, CatalogRecord, Store, analyze_tree,
                      report, run_catalog, run_series, series_tree)
from .dynamics import (CriticalOrbitFate, DynamicsClassification, classify,
                       escape_radius, iterate_orbit)
from .fractal import (DimensionEstimate, FractalError, Raster, box_dim,
                      julia_cloud, pressure_dim, render_basins, render_escape,
                      repelling_fixed_point)
from .plane_tree import (BLACK, WHITE, Passport, PlaneTree, PlaneTreeError,
                         enumerate_trees, invert_colors, mirror,
                         parse_plane_code, passport_of, plane_code,
                         symmetry_flags)
from .polynomial import (ComplexPoly, PolynomialError, RootCluster,
                         RootFindingError, derivative, evaluate, format_poly,
                         parse_poly, poly_from_roots, roots)
from .shabat import (ExhaustedError, NoZapponiFormError, PathLiftingError,
                     ShabatError, SZSolution, identify_tree, solve_passport,
                     solve_tree, zapponi_normalize)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
