"""Numerical laboratory for mean curvature flow with a free boundary.

Surfaces evolve by mean curvature inside a mean-convex container and meet
its boundary orthogonally.  The package provides the support-surface tubular
chart, discrete graph geometry, a Runge-Kutta-Legendre (RKL2) flow solver,
Gaussian-density and energy monitors, parabolic rescalings, and a scenario
driven CLI.
"""

__version__ = "0.1.0"

from .analytic import AnalyticSurface, FieldSample
from .errors import FbmcfError
from .flow import FlowConfig, Trajectory, exact_surface, exact_trajectory, run, step
from .geometry import GraphSurface, gauss_bonnet_identity, integrate, perimeter
from .monitors import (
    DensityQuery,
    boundary_density_value,
    energy,
    interior_density_value,
    monotonicity_report,
    self_shrinker_residual,
    singular_set_scan,
)
from .rescaling import normalized_frame, parabolic_rescale, planarity_multiplicity
from .support import SupportPatch, project_and_distance, reflect, tubular_map

__all__ = [
    "AnalyticSurface", "DensityQuery", "FieldSample", "FlowConfig",
    "FbmcfError", "GraphSurface", "SupportPatch", "Trajectory",
    "boundary_density_value", "energy", "exact_surface", "exact_trajectory",
    "gauss_bonnet_identity", "integrate", "interior_density_value",
    "monotonicity_report", "normalized_frame", "parabolic_rescale",
    "perimeter", "planarity_multiplicity", "project_and_distance", "reflect",
    "run", "self_shrinker_residual", "singular_set_scan", "step",
    "tubular_map",
]
