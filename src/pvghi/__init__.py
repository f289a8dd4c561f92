"""Estimate global horizontal irradiance from PV plant power measurements.

The package recovers a site's GHI time series from the AC power of one
or more nearby PV plants plus ambient temperature and coordinates. It
identifies each plant's module orientations and nominal powers without
metadata, reconciles multiple plants through shading-aware trust
weights and outlier gating, and solves the per-timestep inverse problem
against a physical power model.
"""

__version__ = "0.1.0"

from .data import AlignedDataset, InputError, PlantSeries, Site, align, load_plant_csv
from .solar import (
    Orientation,
    SolarPosition,
    angle_of_incidence,
    clearsky_ghi,
    extraterrestrial_normal,
    relative_airmass,
    sun_positions,
)
from .proxy import ForwardChain, ProxyMatrix, ProxyParams, forward_chain, proxy_matrix
from .orientation import (
    OmegaCoefficients,
    OrientationMesh,
    estimate_nominal_power,
    generate_mesh,
    identify,
    identify_omega,
    select_clear,
)
from .reconcile import (
    ShadowMap,
    build_shadow_map,
    smooth_threshold_map,
    trust_weights,
    tukey_gate_matrix,
)
from .solver import EstimationState, SolverConfig, estimate, init_ghi, refine_ghi
from .metrics import MetricReport, bias_std_daily, block_average, normalized_rmse
from .synth import CloudModel, PlantSpec, ShadowSector, SyntheticSpec, synthesize

__all__ = [
    "AlignedDataset",
    "CloudModel",
    "EstimationState",
    "ForwardChain",
    "InputError",
    "MetricReport",
    "OmegaCoefficients",
    "Orientation",
    "OrientationMesh",
    "PlantSeries",
    "PlantSpec",
    "ProxyMatrix",
    "ProxyParams",
    "ShadowMap",
    "ShadowSector",
    "Site",
    "SolarPosition",
    "SolverConfig",
    "SyntheticSpec",
    "align",
    "angle_of_incidence",
    "bias_std_daily",
    "block_average",
    "build_shadow_map",
    "clearsky_ghi",
    "estimate",
    "estimate_nominal_power",
    "extraterrestrial_normal",
    "forward_chain",
    "generate_mesh",
    "identify",
    "identify_omega",
    "init_ghi",
    "load_plant_csv",
    "normalized_rmse",
    "proxy_matrix",
    "refine_ghi",
    "relative_airmass",
    "select_clear",
    "smooth_threshold_map",
    "sun_positions",
    "synthesize",
    "trust_weights",
    "tukey_gate_matrix",
]
