"""Forward model from GHI to per-orientation specific PV power.

The chain per timestep and orientation is: split GHI into direct and
diffuse (DISC), project onto the tilted plane (Hay-Davies with ground
reflection), correct the beam for reflection losses (ASHRAE incidence
angle modifier), derate for cell temperature, and apply the combined
module+inverter efficiency curve. The result is a specific power in
W/m^2; multiplying by a plant's coefficient vector (m^2) gives watts.

Everything is pure and elementwise in time, so the sensitivity of the
output to GHI is a per-timestep forward difference.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import InputError, Site
from .solar import (
    SolarPosition,
    Orientation,
    angle_of_incidence,
    day_of_year,
    extraterrestrial_normal,
    relative_airmass,
)

DISC_ZENITH_CUTOFF = np.deg2rad(87.0)
SEA_LEVEL_PRESSURE = 101325.0
I_MIN = 10.0  # efficiency cutoff, W/m^2


@dataclass(frozen=True)
class ProxyParams:
    """Constants of the power chain (crystalline silicon defaults)."""

    k1: float = 0.05            # IAM coefficient
    phi: float = 3.14e-2        # cell heating, K m^2/W
    gamma: float = -4.3e-3      # power temperature coefficient, 1/K
    t_ref: float = 25.0         # reference cell temperature, degC
    i_stc: float = 1000.0       # reference irradiance, W/m^2
    k2: float = 0.942           # efficiency curve constant
    k3: float = -5.02e-2        # efficiency curve ln term
    k4: float = -3.77e-2        # efficiency curve ln^2 term

    def __post_init__(self):
        if self.i_stc <= 0:
            raise InputError("i_stc must be positive")


@dataclass(frozen=True)
class IrradianceComponents:
    """Beam, diffuse and ground-reflected irradiance on a tilted plane."""

    dni: np.ndarray
    dhi: np.ndarray
    i_b: np.ndarray
    i_d: np.ndarray
    i_g: np.ndarray


@dataclass(frozen=True)
class ProxyMatrix:
    """T x n_p matrix of simulated specific power, one column per orientation."""

    values: np.ndarray


def pressure_at_altitude(altitude_m: float) -> float:
    """Barometric pressure, Pa, for the standard atmosphere."""
    return SEA_LEVEL_PRESSURE * (1.0 - 2.25577e-5 * altitude_m) ** 5.25588


def disc_dni(ghi, sp: SolarPosition, doy, pressure: float = SEA_LEVEL_PRESSURE):
    """Direct normal irradiance from GHI via the DISC regression model.

    Returns 0 for zero GHI or zenith at or beyond 87 deg; output is
    clamped to [0, extraterrestrial normal].
    """
    ghi = np.asarray(ghi, dtype=float)
    zenith = np.asarray(sp.zenith, dtype=float)
    e0 = extraterrestrial_normal(doy)

    usable = (ghi > 0) & (zenith < DISC_ZENITH_CUTOFF)
    cos_zen = np.maximum(np.cos(zenith), np.cos(DISC_ZENITH_CUTOFF))
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        kt = np.clip(ghi / (e0 * cos_zen), 0.0, 1.0)

        am_rel = np.where(usable, relative_airmass(zenith), 1.0)
        am = np.minimum(am_rel * pressure / SEA_LEVEL_PRESSURE, 12.0)

        kt2 = kt * kt
        kt3 = kt2 * kt
        low = kt <= 0.6
        a = np.where(
            low,
            0.512 - 1.56 * kt + 2.286 * kt2 - 2.222 * kt3,
            -5.743 + 21.77 * kt - 27.49 * kt2 + 11.56 * kt3,
        )
        b = np.where(low, 0.37 + 0.962 * kt, 41.4 - 118.5 * kt + 66.05 * kt2 + 31.9 * kt3)
        c = np.where(
            low,
            -0.28 + 0.932 * kt - 2.048 * kt2,
            -47.01 + 184.2 * kt - 222.0 * kt2 + 73.81 * kt3,
        )
        delta_kn = a + b * np.exp(c * am)
        knc = (
            0.866
            - 0.122 * am
            + 0.0121 * am * am
            - 0.000653 * am**3
            + 1.4e-5 * am**4
        )
        dni = (knc - delta_kn) * e0
    dni = np.clip(dni, 0.0, e0)
    return np.where(usable, dni, 0.0)


def dhi_from(ghi, sp: SolarPosition, dni):
    """Diffuse horizontal irradiance left after removing the beam share."""
    return np.maximum(np.asarray(ghi, float) - np.cos(sp.zenith) * np.asarray(dni, float), 0.0)


def transpose_hay_davies(
    ghi, dhi, dni, sp: SolarPosition, orientation: Orientation, aoi, e0, albedo: float
) -> IrradianceComponents:
    """Project horizontal irradiance onto a tilted plane.

    Beam by incidence-angle projection (``aoi`` is the plane's angle of
    incidence at each timestep), diffuse by the Hay-Davies anisotropy
    blend, ground reflection isotropic with the given albedo. The beam
    ratio denominator is floored at cos(87 deg) to avoid the horizon
    blow-up.
    """
    ghi = np.asarray(ghi, float)
    dhi = np.asarray(dhi, float)
    dni = np.asarray(dni, float)
    cos_aoi = np.maximum(np.cos(aoi), 0.0)
    i_b = dni * cos_aoi
    i_g = albedo * ghi * (1.0 - np.cos(orientation.tilt)) / 2.0
    anisotropy = np.clip(dni / np.asarray(e0, float), 0.0, 1.0)
    r_b = cos_aoi / np.maximum(np.cos(sp.zenith), np.cos(DISC_ZENITH_CUTOFF))
    iso = (1.0 + np.cos(orientation.tilt)) / 2.0
    i_d = dhi * (anisotropy * r_b + (1.0 - anisotropy) * iso)
    return IrradianceComponents(
        dni=dni,
        dhi=dhi,
        i_b=np.maximum(i_b, 0.0),
        i_d=np.maximum(i_d, 0.0),
        i_g=np.maximum(i_g, 0.0),
    )


def incidence_modifier(aoi, params: ProxyParams):
    """Beam reflection-loss factor in [0, 1] (ASHRAE secant form)."""
    aoi = np.asarray(aoi, dtype=float)
    capped = np.minimum(aoi, np.pi / 2 - 1e-9)
    raw = 1.0 - params.k1 * (1.0 / np.cos(capped) - 1.0)
    iam = np.clip(raw, 0.0, 1.0)
    return np.where(aoi < np.pi / 2, iam, 0.0)


def apply_iam(components: IrradianceComponents, aoi, params: ProxyParams):
    """Combine plane-of-array components with reflection losses."""
    iam = incidence_modifier(aoi, params)
    return iam * components.i_b + 0.95 * (components.i_d + components.i_g)


def apply_temperature(i_aoi, t_ambient, params: ProxyParams):
    """Derate irradiance-equivalent power for cell temperature.

    The cell runs hotter than ambient in proportion to the absorbed
    irradiance; output scales linearly with the excess over the
    reference temperature.
    """
    i_aoi = np.asarray(i_aoi, dtype=float)
    t_cell = np.asarray(t_ambient, dtype=float) + params.phi * i_aoi
    return np.maximum(i_aoi * (1.0 + params.gamma * (t_cell - params.t_ref)), 0.0)


def efficiency(i_aoit, params: ProxyParams):
    """Combined module and inverter efficiency as a function of irradiance.

    Log-quadratic in the irradiance ratio, clamped to [0, 1], with a
    hard cutoff below I_MIN where the curve diverges.
    """
    i_aoit = np.asarray(i_aoit, dtype=float)
    safe = np.maximum(i_aoit, 1e-12)
    with np.errstate(divide="ignore", invalid="ignore"):
        ln_r = np.log(safe / params.i_stc)
        eta = params.k2 + params.k3 * ln_r + params.k4 * ln_r * ln_r
    eta = np.clip(eta, 0.0, 1.0)
    return np.where(i_aoit >= I_MIN, eta, 0.0)


def proxy_matrix(
    ghi: np.ndarray,
    sp: SolarPosition,
    timestamps: np.ndarray,
    t_ambient: np.ndarray,
    orientations,
    params: ProxyParams,
    site: Site,
) -> ProxyMatrix:
    """Simulated specific power for every orientation at the given GHI.

    ``ghi`` must be non-negative and as long as the timestamps. The air
    pressure (from the altitude) and the ground albedo come from the
    site, so every caller evaluates the same chain. Rows at night are
    zero.
    """
    ghi = np.asarray(ghi, dtype=float)
    if ghi.shape[0] != len(timestamps):
        raise InputError("ghi length does not match timestamps")
    doy = day_of_year(timestamps)
    e0 = extraterrestrial_normal(doy)
    t_ambient = np.asarray(t_ambient, dtype=float)
    dni = disc_dni(ghi, sp, doy, pressure_at_altitude(site.altitude))
    dhi = dhi_from(ghi, sp, dni)
    values = np.empty((len(ghi), len(orientations)))
    for j, orient in enumerate(orientations):
        aoi = angle_of_incidence(sp, orient)
        comp = transpose_hay_davies(ghi, dhi, dni, sp, orient, aoi, e0, site.albedo)
        i_aoi = apply_iam(comp, aoi, params)
        i_aoit = apply_temperature(i_aoi, t_ambient, params)
        values[:, j] = efficiency(i_aoit, params) * i_aoit
    values[~sp.daytime, :] = 0.0
    return ProxyMatrix(values=values)
