"""Forward model from GHI to per-orientation specific PV power.

The chain per timestep and orientation is: split GHI into direct and
diffuse (DISC), project onto the tilted plane (Hay-Davies with ground
reflection), correct the beam for reflection losses (ASHRAE incidence
angle modifier), derate for cell temperature, and apply the combined
module+inverter efficiency curve. The result is a specific power in
W/m^2; multiplying by a plant's coefficient vector (m^2) gives watts.

The chain runs in two stages:

- ``forward_chain`` computes, once per set of timesteps and planes,
  every input that does not depend on GHI: per timestep the
  extraterrestrial irradiance, the zenith cosines, DISC's air mass and
  clear-sky transmittance and the ambient temperature; per plane the
  incidence cosine and the IAM factor; and the site's albedo (its
  pressure is folded into the air mass).
- ``proxy_matrix(ghi, chain)`` is the GHI stage. Its layer functions
  (``disc_dni``, ``dhi_from``, ``transpose_hay_davies``, ``apply_iam``,
  ``apply_temperature``, ``efficiency``) read their geometric inputs
  from the chain. The chain caches exactly the sub-expressions these
  layers would otherwise recompute, so caching changes no bit.

Everything is elementwise in time: ``ForwardChain.rows`` restricts a
chain to some timesteps, and its proxies equal the matching rows of the
full chain's bit for bit. The sensitivity of the output to GHI is
therefore a per-timestep forward difference.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

import numpy as np

from .data import InputError, Site, check_settings
from .solar import (
    SolarPosition,
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
        check_settings(self, (
            *((f.name, -np.inf < getattr(self, f.name) < np.inf, "finite") for f in fields(self)),
            ("i_stc", 0.0 < self.i_stc, "positive"),
        ))


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


_FIELDS_IN_TIME = (
    "daytime", "disc_ok", "e0", "cos_zen", "cos_zen_floor", "kt_norm", "am", "knc",
    "t_ambient", "cos_aoi", "iam",
)


@dataclass(frozen=True)
class ForwardChain:
    """The GHI-independent inputs of the chain for T timesteps and K planes.

    Per-timestep arrays have shape (T,); per-plane arrays have shape
    (K, T), one contiguous row per plane.
    """

    daytime: np.ndarray     # sun above the horizon; other rows give zero power
    disc_ok: np.ndarray     # zenith below DISC_ZENITH_CUTOFF
    e0: np.ndarray          # extraterrestrial normal irradiance, W/m^2
    cos_zen: np.ndarray     # cos(zenith)
    cos_zen_floor: np.ndarray  # max(cos(zenith), cos(cutoff))
    kt_norm: np.ndarray     # e0 * cos_zen_floor, the clearness-index scale
    am: np.ndarray          # pressure-corrected air mass, capped at 12; 1 past the cutoff
    knc: np.ndarray         # DISC clear-sky beam transmittance at ``am``
    t_ambient: np.ndarray   # degC
    cos_aoi: np.ndarray     # max(cos(angle of incidence), 0)
    iam: np.ndarray         # beam reflection-loss factor
    tilt: np.ndarray        # (K,) plane tilts, radians
    params: ProxyParams
    albedo: float

    @property
    def n_rows(self) -> int:
        return len(self.daytime)

    def rows(self, idx: np.ndarray) -> ForwardChain:
        """The chain restricted to the timesteps ``idx`` (integer indices)."""
        return replace(
            self,
            **{name: np.take(getattr(self, name), idx, axis=-1) for name in _FIELDS_IN_TIME},
        )


def pressure_at_altitude(altitude_m: float) -> float:
    """Barometric pressure, Pa, for the standard atmosphere."""
    return SEA_LEVEL_PRESSURE * (1.0 - 2.25577e-5 * altitude_m) ** 5.25588


def incidence_modifier(aoi, params: ProxyParams):
    """Beam reflection-loss factor in [0, 1] (ASHRAE secant form)."""
    aoi = np.asarray(aoi, dtype=float)
    capped = np.minimum(aoi, np.pi / 2 - 1e-9)
    raw = 1.0 - params.k1 * (1.0 / np.cos(capped) - 1.0)
    iam = np.clip(raw, 0.0, 1.0)
    return np.where(aoi < np.pi / 2, iam, 0.0)


def forward_chain(
    sp: SolarPosition,
    timestamps: np.ndarray,
    t_ambient: np.ndarray,
    orientations,
    params: ProxyParams,
    site: Site,
) -> ForwardChain:
    """Everything the chain needs besides GHI, for these timesteps and planes.

    The air pressure (from the altitude) and the ground albedo come from
    the site, so every caller evaluates the same chain.
    """
    zenith = np.asarray(sp.zenith, dtype=float)
    t_ambient = np.asarray(t_ambient, dtype=float)
    if not len(zenith) == len(timestamps) == len(t_ambient):
        raise InputError("sun positions, timestamps and temperature differ in length")
    e0 = extraterrestrial_normal(day_of_year(timestamps))
    cos_zen = np.cos(zenith)
    cos_zen_floor = np.maximum(cos_zen, np.cos(DISC_ZENITH_CUTOFF))
    disc_ok = zenith < DISC_ZENITH_CUTOFF
    am_rel = np.where(disc_ok, relative_airmass(zenith), 1.0)
    am = np.minimum(am_rel * pressure_at_altitude(site.altitude) / SEA_LEVEL_PRESSURE, 12.0)
    knc = 0.866 - 0.122 * am + 0.0121 * am * am - 0.000653 * am**3 + 1.4e-5 * am**4

    cos_aoi = np.empty((len(orientations), len(zenith)))
    iam = np.empty_like(cos_aoi)
    for j, orient in enumerate(orientations):
        aoi = angle_of_incidence(sp, orient)
        cos_aoi[j] = np.maximum(np.cos(aoi), 0.0)
        iam[j] = incidence_modifier(aoi, params)
    return ForwardChain(
        daytime=sp.daytime,
        disc_ok=disc_ok,
        e0=e0,
        cos_zen=cos_zen,
        cos_zen_floor=cos_zen_floor,
        kt_norm=e0 * cos_zen_floor,
        am=am,
        knc=knc,
        t_ambient=t_ambient,
        cos_aoi=cos_aoi,
        iam=iam,
        tilt=np.array([o.tilt for o in orientations], dtype=float),
        params=params,
        albedo=site.albedo,
    )


def disc_dni(ghi, chain: ForwardChain):
    """Direct normal irradiance from GHI via the DISC regression model.

    Returns 0 for zero GHI or zenith at or beyond 87 deg; output is
    clamped to [0, extraterrestrial normal].
    """
    ghi = np.asarray(ghi, dtype=float)
    usable = (ghi > 0) & chain.disc_ok
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        kt = np.clip(ghi / chain.kt_norm, 0.0, 1.0)
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
        delta_kn = a + b * np.exp(c * chain.am)
        dni = (chain.knc - delta_kn) * chain.e0
    dni = np.clip(dni, 0.0, chain.e0)
    return np.where(usable, dni, 0.0)


def dhi_from(ghi, chain: ForwardChain, dni):
    """Diffuse horizontal irradiance left after removing the beam share."""
    return np.maximum(np.asarray(ghi, float) - chain.cos_zen * np.asarray(dni, float), 0.0)


def transpose_hay_davies(ghi, dhi, dni, chain: ForwardChain, plane: int) -> IrradianceComponents:
    """Project horizontal irradiance onto the chain's plane ``plane``.

    Beam by incidence-angle projection, diffuse by the Hay-Davies
    anisotropy blend, ground reflection isotropic with the site's
    albedo. The beam ratio denominator is floored at cos(87 deg) to
    avoid the horizon blow-up.
    """
    ghi = np.asarray(ghi, float)
    dhi = np.asarray(dhi, float)
    dni = np.asarray(dni, float)
    cos_tilt = np.cos(chain.tilt[plane])
    cos_aoi = chain.cos_aoi[plane]
    i_b = dni * cos_aoi
    i_g = chain.albedo * ghi * (1.0 - cos_tilt) / 2.0
    anisotropy = np.clip(dni / chain.e0, 0.0, 1.0)
    r_b = cos_aoi / chain.cos_zen_floor
    iso = (1.0 + cos_tilt) / 2.0
    i_d = dhi * (anisotropy * r_b + (1.0 - anisotropy) * iso)
    return IrradianceComponents(
        dni=dni,
        dhi=dhi,
        i_b=np.maximum(i_b, 0.0),
        i_d=np.maximum(i_d, 0.0),
        i_g=np.maximum(i_g, 0.0),
    )


def apply_iam(components: IrradianceComponents, iam):
    """Combine plane-of-array components with the beam's reflection losses."""
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


def proxy_matrix(ghi: np.ndarray, chain: ForwardChain) -> ProxyMatrix:
    """Simulated specific power for every plane of the chain at the given GHI.

    ``ghi`` must be non-negative and one value per timestep of the
    chain. Rows at night are zero.
    """
    ghi = np.asarray(ghi, dtype=float)
    if ghi.shape[0] != chain.n_rows:
        raise InputError("ghi length does not match the chain's timesteps")
    dni = disc_dni(ghi, chain)
    dhi = dhi_from(ghi, chain, dni)
    values = np.empty((len(ghi), len(chain.tilt)))
    for j in range(len(chain.tilt)):
        comp = transpose_hay_davies(ghi, dhi, dni, chain, j)
        i_aoi = apply_iam(comp, chain.iam[j])
        i_aoit = apply_temperature(i_aoi, chain.t_ambient, chain.params)
        values[:, j] = efficiency(i_aoit, chain.params) * i_aoit
    values[~chain.daytime, :] = 0.0
    return ProxyMatrix(values=values)
