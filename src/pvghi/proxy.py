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
  extraterrestrial irradiance, the zenith cosine, DISC's air mass and
  clear-sky transmittance and the ambient temperature; per plane the
  incidence cosine and the IAM factor; and the site's albedo (its
  pressure is folded into the air mass).
- ``proxy_matrix(ghi, chain)`` is the GHI stage. It splits GHI with
  ``disc_dni`` and ``dhi_from`` once per call, then runs transposition,
  IAM, temperature and efficiency in one in-place pass over a block of
  planes at a time, PLANE_BLOCK_CELLS (plane, row) cells at most; there
  are no separate functions for these layers. Every operation keeps the
  operands and the order of evaluation of the layer-by-layer chain, so
  the result equals that chain's bit for bit.

Everything is elementwise in time: ``ForwardChain.rows`` restricts a
chain to some timesteps, and its proxies equal the matching rows of the
full chain's bit for bit. The sensitivity of the output to GHI is
therefore a per-timestep forward difference. There is no night rule:
GHI 0 gives exactly +0.0 on every row at finite temperatures.
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
PLANE_BLOCK_CELLS = 2**15  # (plane, row) cells per block of proxy_matrix's pass


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
class ProxyMatrix:
    """T x n_p matrix of simulated specific power, one column per orientation."""

    values: np.ndarray


_FIELDS_IN_TIME = ("disc_ok", "e0", "cos_zen", "am", "knc", "t_ambient", "cos_aoi", "iam")


@dataclass(frozen=True)
class ForwardChain:
    """The GHI-independent inputs of the chain for T timesteps and K planes.

    Per-timestep arrays have shape (T,); per-plane arrays have shape
    (K, T), one contiguous row per plane. No field marks night.
    """

    disc_ok: np.ndarray     # zenith below DISC_ZENITH_CUTOFF
    e0: np.ndarray          # extraterrestrial normal irradiance, W/m^2
    cos_zen: np.ndarray     # cos(zenith) floored at cos(DISC_ZENITH_CUTOFF), > 0
    am: np.ndarray          # pressure-corrected air mass, capped at 12; 1 past the cutoff
    knc: np.ndarray         # DISC clear-sky beam transmittance at ``am``
    t_ambient: np.ndarray   # degC
    cos_aoi: np.ndarray     # max(cos(angle of incidence), 0)
    iam: np.ndarray         # beam reflection-loss factor
    tilt: np.ndarray        # (K,) plane tilts, radians
    params: ProxyParams
    albedo: float

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
        disc_ok=disc_ok,
        e0=e0,
        cos_zen=np.maximum(np.cos(zenith), np.cos(DISC_ZENITH_CUTOFF)),
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

    Returns 0 for zero GHI or zenith at or beyond 87 deg, else DISC at the
    chain's floored zenith cosine, clamped to [0, extraterrestrial normal].
    """
    ghi = np.asarray(ghi, dtype=float)
    usable = (ghi > 0) & chain.disc_ok
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        kt_norm = chain.e0 * chain.cos_zen
        kt = np.clip(ghi / kt_norm, 0.0, 1.0)
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
    """Diffuse horizontal irradiance left after removing the beam share, +0.0 at
    GHI 0; the floored cosine cannot move it, as the beam is 0 past the cutoff."""
    return np.maximum(np.asarray(ghi, float) - chain.cos_zen * np.asarray(dni, float), 0.0)


def proxy_matrix(ghi: np.ndarray, chain: ForwardChain) -> ProxyMatrix:
    """Simulated specific power for every plane of the chain at the given GHI.

    ``ghi`` holds one value per timestep of the chain. A negative value
    is an InputError; NaN passes through. GHI 0 gives exactly +0.0.

    DISC, the diffuse split and the plane-independent terms of
    Hay-Davies are computed once per call. Blocks of planes then run
    transposition, IAM, temperature and efficiency in one in-place pass
    over three (planes, rows) scratch arrays, each plane's tilt terms a
    column, and write their columns of the C-ordered (rows, planes)
    ``values``. A block holds at most PLANE_BLOCK_CELLS cells (one plane
    at least), so its scratch stays in cache. With GHI >= 0 the beam,
    diffuse and ground components cannot be negative, so none is clamped.
    """
    ghi = np.asarray(ghi, dtype=float)
    if ghi.shape[0] != len(chain.e0):
        raise InputError("ghi length does not match the chain's timesteps")
    if (ghi < 0).any():
        raise InputError("ghi must not be negative")
    p = chain.params
    dni = disc_dni(ghi, chain)
    dhi = dhi_from(ghi, chain, dni)
    beam_share = np.clip(dni / chain.e0, 0.0, 1.0)  # Hay-Davies anisotropy index
    sky_share = 1.0 - beam_share
    reflected = chain.albedo * ghi
    # one scalar cosine per plane, as the per-plane chain takes it
    cos_tilt = np.array([np.cos(tilt) for tilt in chain.tilt]).reshape(-1, 1)
    n_rows, n_planes = len(ghi), len(chain.tilt)
    values = np.empty((n_rows, n_planes))
    block = max(1, PLANE_BLOCK_CELLS // max(n_rows, 1))
    scratch = np.empty((3, min(block, n_planes), n_rows))
    for j0 in range(0, n_planes, block):
        planes = slice(j0, j0 + block)
        cos_aoi, iam, ct = chain.cos_aoi[planes], chain.iam[planes], cos_tilt[planes]
        a, b, c = scratch[:, : len(ct)]
        # diffuse dhi * (beam_share * r_b + sky_share * (1 + cos_tilt) / 2),
        # with r_b = cos_aoi / cos_zen, the chain's floored cosine
        np.divide(cos_aoi, chain.cos_zen, out=a)
        np.multiply(beam_share, a, out=a)
        np.multiply(sky_share, (1.0 + ct) / 2.0, out=b)
        np.add(a, b, out=a)
        np.multiply(dhi, a, out=a)
        # plus ground reflection albedo * ghi * (1 - cos_tilt) / 2
        np.multiply(reflected, 1.0 - ct, out=b)
        np.divide(b, 2.0, out=b)
        np.add(a, b, out=a)
        # beam reflection losses: iam * dni * cos_aoi + 0.95 * (diffuse + ground)
        np.multiply(0.95, a, out=a)
        np.multiply(dni, cos_aoi, out=b)
        np.multiply(iam, b, out=b)
        np.add(b, a, out=a)
        # cell temperature derate, the cell hotter than ambient by phi * irradiance
        np.multiply(p.phi, a, out=b)
        np.add(chain.t_ambient, b, out=b)
        np.subtract(b, p.t_ref, out=b)
        np.multiply(p.gamma, b, out=b)
        np.add(1.0, b, out=b)
        np.multiply(a, b, out=a)
        np.maximum(a, 0.0, out=a)
        # efficiency k2 + k3 ln(r) + k4 ln(r)^2, clipped to [0, 1], zero below I_MIN
        np.maximum(a, 1e-12, out=b)
        np.divide(b, p.i_stc, out=b)
        np.log(b, out=b)
        np.multiply(p.k4, b, out=c)
        np.multiply(c, b, out=c)
        np.multiply(p.k3, b, out=b)
        np.add(p.k2, b, out=b)
        np.add(b, c, out=b)
        np.clip(b, 0.0, 1.0, out=b)
        np.copyto(b, 0.0, where=a < I_MIN)
        np.multiply(b, a, out=values[:, planes].T)
    return ProxyMatrix(values=values)
