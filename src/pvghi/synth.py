"""Closed-loop synthetic datasets with known ground truth.

The generator drives the same forward power chain used by the solver,
so a run with no noise, shading or curtailment is exactly recoverable.
Cloud cover is a first-order autoregressive process on a logit scale
whose output is rescaled and clipped to [0, 1]; the clipping saturates,
producing genuinely clear (attenuation exactly 1) and fully overcast
runs with a bimodal power distribution in between.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import AlignedDataset, InputError, PlantSeries, Site, parse_timestamp
from .proxy import ProxyParams, forward_chain, proxy_matrix
from .solar import clearsky_ghi, day_of_year, sun_positions


@dataclass(frozen=True)
class CloudModel:
    """Logit-scale AR(1) attenuation, rescaled and clipped to [0, 1].

    The defaults give persistent weather regimes with the sigmoid mostly
    saturated, so per-sun-position power distributions come out bimodal:
    a sharp clear mode at attenuation exactly 1 and a broad cloudy mode.
    """

    ar_coeff: float = 0.997       # per-step persistence
    sigma: float = 0.30           # innovation scale
    mean_logit: float = 2.0       # drift target; positive favors clear skies
    gain: float = 1.6             # rescale before clipping (saturates at 1)
    offset: float = -0.3

    def attenuation(self, n: int, rng: np.random.Generator) -> np.ndarray:
        x = np.empty(n)
        x[0] = self.mean_logit + self.sigma * rng.standard_normal()
        eps = self.sigma * rng.standard_normal(n)
        for t in range(1, n):
            x[t] = self.mean_logit + self.ar_coeff * (x[t - 1] - self.mean_logit) + eps[t]
        raw = 1.0 / (1.0 + np.exp(-x))
        return np.clip(self.gain * raw + self.offset, 0.0, 1.0)


@dataclass(frozen=True)
class ShadowSector:
    """Sun-position sector where a plant's output is attenuated."""

    azimuth_min_deg: float
    azimuth_max_deg: float
    zenith_min_deg: float = 0.0
    zenith_max_deg: float = 90.0
    attenuation: float = 0.5      # multiplier applied inside the sector
    day_min: int = 1              # day-of-year window (inclusive)
    day_max: int = 366


@dataclass(frozen=True)
class PlantSpec:
    plant_id: str
    fields: tuple  # of (Orientation, nominal power W)
    shadows: tuple = ()
    noise_rel: float = 0.0
    curtailment_w: float | None = None

    def __post_init__(self):
        for _, pnom in self.fields:
            if pnom <= 0:
                raise InputError(f"{self.plant_id}: nominal power must be positive")
        for s in self.shadows:
            if not 0.0 <= s.attenuation <= 1.0:
                raise InputError(f"{self.plant_id}: shadow attenuation out of [0,1]")


@dataclass(frozen=True)
class SyntheticSpec:
    plants: tuple
    cloud: CloudModel = field(default_factory=CloudModel)
    temperature_mean: float = 15.0
    temperature_amplitude: float = 8.0


@dataclass(frozen=True)
class SyntheticDataset:
    dataset: AlignedDataset
    ghi_true: np.ndarray
    clear_true: np.ndarray        # attenuation == 1 mask
    ghi_clear: np.ndarray
    attenuation: np.ndarray


def make_timestamps(start: str, days: float, step_seconds: int) -> np.ndarray:
    """UTC datetime64[s] stamps every ``step_seconds`` for ``days`` days.

    ``start`` is read like a CSV timestamp (``data.parse_timestamp``):
    a naive stamp is UTC and an explicit offset is converted.
    """
    t0 = np.datetime64(parse_timestamp(start), "s")
    n = int(days * 86400 / step_seconds)
    return t0 + np.arange(n) * np.timedelta64(step_seconds, "s")


def synthesize(
    spec: SyntheticSpec,
    site: Site,
    timestamps: np.ndarray,
    seed: int,
    params: ProxyParams = ProxyParams(),
    linke_turbidity: float = 3.0,
) -> SyntheticDataset:
    """Generate an aligned multi-plant dataset with known true GHI.

    True GHI is the clear-sky curve times the cloud attenuation. Plant
    power comes from the forward chain per field, scaled so the field's
    coefficient is nominal_power / (k2 * I_STC); shading sectors, then
    multiplicative noise, then the curtailment cap are applied in that
    order. Per-plant noise streams are seeded independently, so the
    output never depends on evaluation order.
    """
    timestamps = np.asarray(timestamps, dtype="datetime64[s]")
    rng = np.random.default_rng(seed)
    sp = sun_positions(timestamps, site)
    clear = clearsky_ghi(timestamps, site, linke_turbidity=linke_turbidity)
    att = spec.cloud.attenuation(len(timestamps), rng)
    ghi_true = clear * att
    ghi_true[~sp.daytime] = 0.0

    doy = day_of_year(timestamps)
    hour = (timestamps.astype("int64") % 86400) / 3600.0
    temp = spec.temperature_mean + spec.temperature_amplitude * np.sin(
        2 * np.pi * (hour - 9.0) / 24.0
    )

    az_deg = np.rad2deg(np.mod(sp.azimuth, 2 * np.pi))
    zen_deg = np.rad2deg(sp.zenith)

    plants = []
    plant_rngs = rng.spawn(len(spec.plants))
    for p_spec, p_rng in zip(spec.plants, plant_rngs):
        orientations = [o for o, _ in p_spec.fields]
        chain = forward_chain(sp, timestamps, temp, orientations, params, site)
        pr = proxy_matrix(ghi_true, chain).values
        coeffs = np.array(
            [pnom / (params.k2 * params.i_stc) for _, pnom in p_spec.fields]
        )
        power = pr @ coeffs
        for s in p_spec.shadows:
            inside = (
                (az_deg >= s.azimuth_min_deg)
                & (az_deg <= s.azimuth_max_deg)
                & (zen_deg >= s.zenith_min_deg)
                & (zen_deg <= s.zenith_max_deg)
                & (doy >= s.day_min)
                & (doy <= s.day_max)
            )
            power = np.where(inside, power * s.attenuation, power)
        if p_spec.noise_rel > 0:
            power = power * (1.0 + p_spec.noise_rel * p_rng.standard_normal(len(power)))
            power = np.maximum(power, 0.0)
        if p_spec.curtailment_w is not None:
            power = np.minimum(power, p_spec.curtailment_w)
        plants.append(
            PlantSeries(
                plant_id=p_spec.plant_id,
                timestamps=timestamps,
                power=power,
                temperature=temp.copy(),
            )
        )
    dataset = AlignedDataset(timestamps=timestamps, plants=tuple(plants), site=site)
    return SyntheticDataset(
        dataset=dataset,
        ghi_true=ghi_true,
        clear_true=(att >= 1.0) & sp.daytime,
        ghi_clear=clear,
        attenuation=att,
    )
