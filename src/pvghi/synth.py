"""Closed-loop synthetic datasets with known ground truth.

The generator drives the same forward power chain used by the solver,
so a run with no noise, shading or curtailment is exactly recoverable.
Cloud cover is a first-order autoregressive process on a logit scale
whose output is rescaled and clipped to [0, 1]; the clipping saturates,
producing genuinely clear (attenuation exactly 1) and fully overcast
runs with a bimodal power distribution in between.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from .data import AlignedDataset, InputError, PlantSeries, Site, check_settings, parse_timestamp
from .data import LAST_STAMP, LAST_STAMP_TEXT
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

    def __post_init__(self):
        check_settings(self, (
            *((f.name, -np.inf < getattr(self, f.name) < np.inf, "finite") for f in fields(self)),
            ("sigma", 0.0 <= self.sigma, ">= 0"),
        ))

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
    """Sun-position sector where a plant's output is attenuated.

    Each range is inclusive and its bounds finite and in order; a value
    out of range is a SettingError.
    """

    azimuth_min_deg: float
    azimuth_max_deg: float
    zenith_min_deg: float = 0.0
    zenith_max_deg: float = 90.0
    attenuation: float = 0.5      # multiplier applied inside the sector
    day_min: int = 1              # day-of-year window (inclusive)
    day_max: int = 366

    def __post_init__(self):
        inf = np.inf
        check_settings(self, (
            ("azimuth_min_deg", -inf < self.azimuth_min_deg < inf, "finite"),
            ("azimuth_max_deg", self.azimuth_min_deg <= self.azimuth_max_deg < inf,
             "finite and >= azimuth_min_deg"),
            ("zenith_min_deg", -inf < self.zenith_min_deg < inf, "finite"),
            ("zenith_max_deg", self.zenith_min_deg <= self.zenith_max_deg < inf,
             "finite and >= zenith_min_deg"),
            ("attenuation", 0.0 <= self.attenuation <= 1.0, "in [0, 1]"),
            ("day_min", -inf < self.day_min < inf, "finite"),
            ("day_max", self.day_min <= self.day_max < inf, "finite and >= day_min"),
        ))


@dataclass(frozen=True)
class PlantSpec:
    """One synthetic plant; a value out of range is a SettingError."""

    plant_id: str
    fields: tuple  # of (Orientation, nominal power W)
    shadows: tuple = ()
    noise_rel: float = 0.0
    curtailment_w: float | None = None

    def __post_init__(self):
        inf = np.inf
        check_settings(self, (
            ("fields", len(self.fields) > 0
             and all(0.0 < pnom < inf for _, pnom in self.fields),
             "one or more (orientation, nominal power) pairs, each power finite and positive"),
            ("noise_rel", 0.0 <= self.noise_rel < inf, "finite and >= 0"),
            ("curtailment_w", self.curtailment_w is None or 0.0 <= self.curtailment_w < inf,
             "None or finite and >= 0"),
        ))


@dataclass(frozen=True)
class SyntheticSpec:
    """Plants, clouds and a daily temperature sine; a temperature not finite is a SettingError."""

    plants: tuple
    cloud: CloudModel = field(default_factory=CloudModel)
    temperature_mean: float = 15.0
    temperature_amplitude: float = 8.0

    def __post_init__(self):
        names = ("temperature_mean", "temperature_amplitude")
        check_settings(self, ((n, -np.inf < getattr(self, n) < np.inf, "finite") for n in names))


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
    a naive stamp is UTC and an explicit offset is converted. The grid
    is ``grid_span``'s, which refuses a bad one before any stamp is made.
    """
    t0, n = grid_span(start, days, step_seconds)
    return np.datetime64(t0, "s") + np.arange(n) * np.timedelta64(int(step_seconds), "s")


def grid_span(start: str, days: float, step_seconds: int) -> tuple[int, int]:
    """The first stamp (seconds since 1970) and the length of ``make_timestamps``' grid.

    The length is int(days * 86400 / step_seconds). No array is made. In
    this order, an InputError names a ``start`` that ``parse_timestamp``
    cannot read, a ``step_seconds`` that is not a positive whole number,
    and a ``days`` that holds no sample (NaN among them) or runs past
    LAST_STAMP_TEXT, the last stamp ``read_series_csv`` reads back.
    """
    try:
        t0 = parse_timestamp(start)
    except (ValueError, OverflowError):
        raise InputError(f"start: bad timestamp {start!r}") from None
    if not (0 < step_seconds < np.inf and step_seconds % 1 == 0):
        raise InputError(f"step_seconds: must be a positive whole number, got {step_seconds!r}")
    try:
        count = days * 86400 / step_seconds
    except OverflowError:  # an integer too large for a float
        count = np.inf
    if not count >= 1:
        raise InputError(f"days: {days} holds no {step_seconds} s sample")
    if t0 + (np.floor(count) - 1) * step_seconds > LAST_STAMP:
        raise InputError(
            f"days: {days} from {start} runs past {LAST_STAMP_TEXT}, the last stamp pvghi reads"
        )
    return t0, int(count)


def synthesize(
    spec: SyntheticSpec,
    site: Site,
    timestamps: np.ndarray,
    seed: int,
    params: ProxyParams = ProxyParams(),
) -> SyntheticDataset:
    """Generate an aligned multi-plant dataset with known true GHI.

    True GHI is the clear-sky curve times the cloud attenuation. Plant
    power comes from the forward chain per field, scaled so the field's
    coefficient is nominal_power / (k2 * I_STC); shading sectors, then
    multiplicative noise, then the curtailment cap are applied in that
    order. Per-plant noise streams are seeded independently, so the
    output never depends on evaluation order. A seed below 0 or an empty
    ``timestamps`` is an InputError.
    """
    if seed < 0:
        raise InputError(f"seed: must be >= 0, got {seed}")
    timestamps = np.asarray(timestamps, dtype="datetime64[s]")
    if timestamps.size == 0:
        raise InputError("timestamps: empty grid, nothing to synthesize")
    rng = np.random.default_rng(seed)
    sp = sun_positions(timestamps, site)
    clear = clearsky_ghi(sp, timestamps, site)
    att = spec.cloud.attenuation(len(timestamps), rng)
    ghi_true = clear * att

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
