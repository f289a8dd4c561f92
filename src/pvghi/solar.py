"""Sun position, incidence geometry, air mass and clear-sky irradiance.

Angle conventions: solar azimuth is measured from north, increasing
clockwise through east, in radians; zenith is the angle from the local
vertical. Module orientations use the same azimuth convention for the
surface normal. All positions are geometric (no refraction correction),
which is well inside the 0.2 deg accuracy budget of the downstream
2-5 deg angular bins.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import InputError, Site

SOLAR_CONSTANT = 1367.0  # W/m^2
AIRMASS_NIGHT = np.inf  # sentinel for sun below horizon


@dataclass(frozen=True)
class SolarPosition:
    """Sun angles in radians; fields may be scalars or aligned arrays."""

    azimuth: np.ndarray
    zenith: np.ndarray

    @property
    def daytime(self) -> np.ndarray:
        return self.zenith < np.pi / 2


@dataclass(frozen=True)
class Orientation:
    """Module plane: tilt from horizontal and surface azimuth, radians."""

    tilt: float
    azimuth: float

    def __post_init__(self):
        if not 0.0 <= self.tilt <= np.pi / 2 + 1e-12:
            raise InputError(f"tilt out of range: {self.tilt}")


def _julian_day(timestamps: np.ndarray) -> np.ndarray:
    seconds = np.asarray(timestamps, dtype="datetime64[s]").astype("int64")
    return seconds / 86400.0 + 2440587.5


def day_of_year(timestamps: np.ndarray) -> np.ndarray:
    ts = np.asarray(timestamps, dtype="datetime64[s]")
    return (ts.astype("datetime64[D]") - ts.astype("datetime64[Y]")).astype(int) + 1


def sun_positions(timestamps: np.ndarray, site: Site) -> SolarPosition:
    """Vectorized solar position from the NOAA low-precision ephemeris.

    Based on the truncated Meeus series used by the NOAA solar
    calculator; agrees with independent high-accuracy algorithms to well
    under 0.2 deg over 1990-2030.
    """
    jd = _julian_day(timestamps)
    jc = (jd - 2451545.0) / 36525.0

    gml = np.deg2rad(np.mod(280.46646 + jc * (36000.76983 + 0.0003032 * jc), 360.0))
    gma = np.deg2rad(357.52911 + jc * (35999.05029 - 0.0001537 * jc))
    ecc = 0.016708634 - jc * (0.000042037 + 0.0000001267 * jc)

    eq_center = np.deg2rad(
        np.sin(gma) * (1.914602 - jc * (0.004817 + 0.000014 * jc))
        + np.sin(2 * gma) * (0.019993 - 0.000101 * jc)
        + np.sin(3 * gma) * 0.000289
    )
    true_long = gml + eq_center
    omega = np.deg2rad(125.04 - 1934.136 * jc)
    app_long = true_long - np.deg2rad(0.00569 + 0.00478 * np.sin(omega))

    mean_obl = np.deg2rad(
        23.0
        + (26.0 + (21.448 - jc * (46.815 + jc * (0.00059 - jc * 0.001813))) / 60.0)
        / 60.0
    )
    obliquity = mean_obl + np.deg2rad(0.00256 * np.cos(omega))

    declination = np.arcsin(np.sin(obliquity) * np.sin(app_long))

    y = np.tan(obliquity / 2.0) ** 2
    eot_min = 4.0 * np.rad2deg(
        y * np.sin(2 * gml)
        - 2.0 * ecc * np.sin(gma)
        + 4.0 * ecc * y * np.sin(gma) * np.cos(2 * gml)
        - 0.5 * y * y * np.sin(4 * gml)
        - 1.25 * ecc * ecc * np.sin(2 * gma)
    )

    seconds = np.asarray(timestamps, dtype="datetime64[s]").astype("int64")
    minutes_utc = (seconds % 86400) / 60.0
    tst = np.mod(minutes_utc + eot_min + 4.0 * site.longitude, 1440.0)
    hour_angle = np.deg2rad(tst / 4.0 - 180.0)

    lat = np.deg2rad(site.latitude)
    cos_zen = np.sin(lat) * np.sin(declination) + np.cos(lat) * np.cos(
        declination
    ) * np.cos(hour_angle)
    zenith = np.arccos(np.clip(cos_zen, -1.0, 1.0))

    azimuth = np.mod(
        np.pi
        + np.arctan2(
            np.sin(hour_angle),
            np.cos(hour_angle) * np.sin(lat) - np.tan(declination) * np.cos(lat),
        ),
        2 * np.pi,
    )
    return SolarPosition(azimuth=azimuth, zenith=zenith)


def extraterrestrial_normal(doy) -> np.ndarray:
    """Normal-incidence extraterrestrial irradiance for a day of year."""
    doy = np.asarray(doy)
    if np.any(doy < 1) or np.any(doy > 366):
        raise InputError("day_of_year outside [1, 366]")
    return SOLAR_CONSTANT * (1.0 + 0.033 * np.cos(2.0 * np.pi * doy / 365.0))


def angle_of_incidence(sp: SolarPosition, orientation: Orientation) -> np.ndarray:
    """Angle between the sun ray and the surface normal, in [0, pi].

    The cosine is clamped before arccos to stay safe at grazing
    alignments.
    """
    cos_aoi = np.cos(sp.zenith) * np.cos(orientation.tilt) + np.sin(sp.zenith) * np.sin(
        orientation.tilt
    ) * np.cos(sp.azimuth - orientation.azimuth)
    return np.arccos(np.clip(cos_aoi, -1.0, 1.0))


def relative_airmass(zenith) -> np.ndarray:
    """Kasten-Young 1989 relative air mass; inf when the sun is down."""
    zenith = np.asarray(zenith, dtype=float)
    zdeg = np.rad2deg(zenith)
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        am = 1.0 / (
            np.cos(zenith) + 0.50572 * np.maximum(96.07995 - zdeg, 1e-9) ** -1.6364
        )
    return np.where(zdeg < 90.0, am, AIRMASS_NIGHT)


def clearsky_ghi(sp: SolarPosition, timestamps: np.ndarray, site: Site) -> np.ndarray:
    """Ineichen-Perez clear-sky GHI at the site's Linke turbidity and the sun
    positions ``sp`` of ``timestamps``; 0 at night."""
    e0 = extraterrestrial_normal(day_of_year(timestamps))
    am = relative_airmass(sp.zenith)
    h = site.altitude
    fh1 = np.exp(-h / 8000.0)
    fh2 = np.exp(-h / 1250.0)
    cg1 = 5.09e-5 * h + 0.868
    cg2 = 3.92e-5 * h + 0.0387
    with np.errstate(invalid="ignore", over="ignore"):
        ghi = (
            cg1
            * e0
            * np.cos(sp.zenith)
            * np.exp(-cg2 * am * (fh1 + fh2 * (site.linke_turbidity - 1.0)))
            * np.exp(0.01 * am**1.8)
        )
    return np.where(np.isfinite(am) & (ghi > 0), ghi, 0.0)


def site_sky(
    ghi_clear, timestamps: np.ndarray, site: Site
) -> tuple[SolarPosition, np.ndarray, np.ndarray]:
    """The sun positions of ``timestamps``, their clear sky and the modelled rows.

    The clear sky is ``ghi_clear`` as floats, one per timestep, or the
    site's ``clearsky_ghi`` for None, checked where the sun is up: a
    daytime value that is not finite and >= 0 is an InputError, as it
    would make a plausible-looking wrong GHI; night values are free. The
    modelled rows, a boolean mask, are the timesteps with the sun up and
    a clear sky > 0: ``identify`` fits them and ``estimate`` solves them.
    """
    sp = sun_positions(timestamps, site)
    if ghi_clear is None:
        ghi_clear = clearsky_ghi(sp, timestamps, site)
    ghi_clear = np.asarray(ghi_clear, dtype=float)
    if ghi_clear.shape != np.shape(sp.zenith):
        raise InputError(f"clear-sky GHI has {ghi_clear.size} values for {len(sp.zenith)} steps")
    day = ghi_clear[sp.daytime]
    bad = int((~((day >= 0) & (day < np.inf))).sum())
    if bad:
        raise InputError(f"clear-sky GHI: {bad} daytime value(s) not finite and >= 0")
    return sp, ghi_clear, sp.daytime & (ghi_clear > 0)
